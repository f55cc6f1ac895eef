"""Batteries for the PR-10 view language: min/max aggregates, two-entity
foreign-key delta-joins, and tumbling-window aggregates.

Same algebra as ``test_operator_properties``, pinned per kind:

- min/max: incremental ≡ recompute after every delta — *including*
  retraction of the current extremum, where the ordered index must
  reveal the runner-up without a rescan;
- delta-joins: inserts/updates/deletes on either side land on exactly
  the oracle over the joint folded state (inner-join semantics:
  unmatched primary rows are invisible);
- windows: the maintained per-window result equals an independent
  shadow model that tracks each key's last-commit time — the oracle a
  store scan cannot provide, because rows carry no timestamps.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.views import (
    TOMBSTONE,
    DeltaJoin,
    GroupAggregate,
    OrderedGroupIndex,
    ViewError,
    ViewSpec,
    WindowedAggregate,
    compile_spec,
    recompute,
)

# ---------------------------------------------------------------------------
# min/max


KEYS = st.sampled_from([f"k{i}" for i in range(6)])
ROWS = st.fixed_dictionaries({
    "g": st.integers(0, 2),
    "v": st.integers(-100, 100),
})
DELTAS = st.dictionaries(KEYS, st.one_of(st.just(TOMBSTONE), ROWS),
                         max_size=6)
SEQUENCES = st.lists(DELTAS, max_size=8)


def _positive(row):
    return row["v"] > 0


MINMAX_SPECS = [
    ViewSpec("min", "E", "min", field="v"),
    ViewSpec("max", "E", "max", field="v"),
    ViewSpec("min-grouped", "E", "min", field="v", group_by="g"),
    ViewSpec("max-filtered", "E", "max", field="v", where=_positive),
]


def _fold_state(sequence):
    state = {}
    for delta in sequence:
        for key, row in delta.items():
            if row is TOMBSTONE:
                state.pop(key, None)
            else:
                state[key] = row
    return state


@given(st.integers(0, len(MINMAX_SPECS) - 1), SEQUENCES)
@settings(max_examples=120, deadline=None)
def test_minmax_incremental_equals_recompute(spec_id, sequence):
    spec = MINMAX_SPECS[spec_id]
    compiled = compile_spec(spec)
    for prefix_end in range(1, len(sequence) + 1):
        compiled.apply(sequence[prefix_end - 1])
        state = _fold_state(sequence[:prefix_end])
        assert compiled.value() == recompute(spec, state.items())


class TestExtremumRetraction:
    """The case the ordered index exists for: deleting (or moving) the
    current extremum must reveal the runner-up, not a stale value."""

    def test_deleting_the_minimum_reveals_the_runner_up(self):
        compiled = compile_spec(ViewSpec("m", "E", "min", field="v"))
        compiled.apply({"a": {"v": 3}, "b": {"v": 7}, "c": {"v": 5}})
        assert compiled.value() == 3
        out = compiled.apply({"a": TOMBSTONE})
        assert out == {None: 5}
        assert compiled.value() == 5

    def test_deleting_the_maximum_reveals_the_runner_up(self):
        compiled = compile_spec(ViewSpec("m", "E", "max", field="v"))
        compiled.apply({"a": {"v": 3}, "b": {"v": 7}, "c": {"v": 5}})
        out = compiled.apply({"b": TOMBSTONE})
        assert out == {None: 5}

    def test_moving_the_extremum_between_groups(self):
        compiled = compile_spec(
            ViewSpec("m", "E", "max", field="v", group_by="g"))
        compiled.apply({"a": {"g": 0, "v": 9}, "b": {"g": 0, "v": 2},
                        "c": {"g": 1, "v": 1}})
        out = compiled.apply({"a": {"g": 1, "v": 9}})
        assert out == {0: 2, 1: 9}

    def test_draining_a_group_tombstones_it(self):
        compiled = compile_spec(
            ViewSpec("m", "E", "min", field="v", group_by="g"))
        compiled.apply({"a": {"g": 0, "v": 4}})
        out = compiled.apply({"a": TOMBSTONE})
        assert out[0] is TOMBSTONE
        assert compiled.value() == {}

    def test_duplicate_scores_retract_the_right_entry(self):
        agg = GroupAggregate("min", value_of=lambda row: row["v"])
        agg.apply({"a": {"v": 5}, "b": {"v": 5}, "c": {"v": 9}})
        agg.apply({"a": TOMBSTONE})
        assert agg.result() == {None: 5}
        agg.apply({"b": TOMBSTONE})
        assert agg.result() == {None: 9}


class TestOrderedGroupIndex:
    def test_per_group_extremes(self):
        index = OrderedGroupIndex()
        index.add("g1", 5, "a")
        index.add("g1", 3, "b")
        index.add("g2", 7, "c")
        assert index.smallest("g1")[0] == 3
        assert index.largest("g1")[0] == 5
        assert index.smallest("g2")[0] == 7
        assert index.smallest("nope") is None

    def test_remove_drops_empty_groups(self):
        index = OrderedGroupIndex()
        index.add("g", 1, "a")
        index.remove("g", 1, "a")
        assert index.smallest("g") is None
        assert len(index) == 0

    def test_top_orders_highest_first_with_key_tiebreak(self):
        index = OrderedGroupIndex()
        for key, value in [("z", 5), ("a", 5), ("m", 9)]:
            index.add(None, value, key)
        assert [entry[2] for entry in index.top(None, 3)] == ["m", "a", "z"]


# ---------------------------------------------------------------------------
# delta-joins


CUSTOMERS = st.sampled_from(["c0", "c1", "c2"])
ORDER_ROWS = st.fixed_dictionaries({
    "customer_id": CUSTOMERS,
    "amount": st.integers(0, 50),
})
CUSTOMER_ROWS = st.fixed_dictionaries({"tier": st.integers(0, 2)})
ORDER_KEYS = st.sampled_from([f"o{i}" for i in range(5)])
ORDER_DELTAS = st.dictionaries(
    ORDER_KEYS, st.one_of(st.just(TOMBSTONE), ORDER_ROWS), max_size=4)
CUSTOMER_DELTAS = st.dictionaries(
    CUSTOMERS, st.one_of(st.just(TOMBSTONE), CUSTOMER_ROWS), max_size=3)
JOIN_SEQUENCES = st.lists(st.tuples(ORDER_DELTAS, CUSTOMER_DELTAS),
                          max_size=8)


def _premium(row):
    return row["Customer__tier"] > 0


JOIN_SPECS = [
    ViewSpec("joined-count", "Order", "count",
             join_entity="Customer", join_on="customer_id"),
    ViewSpec("amount-by-tier", "Order", "sum", field="amount",
             group_by="Customer__tier",
             join_entity="Customer", join_on="customer_id"),
    ViewSpec("premium-max", "Order", "max", field="amount",
             where=_premium, join_entity="Customer", join_on="customer_id"),
    ViewSpec("top2-joined", "Order", "top_k", field="amount", k=2,
             join_entity="Customer", join_on="customer_id"),
]


@given(st.integers(0, len(JOIN_SPECS) - 1), JOIN_SEQUENCES)
@settings(max_examples=100, deadline=None)
def test_join_incremental_equals_recompute(spec_id, sequence):
    """Insert/update/delete on either side, folded incrementally, lands
    on the oracle over the joint folded state after every step."""
    spec = JOIN_SPECS[spec_id]
    compiled = compile_spec(spec)
    for prefix_end in range(1, len(sequence) + 1):
        left_delta, right_delta = sequence[prefix_end - 1]
        compiled.apply_batch({"Order": left_delta,
                              "Customer": right_delta})
        left = _fold_state([left for left, _ in sequence[:prefix_end]])
        right = _fold_state([right for _, right in sequence[:prefix_end]])
        assert compiled.value() == recompute(
            spec, left.items(), join_items=right.items())


class TestDeltaJoin:
    def _join(self):
        return DeltaJoin(on="customer_id", prefix="Customer")

    def test_unmatched_primary_row_is_invisible(self):
        join = self._join()
        out = join.apply({"o1": {"customer_id": "c1", "amount": 5}}, {})
        assert out["o1"] is TOMBSTONE

    def test_partner_arrival_materializes_the_row(self):
        join = self._join()
        join.apply({"o1": {"customer_id": "c1", "amount": 5}}, {})
        out = join.apply({}, {"c1": {"tier": 2}})
        assert out["o1"] == {"customer_id": "c1", "amount": 5,
                             "Customer__tier": 2}

    def test_partner_deletion_retracts_every_referencing_row(self):
        join = self._join()
        join.apply({"o1": {"customer_id": "c1", "amount": 5},
                    "o2": {"customer_id": "c1", "amount": 7}},
                   {"c1": {"tier": 1}})
        out = join.apply({}, {"c1": TOMBSTONE})
        assert out["o1"] is TOMBSTONE and out["o2"] is TOMBSTONE
        assert join.result() == {}

    def test_fk_move_follows_the_new_partner(self):
        join = self._join()
        join.apply({"o1": {"customer_id": "c1", "amount": 5}},
                   {"c1": {"tier": 1}, "c2": {"tier": 2}})
        out = join.apply({"o1": {"customer_id": "c2", "amount": 5}}, {})
        assert out["o1"]["Customer__tier"] == 2

    def test_same_batch_insert_of_both_sides_joins(self):
        join = self._join()
        out = join.apply({"o1": {"customer_id": "c1", "amount": 5}},
                         {"c1": {"tier": 3}})
        assert out["o1"]["Customer__tier"] == 3

    def test_partner_change_fans_out_in_link_order(self):
        """The fan-out follows the order rows were linked, not a string
        hash, so the delta (and every memo filled from it) has the same
        key order in every process."""
        join = self._join()
        orders = [f"o{i}" for i in reversed(range(40))]
        join.apply({order: {"customer_id": "c1"} for order in orders}, {})
        assert list(join.apply({}, {"c1": {"tier": 1}})) == orders

    def test_missing_fk_field_raises_without_corruption(self):
        join = self._join()
        join.apply({"o1": {"customer_id": "c1", "amount": 5}},
                   {"c1": {"tier": 1}})
        before = join.result()
        with pytest.raises(ViewError, match="foreign-key"):
            join.apply({"o2": {"amount": 9}}, {})
        assert join.result() == before


class TestJoinSpecValidation:
    def test_join_on_required_with_join_entity(self):
        with pytest.raises(ViewError, match="join_on"):
            ViewSpec("v", "Order", "count",
                     join_entity="Customer").validated()

    def test_join_entity_required_with_join_on(self):
        with pytest.raises(ViewError, match="join_entity"):
            ViewSpec("v", "Order", "count",
                     join_on="customer_id").validated()


# ---------------------------------------------------------------------------
# tumbling windows


WINDOW_MS = 100.0
TIMES = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False,
                  allow_infinity=False)
TIMED_SEQUENCES = st.lists(st.tuples(DELTAS, TIMES), max_size=8)

WINDOW_SPECS = [
    ViewSpec("w-count", "E", "count", window_ms=WINDOW_MS),
    ViewSpec("w-sum", "E", "sum", field="v", window_ms=WINDOW_MS),
    ViewSpec("w-max", "E", "max", field="v", window_ms=WINDOW_MS),
    ViewSpec("w-avg-filtered", "E", "avg", field="v", where=_positive,
             window_ms=WINDOW_MS),
]


def _window_of(at_ms):
    return math.floor(at_ms / WINDOW_MS) * WINDOW_MS


def _shadow_value(spec, contributions):
    """Independent oracle over ``{key: (window, row)}`` — each key's
    latest surviving commit, grouped by its commit-time window."""
    grouped = {}
    for window, row in contributions.values():
        if spec.where is not None and not spec.where(row):
            continue
        grouped.setdefault(window, []).append(row.get("v"))
    out = {}
    for window, values in grouped.items():
        if spec.kind == "count":
            out[window] = len(values)
        elif spec.kind == "sum":
            out[window] = sum(values)
        elif spec.kind == "avg":
            out[window] = sum(values) / len(values)
        elif spec.kind == "min":
            out[window] = min(values)
        else:
            out[window] = max(values)
    return out


@given(st.integers(0, len(WINDOW_SPECS) - 1), TIMED_SEQUENCES)
@settings(max_examples=100, deadline=None)
def test_window_tracks_last_commit_time(spec_id, sequence):
    """Each key contributes to the window of its *latest* commit; a
    later commit moves the key (retracting the old window), a tombstone
    removes it.  Checked against the shadow model after every delta."""
    spec = WINDOW_SPECS[spec_id]
    compiled = compile_spec(spec)
    contributions = {}
    for delta, at_ms in sequence:
        compiled.apply(delta, at_ms=at_ms)
        for key, row in delta.items():
            if row is TOMBSTONE:
                contributions.pop(key, None)
            else:
                contributions[key] = (_window_of(at_ms), row)
        assert compiled.value() == _shadow_value(spec, contributions)


class TestWindowedAggregate:
    def test_keys_land_in_their_commit_window(self):
        compiled = compile_spec(
            ViewSpec("w", "E", "count", window_ms=100.0))
        compiled.apply({"a": {"v": 1}}, at_ms=50.0)
        compiled.apply({"b": {"v": 1}}, at_ms=250.0)
        assert compiled.value() == {0.0: 1, 200.0: 1}

    def test_recommit_moves_the_key_to_the_new_window(self):
        compiled = compile_spec(
            ViewSpec("w", "E", "sum", field="v", window_ms=100.0))
        compiled.apply({"a": {"v": 7}}, at_ms=50.0)
        out = compiled.apply({"a": {"v": 9}}, at_ms=350.0)
        assert out[0.0] is TOMBSTONE and out[300.0] == 9
        assert compiled.value() == {300.0: 9}

    def test_no_clock_collapses_to_window_zero(self):
        operator = WindowedAggregate("count", 100.0)
        operator.apply({"a": {"v": 1}})
        assert operator.result() == {0.0: 1}

    def test_window_ms_must_be_positive(self):
        with pytest.raises(ViewError, match="window_ms > 0"):
            ViewSpec("w", "E", "count", window_ms=0).validated()

    def test_windowed_top_k_rejected(self):
        with pytest.raises(ViewError, match="aggregate kind"):
            ViewSpec("w", "E", "top_k", field="v", k=3,
                     window_ms=10.0).validated()

    def test_windowed_group_by_rejected(self):
        with pytest.raises(ViewError, match="window is the group"):
            ViewSpec("w", "E", "count", group_by="g",
                     window_ms=10.0).validated()


class TestMinMaxSpecValidation:
    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_field_required(self, kind):
        with pytest.raises(ViewError, match="needs field="):
            ViewSpec("v", "E", kind).validated()
