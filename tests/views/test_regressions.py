"""Failing-first regressions for the PR-10 commit-path retraction bugs.

Each of these reproduced against the PR-9 operators:

1. a top-k view retracting to an empty list was swallowed by
   ``CompiledView.apply``'s falsy check (``[]`` is falsy), so
   subscribers never learned the view drained;
2. ``GroupAggregate.apply`` (and ``TopK.apply``) mutated retraction
   memos *before* extracting fields from every row, so a delta with one
   malformed row left the operator partially applied — silently wrong
   forever after;
3. float sum/avg retraction used naive ``total -= value``, drifting
   from the full-scan oracle on long-lived groups (now Kahan–Neumaier
   compensated).

And one against the PR-17 operators:

4. staging extracted fields but never tried the value, so a committed
   ``None`` (or a ``str`` among numbers) raised a raw ``TypeError`` from
   inside the fold — ``TopK._rows`` held the key while the index did
   not, a ``sum`` was left half retracted — and took the commit path
   down with it (the runtime half of this regression is
   ``tests/integration/test_views.py::TestPoisonRow``).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.views import (
    TOMBSTONE,
    GroupAggregate,
    TopK,
    ViewError,
    ViewManager,
    ViewSpec,
    compile_spec,
)


class FakeStore:
    def __init__(self, rows=()):
        self._rows = dict(rows)

    def keys(self):
        return list(self._rows)

    def get(self, entity, key):
        state = self._rows.get((entity, key))
        return dict(state) if state is not None else None


class TestDrainedTopKPublishes:
    """Bug 1: ``return out if out else None`` swallowed the empty list."""

    def test_compiled_apply_returns_empty_list_on_drain(self):
        compiled = compile_spec(ViewSpec("t", "E", "top_k", field="v", k=2))
        compiled.apply({"a": {"v": 5}})
        out = compiled.apply({"a": TOMBSTONE})
        assert out == [], (
            "draining the last top-k row must emit [], not None")

    def test_subscriber_sees_the_drain(self):
        manager = ViewManager(FakeStore())
        manager.register(ViewSpec("t", "E", "top_k", field="v", k=2))
        updates = []
        manager.subscribe("t", updates.append)
        manager.on_commit(0, {("E", "a"): {"v": 5}}, at_ms=1.0)
        manager.on_commit(1, {("E", "a"): TOMBSTONE}, at_ms=2.0)
        assert len(updates) == 2
        drained = updates[-1]
        assert drained.value == [] and drained.delta == [], (
            "tombstoning the last row must push a ViewUpdate with []")

    def test_empty_aggregate_delta_still_collapses_to_none(self):
        """The fix must not start pushing no-op aggregate updates."""
        compiled = compile_spec(ViewSpec("c", "E", "count"))
        compiled.apply({"a": {"v": 1}})
        assert compiled.apply({"ghost": TOMBSTONE}) is None


class TestTwoPhaseApply:
    """Bug 2: a raising row must leave the operator exactly as it was."""

    def test_group_aggregate_raising_delta_is_a_no_op(self):
        agg = GroupAggregate("sum", group_of=lambda row: row["g"],
                             value_of=lambda row: row["v"])
        agg.apply({"a": {"g": 1, "v": 15}})
        before = agg.result()
        # "a" re-keys fine, "b" lacks the value field: before the fix the
        # retraction of "a" had already landed when "b" raised.
        with pytest.raises(KeyError):
            agg.apply({"a": {"g": 1, "v": 20}, "b": {"g": 1}})
        assert agg.result() == before == {1: 15}

    def test_compiled_view_raising_delta_is_a_no_op(self):
        compiled = compile_spec(
            ViewSpec("s", "E", "sum", field="v", group_by="g"))
        compiled.apply({"a": {"g": 1, "v": 15}})
        with pytest.raises(ViewError, match="missing from row"):
            compiled.apply({"a": {"g": 1, "v": 20}, "b": {"g": 1}})
        assert compiled.value() == {1: 15}

    def test_minmax_raising_delta_preserves_the_index(self):
        agg = GroupAggregate("min", value_of=lambda row: row["v"])
        agg.apply({"a": {"v": 3}, "b": {"v": 7}})
        with pytest.raises(KeyError):
            agg.apply({"a": {"v": 1}, "b": {}})
        assert agg.result() == {None: 3}
        agg.apply({"a": TOMBSTONE})  # the index must still retract cleanly
        assert agg.result() == {None: 7}

    def test_top_k_raising_delta_is_a_no_op(self):
        top = TopK(2, score_of=lambda row: row["v"])
        top.apply({"a": {"v": 5}, "b": {"v": 9}})
        before = top.result()
        with pytest.raises(KeyError):
            top.apply({"a": {"v": 7}, "b": {}})
        assert top.result() == before

    @given(st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_raising_delta_equals_pre_delta_oracle(self, seed):
        """From any reachable state: a delta whose last-extracted row
        raises leaves ``result()`` equal to the pre-delta oracle."""
        rng = random.Random(seed)
        agg = GroupAggregate("avg", group_of=lambda row: row["g"],
                             value_of=lambda row: row["v"])
        for _ in range(rng.randint(1, 6)):
            agg.apply({f"k{rng.randint(0, 5)}": {
                "g": rng.randint(0, 2), "v": rng.randint(-50, 50)}
                for _ in range(rng.randint(1, 4))})
        before = agg.result()
        poison = {f"k{i}": {"g": i % 3, "v": i} for i in range(3)}
        poison["kbad"] = {"g": 0}  # no value field
        with pytest.raises(KeyError):
            agg.apply(poison)
        assert agg.result() == before


class TestFloatRetractionDrift:
    """Bug 3: naive ``total -= value`` drifts; compensated accumulation
    must track ``math.fsum`` of the live contributions."""

    def test_catastrophic_cancellation_is_compensated(self):
        agg = GroupAggregate("sum", value_of=lambda row: row["v"])
        agg.apply({"small": {"v": 1.0}})
        agg.apply({"huge": {"v": 1e16}})
        agg.apply({"huge": TOMBSTONE})
        # Naive accumulation: (1.0 + 1e16) - 1e16 == 0.0.  Neumaier
        # keeps the swallowed 1.0 in the compensation term.
        assert agg.result() == {None: 1.0}

    @given(st.integers(0, 2**20))
    @settings(max_examples=8, deadline=None)
    def test_10k_float_ops_track_fsum(self, seed):
        """>=10k mixed-magnitude float updates/retractions: the
        maintained sum and avg stay within strict tolerance of the
        ``math.fsum`` oracle over the surviving contributions."""
        rng = random.Random(seed)
        total = GroupAggregate("sum", value_of=lambda row: row["v"])
        mean = GroupAggregate("avg", value_of=lambda row: row["v"])
        live = {}
        keys = [f"k{i}" for i in range(64)]
        for step in range(10_000):
            key = rng.choice(keys)
            if key in live and rng.random() < 0.3:
                delta = {key: TOMBSTONE}
                del live[key]
            else:
                value = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 12)
                delta = {key: {"v": value}}
                live[key] = value
            total.apply(delta)
            mean.apply(delta)
        oracle = math.fsum(live.values())
        got = total.result().get(None, 0)
        tolerance = max(1e-6, abs(oracle) * 1e-12)
        assert abs(got - oracle) <= tolerance
        if live:
            got_avg = mean.result()[None]
            want_avg = oracle / len(live)
            assert abs(got_avg - want_avg) <= \
                max(1e-6, abs(want_avg) * 1e-12)

    def test_integer_sums_stay_exactly_integral(self):
        """Compensation must not leak floats into int-only groups."""
        agg = GroupAggregate("sum", value_of=lambda row: row["v"])
        agg.apply({"a": {"v": 3}, "b": {"v": 4}})
        agg.apply({"a": TOMBSTONE})
        result = agg.result()[None]
        assert result == 4 and isinstance(result, int)


class TestPoisonValueIsStagedOut:
    """Bug 4: staging probes the operation the kind will perform, so a
    value it cannot use is a :class:`ViewError` raised before the first
    memo is touched."""

    @pytest.mark.parametrize("poison", [None, "seven", float("nan")])
    def test_top_k_memos_unchanged(self, poison):
        top = TopK(2, score_of=lambda row: row["v"])
        top.apply({"a": {"v": 5}, "b": {"v": 9}, "c": {"v": 1}})
        before = top.export_state()
        with pytest.raises(ViewError, match="key 'b'.*order"):
            top.apply({"a": {"v": 7}, "b": {"v": poison}})
        assert top.export_state() == before, (
            "rows and index must both be exactly as they were")
        rows = top.apply({"b": TOMBSTONE})  # and still retract cleanly
        assert [row["__key__"] for row in rows] == ["a", "c"]

    @pytest.mark.parametrize("poison", [None, "seven"])
    @pytest.mark.parametrize("kind", ["sum", "avg", "min", "max"])
    def test_group_aggregate_memos_unchanged(self, kind, poison):
        agg = GroupAggregate(kind, value_of=lambda row: row["v"])
        agg.apply({"a": {"v": 3}, "b": {"v": 5}, "c": {"v": 8}})
        before = agg.export_state()
        with pytest.raises(ViewError, match="key 'b'"):
            agg.apply({"a": {"v": 4}, "b": {"v": poison}})
        assert agg.export_state() == before
        agg.apply({"a": TOMBSTONE, "c": TOMBSTONE})
        assert agg.result() == {None: 5}

    def test_count_does_not_care(self):
        agg = GroupAggregate("count")
        assert agg.apply({"a": {"v": None}}) == {None: 1}
