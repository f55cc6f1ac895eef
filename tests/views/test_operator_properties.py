"""Property battery for incremental view maintenance.

The algebra the operators rely on, pinned with hypothesis:

1. delta-in/delta-out ≡ recompute-from-scratch — folding any sequence
   of write-footprint deltas into a plan lands on exactly the value a
   full scan of the resulting state computes (every kind: filtered and
   grouped aggregates including min/max, top-k);
2. compaction — applying the last-writer-wins compaction of a delta
   sequence equals applying the sequence (absolute states commute with
   compaction);
3. duplicate delivery — re-applying any delta is a no-op;
4. tombstones — deletions flow through group aggregates (bucket
   retraction, group tombstones) and top-k (index eviction + backfill)
   without drift;
5. build ≡ fold — ``hydrate`` builds each operator from the scan (one
   sort per ordered index) and must leave memos byte-equal, by pickle,
   to folding the scan in as one delta from empty: same values and
   types, same dict order, same Kahan compensation, for every spec
   here plus float-valued, windowed and joined ones.

Values are ints so ``avg`` equality is exact: both paths divide the
same integer total by the same integer count — except in the build
battery, whose byte equality needs no tolerance.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.views import TOMBSTONE, ViewSpec, compile_spec, recompute

KEYS = st.sampled_from([f"k{i}" for i in range(6)])
ROWS = st.fixed_dictionaries({
    "g": st.integers(0, 2),
    "v": st.integers(-100, 100),
})
#: One commit's write footprint: absolute post-states, or a tombstone.
DELTAS = st.dictionaries(
    KEYS, st.one_of(st.just(TOMBSTONE), ROWS), max_size=6)
SEQUENCES = st.lists(DELTAS, max_size=8)


def _positive(row):
    return row["v"] > 0


SPECS = [
    ViewSpec("count", "E", "count"),
    ViewSpec("count-filtered", "E", "count", where=_positive),
    ViewSpec("sum", "E", "sum", field="v"),
    ViewSpec("sum-grouped", "E", "sum", field="v", group_by="g"),
    ViewSpec("avg", "E", "avg", field="v"),
    ViewSpec("avg-grouped-filtered", "E", "avg", field="v",
             group_by="g", where=_positive),
    ViewSpec("top3", "E", "top_k", field="v", k=3),
    ViewSpec("min", "E", "min", field="v"),
    ViewSpec("max", "E", "max", field="v"),
    ViewSpec("min-grouped", "E", "min", field="v", group_by="g"),
    ViewSpec("max-grouped-filtered", "E", "max", field="v",
             group_by="g", where=_positive),
]
SPEC_IDS = st.integers(0, len(SPECS) - 1)


def _fold_state(sequence):
    """The committed store a delta sequence leaves behind (LWW)."""
    state = {}
    for delta in sequence:
        for key, row in delta.items():
            if row is TOMBSTONE:
                state.pop(key, None)
            else:
                state[key] = row
    return state


def _compact(sequence):
    """Last-writer-wins compaction of a sequence into one delta."""
    compacted = {}
    for delta in sequence:
        compacted.update(delta)
    return compacted


@given(SPEC_IDS, SEQUENCES)
@settings(max_examples=120, deadline=None)
def test_incremental_equals_recompute(spec_id, sequence):
    """Fold every delta in; the maintained value must be byte-equal to
    the full-scan oracle over the folded state — after *every* step,
    not just the last."""
    spec = SPECS[spec_id]
    compiled = compile_spec(spec)
    for prefix_end in range(1, len(sequence) + 1):
        compiled.apply(sequence[prefix_end - 1])
        state = _fold_state(sequence[:prefix_end])
        assert compiled.value() == recompute(spec, state.items())


@given(SPEC_IDS, SEQUENCES)
@settings(max_examples=100, deadline=None)
def test_compaction_equivalence(spec_id, sequence):
    spec = SPECS[spec_id]
    replayed = compile_spec(spec)
    for delta in sequence:
        replayed.apply(delta)
    compacted = compile_spec(spec)
    compacted.apply(_compact(sequence))
    assert replayed.value() == compacted.value()


@given(SPEC_IDS, SEQUENCES, DELTAS)
@settings(max_examples=100, deadline=None)
def test_duplicate_delivery_idempotent(spec_id, sequence, delta):
    """From any reachable view state, applying the same footprint twice
    equals applying it once (absolute states retract themselves)."""
    spec = SPECS[spec_id]
    once = compile_spec(spec)
    twice = compile_spec(spec)
    for prior in sequence:
        once.apply(prior)
        twice.apply(prior)
    once.apply(delta)
    twice.apply(delta)
    twice.apply(delta)
    assert once.value() == twice.value()


@given(SPEC_IDS, SEQUENCES)
@settings(max_examples=100, deadline=None)
def test_delete_everything_returns_to_empty(spec_id, sequence):
    """Tombstoning every live key must drain all operator memos — the
    value and the internal state both return to the empty baseline."""
    spec = SPECS[spec_id]
    compiled = compile_spec(spec)
    for delta in sequence:
        compiled.apply(delta)
    live = _fold_state(sequence)
    compiled.apply({key: TOMBSTONE for key in live})
    assert compiled.value() == recompute(spec, [])
    terminal = compiled.terminal
    if spec.kind == "top_k":
        assert terminal._rows == {} and len(terminal._index) == 0
    else:
        assert terminal._contrib == {} and terminal._groups == {}
        if terminal._ordered is not None:  # min/max ordered index
            assert len(terminal._ordered) == 0


@given(SEQUENCES)
@settings(max_examples=100, deadline=None)
def test_hydrate_equals_incremental(sequence):
    """Recovery's rewind path (hydrate from the restored store) must
    land exactly where incremental maintenance of the same history
    would have."""
    for spec in SPECS:
        incremental = compile_spec(spec)
        for delta in sequence:
            incremental.apply(delta)
        hydrated = compile_spec(spec)
        hydrated.hydrate(_fold_state(sequence).items())
        assert incremental.value() == hydrated.value()


# ---------------------------------------------------------------------------
# build == fold

#: Keys whose order differs from their strings' (2 < 10, "10" < "2"), so
#: ties must break by ``str(key)``, not by key.
SCAN_KEYS = st.sampled_from([0, 2, 10, 11, 100, "a", "k3", "b"])
#: Equal values of another type or sign (1/1.0, 0/0.0/-0.0) share one
#: slot of an ordered index; which one stands for it shows in the bytes.
SCAN_VALUES = st.one_of(
    st.sampled_from([1, 1.0, 0, 0.0, -0.0, 2, 2.0, 0.1, 2.5, -3, True]),
    st.integers(-5, 5),
    st.floats(-1e3, 1e3))
#: Magnitudes far apart, so the Kahan compensation is not zero.
FLOAT_VALUES = st.one_of(
    st.sampled_from([0.1, 1e16, -1e16, 3.3, 0.0, -0.0]),
    st.floats(-1e6, 1e6))
SCAN_ROWS = st.fixed_dictionaries({
    "g": st.sampled_from([0, 1, 1.0, 2]),
    "v": SCAN_VALUES,
    "f": FLOAT_VALUES,
})
#: A scan as a dict: each key once, tombstones and where-misses mixed in.
SCANS = st.dictionaries(SCAN_KEYS, st.one_of(st.just(TOMBSTONE), SCAN_ROWS),
                        max_size=12)

BUILD_SPECS = SPECS + [
    ViewSpec("fsum", "E", "sum", field="f"),
    ViewSpec("fsum-grouped", "E", "sum", field="f", group_by="g"),
    ViewSpec("favg-filtered", "E", "avg", field="f", where=_positive),
    ViewSpec("fmin-grouped", "E", "min", field="f", group_by="g"),
    ViewSpec("fmax", "E", "max", field="f"),
    ViewSpec("ftop2", "E", "top_k", field="f", k=2),
    ViewSpec("windowed-min", "E", "min", field="v", window_ms=10.0),
    ViewSpec("windowed-sum", "E", "sum", field="f", window_ms=10.0),
    ViewSpec("joined-max", "E", "max", field="J__w", group_by="g",
             join_entity="J", join_on="g"),
]
JOIN_ROWS = st.dictionaries(st.sampled_from([0, 1, 2]),
                            st.fixed_dictionaries({"w": SCAN_VALUES}))


def _no_fold(*args, **kwargs):
    raise AssertionError("hydrate fell back to the fold")


@pytest.mark.parametrize("spec", BUILD_SPECS, ids=lambda spec: spec.name)
@given(scan=SCANS, join_rows=JOIN_ROWS)
@example(scan={"b": {"g": 0, "v": 0.0, "f": 0.0},
               "a": {"g": 0, "v": -0.0, "f": -0.0},
               10: {"g": 1.0, "v": 0.1, "f": 0.1},
               2: {"g": 1, "v": 1, "f": 1e16},
               11: {"g": 1, "v": 1.0, "f": 3.3}},
         join_rows={0: {"w": 0.0}, 1: {"w": 1.0}})
@settings(max_examples=60, deadline=None)
def test_build_is_byte_equal_to_the_fold(spec, scan, join_rows):
    folded = compile_spec(spec)
    folded.reset()
    folded.apply_batch({"E": scan, "J": join_rows}, at_ms=25.0)
    built = compile_spec(spec)
    built.terminal.apply = _no_fold  # the build must not need the fold
    built.hydrate(scan.items(), join_items=join_rows.items(), at_ms=25.0)
    assert pickle.dumps(built.export_state()) == pickle.dumps(
        folded.export_state())
