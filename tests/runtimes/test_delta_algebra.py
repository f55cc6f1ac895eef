"""Property tests for the delta-chain algebra behind incremental
snapshots.

The laws the snapshot store's bounded-depth compaction and the
changelog repair path rely on:

- **capture/apply round trip** — replaying every captured delta over a
  captured base reproduces the live store, for any interleaving of
  writes, creates and deletes, on both backends;
- **compaction equivalence** — ``apply(base, d1..dn)`` equals
  ``apply(base, compact(d1..dn))``;
- **replay idempotence** — applying a delta (or a changelog record)
  twice equals applying it once: entries are absolute states, so
  duplicate delivery cannot diverge (the PR 2 incarnation fences make
  duplicates *rare*; the algebra makes them *harmless*).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtimes.state import (
    CowStateBackend,
    DictStateBackend,
    StateDelta,
    compact_deltas,
    make_state_backend,
    resolve_payload,
)
from repro.runtimes.stateflow.snapshots import ChangelogStore

KEYS = [f"k{i}" for i in range(8)]

#: One mutation: (op, key, value).  Deletes of absent keys are legal.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["put", "create", "delete"]),
              st.sampled_from(KEYS),
              st.integers(min_value=0, max_value=99)),
    min_size=0, max_size=40)

#: Where to split the op sequence into capture segments.
cuts_strategy = st.lists(st.integers(min_value=0, max_value=40),
                         min_size=0, max_size=4)


def apply_ops(backend, ops):
    for op, key, value in ops:
        if op == "delete":
            backend.delete("E", key)
        else:
            backend.put("E", key, {"v": value})


def contents(backend):
    return {key: backend.get(*key) for key in sorted(backend.keys())}


def run_segments(backend_name, ops, cuts):
    """Drive a backend through *ops*, capturing a base up front and a
    delta at every cut point; returns (base, deltas, final_contents)."""
    backend = make_state_backend(backend_name)
    base = backend.capture_base()
    deltas = []
    boundaries = sorted(set(min(c, len(ops)) for c in cuts))
    start = 0
    for boundary in boundaries:
        apply_ops(backend, ops[start:boundary])
        deltas.append(backend.capture_delta())
        start = boundary
    apply_ops(backend, ops[start:])
    deltas.append(backend.capture_delta())
    assert all(delta is not None for delta in deltas)
    return base, deltas, contents(backend)


class TestCaptureApplyRoundTrip:
    @pytest.mark.parametrize("backend_name", ["dict", "cow"])
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_deltas_reproduce_the_store(self, backend_name, ops, cuts):
        base, deltas, final = run_segments(backend_name, ops, cuts)
        replica = make_state_backend(backend_name)
        replica.restore(resolve_payload(base, deltas))
        assert contents(replica) == final

    @pytest.mark.parametrize("backend_name", ["dict", "cow"])
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_apply_delta_on_live_backend(self, backend_name, ops, cuts):
        base, deltas, final = run_segments(backend_name, ops, cuts)
        replica = make_state_backend(backend_name)
        replica.restore(base)
        for delta in deltas:
            replica.apply_delta(delta)
        assert contents(replica) == final

    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=30, deadline=None)
    def test_backends_capture_equivalent_deltas(self, ops, cuts):
        """The same op sequence captured on dict and cow resolves to the
        same contents — deltas are backend-portable through resolution."""
        _, _, dict_final = run_segments("dict", ops, cuts)
        _, _, cow_final = run_segments("cow", ops, cuts)
        assert dict_final == cow_final


class TestCompactionEquivalence:
    @pytest.mark.parametrize("backend_name", ["dict", "cow"])
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_compact_preserves_resolution(self, backend_name, ops, cuts):
        base, deltas, final = run_segments(backend_name, ops, cuts)
        compacted = compact_deltas(deltas)
        replica = make_state_backend(backend_name)
        replica.restore(resolve_payload(base, [compacted]))
        assert contents(replica) == final

    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_compact_bounds_layer_count(self, ops, cuts):
        _, deltas, _ = run_segments("cow", ops, cuts)
        compacted = compact_deltas(deltas)
        assert len(compacted.layers) <= 1


class TestReplayIdempotence:
    @pytest.mark.parametrize("backend_name", ["dict", "cow"])
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_duplicate_delivery_is_harmless(self, backend_name, ops, cuts):
        """Every delta delivered twice (the torn_snapshot "duplicate"
        variant) resolves to the same state as single delivery."""
        base, deltas, final = run_segments(backend_name, ops, cuts)
        doubled = [delta for delta in deltas for _ in range(2)]
        replica = make_state_backend(backend_name)
        replica.restore(resolve_payload(base, doubled))
        assert contents(replica) == final

    @given(ops=ops_strategy)
    @settings(max_examples=50, deadline=None)
    def test_changelog_replay_idempotence(self, ops):
        """Changelog records replay idempotently onto any payload, and
        duplicate appends of one batch are dropped (the append-side
        fence, mirroring the PR 2 worker incarnation fences)."""
        reference = DictStateBackend()
        changelog = ChangelogStore()
        writes = {}
        for op, key, value in ops:
            if op == "delete":
                continue  # commit records never carry deletes
            reference.put("E", key, {"v": value})
            writes[("E", key)] = {"v": value}
        if writes:
            first = changelog.append(batch_id=7, writes=writes)
            again = changelog.append(batch_id=7, writes=writes)
            assert first == again
            assert changelog.duplicate_appends == 1
            assert len(changelog) == 1
        records = changelog.records_between(-1, changelog.head_seq) or []
        once = {}
        for record in records:
            once.update(record.writes)
        twice = dict(once)
        for record in records:
            twice.update(record.writes)
        assert once == twice
        assert once == {key: reference.get(*key)
                        for key in reference.keys()}


class TestDeltaShapes:
    def test_cow_delta_layers_are_shared_not_copied(self):
        backend = CowStateBackend()
        backend.capture_base()
        backend.put("E", "a", {"v": 1})
        backend.snapshot()  # freezes the head into the tracked layers
        backend.put("E", "a", {"v": 2})
        delta = backend.capture_delta()
        assert len(delta.layers) == 2
        merged = delta.merged()
        assert merged[("E", "a")] == {"v": 2}

    def test_empty_segment_captures_empty_delta(self):
        for name in ("dict", "cow"):
            backend = make_state_backend(name)
            backend.capture_base()
            delta = backend.capture_delta()
            assert delta is not None and delta.is_empty

    def test_restore_invalidates_tracking(self):
        for name in ("dict", "cow"):
            backend = make_state_backend(name)
            payload = backend.capture_base()
            backend.put("E", "a", {"v": 1})
            backend.restore(payload)
            assert backend.capture_delta() is None, name
            # A fresh base re-arms tracking.
            backend.capture_base()
            backend.put("E", "b", {"v": 2})
            delta = backend.capture_delta()
            assert delta is not None and not delta.is_empty
