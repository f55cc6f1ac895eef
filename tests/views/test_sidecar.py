"""Durable-view sidecar: export/restore round-trips and the manager's
recovery paths.

The sidecar is the versioned per-plan operator-state payload riding
snapshot cuts (``Snapshot.views_state``).  Pinned here:

- every operator's ``export_state``/``restore_state`` round-trips to a
  plan that is value-identical *and* keeps maintaining correctly (the
  memos are functional, not just displayable);
- ``ViewManager.on_restore`` with a sidecar restores matching plans
  without touching the store (``sidecar_restores``), and falls back to
  scan hydration (``rehydrations``) when the sidecar doesn't match;
- a cold start (``on_restore`` over the log, then registration) resumes
  views from ``(sidecar memos, seq)`` plus a fold of the log's records
  past that seq, with zero rehydrations and values identical to the
  live manager's — and keeps folding the log's later records, whatever
  batch ids they carry: freshness is the seq, which a rerun over one
  directory continues while its batch ids restart;
- windowed plans — the kind with *no* scan oracle — keep their window
  distribution through a sidecar restore, where a scan fallback
  provably collapses it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtimes.state import DictStateBackend
from repro.runtimes.stateflow.snapshots import ChangelogStore
from repro.storage import FileChangelogStore
from repro.views import (
    TOMBSTONE,
    ViewManager,
    ViewSpec,
    compile_spec,
)

KEYS = st.sampled_from([f"k{i}" for i in range(6)])
ROWS = st.fixed_dictionaries({
    "g": st.integers(0, 2),
    "v": st.integers(-100, 100),
})
DELTAS = st.dictionaries(KEYS, st.one_of(st.just(TOMBSTONE), ROWS),
                         max_size=6)
SEQUENCES = st.lists(DELTAS, max_size=6)


def _positive(row):
    return row["v"] > 0


ROUND_TRIP_SPECS = [
    ViewSpec("count", "E", "count", where=_positive),
    ViewSpec("sum-grouped", "E", "sum", field="v", group_by="g"),
    ViewSpec("avg", "E", "avg", field="v"),
    ViewSpec("min-grouped", "E", "min", field="v", group_by="g"),
    ViewSpec("max", "E", "max", field="v"),
    ViewSpec("top3", "E", "top_k", field="v", k=3),
    ViewSpec("windowed-sum", "E", "sum", field="v", window_ms=50.0),
    ViewSpec("joined", "Order", "sum", field="amount",
             group_by="Customer__tier",
             join_entity="Customer", join_on="customer_id"),
]


@given(st.integers(0, len(ROUND_TRIP_SPECS) - 2), SEQUENCES, SEQUENCES)
@settings(max_examples=80, deadline=None)
def test_export_restore_round_trips_and_keeps_maintaining(
        spec_id, history, future):
    """Restore a plan from an export mid-history, then feed both plans
    the same subsequent deltas: values must stay identical throughout —
    the restored memos retract exactly like the originals."""
    spec = ROUND_TRIP_SPECS[spec_id]
    original = compile_spec(spec)
    for index, delta in enumerate(history):
        original.apply(delta, at_ms=index * 30.0)
    restored = compile_spec(spec)
    restored.restore_state(original.export_state())
    assert restored.value() == original.value()
    for index, delta in enumerate(future):
        at_ms = (len(history) + index) * 30.0
        original.apply(delta, at_ms=at_ms)
        restored.apply(delta, at_ms=at_ms)
        assert restored.value() == original.value()


def test_join_export_restore_round_trips():
    spec = ROUND_TRIP_SPECS[-1]
    original = compile_spec(spec)
    original.apply_batch({
        "Order": {"o1": {"customer_id": "c1", "amount": 5},
                  "o2": {"customer_id": "c2", "amount": 9}},
        "Customer": {"c1": {"tier": 1}, "c2": {"tier": 2}},
    })
    restored = compile_spec(spec)
    restored.restore_state(original.export_state())
    assert restored.value() == original.value()
    # Retraction through the rebuilt by-fk index.
    for compiled in (original, restored):
        compiled.apply_batch({"Order": {}, "Customer": {"c1": TOMBSTONE}})
    assert restored.value() == original.value() == {2: 9}


def test_export_is_a_copy_not_an_alias():
    compiled = compile_spec(ViewSpec("s", "E", "sum", field="v",
                                     group_by="g"))
    compiled.apply({"a": {"g": 0, "v": 5}})
    exported = compiled.export_state()
    compiled.apply({"a": {"g": 0, "v": 50}})
    fresh = compile_spec(ViewSpec("s", "E", "sum", field="v",
                                  group_by="g"))
    fresh.restore_state(exported)
    assert fresh.value() == {0: 5}, (
        "mutating the live plan after export must not leak into the "
        "sidecar payload")


def _specs():
    return [
        ViewSpec("total", "E", "sum", field="v"),
        ViewSpec("peak", "E", "max", field="v"),
        ViewSpec("per-window", "E", "count", window_ms=100.0),
    ]


class TestManagerRestoreFromSidecar:
    def test_sidecar_restore_skips_the_store(self):
        store = DictStateBackend({("E", "a"): {"v": 1}})
        manager = ViewManager(store)
        for spec in _specs():
            manager.register(spec)
        manager.on_commit(0, {("E", "b"): {"v": 9}}, at_ms=10.0)
        sidecar = manager.export_sidecar()
        value_at_cut = {name: manager.read(name).value
                        for name in manager.names()}
        manager.on_commit(1, {("E", "c"): {"v": 99}}, at_ms=20.0)
        # Recovery rewound the run to the cut: the sidecar must bring
        # every plan back without a scan (the store stays untouched —
        # prove it by poisoning the scan surface).
        store.entries = lambda entity: (_ for _ in ()).throw(
            AssertionError("sidecar restore must not scan the store"))
        manager.on_restore(sidecar)
        assert manager.rehydrations == 0
        assert manager.sidecar_restores == len(manager._compiler.plans)
        for name, want in value_at_cut.items():
            assert manager.read(name).value == want
            assert manager.read(name).applied_seq == 0

    def test_missing_sidecar_falls_back_to_scan(self):
        store = DictStateBackend({("E", "a"): {"v": 7}})
        manager = ViewManager(store)
        manager.register(ViewSpec("total", "E", "sum", field="v"))
        manager.on_commit(0, {("E", "b"): {"v": 1}}, at_ms=1.0)
        manager.on_restore(None)
        assert manager.rehydrations == 1
        assert manager.sidecar_restores == 0
        assert manager.read("total").value == 7

    def test_unknown_sidecar_version_falls_back_to_scan(self):
        store = DictStateBackend({("E", "a"): {"v": 7}})
        manager = ViewManager(store)
        manager.register(ViewSpec("total", "E", "sum", field="v"))
        sidecar = manager.export_sidecar()
        sidecar["version"] = 999
        manager.on_restore(sidecar)
        assert manager.rehydrations == 1 and manager.sidecar_restores == 0

    def test_schema_mismatch_falls_back_to_scan(self):
        store = DictStateBackend({("E", "a"): {"v": 7, "g2": 1}})
        old = ViewManager(store)
        old.register(ViewSpec("total", "E", "sum", field="v"))
        sidecar = old.export_sidecar()
        fresh = ViewManager(store)
        # Same name, structurally different query: the sidecar entry
        # must not be trusted.
        fresh.register(ViewSpec("total", "E", "sum", field="v",
                                group_by="g2"))
        fresh.on_restore(sidecar)
        assert fresh.rehydrations == 1 and fresh.sidecar_restores == 0


def _apply(store, writes):
    """Install one record's writes in the store and return them, which
    is what the log records (the runtime has no deletes)."""
    for composite, state in writes.items():
        store.put(*composite, state)
    return writes


#: The first life's records: ``(batch id, writes, at_ms)``.
FIRST_LIFE = [
    (0, {("E", "a"): {"v": 5}}, 10.0),
    (1, {("E", "b"): {"v": 9}}, 120.0),
    (2, {("E", "a"): {"v": 7}}, 230.0),
    (3, {("E", "c"): {"v": 2}, ("E", "b"): {"v": 1}}, 340.0),
]


def _run_live(log=None):
    """A 'first life' fed by a subscribed log: records 0..3, with a cut
    (sidecar export) after seq 1 — the log holds 2..3 past it."""
    store = DictStateBackend()
    log = ChangelogStore() if log is None else log
    manager = ViewManager(store, log=log)
    log.subscribe(manager.on_commit)
    for spec in _specs():
        manager.register(spec)
    sidecar = None
    for batch_id, writes, at_ms in FIRST_LIFE:
        seq = log.append(batch_id, _apply(store, writes), at_ms=at_ms)
        if seq == 1:
            sidecar = manager.export_sidecar()
    return store, manager, sidecar, log


def _cold_start(store, log, sidecar, specs):
    """The one catch-up path from a cut: restore its sidecar over the
    log, then register."""
    cold = ViewManager(store, log=log)
    cold.on_restore(sidecar)
    for spec in specs:
        cold.register(spec)
    return cold


class TestColdStart:
    def test_cold_start_resumes_with_zero_rehydrations(self):
        store, live, sidecar, log = _run_live()
        cold = _cold_start(store, log, sidecar, _specs())
        assert cold.rehydrations == 0
        assert cold.sidecar_restores == len(_specs())
        for name in live.names():
            assert cold.read(name).value == live.read(name).value
            assert cold.read(name).applied_seq == 3
            assert cold.read(name).lag == 0

    def test_windowed_plan_needs_the_sidecar(self):
        """The motivating case: scan hydration collapses all windows
        into one, the sidecar + log path preserves the real
        distribution."""
        store, live, sidecar, log = _run_live()
        resumed = _cold_start(store, log, sidecar, _specs())
        want = live.read("per-window").value
        assert resumed.read("per-window").value == want
        assert len(want) > 1, "the fixture must span multiple windows"
        scanned = ViewManager(store)
        scanned.register(
            ViewSpec("per-window", "E", "count", window_ms=100.0))
        assert len(scanned.read("per-window").value) == 1, (
            "scan hydration cannot reconstruct commit-time windows")

    def test_uncovered_view_counts_a_rehydration(self):
        store, live, sidecar, log = _run_live()
        cold = _cold_start(store, log, sidecar,
                                [ViewSpec("brand-new", "E", "count")])
        assert cold.rehydrations == 1
        assert cold.read("brand-new").value == 3  # a, b and c

    def test_a_gap_past_the_sidecar_falls_back_to_a_scan(self):
        store, live, sidecar, log = _run_live()
        log.truncate_through(2)  # seq 2 is gone: (1, 3] has a gap
        cold = _cold_start(store, log, sidecar, _specs()[:2])
        assert cold.sidecar_restores == 0 and cold.rehydrations == 2
        for name in cold.names():
            assert cold.read(name).value == cold.expected(name)
            assert cold.read(name).applied_seq == 3

    def test_windowed_expected_raises(self):
        store, live, sidecar, log = _run_live()
        from repro.views import ViewError
        with pytest.raises(ViewError, match="no full-scan oracle"):
            live.expected("per-window")


class TestOneCatchUpPath:
    def test_a_rerun_with_restarted_batch_ids_skips_no_record(
            self, tmp_path):
        """A second run over one directory continues the log's seqs
        but restarts its batch ids at 0.  A manager resumed from the
        first run's sidecar at seq S folds every record from S+1 on —
        keyed by batch id, it would skip the rerun's batches up to the
        sidecar's last batch."""
        store, live, sidecar, log = _run_live(
            FileChangelogStore(tmp_path))
        log.close()
        reopened = FileChangelogStore(tmp_path)
        cold = _cold_start(store, reopened, sidecar, _specs())
        reopened.subscribe(cold.on_commit)
        for batch_id, key, v in [(0, "d", 40), (1, "a", 1), (2, "e", 3),
                                 (3, "c", 11), (4, "f", 8)]:
            writes = _apply(store, {("E", key): {"v": v}})
            seq = reopened.append(batch_id, writes, at_ms=500.0 + batch_id)
            for name in ("total", "peak"):
                assert cold.read(name).applied_seq == seq
                assert cold.read(name).value == cold.expected(name), (
                    f"record {seq} (batch {batch_id}) was not folded")
        reopened.close()
