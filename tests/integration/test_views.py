"""End-to-end incremental materialized views on StateFlow.

The invariant under test everywhere: after *every* committed batch, each
registered view is byte-equal to the full-scan oracle over the committed
store (``ViewManager.expected``), at pipeline depth 1 and 2, including
under chaos fault plans, mid-run rescales, and coordinator
crash/recovery — where views must
rewind with the store and never reflect an abandoned pipeline batch.
A per-batch probe hooks the maintenance path so the equality is checked
at commit granularity, not just at quiesce.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_program, entity
from repro.bench import chaos_coordinator_config
from repro.faults import random_plan, staged_plan
from repro.query import QueryEngine, QueryError, ViewSpec
from repro.views import ViewError
from repro.runtimes import LocalRuntime
from repro.runtimes.stateflow import (
    CoordinatorConfig,
    StateflowConfig,
    StateflowRuntime,
)
from repro.workloads import Account

ACCOUNTS = 6
SEED_BALANCE = 100
TOTAL = ACCOUNTS * SEED_BALANCE
#: Serial batches, and one batch executing while the previous commits.
DEPTHS = (1, 2)


def _rich(row):
    return row["balance"] >= SEED_BALANCE


def _bucket(row):
    # balance // 50 moves keys *between* groups as transfers land,
    # stressing group retraction, not just in-place updates.
    return row["balance"] // 50


def standard_views(runtime) -> QueryEngine:
    """Register one view per kind: filtered count, global sum, grouped
    avg (with group migration), min/max extremes (with extremum
    retraction as transfers land), bounded top-k."""
    engine = QueryEngine(runtime)
    engine.register_view(ViewSpec("rich-count", "Account", "count",
                                  where=_rich))
    engine.register_view(ViewSpec("total", "Account", "sum",
                                  field="balance"))
    engine.register_view(ViewSpec("avg-by-bucket", "Account", "avg",
                                  field="balance", group_by=_bucket))
    engine.register_view(ViewSpec("poorest", "Account", "min",
                                  field="balance"))
    engine.register_view(ViewSpec("richest-by-bucket", "Account", "max",
                                  field="balance", group_by=_bucket))
    engine.register_view(ViewSpec("top3", "Account", "top_k",
                                  field="balance", k=3))
    return engine


def attach_probe(runtime) -> list:
    """After every commit, compare every view to the full-scan oracle;
    collected mismatches fail the test with batch provenance."""
    failures: list = []

    def probe(batch_id: int) -> None:
        for name in runtime.views.names():
            got = runtime.views.read(name).value
            want = runtime.views.expected(name)
            if got != want:
                failures.append((batch_id, name, got, want))

    runtime.views.probe = probe
    return failures


def submit_transfers(runtime, refs, plan, *, spacing_ms=40.0):
    for index, (source, target, amount) in enumerate(plan):
        if source == target:
            target = (target + 1) % len(refs)
        runtime.sim.schedule_at(
            index * spacing_ms,
            lambda s=source, t=target, a=amount: runtime.submit(
                refs[s], "transfer", (a, refs[t])))


def assert_views_match_oracle(runtime):
    for name in runtime.views.names():
        assert runtime.views.read(name).value == \
            runtime.views.expected(name), name


transfer_plan = st.lists(
    st.tuples(st.integers(0, ACCOUNTS - 1), st.integers(0, ACCOUNTS - 1),
              st.integers(1, 30)),
    min_size=1, max_size=25)


class TestEveryBatchEquality:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    @pytest.mark.parametrize("base_every", [1, 4],
                             ids=lambda n: f"base_every={n}")
    def test_views_track_every_batch(self, account_program, base_every,
                                     pipeline_depth):
        """Deterministic transfer mix: every view equals the oracle at
        every commit, whether every cut is a base or not (views and the
        changelog share the commit-path observation), with serial and
        with pipelined batches."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(pipeline_depth=pipeline_depth,
                                          snapshot_base_every=base_every)))
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        engine = standard_views(runtime)
        failures = attach_probe(runtime)
        plan = [(i % ACCOUNTS, (i * 3 + 1) % ACCOUNTS, 5 + i % 17)
                for i in range(30)]
        submit_transfers(runtime, refs, plan)
        runtime.sim.run(until=60_000)
        assert failures == []
        assert runtime.views.commits_applied > 0
        assert_views_match_oracle(runtime)
        assert engine.view("total").value == TOTAL

    def test_freshness_metadata(self, account_program):
        runtime = StateflowRuntime(account_program)
        refs = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()
        engine = standard_views(runtime)
        runtime.call(refs[0], "transfer", 30, refs[1])
        snap = engine.view("total")
        assert snap.lag == 0, (
            "the log subscription must keep views fully fresh")
        assert snap.applied_seq == runtime.coordinator.changelog.head_seq
        assert snap.as_of_ms is not None

    def test_register_mid_run_hydrates_current_state(self, account_program):
        runtime = StateflowRuntime(account_program)
        refs = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()
        runtime.call(refs[0], "transfer", 30, refs[1])
        engine = QueryEngine(runtime)
        snap = engine.register_view(
            ViewSpec("total", "Account", "sum", field="balance"))
        assert snap.value == 200
        assert snap.applied_seq == runtime.coordinator.changelog.head_seq
        runtime.call(refs[1], "deposit", 50)
        assert engine.view("total").value == 250
        engine.unregister_view("total")
        with pytest.raises(ViewError):
            engine.view("total")

    def test_view_api_requires_stateflow(self, account_program):
        engine = QueryEngine(LocalRuntime(account_program))
        spec = ViewSpec("v", "Account", "count")
        with pytest.raises(QueryError, match="StateFlow"):
            engine.register_view(spec)
        with pytest.raises(QueryError, match="StateFlow"):
            engine.view("v")
        with pytest.raises(QueryError, match="StateFlow"):
            engine.subscribe_view("v", print)


class TestSubscriptions:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_updates_ride_the_network_substrate(self, account_program,
                                                pipeline_depth):
        """Pushes are delivered as messages through the network, not
        inline on the commit path — and still arrive in seq order
        with the values the view held at publish time."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(pipeline_depth=pipeline_depth)))
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        engine = standard_views(runtime)
        updates: list = []
        engine.subscribe_view("top3", updates.append)
        plan = [(i % ACCOUNTS, (i + 1) % ACCOUNTS, 10) for i in range(12)]
        submit_transfers(runtime, refs, plan)
        runtime.sim.run(until=60_000)
        assert updates, "transfer load must push at least one update"
        seqs = [u.seq for u in updates]
        assert seqs == sorted(seqs)
        final = updates[-1]
        assert final.value == engine.view("top3").value
        assert all(u.view == "top3" for u in updates)


class TestChaos:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    @given(transfer_plan, st.integers(0, 2**20))
    @settings(max_examples=6, deadline=None)
    def test_views_exact_under_chaos(self, account_program, pipeline_depth,
                                     plan, seed):
        """Worker crashes, dropped messages and partitions: the per-
        batch equality probe must never trip, and the sum view must
        show exact conservation at quiesce (the serial oracle)."""
        fault_plan = random_plan(seed, duration_ms=3_000.0, workers=5,
                                 intensity="medium")
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            fault_plan=fault_plan,
            coordinator=replace(chaos_coordinator_config(),
                                pipeline_depth=pipeline_depth)))
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        engine = standard_views(runtime)
        failures = attach_probe(runtime)
        submit_transfers(runtime, refs, plan)
        runtime.sim.run(until=60_000)
        assert failures == []
        assert_views_match_oracle(runtime)
        assert engine.view("total").value == TOTAL


class TestCrashRecovery:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    @pytest.mark.parametrize("base_every", [1, 4],
                             ids=lambda n: f"base_every={n}")
    def test_views_rewind_with_the_store(self, account_program, base_every,
                                         pipeline_depth):
        """Coordinator fail-stop mid-load: recovery rewinds the
        committed store to a snapshot and abandons the pipeline, so the
        views must rewind too — resuming from the cut's durable sidecar
        (zero store scans), then tracking the replayed batches back to
        an exact final state."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(pipeline_depth=pipeline_depth,
                                          snapshot_interval_ms=150.0,
                                          failure_detect_ms=200.0,
                                          snapshot_base_every=base_every)))
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        engine = standard_views(runtime)
        failures = attach_probe(runtime)
        plan = [(i % ACCOUNTS, (i * 3 + 1) % ACCOUNTS, 5 + i % 11)
                for i in range(25)]
        submit_transfers(runtime, refs, plan)
        runtime.fail_coordinator(at_ms=430.0, failover_after_ms=80.0)
        runtime.sim.run(until=60_000)
        assert runtime.views.sidecar_restores >= \
            len(runtime.views._compiler.plans), (
                "recovery must resume every plan from a sidecar")
        assert runtime.views.rehydrations == 0, (
            "a sidecar-covered recovery must not rescan the store")
        assert failures == []
        assert_views_match_oracle(runtime)
        assert engine.view("total").value == TOTAL
        snap = engine.view("total")
        assert snap.applied_seq == runtime.coordinator.changelog.head_seq

    def test_rewound_views_forget_abandoned_batches(self, account_program):
        """Crash with commits past the last snapshot: immediately after
        the restore (before any replay lands) the views must equal the
        rewound store — not the pre-crash state."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(snapshot_interval_ms=10_000.0,
                                          failure_detect_ms=200.0)))
        refs = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()
        engine = standard_views(runtime)
        runtime.call(refs[0], "transfer", 30, refs[1])
        assert engine.view("top3").value[0]["__key__"] == "b"
        runtime.coordinator.crash()
        runtime.coordinator.recover()  # rewinds to the t=0 snapshot
        assert_views_match_oracle(runtime)
        assert [row["balance"] for row in engine.view("top3").value] \
            == [100, 100], "views must not reflect the abandoned commit"


class TestRescale:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_views_exact_across_rescale(self, account_program,
                                        pipeline_depth):
        """The canonical 2 -> 4 -> 3 resize under transfer load: slot
        ownership moves between workers but the committed contents do
        not, so views need no rescale hook — the per-batch probe proves
        they stay exact through both barriers."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            workers=2,
            fault_plan=staged_plan((4, 3), start_ms=300.0,
                                   interval_ms=400.0),
            coordinator=replace(chaos_coordinator_config(),
                                pipeline_depth=pipeline_depth)))
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        engine = standard_views(runtime)
        failures = attach_probe(runtime)
        plan = [(i % ACCOUNTS, (i * 5 + 2) % ACCOUNTS, 3 + i % 13)
                for i in range(30)]
        submit_transfers(runtime, refs, plan)
        runtime.sim.run(until=60_000)
        assert runtime.coordinator.rescales == 2
        assert runtime.worker_count == 3
        assert failures == []
        assert_views_match_oracle(runtime)
        assert engine.view("total").value == TOTAL


# ---------------------------------------------------------------------------
# FK delta-joins end-to-end: two entity types in one program, a stored
# foreign key, and views spanning both.
# ---------------------------------------------------------------------------


@entity
class JCustomer:
    def __init__(self, cid: str, tier: int):
        self.cid: str = cid
        self.tier: int = tier

    def __key__(self):
        return self.cid

    def set_tier(self, tier: int) -> int:
        self.tier = tier
        return self.tier


@entity
class JOrder:
    def __init__(self, oid: str, customer_id: str, amount: int):
        self.oid: str = oid
        self.customer_id: str = customer_id
        self.amount: int = amount

    def __key__(self):
        return self.oid

    def set_amount(self, amount: int) -> int:
        self.amount = amount
        return self.amount

    def reassign(self, customer_id: str) -> str:
        self.customer_id = customer_id
        return self.customer_id


@pytest.fixture(scope="module")
def join_program():
    return compile_program([JCustomer, JOrder])


def join_views(runtime) -> QueryEngine:
    engine = QueryEngine(runtime)
    engine.register_view(ViewSpec(
        "sum-by-tier", "JOrder", "sum", field="amount",
        group_by="JCustomer__tier",
        join_entity="JCustomer", join_on="customer_id"))
    engine.register_view(ViewSpec(
        "joined-count", "JOrder", "count",
        join_entity="JCustomer", join_on="customer_id"))
    return engine


class TestJoinViews:
    def test_join_views_track_every_commit(self, join_program):
        """Amount edits (left-side deltas), tier changes (right-side
        fan-out) and FK reassignments (re-link) all ride the commit
        path; the probe holds the two-entity scan oracle at every
        batch."""
        runtime = StateflowRuntime(join_program)
        customers = runtime.preload(JCustomer, [("c0", 1), ("c1", 2)])
        orders = runtime.preload(
            JOrder, [(f"o{i}", f"c{i % 2}", 10 + i) for i in range(6)])
        runtime.start()
        engine = join_views(runtime)
        failures = attach_probe(runtime)
        runtime.call(orders[0], "set_amount", 100)
        runtime.call(customers[0], "set_tier", 5)     # fans out to o0/o2/o4
        runtime.call(orders[1], "reassign", "c0")     # FK move c1 -> c0
        runtime.call(orders[3], "set_amount", 1)
        runtime.call(customers[1], "set_tier", 2)
        assert failures == []
        assert_views_match_oracle(runtime)
        value = engine.view("sum-by-tier").value
        # c0 (tier 5) holds o0=100, o2=12, o4=14 and the moved o1=11;
        # c1 (tier 2) keeps o3 (now 1) and o5=15.
        assert value == {5: 100 + 12 + 14 + 11, 2: 1 + 15}
        assert engine.view("joined-count").value == 6

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_join_views_rewind_with_the_store(self, join_program,
                                              pipeline_depth):
        """Coordinator crash between commits: both memo sides restore
        from the sidecar and the replay converges to the oracle."""
        runtime = StateflowRuntime(join_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(pipeline_depth=pipeline_depth,
                                          snapshot_interval_ms=150.0,
                                          failure_detect_ms=200.0)))
        customers = runtime.preload(JCustomer, [("c0", 1), ("c1", 2)])
        orders = runtime.preload(
            JOrder, [(f"o{i}", f"c{i % 2}", 10 + i) for i in range(4)])
        runtime.start()
        engine = join_views(runtime)
        failures = attach_probe(runtime)
        moves = [(orders[0], "set_amount", (50,)),
                 (customers[0], "set_tier", (9,)),
                 (orders[1], "reassign", ("c0",)),
                 (orders[2], "set_amount", (7,)),
                 (customers[1], "set_tier", (4,)),
                 (orders[3], "reassign", ("c1",))]
        for index, (ref, method, arguments) in enumerate(moves):
            runtime.sim.schedule_at(
                index * 80.0,
                lambda r=ref, m=method, a=arguments: runtime.submit(r, m, a))
        runtime.fail_coordinator(at_ms=330.0, failover_after_ms=80.0)
        runtime.sim.run(until=60_000)
        assert runtime.views.rehydrations == 0
        assert runtime.views.sidecar_restores >= \
            len(runtime.views._compiler.plans)
        assert failures == []
        assert_views_match_oracle(runtime)
        assert engine.view("joined-count").value == 4


# ---------------------------------------------------------------------------
# A committed row a plan cannot fold.  Views sit off the commit path, so
# the commit, the reply and every other view must not notice; the view
# that choked is out of service until a hydration succeeds.
# ---------------------------------------------------------------------------


@entity
class PItem:
    def __init__(self, iid: str, score: int, stock: int):
        self.iid: str = iid
        self.score: int = score
        self.stock: int = stock

    def __key__(self):
        return self.iid

    def clear(self) -> str:
        self.score = None
        return "cleared"

    def rate(self, score: int) -> int:
        self.score = score
        return self.score

    def restock(self, units: int) -> int:
        self.stock += units
        return self.stock


@pytest.fixture(scope="module")
def item_program():
    return compile_program([PItem])


POISON_SPECS = [
    ViewSpec("best", "PItem", "top_k", field="score", k=2),
    ViewSpec("score-sum", "PItem", "sum", field="score"),
    ViewSpec("stock-sum", "PItem", "sum", field="stock"),
]


class TestPoisonRow:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_commit_reply_and_other_views_survive(self, item_program,
                                                  pipeline_depth):
        runtime = StateflowRuntime(item_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(pipeline_depth=pipeline_depth)))
        items = runtime.preload(
            PItem, [("i0", 8, 1), ("i1", 9, 2), ("i2", 6, 3)])
        runtime.start()
        engine = QueryEngine(runtime)
        for spec in POISON_SPECS:
            engine.register_view(spec)
        pushed = []
        engine.subscribe_view("stock-sum", pushed.append)

        # The transaction commits and its caller gets the reply, not a
        # TypeError out of the kernel loop.
        assert runtime.call(items[1], "clear") == "cleared"
        assert runtime.entity_state(items[1])["score"] is None

        # Both plans over ``score`` are out of service, each naming the
        # seq and the value; the plan later in plan order was offered
        # the record too (it failed on its own, not by never being run).
        for name in ("best", "score-sum"):
            with pytest.raises(ViewError, match=r"failed at seq \d+.*None"):
                engine.view(name)
            with pytest.raises(ViewError, match="failed at seq"):
                engine.subscribe_view(name, pushed.append)

        # The view over another field never noticed.
        assert runtime.call(items[0], "restock", 10) == 11
        assert engine.view("stock-sum").value == 16 == \
            runtime.views.expected("stock-sum")
        assert [update.value for update in pushed] == [16]

        # A failed plan rides no cut, so a recovery re-hydrates it — and
        # while the store still holds the row, fails it again instead of
        # raising into recovery.
        runtime.views.on_restore(runtime.views.export_sidecar())
        with pytest.raises(ViewError, match="failed at rehydration"):
            engine.view("best")
        assert engine.view("stock-sum").value == 16

        # Once the field is set again, re-registration hydrates from the
        # store and the view is back on the oracle — and maintained.
        assert runtime.call(items[1], "rate", 4) == 4
        for spec in POISON_SPECS[:2]:
            engine.unregister_view(spec.name)
            engine.register_view(spec)
        runtime.call(items[2], "rate", 7)
        assert_views_match_oracle(runtime)
        assert engine.view("score-sum").value == 8 + 4 + 7
        assert [row["__key__"] for row in engine.view("best").value] == \
            ["i0", "i2"]

    def test_registration_over_a_poisoned_store_leaves_no_plan_behind(
            self, item_program):
        runtime = StateflowRuntime(item_program)
        items = runtime.preload(PItem, [("i0", 8, 1), ("i1", 9, 2)])
        runtime.start()
        runtime.call(items[0], "clear")
        engine = QueryEngine(runtime)
        with pytest.raises(ViewError, match="cannot be ordered"):
            engine.register_view(POISON_SPECS[0])
        assert runtime.views.names() == []
        assert runtime.views._compiler.plans == []
        assert runtime.call(items[1], "restock", 1) == 3


# ---------------------------------------------------------------------------
# Windowed aggregates end-to-end.  There is no full-scan oracle for a
# windowed view (rows carry no timestamps), so the battery pins the
# conservation invariant instead: a windowed *sum* partitions the very
# total the un-windowed sum view maintains, at every single commit.
# ---------------------------------------------------------------------------

WINDOW_MS = 250.0


def windowed_views(runtime) -> QueryEngine:
    engine = QueryEngine(runtime)
    engine.register_view(ViewSpec("total", "Account", "sum",
                                  field="balance"))
    engine.register_view(ViewSpec("sum-by-window", "Account", "sum",
                                  field="balance", window_ms=WINDOW_MS))
    return engine


def attach_conservation_probe(runtime) -> list:
    failures: list = []

    def probe(batch_id: int) -> None:
        windows = runtime.views.read("sum-by-window").value
        want = runtime.views.expected("total")
        if sum(windows.values()) != want:
            failures.append((batch_id, windows, want))

    runtime.views.probe = probe
    return failures


class TestWindowedViews:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_windowed_sum_partitions_the_total(self, account_program,
                                               pipeline_depth):
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(pipeline_depth=pipeline_depth)))
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        engine = windowed_views(runtime)
        failures = attach_conservation_probe(runtime)
        plan = [(i % ACCOUNTS, (i * 3 + 1) % ACCOUNTS, 5 + i % 17)
                for i in range(30)]
        submit_transfers(runtime, refs, plan, spacing_ms=60.0)
        runtime.sim.run(until=60_000)
        assert failures == []
        windows = engine.view("sum-by-window").value
        assert len(windows) > 1, "the load must span multiple windows"
        assert sum(windows.values()) == TOTAL
        assert all(start % WINDOW_MS == 0 for start in windows)

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_windowed_views_survive_crash_recovery(self, account_program,
                                                   pipeline_depth):
        """The one view kind that *cannot* be rebuilt by scanning: the
        commit-time window assignment lives only in operator state.
        Recovery must carry it through the sidecar and keep the
        conservation invariant across the rewind and replay."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(pipeline_depth=pipeline_depth,
                                          snapshot_interval_ms=150.0,
                                          failure_detect_ms=200.0)))
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        engine = windowed_views(runtime)
        failures = attach_conservation_probe(runtime)
        # Touch accounts 2..5 only before the first cut, then churn
        # 0<->1 through the crash: the early keys must keep their old
        # windows through recovery while the late keys land in new
        # ones — a scan could never tell those apart.
        plan = [(2, 3, 5), (4, 5, 7), (3, 4, 6), (5, 2, 9)] + \
            [(0, 1, 5 + i % 11) for i in range(21)]
        submit_transfers(runtime, refs, plan)
        runtime.fail_coordinator(at_ms=430.0, failover_after_ms=80.0)
        runtime.sim.run(until=60_000)
        assert runtime.views.rehydrations == 0, (
            "windowed state must ride the sidecar, never a rescan")
        assert runtime.views.sidecar_restores >= \
            len(runtime.views._compiler.plans)
        assert failures == []
        windows = engine.view("sum-by-window").value
        assert len(windows) > 1
        assert sum(windows.values()) == TOTAL
        with pytest.raises(ViewError):
            runtime.views.expected("sum-by-window")


class TestSidecarOnBases:
    """Only a base carries a view sidecar; a position cut resumes from
    its base's and folds the log up to its own position."""

    def _recovering_run(self, program, register, crash_at_ms):
        """Cuts every 150 ms (a base every 4), *register* called at
        200 ms — after the first base and the position cut at 150 — and
        a coordinator crash at *crash_at_ms*.  Returns the runtime and,
        per recovery, ``(restored cut, its base, view reads right after
        the restore)``."""
        runtime = StateflowRuntime(program, config=StateflowConfig(
            coordinator=CoordinatorConfig(snapshot_interval_ms=150.0,
                                          failure_detect_ms=200.0)))
        restored = []
        manager, coordinator = runtime.views, runtime.coordinator
        on_restore = manager.on_restore

        def recording_on_restore(sidecar):
            on_restore(sidecar)
            cut = coordinator.snapshots.latest()
            (base,) = [b for b in coordinator.snapshots.retained()
                       if b.snapshot_id == cut.base_id]
            reads = {}
            for name in manager.names():
                try:
                    reads[name] = manager.read(name).value
                except ViewError as error:
                    reads[name] = str(error)
            restored.append((cut, base, reads))

        manager.on_restore = recording_on_restore
        runtime.sim.schedule_at(200.0, lambda: register(runtime))
        runtime.fail_coordinator(at_ms=crash_at_ms, failover_after_ms=80.0)
        return runtime, restored

    def test_a_view_registered_mid_run_recovers_its_windows(
            self, account_program):
        """A windowed view registered after the first base makes the
        next cut a base, so a crash after a later position cut resumes
        the view from that base's sidecar: its windows right after the
        restore are the ones the crash-free run had at the cut's seq,
        and nothing was rescanned.  (Without the rebase the position
        cut's base would predate the view, and a scan would collapse
        every key into the recovery's window.)"""
        spec = ViewSpec("by-window", "Account", "sum", field="balance",
                        window_ms=100.0)
        runtime, restored = self._recovering_run(
            account_program, lambda rt: QueryEngine(rt).register_view(spec),
            crash_at_ms=520.0)
        history = {}

        def probe(seq):
            if "by-window" in runtime.views.names():
                history[seq] = dict(runtime.views.read("by-window").value)

        runtime.views.probe = probe
        refs = runtime.preload(
            Account, [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
        runtime.start()
        plan = [(i % ACCOUNTS, (i * 3 + 1) % ACCOUNTS, 5 + i % 11)
                for i in range(25)]
        submit_transfers(runtime, refs, plan)
        runtime.sim.run(until=60_000)

        assert runtime.coordinator.recoveries == 1
        ((cut, base, reads),) = restored
        assert reads["by-window"] == history[cut.changelog_seq]
        assert len(reads["by-window"]) > 1
        assert runtime.views.rehydrations == 0
        assert runtime.views.sidecar_restores == 1
        assert cut.kind == "position" and cut.views_state is None
        assert base.taken_at_ms > 200.0, (
            "registering the view must make the next cut a base")
        assert base.changelog_seq < cut.changelog_seq, (
            "the resume must fold records past the base")
        windows = runtime.views.read("by-window").value
        assert sum(windows.values()) == TOTAL

    def test_a_plan_failed_after_its_base_is_failed_after_recovery(
            self, item_program):
        """A plan that fails between a base and the position cut a
        recovery restores: the fold from the base's sidecar meets the
        same poisoned record, so the plan rebuilds from a scan, which
        fails on the same row — out of service, naming the rehydration,
        as when the position cut carried its own sidecar without the
        failed plan.  The other plan resumes with its value."""
        def register(runtime):
            engine = QueryEngine(runtime)
            for spec in POISON_SPECS:
                engine.register_view(spec)

        runtime, restored = self._recovering_run(
            item_program, register, crash_at_ms=620.0)
        items = runtime.preload(
            PItem, [("i0", 8, 1), ("i1", 9, 2), ("i2", 6, 3)])
        runtime.start()
        runtime.sim.schedule_at(
            260.0, lambda: runtime.submit(items[0], "restock", (4,)))
        runtime.sim.schedule_at(
            400.0, lambda: runtime.submit(items[1], "clear", ()))
        runtime.sim.schedule_at(
            480.0, lambda: runtime.submit(items[2], "restock", (5,)))
        runtime.sim.run(until=60_000)

        assert runtime.coordinator.recoveries == 1
        ((cut, base, reads),) = restored
        assert cut.kind == "position"
        assert base.taken_at_ms > 200.0
        assert base.taken_at_ms < 400.0 < cut.taken_at_ms
        for name, verb in (("best", "ordered"), ("score-sum", "summed")):
            assert reads[name].startswith(
                f"view {name!r} failed at rehydration at seq "
                f"{cut.changelog_seq}: view row for key 'i1': value None "
                f"cannot be {verb}")
        assert reads["stock-sum"] == 1 + 4 + 2 + 3 + 5
        assert runtime.views.rehydrations == 2
        assert runtime.views.sidecar_restores == 1


@pytest.mark.slow
class TestProcessSubstrate:
    def test_views_on_real_processes(self, account_program):
        """The manager hangs off the parent-side committed mirror, so
        views (and push subscriptions) work unchanged when workers are
        real processes — nothing touches the Aria commit path."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            spawner="process", workers=3,
            coordinator=CoordinatorConfig(
                failure_detect_ms=2_000.0, snapshot_interval_ms=500.0)))
        try:
            refs = runtime.preload(
                Account,
                [(f"acct-{i}", SEED_BALANCE) for i in range(ACCOUNTS)])
            runtime.start()
            engine = standard_views(runtime)
            updates: list = []
            engine.subscribe_view("total", updates.append)
            for i in range(10):
                runtime.call(refs[i % ACCOUNTS], "transfer", 7,
                             refs[(i + 1) % ACCOUNTS])
            assert_views_match_oracle(runtime)
            assert engine.view("total").value == TOTAL
            assert updates and updates[-1].value == TOTAL
        finally:
            runtime.close()
