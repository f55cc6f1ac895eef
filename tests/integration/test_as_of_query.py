"""Time-travel queries (``consistency="as_of"``) against a serial
oracle.

The oracle is the changelog itself, observed from the outside: a spy on
``changelog.append`` records every committed batch's write set, so the
state "as of batch N" is the preload folded with every record whose
``batch_id <= N`` — plain dict updates, no snapshot machinery.  The
engine must reproduce that at *every* queryable batch boundary (and at
every commit timestamp), with serial and with pipelined batches,
anchoring on whichever retained cut is nearest and replaying the
changelog suffix.

Targets older than the retained history must be refused, never answered
wrong — the aggregate-error satellites (``sum``/``top_k`` naming the
missing field) ride along at the bottom.
"""

import pytest

from repro.query import QueryEngine, QueryError
from repro.runtimes import LocalRuntime
from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.runtimes.stateflow.snapshots import SnapshotStore
from repro.substrates.simulation import Simulation
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload

RECORDS = 16
TOTAL = RECORDS * 1_000


def run_traced(account_program, *, snapshot_mode="incremental",
               unbounded_retention=True, seed=11, pipeline_depth=2):
    """One deterministic YCSB-T run; returns (runtime, initial_state,
    log) where *log* is every changelog append as (batch_id, writes,
    at_ms) — the serial oracle's tape."""
    config = StateflowConfig(
        workers=3, snapshot_mode=snapshot_mode,
        pipeline_depth=pipeline_depth,
        coordinator=CoordinatorConfig(snapshot_interval_ms=150.0,
                                      failure_detect_ms=200.0,
                                      snapshot_base_every=3))
    runtime = StateflowRuntime(account_program, sim=Simulation(seed=seed),
                               config=config)
    if unbounded_retention and snapshot_mode == "incremental":
        # The default window keeps 4 cuts; during the idle drain those
        # all collapse onto the final batch, which leaves nothing to
        # time-travel through.  Widen retention so the whole run stays
        # within the retained history (the bounded-window refusal has
        # its own test below).
        runtime.coordinator.snapshots = SnapshotStore(
            keep=10_000, mode="incremental", base_every=3)
    log = []
    changelog = runtime.coordinator.changelog
    original_append = changelog.append

    def spy(batch_id, writes, *, at_ms=0.0):
        log.append((batch_id, dict(writes), at_ms))
        return original_append(batch_id, writes, at_ms=at_ms)

    changelog.append = spy
    workload = YcsbWorkload("T", record_count=RECORDS,
                            distribution="uniform", seed=seed + 1,
                            initial_balance=1_000)
    runtime.preload(Account, workload.dataset_rows())
    initial = materialize_snapshot(runtime.committed.snapshot())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=150.0, duration_ms=1_500.0, warmup_ms=0.0, drain_ms=20_000.0,
        seed=seed + 2))
    driver.run()
    runtime.sim.run(until=runtime.sim.now + 20_000.0)
    return runtime, initial, log


def oracle_at(initial, log, batch):
    """Serial replay: fold every committed write set up to *batch*."""
    state = dict(initial)
    for batch_id, writes, _ in log:
        if batch_id <= batch:
            state.update(writes)
    return {key: value for key, value in state.items() if value is not None}


def rows_as_state(result):
    return {("Account", row["__key__"]):
            {field: value for field, value in row.items()
             if field != "__key__"}
            for row in result.rows}


@pytest.mark.parametrize("pipeline_depth", [1, 2])
class TestAsOfMatchesSerialOracle:
    def test_every_batch_boundary(self, account_program, pipeline_depth):
        runtime, initial, log = run_traced(account_program,
                                           pipeline_depth=pipeline_depth)
        engine = QueryEngine(runtime)
        batches = sorted({batch_id for batch_id, _, _ in log})
        assert len(batches) >= 10, "run too small to mean anything"
        compared = refused = 0
        for batch in batches:
            try:
                result = engine.select("Account", consistency="as_of",
                                       at_batch=batch)
            except QueryError as error:
                # Only targets before the first retained cut may be
                # refused, and the refusal must say why.
                assert "retained history" in str(error)
                refused += 1
                continue
            assert rows_as_state(result) == oracle_at(initial, log, batch)
            compared += 1
        assert compared >= 10, (compared, refused)

    def test_every_commit_timestamp(self, account_program, pipeline_depth):
        runtime, initial, log = run_traced(account_program,
                                           pipeline_depth=pipeline_depth)
        engine = QueryEngine(runtime)
        compared = 0
        for batch_id, _, at_ms in log:
            try:
                result = engine.select("Account", consistency="as_of",
                                       at_ms=at_ms)
            except QueryError as error:
                assert "retained history" in str(error)
                continue
            assert rows_as_state(result) == oracle_at(initial, log,
                                                      batch_id)
            compared += 1
        assert compared >= 10

    def test_aggregates_conserve_at_every_boundary(self, account_program,
                                                   pipeline_depth):
        """YCSB-T is pure transfers: the as-of total must equal the
        preloaded total at every queryable point in history."""
        runtime, _, log = run_traced(account_program,
                                     pipeline_depth=pipeline_depth)
        engine = QueryEngine(runtime)
        checked = 0
        for batch in sorted({batch_id for batch_id, _, _ in log}):
            try:
                total = engine.sum("Account", "balance",
                                   consistency="as_of", at_batch=batch)
            except QueryError:
                continue
            assert total == TOTAL
            checked += 1
        assert checked >= 10

    def test_result_is_stamped_with_its_time(self, account_program,
                                             pipeline_depth):
        runtime, _, log = run_traced(account_program,
                                     pipeline_depth=pipeline_depth)
        engine = QueryEngine(runtime)
        last_batch, _, last_at_ms = log[-1]
        result = engine.select("Account", consistency="as_of",
                               at_batch=last_batch)
        assert result.consistency == "as_of"
        # The anchor cut may postdate the last commit (an idle-drain
        # cut with an empty suffix observes the same state, later).
        assert result.as_of_ms >= last_at_ms
        # A timestamp target is an upper bound on the observed time.
        mid_batch, _, mid_at_ms = log[len(log) // 2]
        by_time = engine.select("Account", consistency="as_of",
                                at_ms=mid_at_ms)
        assert by_time.as_of_ms <= mid_at_ms


class TestAsOfRefusals:
    def test_needs_exactly_one_target(self, account_program):
        runtime, _, log = run_traced(account_program)
        engine = QueryEngine(runtime)
        with pytest.raises(QueryError, match="exactly one"):
            engine.select("Account", consistency="as_of")
        with pytest.raises(QueryError, match="exactly one"):
            engine.select("Account", consistency="as_of", at_batch=1,
                          at_ms=10.0)

    def test_targets_require_as_of_consistency(self, account_program):
        runtime, _, _ = run_traced(account_program)
        engine = QueryEngine(runtime)
        with pytest.raises(QueryError, match="consistency='as_of'"):
            engine.select("Account", consistency="live", at_batch=1)
        with pytest.raises(QueryError, match="consistency='as_of'"):
            engine.sum("Account", "balance", consistency="snapshot",
                       at_ms=5.0)

    def test_full_mode_has_no_changelog_to_replay(self, account_program):
        runtime, _, _ = run_traced(account_program, snapshot_mode="full")
        with pytest.raises(QueryError, match="changelog"):
            QueryEngine(runtime).select("Account", consistency="as_of",
                                        at_batch=0)

    def test_point_before_retained_history_is_refused(self, account_program):
        """With the real bounded retention window, the idle drain walks
        every retained cut onto the final batch — early history is
        compacted away and must be refused, not misanswered."""
        runtime, _, log = run_traced(account_program,
                                     unbounded_retention=False)
        with pytest.raises(QueryError, match="retained history"):
            QueryEngine(runtime).select("Account", consistency="as_of",
                                        at_batch=0)
        # The recent end of history is still there.
        last_batch = max(batch_id for batch_id, _, _ in log)
        result = QueryEngine(runtime).select(
            "Account", consistency="as_of", at_batch=last_batch)
        assert len(result) == RECORDS


class TestAggregateFieldErrors:
    @pytest.fixture()
    def engine(self, account_program):
        runtime = LocalRuntime(account_program)
        for index, balance in enumerate([10, 25]):
            runtime.create(Account, f"acct-{index}", balance)
        return QueryEngine(runtime)

    @pytest.mark.parametrize("aggregate", ["sum", "avg", "min", "max"])
    def test_aggregates_name_the_missing_field(self, engine, aggregate):
        with pytest.raises(QueryError, match=r"'ghost' on entity "
                                             r"'Account'"):
            getattr(engine, aggregate)("Account", "ghost")

    def test_top_k_names_the_missing_field(self, engine):
        with pytest.raises(QueryError, match=r"'ghost'.*'Account'"):
            engine.top_k("Account", "ghost", 2)
