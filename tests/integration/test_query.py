"""Query engine over entity state (Section 5)."""

import pickle
from types import SimpleNamespace

import pytest

from repro.query import QueryEngine, QueryError
from repro.query import engine as engine_module
from repro.runtimes import state as state_module
from repro.runtimes.state import PartitionedStore
from repro.runtimes import LocalRuntime
from repro.runtimes.stateflow import StateflowRuntime
from repro.runtimes.statefun import StatefunRuntime
from repro.workloads import Account


@pytest.fixture()
def local_accounts(account_program):
    runtime = LocalRuntime(account_program)
    for index, balance in enumerate([10, 25, 40, 55]):
        runtime.create(Account, f"acct-{index}", balance)
    return runtime


class TestSelect:
    def test_scan_all(self, local_accounts):
        result = QueryEngine(local_accounts).select("Account")
        assert len(result) == 4
        assert result.keys() == [f"acct-{i}" for i in range(4)]

    @pytest.mark.parametrize("runtime_cls", [LocalRuntime, StatefunRuntime])
    def test_live_scan_of_created_entities(self, account_program,
                                           runtime_cls):
        runtime = runtime_cls(account_program)
        for index, balance in enumerate([10, 25]):
            runtime.create(Account, f"acct-{index}", balance)
        result = QueryEngine(runtime).select("Account")
        assert sorted(result.scalars("balance")) == [10, 25]

    def test_stateflow_queries_live_and_snapshot(self, account_program):
        runtime = StateflowRuntime(account_program)
        a, b = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()
        runtime.call(a, "transfer", 30, b)
        engine = QueryEngine(runtime)
        assert sorted(engine.select(
            "Account", consistency="live").scalars("balance")) == [70, 130]
        snapshot = engine.select("Account", consistency="snapshot")
        assert sorted(snapshot.scalars("balance")) == [100, 100]

    def test_where(self, local_accounts):
        result = QueryEngine(local_accounts).select(
            "Account", where=lambda s: s["balance"] >= 40)
        assert result.keys() == ["acct-2", "acct-3"]

    def test_project(self, local_accounts):
        result = QueryEngine(local_accounts).select(
            "Account", project=["balance"])
        assert set(result.rows[0]) == {"balance", "__key__"}

    def test_project_unknown_field(self, local_accounts):
        with pytest.raises(QueryError):
            QueryEngine(local_accounts).select("Account",
                                               project=["ghost"])

    def test_order_and_limit(self, local_accounts):
        result = QueryEngine(local_accounts).select(
            "Account", order_by="balance", descending=True, limit=2)
        assert result.scalars("balance") == [55, 40]

    def test_top_k(self, local_accounts):
        result = QueryEngine(local_accounts).top_k("Account", "balance", 1)
        assert result.keys() == ["acct-3"]

    def test_top_k_tie_break_is_ascending_key(self, account_program):
        runtime = LocalRuntime(account_program)
        for key in ["zed", "abe", "mid"]:
            runtime.create(Account, key, 50)
        runtime.create(Account, "low", 10)
        result = QueryEngine(runtime).top_k("Account", "balance", 3)
        assert result.keys() == ["abe", "mid", "zed"], (
            "equal scores must rank by ascending key string — the same "
            "deterministic order the incremental top-k view maintains")

    def test_top_k_where_and_validation(self, local_accounts):
        engine = QueryEngine(local_accounts)
        result = engine.top_k("Account", "balance", 2,
                              where=lambda s: s["balance"] < 50)
        assert result.scalars("balance") == [40, 25]
        with pytest.raises(QueryError, match="k >= 1"):
            engine.top_k("Account", "balance", 0)
        with pytest.raises(QueryError, match="unknown field"):
            engine.top_k("Account", "ghost", 2)

    def test_unknown_entity_empty(self, local_accounts):
        assert len(QueryEngine(local_accounts).select("Ghost")) == 0

    def test_point_read_never_scans(self, account_program):
        """A single-key live read must go straight to ``store.get``
        without scanning the entity's ``store.entries``."""
        runtime = LocalRuntime(account_program)
        for index, balance in enumerate([10, 25, 40]):
            runtime.create(Account, f"acct-{index}", balance)
        store = runtime.state

        class NoScanStore:
            def keys(self):
                raise AssertionError("point read must not enumerate keys")

            def entries(self, entity):
                raise AssertionError("point read must not scan entries")

            def get(self, entity, key):
                return store.get(entity, key)

        engine = QueryEngine(SimpleNamespace(state=NoScanStore()))
        result = engine.select("Account", key="acct-1")
        assert result.rows == [{"account_id": "acct-1", "balance": 25,
                                "payload": "", "__key__": "acct-1"}]
        assert engine.select("Account", key="ghost").rows == []

    def test_point_read_respects_where_and_project(self, local_accounts):
        engine = QueryEngine(local_accounts)
        assert engine.select("Account", key="acct-0",
                             where=lambda s: s["balance"] > 99).rows == []
        row = engine.select("Account", key="acct-2",
                            project=["balance"]).rows[0]
        assert row == {"balance": 40, "__key__": "acct-2"}

    def test_bad_consistency(self, local_accounts):
        with pytest.raises(QueryError):
            QueryEngine(local_accounts).select("Account",
                                               consistency="psychic")


class TestLiveReadsCopyOnlyWhatTheyReturn:
    """A live scan walks ``entries(entity)`` in place and copies each
    row of the queried entity once: the copy a predicate sees is the row
    returned, and the committed entries stay out of everybody's reach."""

    @pytest.fixture()
    def two_entities(self):
        store = PartitionedStore(2, slots=8)
        for i in range(12):
            store.put("Account", f"acct-{i:02d}",
                      {"balance": 10 * i, "history": [i, [i]]})
        for b in range(5):
            store.put("Branch", f"b{b}", {"region": "north"})
        return store

    @pytest.fixture()
    def copied(self, monkeypatch):
        """The ids of every value handed to ``fast_deepcopy``."""
        seen = []

        def counting(value):
            seen.append(id(value))
            return original(value)

        original = state_module.fast_deepcopy
        monkeypatch.setattr(state_module, "fast_deepcopy", counting)
        monkeypatch.setattr(engine_module, "fast_deepcopy", counting)
        return seen

    def test_one_copy_per_row_of_the_entity(self, two_entities, copied):
        accounts = {id(row) for _, row in two_entities.entries("Account")}
        engine = QueryEngine(SimpleNamespace(committed=two_entities))
        assert len(engine.select("Account")) == 12
        assert sorted(copied) == sorted(accounts), (
            "exactly one copy per Account row, none of a Branch row")
        copied.clear()
        assert engine.count("Account",
                            where=lambda row: row["balance"] > 100) == 1
        assert sorted(copied) == sorted(accounts)

    def test_scribbling_predicates_and_callers_change_nothing(
            self, two_entities):
        before = pickle.dumps(sorted(
            (key, row) for key, row in two_entities.entries("Account")))

        def scribble(row):
            row["balance"] = -1
            row["history"][1].append("x")
            row["history"].append("y")
            return True

        engine = QueryEngine(SimpleNamespace(committed=two_entities))
        rows = engine.select("Account", where=scribble).rows
        assert len(rows) == 12
        for row in rows:
            assert row["balance"] == -1
            row["history"][1].clear()
            row.clear()
        assert pickle.dumps(sorted(
            (key, row) for key, row in two_entities.entries("Account"))) \
            == before, "a query must never write a committed entry"
        fresh = engine.select("Account", key="acct-03").rows
        assert fresh == [{"balance": 30, "history": [3, [3]],
                          "__key__": "acct-03"}]


class TestAggregates:
    def test_count_sum_avg(self, local_accounts):
        engine = QueryEngine(local_accounts)
        assert engine.count("Account") == 4
        assert engine.sum("Account", "balance") == 130
        assert engine.avg("Account", "balance") == pytest.approx(32.5)
        assert engine.min("Account", "balance") == 10
        assert engine.max("Account", "balance") == 55

    def test_empty_avg_rejected(self, local_accounts):
        with pytest.raises(QueryError):
            QueryEngine(local_accounts).avg("Ghost", "balance")


class TestConsistencyLevels:
    def test_snapshot_requires_stateflow(self, local_accounts):
        with pytest.raises(QueryError):
            QueryEngine(local_accounts).select("Account",
                                               consistency="snapshot")

    def test_snapshot_is_stale_but_consistent(self, account_program):
        runtime = StateflowRuntime(account_program)
        a, b = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()  # initial snapshot covers the preloaded rows
        runtime.call(a, "transfer", 30, b)
        engine = QueryEngine(runtime)

        live = engine.select("Account", consistency="live")
        assert sorted(live.scalars("balance")) == [70, 130]

        stale = engine.select("Account", consistency="snapshot")
        assert sorted(stale.scalars("balance")) == [100, 100]
        assert stale.as_of_ms is not None
        assert stale.as_of_ms <= runtime.sim.now

        # After the next snapshot the transfer becomes visible — still
        # as an atomic unit (never 70/100 or 100/130).
        runtime.sim.run(until=runtime.sim.now + 1_000)
        fresh = engine.select("Account", consistency="snapshot")
        assert sorted(fresh.scalars("balance")) == [70, 130]

    def test_snapshot_reads_atomic_under_load(self, account_program):
        """The freshness/consistency trade-off: every snapshot read must
        conserve the global total even while transfers are in flight."""
        from repro.workloads import DriverConfig, WorkloadDriver, YcsbWorkload

        runtime = StateflowRuntime(account_program)
        workload = YcsbWorkload("T", record_count=20, seed=6,
                                initial_balance=100)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        engine = QueryEngine(runtime)
        totals = []

        def probe() -> None:
            try:
                totals.append(engine.sum("Account", "balance",
                                         consistency="snapshot"))
            except QueryError:
                pass
            runtime.sim.schedule(200.0, probe)

        runtime.sim.schedule(200.0, probe)
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=200, duration_ms=3_000, warmup_ms=0, drain_ms=2_000))
        driver.run()
        assert totals, "probe should have observed snapshots"
        assert all(total == workload.total_balance() for total in totals)
