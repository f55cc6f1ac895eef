"""Nobody writes to a view's row, and nobody copies one to be safe.

``repro.views`` continues the entry contract of ``repro.runtimes.state``
(see ``test_shared_entries.py``): a row is private to the view layer
when it enters it, immutable and shared from there — by every plan of
the batch, the changelog record and every cut's sidecar — and copied
only where it leaves (``TopK.result`` behind reads and pushed updates).
Both halves are pinned here:

- over a run with a view of every operator kind (filtered count,
  grouped sum, min, max, top-k, FK join, window) on rows with *nested*
  state, a subscriber on every view, several cuts and a coordinator
  crash that restores every plan from a sidecar, everything handed out
  — ``engine.view()`` values, ``ViewUpdate`` values and deltas, before
  and after the restore — is scribbled on at every depth the moment it
  is handed out; every view still equals its oracle at every commit,
  and every cut's ``views_state``, fingerprinted when it was taken, is
  byte-identical at the end;
- copies as exact counts: one committed key folded into the bench
  cell's six plans makes zero ``dict`` copies, every memo holds the
  committed row itself, and ``export_sidecar`` hands the same rows on.
"""

import pickle

import pytest

from repro import compile_program, entity
from repro.bench.views import cell_views
from repro.query import QueryEngine, ViewSpec
from repro.runtimes.stateflow import (
    CoordinatorConfig,
    StateflowConfig,
    StateflowRuntime,
)
from repro.runtimes.state import DictStateBackend
from repro.runtimes.stateflow.snapshots import SnapshotStore
from repro.views import ViewManager, manager as manager_module
from repro.views import operators as operators_module


@entity
class RCustomer:
    def __init__(self, cid: str, tier: int):
        self.cid: str = cid
        self.tier: int = tier

    def __key__(self):
        return self.cid

    def set_tier(self, tier: int) -> int:
        self.tier = tier
        return self.tier


@entity
class ROrder:
    def __init__(self, oid: str, customer_id: str, amount: int):
        self.oid: str = oid
        self.customer_id: str = customer_id
        self.amount: int = amount
        self.tags: list = ["new"]

    def __key__(self):
        return self.oid

    def set_amount(self, amount: int) -> int:
        self.amount = amount
        return self.amount

    def tag(self, label: str) -> int:
        self.tags.append(label)
        return len(self.tags)

    def reassign(self, customer_id: str) -> str:
        self.customer_id = customer_id
        return self.customer_id


@pytest.fixture(scope="module")
def order_program():
    return compile_program([RCustomer, ROrder])


def _large(row):
    return row["amount"] >= 12


def every_kind() -> list[ViewSpec]:
    return [
        ViewSpec("large-count", "ROrder", "count", where=_large),
        ViewSpec("amount-by-customer", "ROrder", "sum", field="amount",
                 group_by="customer_id"),
        ViewSpec("smallest", "ROrder", "min", field="amount"),
        ViewSpec("largest", "ROrder", "max", field="amount"),
        ViewSpec("top3", "ROrder", "top_k", field="amount", k=3),
        ViewSpec("top2-joined", "ROrder", "top_k", field="amount", k=2,
                 join_entity="RCustomer", join_on="customer_id"),
        ViewSpec("amount-by-tier", "ROrder", "sum", field="amount",
                 group_by="RCustomer__tier",
                 join_entity="RCustomer", join_on="customer_id"),
        ViewSpec("commits-per-window", "ROrder", "count", window_ms=200.0),
    ]


def scribble(value) -> None:
    """Write to *value* at every depth a reader could reach."""
    if isinstance(value, dict):
        for item in list(value.values()):
            scribble(item)
        for key in list(value):
            value[key] = "scribbled"
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")


def test_rows_handed_out_are_the_readers_to_ruin(order_program, monkeypatch):
    cuts: list[tuple[object, bytes]] = []
    take = SnapshotStore.take

    def fingerprinting_take(self, **kwargs):
        sidecar = kwargs["views_state"]
        cuts.append((sidecar, pickle.dumps(sidecar)))
        return take(self, **kwargs)

    monkeypatch.setattr(SnapshotStore, "take", fingerprinting_take)
    runtime = StateflowRuntime(order_program, config=StateflowConfig(
        coordinator=CoordinatorConfig(snapshot_interval_ms=150.0,
                                      failure_detect_ms=200.0)))
    customers = runtime.preload(RCustomer, [("c0", 1), ("c1", 2)])
    orders = runtime.preload(
        ROrder, [(f"o{i}", f"c{i % 2}", 10 + i) for i in range(6)])
    runtime.start()
    engine = QueryEngine(runtime)
    pushed = []

    def ruin(update) -> None:
        pushed.append(update.view)
        scribble(update.value)
        scribble(update.delta)

    for spec in every_kind():
        scribble(engine.register_view(spec).value)
        engine.subscribe_view(spec.name, ruin)

    manager = runtime.views
    mismatches = []

    def read_ruin_and_check(batch_id: int) -> None:
        for name in manager.names():
            scribble(engine.view(name).value)
            if name == "commits-per-window":
                continue  # no store oracle; conservation is checked below
            got, want = manager.read(name).value, manager.expected(name)
            if got != want:
                mismatches.append((batch_id, name, got, want))

    manager.probe = read_ruin_and_check
    moves = [(orders[0], "set_amount", (50,)),
             (orders[1], "tag", ("gift",)),
             (customers[0], "set_tier", (9,)),
             (orders[5], "tag", ("rush",)),
             (orders[1], "reassign", ("c0",)),
             (orders[2], "set_amount", (7,)),
             (customers[1], "set_tier", (4,)),
             (orders[0], "tag", ("late",)),
             (orders[3], "reassign", ("c1",)),
             (orders[4], "set_amount", (31,))]
    for index, (ref, method, arguments) in enumerate(moves):
        runtime.sim.schedule_at(
            index * 80.0,
            lambda r=ref, m=method, a=arguments: runtime.submit(r, m, a))
    runtime.fail_coordinator(at_ms=420.0, failover_after_ms=80.0)
    runtime.sim.run(until=60_000)

    # The run did what it says: commits, pushes on every plan shape,
    # cuts carrying a sidecar, and a recovery that restored every plan
    # from one — after which the probe went on scribbling on reads.
    assert manager.commits_applied >= len(moves)
    assert {"top3", "top2-joined", "amount-by-tier"} <= set(pushed)
    assert manager.rehydrations == 0
    assert manager.sidecar_restores >= len(manager._compiler.plans)
    assert sum(1 for sidecar, _ in cuts if sidecar is not None) >= 3

    assert mismatches == []
    read_ruin_and_check(-1)
    assert mismatches == []
    assert sum(engine.view("commits-per-window").value.values()) == 6
    top = engine.view("top3").value
    assert [row["__key__"] for row in top] == ["o0", "o4", "o5"]
    assert top[0]["tags"] == ["new", "late"] and "scribbled" not in top[0]
    assert engine.view("top2-joined").value[0]["RCustomer__tier"] == 9

    for index, (sidecar, fingerprint) in enumerate(cuts):
        assert pickle.dumps(sidecar) == fingerprint, (
            f"the sidecar of cut {index} of {len(cuts)} was written after "
            f"it was taken")


# ---------------------------------------------------------------------------
# copies as exact counts


class CountedDict(dict):
    """Stands in for the name ``dict`` inside the view modules: counts
    each call and hands back what the builtin would have."""

    calls = 0

    def __new__(cls, *args, **kwargs):
        CountedDict.calls += 1
        return dict(*args, **kwargs)


def _memo_rows(manager) -> list[dict]:
    """Every row any plan memoizes (top-k rows, both join sides)."""
    rows = []
    for compiled in manager._compiler.plans:
        rows += [memo[1] for memo in getattr(compiled.terminal, "_rows",
                                             {}).values()]
        if compiled.join is not None:
            rows += list(compiled.join._left.values())
            rows += list(compiled.join._right.values())
    return rows


def test_fold_copies_no_row_and_export_shares_them(monkeypatch):
    store = DictStateBackend({
        ("Account", f"acct-{i:04d}"): {"account_id": f"acct-{i:04d}",
                                       "balance": 1_000, "payload": ""}
        for i in range(40)})
    manager = ViewManager(store)
    for spec in cell_views():
        manager.register(spec)
    key = "acct-0033"
    committed = {"account_id": key, "balance": 1_000, "payload": "x"}
    store.put("Account", key, committed)

    monkeypatch.setattr(operators_module, "dict", CountedDict, raising=False)
    monkeypatch.setattr(manager_module, "dict", CountedDict, raising=False)
    CountedDict.calls = 0
    manager.on_commit(0, {("Account", key): committed}, at_ms=1.0)
    assert CountedDict.calls == 0, "the fold path copies nothing"
    assert manager.keys_applied == 1

    # The one plan that memoizes rows holds the committed row itself.
    top10 = manager._views["top-10"].terminal
    assert top10._rows[key][1] is committed

    # A commit that makes the key visible copies exactly the k rows of
    # the emitted top-k list (they leave the layer), not the fold's.
    committed = {"account_id": key, "balance": 1_250, "payload": "y"}
    store.put("Account", key, committed)
    CountedDict.calls = 0
    manager.on_commit(1, {("Account", key): committed}, at_ms=2.0)
    assert CountedDict.calls == 10
    assert top10._rows[key][1] is committed

    # A cut copies containers (one per memo), never a row: every row in
    # the payload is the row the plan holds.
    live_rows = {id(row) for row in _memo_rows(manager)}
    CountedDict.calls = 0
    sidecar = manager.export_sidecar()
    containers = CountedDict.calls
    exported = [memo[1] for plan in sidecar["plans"]
                for memo in plan["state"]["terminal"].get(
                    "rows", {}).values()]
    assert len(exported) == 40
    assert all(id(row) in live_rows for row in exported)
    assert containers == 6, (
        "five contribution memos and one top-k row memo — a count that "
        "does not grow with the rows")

    # ...and the reader's copy is its own.
    handed_out = manager.read("top-10").value[0]
    assert handed_out["__key__"] == key and handed_out is not committed
    handed_out["balance"] = -1
    assert committed["balance"] == 1_250
    assert manager.read("top-10").value == manager.expected("top-10")
