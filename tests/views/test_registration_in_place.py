"""Registration reads the store in place.

Hydration walks ``entries(entity)``: the committed entries themselves,
slot by slot, with no key routed again and no row copied — the same
row contract the commit fan-out follows (``PartitionedStore.entry``).
These tests count both costs on a multi-slot store holding two
entities, check that every memoized row *is* the store's entry, and
that a shared row does not let a later commit leak into a view before
the batch is folded.

Registration also *builds* each plan rather than folding the scan in:
an ordered index is sorted once, never inserted into row by row, and a
row the fold rejects still fails registration with the fold's own
error."""

import copy

import pytest

from repro.bench.views import cell_views
from repro.runtimes import state as state_module
from repro.runtimes.state import PartitionedStore
from repro.views import OrderedGroupIndex, ViewError, ViewManager, ViewSpec
from repro.views import operators as operators_module
from repro.views.compiler import compile_spec, recompute

ACCOUNTS = 60
BRANCHES = 4

JOIN = ViewSpec("balance-by-region", "Account", "sum", field="balance",
                group_by="Branch__region", join_entity="Branch",
                join_on="branch")


def _specs():
    return cell_views() + [JOIN]


def _account(i, balance=None):
    return {"account_id": f"acct-{i:04d}",
            "balance": 900 + (i * 37) % 300 if balance is None else balance,
            "payload": "", "branch": f"b{i % BRANCHES}"}


def _store():
    store = PartitionedStore(3, slots=16)
    for i in range(ACCOUNTS):
        store.put("Account", f"acct-{i:04d}", _account(i))
    for b in range(BRANCHES):
        store.put("Branch", f"b{b}", {"region": f"r{b % 2}"})
    return store


@pytest.fixture
def counted(monkeypatch):
    """Count every ``fast_deepcopy`` (state layer and view operators)
    and every ``route_hash`` the state layer routes with."""
    counts = {"copies": 0, "hashes": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    copy_fn = counting("copies", state_module.fast_deepcopy)
    monkeypatch.setattr(state_module, "fast_deepcopy", copy_fn)
    monkeypatch.setattr(operators_module, "fast_deepcopy", copy_fn)
    monkeypatch.setattr(state_module, "route_hash",
                        counting("hashes", state_module.route_hash))
    return counts


def _memo_rows(manager):
    """``(entity, key, row)`` for every row a top-k or join memo holds."""
    rows = []
    for compiled in manager._compiler.plans:
        if compiled.join is not None:
            rows += [("Account", key, row)
                     for key, row in compiled.join._left.items()]
            rows += [("Branch", key, row)
                     for key, row in compiled.join._right.items()]
        elif compiled.spec.kind == "top_k":
            rows += [("Account", key, memo[1])
                     for key, memo in compiled.terminal._rows.items()]
    return rows


def _oracle(store, spec):
    """The spec's value over private deep copies of the store's rows."""
    join_items = None
    if spec.join_entity is not None:
        join_items = [(key, copy.deepcopy(row))
                      for key, row in store.entries(spec.join_entity)]
    return recompute(spec, [(key, copy.deepcopy(row))
                            for key, row in store.entries(spec.entity)],
                     join_items=join_items)


def _assert_in_place(store, manager):
    memo = _memo_rows(manager)
    assert len(memo) == ACCOUNTS + ACCOUNTS + BRANCHES, (
        "the top-k memo holds every account; the join both sides")
    for entity, key, row in memo:
        assert row is store.entry(entity, key), (
            f"{entity} {key!r}: a memoized row must be the committed "
            f"entry, not a copy of it")
    for spec in _specs():
        assert manager.read(spec.name).value == _oracle(store, spec)


def test_registration_copies_and_routes_no_row(counted):
    store = _store()
    manager = ViewManager(store)
    counted.update(copies=0, hashes=0)
    for spec in _specs():
        manager.register(spec)
    assert counted == {"copies": 0, "hashes": 0}, (
        "hydration must read the committed entries in place: no copy, "
        "no re-routing of a key it already holds")
    _assert_in_place(store, manager)


def test_a_swapped_entry_reaches_a_view_only_when_folded():
    store = _store()
    manager = ViewManager(store)
    for spec in _specs():
        manager.register(spec)
    before = {spec.name: manager.read(spec.name).value for spec in _specs()}
    old = store.entry("Account", "acct-0007")
    store.put("Account", "acct-0007", _account(7, balance=50_000))
    store.put("Branch", "b1", {"region": "r9"})
    assert store.entry("Account", "acct-0007") is not old
    assert {spec.name: manager.read(spec.name).value
            for spec in _specs()} == before, (
        "a commit swaps the entry; the row a view holds is the old one")
    manager.on_commit(0, {
        ("Account", "acct-0007"): store.entry("Account", "acct-0007"),
        ("Branch", "b1"): store.entry("Branch", "b1")}, at_ms=1.0)
    after = {spec.name: manager.read(spec.name).value for spec in _specs()}
    assert after != before
    for spec in _specs():
        assert after[spec.name] == _oracle(store, spec)


def test_on_restore_without_a_sidecar_rehydrates_in_place(counted):
    store = _store()
    manager = ViewManager(store)
    for spec in _specs():
        manager.register(spec)
    cut = store.snapshot()
    store.put("Account", "acct-0003", _account(3, balance=1))
    manager.on_commit(0, {("Account", "acct-0003"):
                          store.entry("Account", "acct-0003")}, at_ms=1.0)
    store.restore(cut)
    counted.update(copies=0, hashes=0)
    manager.on_restore(None)
    assert counted == {"copies": 0, "hashes": 0}
    assert manager.rehydrations == len(manager._compiler.plans)
    _assert_in_place(store, manager)


def test_registration_and_recompute_sort_instead_of_inserting(monkeypatch):
    calls = {"add": 0, "insort": 0}
    add, insort = OrderedGroupIndex.add, operators_module.insort

    def counted_add(self, *args):
        calls["add"] += 1
        return add(self, *args)

    def counted_insort(*args):
        calls["insort"] += 1
        return insort(*args)

    monkeypatch.setattr(OrderedGroupIndex, "add", counted_add)
    monkeypatch.setattr(operators_module, "insort", counted_insort)
    store = _store()
    manager = ViewManager(store)
    for spec in _specs():
        manager.register(spec)
        _oracle(store, spec)
    assert calls == {"add": 0, "insort": 0}, (
        "a from-empty build sorts each ordered index once")
    _assert_in_place(store, manager)


@pytest.mark.parametrize("kind, poison", [
    ("min", None), ("min", float("nan")), ("min", "seven"),
    ("top_k", None), ("top_k", float("nan")), ("top_k", "seven"),
    ("sum", None), ("sum", "seven"), ("avg", [7]),
])
def test_a_row_the_fold_rejects_fails_registration_alike(kind, poison):
    spec = ViewSpec("poisoned", "Account", kind, field="balance", k=3)
    store = _store()
    store.put("Account", "acct-0031", {**_account(31), "balance": poison})
    with pytest.raises(ViewError) as folded:
        compile_spec(spec).apply(dict(store.entries("Account")))
    manager = ViewManager(store)
    with pytest.raises(ViewError) as registered:
        manager.register(spec)
    assert str(registered.value) == str(folded.value)
    assert "acct-0031" in str(registered.value)
    assert manager.names() == [] and manager._compiler.plans == [], (
        "a plan nobody registered stays off the commit path")
