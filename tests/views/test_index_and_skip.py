"""The ordered index against a model, and the unchanged-contribution
rule as exact counts.

- :class:`OrderedGroupIndex` keeps, per group, the distinct values
  ascending and beside each value its keys ascending by key string.  A
  hypothesis state machine drives add/remove/move/export→load over
  several groups — values with heavy ties drawn from ints *and* floats,
  keys from strings, ints and tuples whose ``str`` share prefixes — and
  after every step compares ``top``/``smallest``/``largest``/``len``
  with ``sorted(..., key=rank_key)``, the order's definition.
- A key that contributes what it already did costs a lookup: with the
  index's ``add``/``remove`` counted, a commit that rewrites ``payload``
  only performs zero index operations and emits nothing in the bench
  cell's six plans, one that moves ``balance`` performs exactly one
  remove and one add per ordered plan, ``1`` replaced by ``1.0`` is
  folded, and a windowed plan re-homes a key committed in a later
  window with the same value.
- A version-1 or version-2 sidecar indexes to nothing: ``on_restore``
  and a cold start's registrations fall back to scan hydration and land
  on oracle values.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bench.views import cell_views
from repro.runtimes.state import DictStateBackend
from repro.views import (
    SIDECAR_VERSION,
    GroupAggregate,
    OrderedGroupIndex,
    ViewManager,
    ViewSpec,
    compile_spec,
    rank_key,
)

GROUPS = st.sampled_from([None, "g", 7])
#: Heavy ties, across types: 1 == 1.0 and 2 == 2.0 share a place.
VALUES = st.sampled_from([0, 1, 1.0, 2, 2.0, 2.5, -1, -1.5])
#: Distinct key strings with shared prefixes, from three key types.
KEYS = st.sampled_from([
    "k1", "k10", "k100", "(1", "1 ",
    1, 10, 100, 2,
    (1,), (1, 0), (10,), ("k1",),
])


class IndexAgainstRankKey(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = OrderedGroupIndex()
        self.model: dict[tuple, object] = {}  # (group, key) -> value

    @rule(group=GROUPS, key=KEYS, value=VALUES)
    def put(self, group, key, value):
        """Add, or move an existing key to a new value."""
        old = self.model.get((group, key))
        if old is not None:
            self.index.remove(group, old, key)
        self.index.add(group, value, key)
        self.model[(group, key)] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        group, key = data.draw(st.sampled_from(sorted(
            self.model, key=repr)))
        self.index.remove(group, self.model.pop((group, key)), key)

    @rule()
    def export_then_load(self):
        """A restored image answers like the original and shares no
        list with it."""
        image = self.index.export_entries()
        restored = OrderedGroupIndex()
        restored.load_entries(image)
        for group, key in list(self.model)[:1]:
            self.index.remove(group, self.model[(group, key)], key)
            self.index.add(group, self.model[(group, key)], key)
        again = OrderedGroupIndex()
        again.load_entries(image)
        assert again.export_entries() == restored.export_entries()
        self.index = restored

    @invariant()
    def matches_the_sorted_model(self):
        assert len(self.index) == len(self.model)
        for group in (None, "g", 7):
            ranked = sorted(
                ((value, key) for (g, key), value in self.model.items()
                 if g == group),
                key=lambda pair: rank_key(*pair))
            if not ranked:
                assert self.index.smallest(group) is None
                assert self.index.largest(group) is None
                assert self.index.top(group, 3) == []
                continue
            for k in (1, 3, len(ranked) + 2):
                got = [(value, key, type(value))
                       for value, _, key in self.index.top(group, k)]
                want = [(value, key, type(value))
                        for value, key in ranked[::-1][:k]]
                assert got == want
            low, high = self.index.smallest(group), self.index.largest(group)
            assert (low[0], low[2]) == ranked[0]
            assert (high[0], high[2]) == ranked[-1]
            assert low[1] == str(low[2])


TestIndexAgainstRankKey = IndexAgainstRankKey.TestCase
TestIndexAgainstRankKey.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)


# ---------------------------------------------------------------------------
# the unchanged-contribution rule, counted


@pytest.fixture
def index_ops(monkeypatch):
    """Count every ``OrderedGroupIndex.add``/``remove`` call."""
    counts = {"add": 0, "remove": 0}
    for name in counts:
        original = getattr(OrderedGroupIndex, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(OrderedGroupIndex, name, counted)
    return counts


def _account(i, balance=1_000, payload=""):
    return {"account_id": f"acct-{i:04d}", "balance": balance,
            "payload": payload}


def _six_plans(accounts=50):
    """The bench cell's (and the perf ledger's) six standing views over
    *accounts* tied balances, every one with a subscriber."""
    store = DictStateBackend({("Account", f"acct-{i:04d}"): _account(i)
                              for i in range(accounts)})
    manager = ViewManager(store)
    pushed = []
    for spec in cell_views():
        manager.register(spec)
        manager.subscribe(spec.name, pushed.append)
    return store, manager, pushed


def _commit(store, manager, seq, key, row):
    store.put("Account", key, row)
    manager.on_commit(seq, {("Account", key): dict(row)}, at_ms=1.0)


ORDERED_PLANS = 3  # min-balance, max-by-bucket, top-10


class TestUnchangedContribution:
    def test_payload_only_commit_is_a_lookup(self, index_ops):
        store, manager, pushed = _six_plans()
        index_ops.update(add=0, remove=0)
        _commit(store, manager, 0, "acct-0040", _account(40, payload="x"))
        assert index_ops == {"add": 0, "remove": 0}
        assert pushed == [], "no view's output moved: nothing is pushed"
        assert manager.keys_applied == 1, "the key was offered all the same"
        for name in manager.names():
            assert manager.read(name).value == manager.expected(name)
            assert manager.read(name).applied_seq == 0

    def test_visible_top_k_row_republishes_without_index_surgery(
            self, index_ops):
        store, manager, pushed = _six_plans()
        index_ops.update(add=0, remove=0)
        _commit(store, manager, 0, "acct-0003", _account(3, payload="new"))
        assert index_ops == {"add": 0, "remove": 0}
        assert [update.view for update in pushed] == ["top-10"]
        assert pushed[0].value[3]["payload"] == "new"
        assert manager.read("top-10").value == manager.expected("top-10")

    def test_moved_balance_is_one_remove_and_one_add_per_ordered_plan(
            self, index_ops):
        store, manager, pushed = _six_plans()
        index_ops.update(add=0, remove=0)
        _commit(store, manager, 0, "acct-0040", _account(40, balance=1_250))
        assert index_ops == {"add": ORDERED_PLANS, "remove": ORDERED_PLANS}
        assert {update.view for update in pushed} == {
            "total-balance", "balance-by-bucket", "min-balance",
            "max-by-bucket", "top-10"}, "rich-count did not move"
        for name in manager.names():
            assert manager.read(name).value == manager.expected(name)

    def test_equal_value_of_another_type_is_folded(self, index_ops):
        total = GroupAggregate("sum", value_of=lambda row: row["v"])
        lowest = GroupAggregate("min", value_of=lambda row: row["v"])
        for plan in (total, lowest):
            plan.apply({"a": {"v": 1}})
        index_ops.update(add=0, remove=0)
        assert total.apply({"a": {"v": 1}}) == {}, "same type: skipped"
        out = total.apply({"a": {"v": 1.0}})
        assert out == {None: 1.0} and type(out[None]) is float
        out = lowest.apply({"a": {"v": 1.0}})
        assert type(out[None]) is float
        assert index_ops == {"add": 1, "remove": 1}

    def test_window_rehomes_a_key_committed_later_with_the_same_value(self):
        compiled = compile_spec(
            ViewSpec("w", "E", "sum", field="v", window_ms=100.0))
        compiled.apply({"a": {"v": 7}}, at_ms=50.0)
        assert compiled.apply({"a": {"v": 7}}, at_ms=80.0) is None, (
            "same window, same value: the same contribution")
        out = compiled.apply({"a": {"v": 7}}, at_ms=250.0)
        assert out[200.0] == 7 and compiled.value() == {200.0: 7}


# ---------------------------------------------------------------------------
# an older sidecar version falls back to a scan


def _old_sidecar(manager, version):
    """What earlier versions wrote.  Version 2 kept each plan's
    position as a batch id; version 1 also kept one flat entry list per
    group."""
    sidecar = manager.export_sidecar()
    assert sidecar["version"] == SIDECAR_VERSION == 3
    sidecar["version"] = version
    for plan in sidecar["plans"]:
        plan["last_applied_batch"] = plan.pop("seq")
        plan["applied_at_ms"] = None
        if version > 1:
            continue
        terminal = plan["state"]["terminal"]
        for name in ("ordered", "index"):
            if name in terminal:
                terminal[name] = {
                    group: [entry for entries in tied for entry in entries]
                    for group, (_, tied) in terminal[name].items()}
    return sidecar


@pytest.mark.parametrize("version", (1, 2), ids=lambda v: f"v{v}")
class TestOlderSidecarVersions:
    def test_on_restore_rehydrates_from_a_scan(self, version):
        store, manager, _ = _six_plans()
        sidecar = _old_sidecar(manager, version)
        _commit(store, manager, 0, "acct-0007", _account(7, balance=5))
        manager.on_restore(sidecar)
        assert manager.sidecar_restores == 0
        assert manager.rehydrations == len(cell_views())
        for name in manager.names():
            assert manager.read(name).value == manager.expected(name)

    def test_a_cold_start_rehydrates_from_a_scan(self, version):
        store, manager, _ = _six_plans()
        cold = ViewManager(store)
        cold.on_restore(_old_sidecar(manager, version))
        for spec in cell_views():
            cold.register(spec)
        assert cold.sidecar_restores == 0
        assert cold.rehydrations == len(cell_views())
        for name in cold.names():
            assert cold.read(name).value == cold.expected(name)


def test_the_current_version_resumes_without_a_scan():
    store, manager, _ = _six_plans()
    cold = ViewManager(store)
    cold.on_restore(manager.export_sidecar())
    for spec in cell_views():
        cold.register(spec)
    assert cold.rehydrations == 0
    assert cold.sidecar_restores == len(cell_views())
    for name in cold.names():
        assert cold.read(name).value == manager.read(name).value
