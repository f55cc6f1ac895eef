"""The state backend (a dict map), the partitioned store and the
per-transaction Aria view."""

import pickle

import pytest

from repro.core.errors import EntityAlreadyExistsError
from repro.ir.events import TxnContext
from repro.runtimes.state import (
    DictStateBackend,
    PartitionedSnapshot,
    PartitionedStore,
    StateBackend,
    materialize_snapshot,
)
from repro.runtimes.stateflow.aria_view import AriaStateView

#: The two shapes of committed state: one slot backend on its own (the
#: Local and StateFun runtimes' map) and the slotted store StateFlow's
#: workers commit to and Aria's views read through.
SHAPES = {
    "backend": DictStateBackend,
    "store": lambda: PartitionedStore(3, slots=8),
}


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    return request.param


@pytest.fixture()
def store(shape):
    committed = SHAPES[shape]()
    committed.put("Account", "a", {"account_id": "a", "balance": 10})
    committed.put("Account", "b", {"account_id": "b", "balance": 20})
    return committed


class TestBackendContract:
    """The :class:`StateBackend` contract, on a slot backend and on the
    partitioned store that routes every call to one."""

    def test_satisfies_protocol(self, store):
        assert isinstance(store, StateBackend)

    def test_get_returns_copy(self, store):
        state = store.get("Account", "a")
        state["balance"] = 999
        assert store.get("Account", "a")["balance"] == 10

    def test_missing_is_none(self, store):
        assert store.get("Account", "ghost") is None

    def test_overwrite_and_exists(self, store):
        store.put("Account", "a", {"account_id": "a", "balance": 1})
        assert store.get("Account", "a")["balance"] == 1
        assert store.exists("Account", "a")
        assert not store.exists("Account", "ghost")

    def test_snapshot_restore_roundtrip(self, store):
        snapshot = store.snapshot()
        store.put("Account", "a", {"account_id": "a", "balance": 0})
        store.put("Account", "c", {"account_id": "c", "balance": 5})
        store.restore(snapshot)
        assert store.get("Account", "a")["balance"] == 10
        assert store.get("Account", "c") is None

    def test_snapshot_isolated_from_later_writes(self, store):
        snapshot = store.snapshot()
        store.put("Account", "n", {"nested": {"x": [1, 2]}})
        store.apply_writes(
            {("Account", "a"): {"account_id": "a", "balance": -1}})
        store.restore(snapshot)
        assert store.get("Account", "n") is None
        assert store.get("Account", "a")["balance"] == 10

    def test_old_snapshot_survives_restore_of_newer(self, store):
        old = store.snapshot()
        store.put("Account", "a", {"account_id": "a", "balance": 2})
        newer = store.snapshot()
        store.restore(newer)
        store.put("Account", "a", {"account_id": "a", "balance": 3})
        store.restore(old)
        assert store.get("Account", "a")["balance"] == 10
        store.restore(newer)
        assert store.get("Account", "a")["balance"] == 2

    def test_nested_mutation_through_get_cannot_leak(self, store):
        store.put("Account", "n", {"nested": {"x": [1]}})
        state = store.get("Account", "n")
        state["nested"]["x"].append(99)
        assert store.get("Account", "n")["nested"]["x"] == [1]

    def test_nested_mutation_through_put_input_cannot_leak(self, store):
        state = {"nested": {"x": [1]}}
        store.put("Account", "n", state)
        state["nested"]["x"].append(99)
        assert store.get("Account", "n")["nested"]["x"] == [1]

    def test_materialized_snapshot_is_isolated(self, store):
        store.put("Account", "n", {"nested": {"x": [1]}})
        snapshot = store.snapshot()
        materialize_snapshot(snapshot)[("Account", "n")][
            "nested"]["x"].append(99)
        # Neither the stored snapshot nor live state may see the mutation.
        assert materialize_snapshot(snapshot)[("Account", "n")][
            "nested"]["x"] == [1]
        store.restore(snapshot)
        assert store.get("Account", "n")["nested"]["x"] == [1]

    def test_nested_mutation_cannot_leak_into_snapshot(self, store):
        store.put("Account", "n", {"nested": {"x": [1, 2]}})
        snapshot = store.snapshot()
        state = store.get("Account", "n")
        state["nested"]["x"].append(3)
        store.put("Account", "n", state)
        store.restore(snapshot)
        assert store.get("Account", "n")["nested"]["x"] == [1, 2]

    def test_apply_writes(self, store):
        store.apply_writes({("Account", "a"): {"balance": 1},
                            ("Account", "z"): {"balance": 2}})
        assert store.get("Account", "a") == {"balance": 1}
        assert store.get("Account", "z") == {"balance": 2}

    def test_len_and_keys(self, store):
        assert len(store) == 2
        assert set(store.keys()) == {("Account", "a"), ("Account", "b")}


def _nested(tag):
    return {"id": tag, "lines": [{"sku": tag, "qty": [1, 2]}],
            "meta": {"seen": {tag}}}


def _scribble(state):
    """Mutate a copied-out state at every depth."""
    state["id"] = "scribbled"
    state["lines"][0]["qty"].append(99)
    state["lines"].append("scribbled")
    state["meta"]["seen"].add("scribbled")


class TestEntryContract:
    """The written contract of ``repro.runtimes.state``: a committed
    entry is never mutated once installed.  ``put``/``restore`` copy in,
    ``get``/``materialize*`` copy out, and every payload in between may
    alias live entries — so a payload must not change under later store
    operations, and a copied-out state may be mutated freely."""

    @staticmethod
    def _fill(store):
        for tag in ("a", "b", "c", "d"):
            store.put("Cart", tag, _nested(tag))

    @staticmethod
    def _churn(store):
        """Every kind of later write the contract names."""
        store.put("Cart", "a", _nested("a2"))
        store.apply_writes({("Cart", "c"): _nested("c2"),
                            ("Cart", "e"): _nested("e")})
        state = store.get("Cart", "d")
        _scribble(state)
        store.put("Cart", "d", state)

    def test_payloads_survive_later_writes_and_restores(self):
        backend = DictStateBackend()
        self._fill(backend)
        payloads = [backend.snapshot()]
        backend.put("Cart", "d", _nested("d1"))
        payloads.append(backend.snapshot())
        backend.pin_view(1)
        prints = [pickle.dumps(payload) for payload in payloads]

        self._churn(backend)
        payloads.append(backend.snapshot())
        prints.append(pickle.dumps(payloads[-1]))
        backend.restore(payloads[0])
        self._churn(backend)
        backend.restore(payloads[-1])
        self._churn(backend)

        assert [pickle.dumps(payload) for payload in payloads] == prints
        assert backend.get("Cart", "a") == _nested("a2")

    def test_partitioned_payloads_survive_migration_and_rescale(self):
        store = PartitionedStore(2, slots=4)
        self._fill(store)
        payloads = [store.snapshot()]
        store.put("Cart", "d", _nested("d1"))
        payloads.append(store.snapshot())
        store.put("Cart", "a", _nested("a1"))
        moved = store.slot_of("Cart", "a")
        payloads.append(store.snapshot_slot(moved))
        prints = [pickle.dumps(payload) for payload in payloads]

        store.install_slot(moved, payloads[-1])
        self._churn(store)
        store.rescale(3)
        self._churn(store)
        store.rescale(1)
        store.restore(payloads[0])
        self._churn(store)

        assert [pickle.dumps(payload) for payload in payloads] == prints

    def test_copied_out_states_are_the_callers_to_mutate(self, shape):
        backend = SHAPES[shape]()
        self._fill(backend)
        backend.pin_view(1)
        payload = backend.snapshot()
        print_before = pickle.dumps(payload)

        _scribble(backend.get("Cart", "a"))
        _scribble(backend.view(1).get("Cart", "a"))
        _scribble(materialize_snapshot(payload)[("Cart", "a")])
        restored = SHAPES[shape]()
        restored.restore(payload)
        _scribble(restored.get("Cart", "a"))

        for store in (backend, backend.view(1), restored):
            assert store.get("Cart", "a") == _nested("a")
        assert materialize_snapshot(payload)[("Cart", "a")] == _nested("a")
        assert pickle.dumps(payload) == print_before


class TestPartitionedStore:
    @pytest.mark.parametrize("partitions", [1, 2, 5, 8])
    def test_routing_covers_all_partitions_consistently(self, partitions):
        store = PartitionedStore(partitions)
        for index in range(64):
            store.put("Account", f"k{index}", {"balance": index})
        assert len(store) == 64
        for index in range(64):
            owner = store.partition_of("Account", f"k{index}")
            assert store.partition(owner).get(
                "Account", f"k{index}") == {"balance": index}
            for other in range(partitions):
                if other != owner:
                    assert store.partition(other).get(
                        "Account", f"k{index}") is None

    @pytest.mark.parametrize("partitions", [1, 2, 5, 8])
    def test_snapshot_restore_roundtrip(self, partitions):
        store = PartitionedStore(partitions)
        for index in range(32):
            store.put("Account", f"k{index}", {"balance": index})
        snapshot = store.snapshot()
        assert isinstance(snapshot, PartitionedSnapshot)
        assert snapshot.partition_count == partitions
        for index in range(32):
            store.put("Account", f"k{index}", {"balance": -1})
        store.put("Account", "extra", {"balance": 0})
        store.restore(snapshot)
        assert store.get("Account", "extra") is None
        for index in range(32):
            assert store.get("Account", f"k{index}")["balance"] == index

    @pytest.mark.parametrize("partitions", [1, 2, 5, 8])
    def test_per_partition_fragment_roundtrip(self, partitions):
        store = PartitionedStore(partitions)
        for index in range(32):
            store.put("Account", f"k{index}", {"balance": index})
        fragments = store.snapshot().parts
        store.apply_writes({("Account", f"k{i}"): {"balance": -1}
                            for i in range(32)})
        for index, fragment in enumerate(fragments):
            store.install_slot(index, fragment)
        for index in range(32):
            assert store.get("Account", f"k{index}")["balance"] == index

    def test_partition_count_mismatch_rejected(self):
        store = PartitionedStore(2)
        other = PartitionedStore(3)
        with pytest.raises(ValueError, match="partition"):
            store.restore(other.snapshot())

    @pytest.mark.parametrize("partitions", [1, 2, 5, 8])
    def test_apply_writes_routes_to_owners(self, partitions):
        store = PartitionedStore(partitions)
        writes = {("Account", f"k{i}"): {"balance": i} for i in range(16)}
        store.apply_writes(writes)
        for (entity, key), state in writes.items():
            owner = store.partition_of(entity, key)
            assert store.partition(owner).get(entity, key) == state

    def test_at_least_one_partition_required(self):
        with pytest.raises(ValueError):
            PartitionedStore(0)


class TestAriaStateView:
    def test_reads_recorded(self, store):
        ctx = TxnContext(tid=0, batch_id=0)
        view = AriaStateView(store, ctx)
        view.get("Account", "a")
        assert ctx.read_set == {("Account", "a")}

    def test_writes_buffered_not_applied(self, store):
        ctx = TxnContext(tid=0, batch_id=0)
        view = AriaStateView(store, ctx)
        view.put("Account", "a", {"account_id": "a", "balance": 0})
        assert store.get("Account", "a")["balance"] == 10
        assert ctx.write_set[("Account", "a")]["balance"] == 0

    def test_read_your_own_writes(self, store):
        ctx = TxnContext(tid=0, batch_id=0)
        view = AriaStateView(store, ctx)
        view.put("Account", "a", {"account_id": "a", "balance": 77})
        assert view.get("Account", "a")["balance"] == 77

    def test_snapshot_isolation_between_txns(self, store):
        first = AriaStateView(store, TxnContext(tid=0, batch_id=0))
        second = AriaStateView(store, TxnContext(tid=1, batch_id=0))
        first.put("Account", "a", {"account_id": "a", "balance": 0})
        # The second transaction must not see the first's buffered write.
        assert second.get("Account", "a")["balance"] == 10

    def test_create_buffers_into_create_set(self, store):
        ctx = TxnContext(tid=0, batch_id=0)
        view = AriaStateView(store, ctx)
        view.create("Account", "new", {"account_id": "new", "balance": 1})
        assert ("Account", "new") in ctx.create_set
        assert ("Account", "new") in ctx.write_set
        assert store.get("Account", "new") is None

    def test_create_existing_raises_already_exists(self, store):
        view = AriaStateView(store, TxnContext(tid=0, batch_id=0))
        with pytest.raises(EntityAlreadyExistsError):
            view.create("Account", "a", {})

    def test_create_after_buffered_create_raises_already_exists(self, store):
        view = AriaStateView(store, TxnContext(tid=0, batch_id=0))
        view.create("Account", "new", {"account_id": "new", "balance": 1})
        with pytest.raises(EntityAlreadyExistsError):
            view.create("Account", "new", {"account_id": "new",
                                           "balance": 2})
