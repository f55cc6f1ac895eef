"""State backends (dict / copy-on-write / partitioned) and the
per-transaction Aria view."""

import pickle

import pytest

from repro.core.errors import EntityAlreadyExistsError
from repro.ir.events import TxnContext
from repro.runtimes.state import (
    BACKENDS,
    CowSnapshot,
    CowStateBackend,
    DictStateBackend,
    PartitionedSnapshot,
    PartitionedStore,
    StateBackend,
    make_state_backend,
    materialize_snapshot,
)
from repro.runtimes.stateflow.state_backend import (
    AriaStateView,
    CommittedStore,
)


@pytest.fixture()
def store():
    committed = CommittedStore()
    committed.put("Account", "a", {"account_id": "a", "balance": 10})
    committed.put("Account", "b", {"account_id": "b", "balance": 20})
    return committed


@pytest.fixture(params=sorted(BACKENDS))
def any_backend(request):
    backend = make_state_backend(request.param)
    backend.put("Account", "a", {"account_id": "a", "balance": 10})
    backend.put("Account", "b", {"account_id": "b", "balance": 20})
    return backend


class TestCommittedStore:
    def test_get_returns_copy(self, store):
        state = store.get("Account", "a")
        state["balance"] = 999
        assert store.get("Account", "a")["balance"] == 10

    def test_missing_is_none(self, store):
        assert store.get("Account", "ghost") is None

    def test_snapshot_restore_roundtrip(self, store):
        snapshot = store.snapshot()
        store.put("Account", "a", {"account_id": "a", "balance": 0})
        store.put("Account", "c", {"account_id": "c", "balance": 5})
        store.restore(snapshot)
        assert store.get("Account", "a")["balance"] == 10
        assert store.get("Account", "c") is None

    def test_apply_writes(self, store):
        store.apply_writes({("Account", "a"): {"balance": 1},
                            ("Account", "z"): {"balance": 2}})
        assert store.get("Account", "a") == {"balance": 1}
        assert store.get("Account", "z") == {"balance": 2}

    def test_len_and_keys(self, store):
        assert len(store) == 2
        assert set(store.keys()) == {("Account", "a"), ("Account", "b")}


class TestBackendContract:
    """Behaviour every registered backend must share."""

    def test_satisfies_protocol(self, any_backend):
        assert isinstance(any_backend, StateBackend)

    def test_get_returns_copy(self, any_backend):
        state = any_backend.get("Account", "a")
        state["balance"] = 999
        assert any_backend.get("Account", "a")["balance"] == 10

    def test_missing_is_none(self, any_backend):
        assert any_backend.get("Account", "ghost") is None

    def test_overwrite_and_exists(self, any_backend):
        any_backend.put("Account", "a", {"account_id": "a", "balance": 1})
        assert any_backend.get("Account", "a")["balance"] == 1
        assert any_backend.exists("Account", "a")
        assert not any_backend.exists("Account", "ghost")

    def test_snapshot_restore_roundtrip(self, any_backend):
        snapshot = any_backend.snapshot()
        any_backend.put("Account", "a", {"account_id": "a", "balance": 0})
        any_backend.put("Account", "c", {"account_id": "c", "balance": 5})
        any_backend.restore(snapshot)
        assert any_backend.get("Account", "a")["balance"] == 10
        assert any_backend.get("Account", "c") is None

    def test_snapshot_isolated_from_later_writes(self, any_backend):
        snapshot = any_backend.snapshot()
        any_backend.put("Account", "n", {"nested": {"x": [1, 2]}})
        any_backend.apply_writes(
            {("Account", "a"): {"account_id": "a", "balance": -1}})
        any_backend.restore(snapshot)
        assert any_backend.get("Account", "n") is None
        assert any_backend.get("Account", "a")["balance"] == 10

    def test_nested_mutation_through_get_cannot_leak(self, any_backend):
        any_backend.put("Account", "n", {"nested": {"x": [1]}})
        state = any_backend.get("Account", "n")
        state["nested"]["x"].append(99)
        assert any_backend.get("Account", "n")["nested"]["x"] == [1]

    def test_nested_mutation_through_put_input_cannot_leak(self,
                                                           any_backend):
        state = {"nested": {"x": [1]}}
        any_backend.put("Account", "n", state)
        state["nested"]["x"].append(99)
        assert any_backend.get("Account", "n")["nested"]["x"] == [1]

    def test_materialized_snapshot_is_isolated(self, any_backend):
        any_backend.put("Account", "n", {"nested": {"x": [1]}})
        snapshot = any_backend.snapshot()
        materialize_snapshot(snapshot)[("Account", "n")][
            "nested"]["x"].append(99)
        # Neither the stored snapshot nor live state may see the mutation.
        assert materialize_snapshot(snapshot)[("Account", "n")][
            "nested"]["x"] == [1]
        any_backend.restore(snapshot)
        assert any_backend.get("Account", "n")["nested"]["x"] == [1]

    def test_nested_mutation_cannot_leak_into_snapshot(self, any_backend):
        any_backend.put("Account", "n", {"nested": {"x": [1, 2]}})
        snapshot = any_backend.snapshot()
        state = any_backend.get("Account", "n")
        state["nested"]["x"].append(3)
        any_backend.put("Account", "n", state)
        any_backend.restore(snapshot)
        assert any_backend.get("Account", "n")["nested"]["x"] == [1, 2]

    def test_len_and_keys(self, any_backend):
        assert len(any_backend) == 2
        assert set(any_backend.keys()) == {("Account", "a"),
                                           ("Account", "b")}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown state backend"):
            make_state_backend("rocksdb")


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

    @pytest.fixture(params=sorted(BACKENDS))
    def name(self, request):
        return request.param

    @staticmethod
    def _fill(store):
        for tag in ("a", "b", "c", "d"):
            store.put("Cart", tag, _nested(tag))

    @staticmethod
    def _churn(store):
        """Every kind of later write the contract names."""
        store.put("Cart", "a", _nested("a2"))
        store.delete("Cart", "b")
        store.apply_writes({("Cart", "c"): _nested("c2"),
                            ("Cart", "e"): _nested("e")})
        state = store.get("Cart", "d")
        _scribble(state)
        store.put("Cart", "d", state)

    def test_payloads_survive_later_writes_and_restores(self, name):
        backend = make_state_backend(name)
        self._fill(backend)
        payloads = [backend.snapshot(), backend.capture_base()]
        backend.put("Cart", "d", _nested("d1"))
        backend.delete("Cart", "c")
        payloads += [backend.peek_delta(), backend.capture_delta()]
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

    def test_partitioned_payloads_survive_migration_and_rescale(self, name):
        store = PartitionedStore(2, backend=name, slots=4)
        self._fill(store)
        payloads = [store.snapshot(), store.capture_base()]
        store.put("Cart", "d", _nested("d1"))
        payloads.append(store.capture_delta())
        store.put("Cart", "a", _nested("a1"))
        moved = store.slot_of("Cart", "a")
        payloads += [store.snapshot_slot(moved),
                     store.snapshot_slot(moved, mode="delta")]
        prints = [pickle.dumps(payload) for payload in payloads]

        store.install_slot(moved, payloads[-2])
        self._churn(store)
        store.rescale(3)
        self._churn(store)
        store.rescale(1)
        store.restore(payloads[0])
        self._churn(store)

        assert [pickle.dumps(payload) for payload in payloads] == prints

    def test_copied_out_states_are_the_callers_to_mutate(self, name):
        backend = make_state_backend(name)
        self._fill(backend)
        backend.pin_view(1)
        payload = backend.snapshot()
        print_before = pickle.dumps(payload)

        _scribble(backend.get("Cart", "a"))
        _scribble(backend.view(1).get("Cart", "a"))
        _scribble(materialize_snapshot(payload)[("Cart", "a")])
        if isinstance(payload, CowSnapshot):
            _scribble(payload.materialize()[("Cart", "a")])
        restored = make_state_backend(name)
        restored.restore(payload)
        _scribble(restored.get("Cart", "a"))

        for store in (backend, backend.view(1), restored):
            assert store.get("Cart", "a") == _nested("a")
        assert materialize_snapshot(payload)[("Cart", "a")] == _nested("a")
        assert pickle.dumps(payload) == print_before

class TestCowStateBackend:
    def test_snapshot_shares_layers_not_copies(self):
        backend = CowStateBackend()
        backend.put("Account", "a", {"balance": 1})
        first = backend.snapshot()
        assert isinstance(first, CowSnapshot)
        # No writes since: the next snapshot reuses the same chain.
        second = backend.snapshot()
        assert second.layers == first.layers

    def test_writes_after_snapshot_go_to_new_head(self):
        backend = CowStateBackend()
        backend.put("Account", "a", {"balance": 1})
        snapshot = backend.snapshot()
        backend.put("Account", "a", {"balance": 2})
        assert backend.get("Account", "a")["balance"] == 2
        assert snapshot.materialize()[("Account", "a")]["balance"] == 1

    def test_old_snapshot_survives_restore_of_newer(self):
        backend = CowStateBackend()
        backend.put("Account", "a", {"balance": 1})
        old = backend.snapshot()
        backend.put("Account", "a", {"balance": 2})
        backend.snapshot()
        backend.restore(old)
        assert backend.get("Account", "a")["balance"] == 1

    def test_chain_compaction_bounds_layers(self):
        backend = CowStateBackend(compact_after=3)
        for round_ in range(10):
            backend.put("Account", f"k{round_}", {"balance": round_})
            backend.snapshot()
        assert backend.layer_count <= 3
        assert backend.layers_compacted >= 1
        assert len(backend) == 10
        for round_ in range(10):
            assert backend.get("Account", f"k{round_}") == {
                "balance": round_}

    def test_materialize_does_not_alias_live_layers(self):
        backend = CowStateBackend()
        backend.put("Account", "n", {"tags": ["x"]})
        snapshot = backend.snapshot()
        # A consumer mutating a materialized row must corrupt neither
        # live committed state nor the stored snapshot.
        snapshot.materialize()[("Account", "n")]["tags"].append("bad")
        assert backend.get("Account", "n")["tags"] == ["x"]
        backend.restore(snapshot)
        assert backend.get("Account", "n")["tags"] == ["x"]

    def test_newer_layer_shadows_older(self):
        backend = CowStateBackend()
        backend.put("Account", "a", {"balance": 1})
        backend.snapshot()
        backend.put("Account", "a", {"balance": 2})
        backend.snapshot()
        assert backend.get("Account", "a")["balance"] == 2
        assert len(backend) == 1


class TestPartitionedStore:
    @pytest.mark.parametrize("partitions", [1, 2, 5, 8])
    def test_routing_covers_all_partitions_consistently(self, partitions):
        store = PartitionedStore(partitions, backend="dict")
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
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_snapshot_restore_roundtrip(self, partitions, backend):
        store = PartitionedStore(partitions, backend=backend)
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

    def test_per_partition_fragment_roundtrip(self):
        store = PartitionedStore(4, backend="cow")
        for index in range(32):
            store.put("Account", f"k{index}", {"balance": index})
        fragments = [store.snapshot_partition(i) for i in range(4)]
        store.apply_writes({("Account", f"k{i}"): {"balance": -1}
                            for i in range(32)})
        for index, fragment in enumerate(fragments):
            store.restore_partition(index, fragment)
        for index in range(32):
            assert store.get("Account", f"k{index}")["balance"] == index

    def test_partition_count_mismatch_rejected(self):
        store = PartitionedStore(2)
        other = PartitionedStore(3)
        with pytest.raises(ValueError, match="partition"):
            store.restore(other.snapshot())

    def test_apply_writes_routes_to_owners(self):
        store = PartitionedStore(3)
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

    def test_works_over_cow_backend(self):
        backend = CowStateBackend()
        backend.put("Account", "a", {"account_id": "a", "balance": 10})
        ctx = TxnContext(tid=0, batch_id=0)
        view = AriaStateView(backend, ctx)
        assert view.get("Account", "a")["balance"] == 10
        view.put("Account", "a", {"account_id": "a", "balance": 0})
        assert backend.get("Account", "a")["balance"] == 10
