"""Every keyed lookup routes by one definition:
``route_hash(entity, key) == stable_hash(f"{entity}|{key}")``, with a
``bool`` or whole ``float`` key formatted as its ``int``.

``route_hash`` remembers that hash per entity for exact ``str``/``int``
keys, in a memo bounded at ``ROUTE_MEMO_BOUND`` entries.  These tests
hold the memo to the definition: whatever the order keys are first
routed in (``1``, ``True`` and ``1.0`` are one dict key and one route;
``"1"`` and subclasses that format differently are not), across
rescales and pickled tables, past the bound, and for the Kafka
partition a request's ingress record lands on.  One test measures what
routing a fresh key retains.
"""

import gc
import pickle
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import dataflow
from repro.ir.dataflow import ROUTE_MEMO_BOUND, route_hash, stable_hash
from repro.runtimes.state import PartitionedStore, SlotAssignment
from repro.runtimes.stateflow import runtime as stateflow_runtime
from repro.runtimes.statefun import runtime as statefun_runtime
from repro.substrates import costs
from repro.substrates.kafka import KafkaBroker
from repro.substrates.simulation import Simulation


class Tagged(str):
    """Equal to its plain string as a dict key, formatted differently."""

    def __format__(self, spec):
        return "tagged:" + str.__str__(self)


class Counted(int):
    """Equal to its plain int as a dict key, formatted differently."""

    def __format__(self, spec):
        return f"#{int(self)}"


#: Keys that collide as dict keys but not as formatted strings, and a
#: few that only look alike.
MIXED_KEYS = [1, True, 1.0, "1", (1,), -5, 2 ** 40, Tagged("1"),
              Counted(1), "acct-000001", 0, False, "True", -0.0, 2.5,
              (True,)]


def _definition(entity, key):
    if type(key) is bool or (type(key) is float and key.is_integer()):
        key = int(key)
    return stable_hash(f"{entity}|{key}")


def _forget_routes():
    dataflow._ROUTES.clear()
    dataflow._routes_held = 0


def _memo_size():
    return sum(len(memo) for memo in dataflow._ROUTES.values())


@given(order=st.permutations(MIXED_KEYS),
       entities=st.lists(st.sampled_from(["Account", "A", "Item|x"]),
                         min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_route_hash_is_the_definition_in_any_order_of_first_use(
        order, entities):
    _forget_routes()
    for _ in range(2):
        for entity in entities:
            for key in order:
                assert route_hash(entity, key) == _definition(entity, key), (
                    f"{entity!r} {key!r} ({type(key).__name__})")


def test_only_exact_str_and_int_keys_are_remembered():
    _forget_routes()
    for key in MIXED_KEYS:
        route_hash("A", key)
    held = dataflow._ROUTES["A"]
    assert all(type(key) in (str, int) for key in held)
    assert set(held) == {1, "1", -5, 2 ** 40, "acct-000001", 0, "True"}


routing_keys = st.lists(
    st.one_of(st.text(max_size=8), st.integers(-2 ** 40, 2 ** 40),
              st.sampled_from(MIXED_KEYS)),
    min_size=1, max_size=40)


def _assert_routes(table, keys):
    for key in keys:
        slot = _definition("Account", key) % table.slots
        assert table.slot_of("Account", key) == slot
        assert table.worker_of("Account", key) == table.owners[slot]


@given(keys=routing_keys, workers=st.integers(1, 6),
       targets=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       slots=st.sampled_from([8, 16, 64]))
@settings(max_examples=40, deadline=None)
def test_slot_of_follows_the_definition_across_rescales_and_pickles(
        keys, workers, targets, slots):
    table = SlotAssignment(workers, slots=slots)
    other = SlotAssignment(workers, slots=slots * 2)
    frozen = pickle.dumps(table)
    _assert_routes(table, keys)
    _assert_routes(other, keys)
    assert pickle.dumps(table) == frozen, (
        "routing must leave the table's pickle byte-identical")
    for target in targets:
        if target > table.slots:
            continue
        table.apply(target, table.plan(target))
        _assert_routes(table, keys)
        _assert_routes(pickle.loads(pickle.dumps(table)), keys)
        _assert_routes(other, keys)


def test_more_keys_than_the_bound_route_by_the_definition():
    _forget_routes()
    count = ROUTE_MEMO_BOUND + ROUTE_MEMO_BOUND // 8
    entities = ("Account", "Item")
    for index in range(count):
        entity = entities[index % 2]
        key = f"k{index}" if index % 3 else index
        assert route_hash(entity, key) == _definition(entity, key)
        if index % 997 == 0:
            assert _memo_size() <= ROUTE_MEMO_BOUND
    assert 0 < _memo_size() <= ROUTE_MEMO_BOUND
    assert dataflow._routes_held == _memo_size()
    for index in range(0, count, 61):
        entity = entities[index % 2]
        key = f"k{index}" if index % 3 else index
        assert route_hash(entity, key) == _definition(entity, key)
    assert _memo_size() <= ROUTE_MEMO_BOUND


def test_ingress_partition_is_the_one_the_string_key_gave():
    """A record keyed by the route hash lands where the ``"entity|key"``
    string key put it: FNV results are 31-bit and an int hashes to
    itself."""
    for partitions in {stateflow_runtime.TOPIC_PARTITIONS,
                       statefun_runtime.TOPIC_PARTITIONS, 3, 7}:
        broker = KafkaBroker(Simulation(seed=1), costs.ZERO.kafka)
        broker.create_topic("ingress", partitions)
        for index in range(10_000):
            key = f"acct-{index:06d}"
            assert broker.partition_for(
                "ingress", route_hash("Account", key)) == \
                broker.partition_for("ingress", f"Account|{key}")


def test_true_and_one_are_one_key_and_one_route():
    """Every write set, footprint and changelog dict treats ``True``,
    ``1`` and ``1.0`` as one key, so they route to one slot: what is
    put under one is read under the others."""
    store = PartitionedStore(4, slots=64)
    store.put("A", True, {"v": 1})
    assert {store.slot_of("A", key) for key in (True, 1, 1.0)} == {51}
    assert store.get("A", 1) == {"v": 1}
    assert store.get("A", 1.0) == {"v": 1}
    store.put("A", 0.0, {"v": 0})
    assert store.get("A", False) == {"v": 0}


def test_routing_a_fresh_key_retains_under_80_bytes():
    """Routing 10 000 fresh keys through a store keeps one memo entry
    each (52 B measured); a formatted-string cache kept 176 B."""
    store = PartitionedStore(4, slots=64)
    keys = [f"fresh-{index:06d}" for index in range(10_000)]
    _forget_routes()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for key in keys:
            store.partition_of("Account", key)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    in_repro = [tracemalloc.Filter(True, "*/repro/*")]
    retained = sum(stat.size_diff for stat in after.filter_traces(
        in_repro).compare_to(before.filter_traces(in_repro), "filename"))
    assert retained / len(keys) < 80, f"{retained / len(keys):.1f} B per key"
