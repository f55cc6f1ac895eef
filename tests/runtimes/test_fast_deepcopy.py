"""``fast_deepcopy``: the commit-path copy must keep deepcopy's
isolation semantics while shallow-copying the flat shapes entity states
overwhelmingly take and copying nested ones structurally."""

from __future__ import annotations

import copy
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refs import EntityRef
from repro.runtimes.state import (
    TOMBSTONE,
    _flat_scalar,
    fast_deepcopy,
    materialize_snapshot,
)


def test_scalars_pass_through() -> None:
    for value in (None, True, 3, 2.5, "s", b"b", (1, "a", None)):
        assert fast_deepcopy(value) is value


def test_flat_dict_is_isolated_by_shallow_copy() -> None:
    state = {"balance": 100, "name": "alice", "tags": ("a", "b")}
    copied = fast_deepcopy(state)
    assert copied == state
    assert copied is not state
    copied["balance"] = 0
    assert state["balance"] == 100
    # The fast path shares the (immutable) values themselves.
    assert copied["tags"] is state["tags"]


def test_nested_dict_falls_back_to_real_deepcopy() -> None:
    state = {"history": [1, 2], "meta": {"k": "v"}}
    copied = fast_deepcopy(state)
    copied["history"].append(3)
    copied["meta"]["k"] = "changed"
    assert state["history"] == [1, 2]
    assert state["meta"] == {"k": "v"}


def test_mutable_non_dict_values_are_deep_copied() -> None:
    value = [1, [2, 3]]
    copied = fast_deepcopy(value)
    copied[1].append(4)
    assert value == [1, [2, 3]]


def test_scalar_subclasses_do_not_take_the_fast_path() -> None:
    class Sneaky(str):
        pass

    assert not _flat_scalar(Sneaky("x"))
    assert not _flat_scalar((Sneaky("x"),))


def test_tombstone_keeps_identity_through_copy_and_pickle() -> None:
    assert fast_deepcopy(TOMBSTONE) is TOMBSTONE
    copied = fast_deepcopy({"gone": TOMBSTONE})
    assert copied["gone"] is TOMBSTONE
    # Cross-process: the wire format pickles tombstones inside deltas,
    # and receivers compare by identity.
    assert pickle.loads(pickle.dumps(TOMBSTONE)) is TOMBSTONE


def test_materialize_snapshot_copies_states() -> None:
    payload = {("Account", "a"): {"balance": 1}}
    flat = materialize_snapshot(payload)
    assert flat == payload
    flat[("Account", "a")]["balance"] = 99
    assert payload[("Account", "a")]["balance"] == 1


# -- the structural copier against its reference, copy.deepcopy ----------

_MUTABLE = (dict, list, set)


def _children(node):
    if isinstance(node, dict):
        return [part for item in node.items() for part in item]
    if isinstance(node, (list, tuple)):
        return list(node)
    if hasattr(node, "__dict__"):
        return list(vars(node).values())
    return []  # leaves; set members are hashable, so never mutable


def _assert_same_shape(source, result, reference) -> None:
    """*result* and *reference* are both copies of *source*: walk the
    three in step and require that every mutable container is a new
    object, that containers alias each other in *result* exactly where
    they do in *reference* (and so in *source*), and that tombstones and
    shared-able refs keep their identity."""
    to_reference: dict[int, int] = {}
    taken: set[int] = set()

    def walk(src, res, ref) -> None:
        assert type(res) is type(ref) is type(src)
        if src is TOMBSTONE:
            assert res is TOMBSTONE
            return
        if isinstance(src, _MUTABLE) or hasattr(src, "__dict__"):
            assert res is not src
            if id(res) in to_reference:
                assert to_reference[id(res)] == id(ref)
                return  # shared or cyclic: already walked
            assert id(ref) not in taken
            to_reference[id(res)] = id(ref)
            taken.add(id(ref))
        parts = _children(src), _children(res), _children(ref)
        assert len({len(part) for part in parts}) == 1
        for triple in zip(*parts):
            walk(*triple)

    walk(source, result, reference)


def _ref_leaves(node):
    if type(node) is EntityRef:
        yield node
    for child in _children(node):
        yield from _ref_leaves(child)
    if isinstance(node, set):
        for member in node:
            yield from _ref_leaves(member)


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=4)
            | st.binary(max_size=4))
_hashable = st.recursive(
    _scalars | st.just(TOMBSTONE)
    | st.builds(EntityRef, st.text(max_size=4),
                st.text(max_size=4) | st.integers()
                | st.tuples(st.integers(), st.text(max_size=2))),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
_trees = st.recursive(
    _hashable,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_hashable, inner, max_size=4)
                   | st.sets(_hashable, max_size=4)),
    max_leaves=24)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_copier_agrees_with_deepcopy_on_generated_trees(tree) -> None:
    copied, reference = fast_deepcopy(tree), copy.deepcopy(tree)
    assert copied == reference == tree
    _assert_same_shape(tree, copied, reference)
    # Frozen refs are shared, not rebuilt (by id: a copied set may
    # iterate in another order).
    assert ({id(ref) for ref in _ref_leaves(copied)}
            == {id(ref) for ref in _ref_leaves(tree)})


def test_shared_list_stays_shared_in_the_copy() -> None:
    shared = [1, [2]]
    value = {"a": shared, "b": shared, "c": ([3], shared)}
    copied, reference = fast_deepcopy(value), copy.deepcopy(value)
    assert copied == reference
    _assert_same_shape(value, copied, reference)
    assert copied["a"] is copied["b"] is copied["c"][1]
    copied["a"].append(4)
    assert shared == [1, [2]]


def test_cycles_are_reproduced_not_unrolled() -> None:
    value: dict = {"name": "loop", "items": [1]}
    value["items"].append(value)
    copied, reference = fast_deepcopy(value), copy.deepcopy(value)
    _assert_same_shape(value, copied, reference)
    assert copied["items"][1] is copied
    assert copied is not value


def test_container_subclasses_keep_their_type() -> None:
    class Bag(dict):
        pass

    value = {"bag": Bag(x=[1]), "ordered": OrderedDict(y=[2])}
    copied, reference = fast_deepcopy(value), copy.deepcopy(value)
    assert copied == reference
    _assert_same_shape(value, copied, reference)
    assert type(copied["bag"]) is Bag
    assert type(copied["ordered"]) is OrderedDict


def test_custom_objects_are_deep_copied() -> None:
    @dataclass
    class Line:
        sku: str
        notes: list = field(default_factory=list)

    value = {"lines": [Line("a", ["x"])]}
    copied, reference = fast_deepcopy(value), copy.deepcopy(value)
    assert copied == reference
    _assert_same_shape(value, copied, reference)
    assert copied["lines"][0].notes is not value["lines"][0].notes


def test_ref_with_a_mutable_key_is_not_shared() -> None:
    value = {"refs": [EntityRef("P", ["k"])]}
    copied = fast_deepcopy(value)
    assert copied == copy.deepcopy(value)
    assert copied["refs"][0].key is not value["refs"][0].key
