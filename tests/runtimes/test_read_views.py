"""Version-pinned read views: the state-layer contract the pipelined
epoch coordinator relies on — a pinned view answers with the store's
contents exactly as of the pin, regardless of later writes, on the
backend and on the partitioned store."""

import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from test_state import SHAPES, _nested, _scribble

from repro.runtimes import state as state_module
from repro.runtimes.state import PartitionedStore


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestBackendReadViews:
    def test_view_is_immune_to_later_writes(self, shape):
        backend = SHAPES[shape]()
        backend.put("Account", "a", {"balance": 100})
        backend.pin_view(7)
        backend.put("Account", "a", {"balance": 999})
        view = backend.view(7)
        assert view.get("Account", "a") == {"balance": 100}
        assert backend.get("Account", "a") == {"balance": 999}

    def test_view_hides_keys_created_after_pin(self, shape):
        backend = SHAPES[shape]()
        backend.pin_view(1)
        backend.put("Account", "new", {"balance": 1})
        view = backend.view(1)
        assert view.get("Account", "new") is None
        assert not view.exists("Account", "new")
        assert backend.exists("Account", "new")

    def test_view_sees_untouched_keys_live(self, shape):
        backend = SHAPES[shape]()
        backend.put("Account", "quiet", {"balance": 5})
        backend.pin_view(3)
        backend.put("Account", "hot", {"balance": 1})
        assert backend.view(3).get("Account", "quiet") == {"balance": 5}
        assert backend.view(3).exists("Account", "quiet")

    def test_release_and_unknown_versions(self, shape):
        backend = SHAPES[shape]()
        backend.pin_view(2)
        assert backend.view(2) is not None
        backend.release_view(2)
        assert backend.view(2) is None
        backend.release_view(2)  # idempotent
        assert backend.view(99) is None

    def test_view_get_returns_copies(self, shape):
        backend = SHAPES[shape]()
        backend.put("Account", "a", {"balance": 100})
        backend.pin_view(1)
        backend.put("Account", "a", {"balance": 200})
        copy_out = backend.view(1).get("Account", "a")
        copy_out["balance"] = -1
        assert backend.view(1).get("Account", "a") == {"balance": 100}

    def test_restore_drops_views(self, shape):
        backend = SHAPES[shape]()
        backend.put("Account", "a", {"balance": 1})
        frozen = backend.snapshot()
        backend.pin_view(4)
        backend.restore(frozen)
        assert backend.view(4) is None

    def test_multiple_pinned_versions_are_independent(self, shape):
        backend = SHAPES[shape]()
        backend.put("Account", "a", {"balance": 1})
        backend.pin_view(1)
        backend.put("Account", "a", {"balance": 2})
        backend.pin_view(2)
        backend.put("Account", "a", {"balance": 3})
        assert backend.view(1).get("Account", "a") == {"balance": 1}
        assert backend.view(2).get("Account", "a") == {"balance": 2}
        assert backend.get("Account", "a") == {"balance": 3}


class TestPartitionedStoreViews:
    def test_view_routes_and_pins_across_slots(self):
        store = PartitionedStore(3, slots=8)
        keys = [f"acct-{i}" for i in range(16)]
        for key in keys:
            store.put("Account", key, {"balance": 10})
        store.pin_view(5)
        for key in keys:
            store.put("Account", key, {"balance": 99})
        view = store.view(5)
        assert all(view.get("Account", key) == {"balance": 10}
                   for key in keys)
        assert all(store.get("Account", key) == {"balance": 99}
                   for key in keys)

    def test_release_view_releases_every_slot(self):
        store = PartitionedStore(2, slots=4)
        store.pin_view(1)
        store.pin_view(2)
        store.release_view(1)
        store.release_view(2)
        assert store.view(1) is None and store.view(2) is None
        # Slot backends released too: nothing lingers.
        assert all(slot.view(1) is None and slot.view(2) is None
                   for slot in store._slots)

    def test_restore_drops_views(self):
        store = PartitionedStore(2, slots=4)
        store.put("Account", "a", {"balance": 1})
        frozen = store.snapshot()
        store.pin_view(9)
        store.restore(frozen)
        assert store.view(9) is None

    def test_pinned_view_survives_a_slot_install(self):
        """A slot backend swapped under a pin (the migration install)
        knows nothing of the pin; the view must not read that as
        "every key of the slot is absent"."""
        store = PartitionedStore(2, slots=4)
        keys = [f"acct-{i}" for i in range(12)]
        for key in keys:
            store.put("Account", key, {"balance": 10})
        store.pin_view(3)
        overwritten = keys[0]
        store.put("Account", overwritten, {"balance": 99})
        for slot in range(store.slot_count):
            store.install_slot(slot, store.snapshot_slot(slot))
        view = store.view(3)
        assert all(view.get("Account", key) == {"balance": 10}
                   for key in keys)
        assert all(view.exists("Account", key) for key in keys)
        # The swapped-in backend keeps recording for the pin.
        store.put("Account", keys[1], {"balance": 77})
        store.delete("Account", keys[2])
        assert view.get("Account", keys[1]) == {"balance": 10}
        assert view.get("Account", keys[2]) == {"balance": 10}
        assert store.get("Account", overwritten) == {"balance": 99}

    def test_pin_and_release_touch_no_slot(self, monkeypatch):
        """O(1) as a count: one view object for the whole store, none
        per slot, however many slots there are."""
        store = PartitionedStore(5, slots=64)
        built = []
        construct = state_module.ReadView.__init__

        def counting(view, live):
            built.append(live)
            construct(view, live)

        monkeypatch.setattr(state_module.ReadView, "__init__", counting)
        store.pin_view(1)
        assert built == [store]
        assert all(slot.view(1) is store.view(1) for slot in store._slots)
        store.release_view(1)
        assert built == [store]
        assert all(slot.view(1) is None for slot in store._slots)


# ---------------------------------------------------------------------------
# pinned views against a model
# ---------------------------------------------------------------------------

MODEL_KEYS = [("Cart", f"c{i}") for i in range(6)] \
    + [("Account", i) for i in range(4)]


class PinnedViewsModel(RuleBasedStateMachine):
    """Random writes, pins, releases, rewinds and same-contents slot
    installs against a reference that deep-copies the whole store at
    each pin."""

    slots = 8

    saved = Bundle("saved")

    def __init__(self):
        super().__init__()
        self.store = PartitionedStore(min(self.slots, 3), slots=self.slots)
        self.live: dict = {}
        self.pins: dict[int, dict] = {}

    @rule(key=st.sampled_from(MODEL_KEYS), tag=st.integers(0, 99),
          create=st.booleans())
    def put(self, key, tag, create):
        (self.store.create if create else self.store.put)(*key, _nested(tag))
        self.live[key] = _nested(tag)

    @rule(key=st.sampled_from(MODEL_KEYS))
    def delete(self, key):
        self.store.delete(*key)
        self.live.pop(key, None)

    @rule(writes=st.dictionaries(st.sampled_from(MODEL_KEYS),
                                 st.integers(0, 99), max_size=5))
    def apply_writes(self, writes):
        self.store.apply_writes({key: _nested(tag)
                                 for key, tag in writes.items()})
        self.live.update({key: _nested(tag) for key, tag in writes.items()})

    @rule(version=st.integers(0, 5))
    def pin(self, version):
        self.store.pin_view(version)
        # Pinning a version that is pinned already keeps the older pin.
        self.pins.setdefault(version, copy.deepcopy(self.live))

    @rule(version=st.integers(0, 5))
    def release(self, version):
        self.store.release_view(version)
        self.pins.pop(version, None)

    @rule(target=saved)
    def snapshot(self):
        return (self.store.snapshot(), copy.deepcopy(self.live))

    @rule(cut=saved)
    def restore(self, cut):
        payload, contents = cut
        self.store.restore(payload)
        self.live = copy.deepcopy(contents)
        self.pins.clear()  # a rewind kills every pin that predates it

    @rule(slot=st.integers(0, 63))
    def install_same_contents(self, slot):
        slot %= self.slots
        self.store.install_slot(slot, self.store.snapshot_slot(slot))

    @invariant()
    def views_answer_with_the_pinned_contents(self):
        readers = {version: self.store.view(version)
                   for version in range(6)}
        assert {v for v, view in readers.items() if view is not None} \
            == set(self.pins)
        for attempt in range(2):  # the second pass reads past scribbles
            for key in MODEL_KEYS:
                assert self.store.get(*key) == self.live.get(key)
                for version, pinned in self.pins.items():
                    state = readers[version].get(*key)
                    assert state == pinned.get(key), (version, key, attempt)
                    assert readers[version].exists(*key) == (key in pinned)
                    if state is not None:
                        _scribble(state)


def _model_case(slots: int):
    machine = type(f"PinnedViews_{slots}", (PinnedViewsModel,),
                   {"slots": slots})
    case = machine.TestCase
    case.settings = settings(max_examples=20, stateful_step_count=25,
                             deadline=None)
    return case


TestPinnedViews1 = _model_case(1)
TestPinnedViews8 = _model_case(8)
TestPinnedViews64 = _model_case(64)
