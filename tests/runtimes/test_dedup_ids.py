"""``IdSet`` is a plain ``set`` of request ids in O(ids past the
watermark): for any sequence of adds it answers ``in``, ``len``,
iteration and comparisons exactly as the plain set does, its ``add``
says whether the id was new, and two equal sets pickle to the same
bytes however they were built."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtimes.stateflow import IdSet


@st.composite
def id_sequences(draw):
    """Request ids the way dedup sets see them: mostly ascending from 1
    but shuffled within windows (out of order), some never arriving
    (permanent gaps), some arriving twice (duplicates), plus ``0``,
    ``-1`` and ids far past the rest."""
    n = draw(st.integers(0, 120))
    ids = list(range(1, n + 1))
    window = draw(st.integers(1, 8))
    shuffled = []
    for start in range(0, n, window):
        shuffled.extend(draw(st.permutations(ids[start:start + window])))
    gaps = draw(st.sets(st.sampled_from(ids), max_size=5)) if ids else set()
    sequence = [i for i in shuffled if i not in gaps]
    extras = draw(st.lists(st.one_of(
        st.sampled_from([0, -1, -7, n + 50, 10 ** 12]),
        st.sampled_from(sequence) if sequence else st.just(0)),
        max_size=12))
    for extra in extras:
        sequence.insert(draw(st.integers(0, len(sequence))), extra)
    return sequence


SEQUENCES = st.one_of(id_sequences(), st.lists(st.integers(-3, 40),
                                               max_size=80))


def _assert_same(ids: IdSet, plain: set) -> None:
    for probe in (*range(-10, 140), 10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1):
        assert (probe in ids) == (probe in plain), probe
    assert len(ids) == len(plain)
    assert sorted(ids) == sorted(plain)
    assert ids == plain and plain == ids
    assert not ids != plain
    assert ids <= plain and plain <= ids
    assert ids >= plain and plain >= ids
    assert ids <= plain | {-99} and not ids >= plain | {-99}
    assert ids == IdSet(plain)


@given(SEQUENCES)
@settings(max_examples=150, deadline=None)
def test_every_prefix_equals_a_plain_set(sequence):
    ids, plain = IdSet(), set()
    for request_id in sequence:
        # ``add`` is the dedup check too: True for an id not seen yet.
        assert ids.add(request_id) == (request_id not in plain)
        plain.add(request_id)
        _assert_same(ids, plain)
    assert IdSet(sequence) == plain


@given(SEQUENCES, st.integers(-2, 200))
@settings(max_examples=100, deadline=None)
def test_a_copy_is_independent(sequence, fresh):
    ids = IdSet(sequence)
    copied = ids.copy()
    assert copied == ids and copied is not ids
    copied.add(fresh)
    _assert_same(ids, set(sequence))
    _assert_same(copied, set(sequence) | {fresh})
    ids.add(fresh + 1)
    assert (fresh + 1 in copied) == (fresh + 1 in set(sequence) | {fresh})


@given(SEQUENCES.flatmap(lambda s: st.tuples(st.just(s), st.permutations(s))))
@settings(max_examples=100, deadline=None)
def test_equal_sets_pickle_to_the_same_bytes(sequences):
    forward, reordered = (IdSet(s) for s in sequences)
    assert forward == reordered
    assert pickle.dumps(forward) == pickle.dumps(reordered)
    restored = pickle.loads(pickle.dumps(forward))
    assert restored == forward and restored.sparse == forward.sparse


def test_the_watermark_stops_at_a_gap():
    ids = IdSet([1, 2, 4, 5, 7])
    assert (ids.low, ids.sparse) == (3, {4, 5, 7})
    assert 3 not in ids and 6 not in ids
    ids.add(3)
    assert (ids.low, ids.sparse) == (6, {7})


def test_a_run_in_order_keeps_nothing_past_the_watermark():
    ids = IdSet()
    for request_id in range(1, 10_001):
        ids.add(request_id)
    assert (ids.low, ids.sparse, len(ids)) == (10_001, set(), 10_000)
