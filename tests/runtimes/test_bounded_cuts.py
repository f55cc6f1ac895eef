"""A cut's exactly-once bookkeeping is O(requests in flight): over a
long fault-free run, every cut's dedup ids are a watermark plus ids
past it, and a late position cut is no bigger than an early one."""

import pickle

from repro.runtimes.stateflow import StateflowRuntime
from repro.workloads import Account

REQUESTS = 5_000
#: Virtual ms between two submissions: a steady load of 1 000 req/s,
#: so every position cut sees about as much in flight.
EVERY_MS = 1.0


def test_position_cuts_do_not_grow_with_the_run(account_program):
    runtime = StateflowRuntime(account_program)
    refs = runtime.preload(Account, [(f"a{i}", 0) for i in range(200)])
    runtime.start()
    submitted: list[int] = []
    for n in range(REQUESTS):
        runtime.sim.schedule_at(n * EVERY_MS, lambda r=refs[n % 200]:
                                submitted.append(runtime.submit(r, "add", (1,))))
    store = runtime.coordinator.snapshots
    cuts: list[tuple[object, int]] = []
    take = store.take

    def recording_take(**fields):
        snapshot = take(**fields)
        cuts.append((snapshot, len(submitted)))
        return snapshot

    store.take = recording_take
    replies: list[int] = []
    runtime.reply_tap = lambda reply: replies.append(reply.request_id)
    runtime.sim.run(until=REQUESTS * EVERY_MS + 1_000)

    assert sorted(replies) == list(range(1, REQUESTS + 1))
    assert runtime.coordinator.replied.sparse == set()
    assert runtime.coordinator.admitted.sparse == set()
    assert runtime._delivered.sparse == set()
    for snapshot, count in cuts:
        for ids in (snapshot.replied, snapshot.admitted):
            # Nothing past the watermark that was not yet submitted.
            assert ids.sparse <= set(range(ids.low, count + 1))
            assert ids == set(range(1, ids.low)) | ids.sparse
    positions = [snapshot for snapshot, count in cuts
                 if snapshot.kind == "position" and count < REQUESTS]
    assert len(positions) >= 4
    # With whole-set dedup ids these grew with the run: 2 910 bytes
    # for the first, 27 246 for the last.
    first, last = (len(pickle.dumps(cut)) for cut in (positions[0],
                                                       positions[-1]))
    assert last < 2 * first, (first, last)
