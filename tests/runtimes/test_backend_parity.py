"""A conflicting transaction mix on the committed store: under WAW/RAW
aborts, the sequential fallback and single-key commits, money is
conserved exactly and every request gets exactly one correct reply —
with serial and with pipelined batches, and across a worker failure and
snapshot recovery.  And a duplicate ``create`` is rejected whichever
worker executes it."""

from dataclasses import dataclass
from typing import Any

import pytest

from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.substrates.simulation import Simulation
from repro.workloads import Account

ACCOUNTS = 10
INITIAL = 100
#: Every fourth step adds 2 to one account; transfers move money only.
ADDED = sum(2 for index in range(60) if index % 4 == 0)


@dataclass
class RunOutcome:
    """Everything observable from one driven run."""

    #: request id -> method submitted.
    requests: dict[int, str]
    #: request id -> every (payload, error) reply it received.
    replies: dict[int, list[tuple[Any, str | None]]]
    stats: Any
    final_state: dict[str, dict]
    recoveries: int


@pytest.fixture(scope="module", params=[1, 2])
def pipeline_depth(request):
    return request.param


def _drive(account_program, *, pipeline_depth: int, seed: int = 7,
           fail_worker_at: float | None = None) -> RunOutcome:
    config = StateflowConfig(
        pipeline_depth=pipeline_depth,
        coordinator=CoordinatorConfig(snapshot_interval_ms=300.0,
                                      failure_detect_ms=250.0))
    runtime = StateflowRuntime(account_program, sim=Simulation(seed=seed),
                               config=config)
    refs = runtime.preload(
        Account, [(f"a{i}", INITIAL) for i in range(ACCOUNTS)])
    runtime.start()
    requests: dict[int, str] = {}
    replies: dict[int, list[tuple[Any, str | None]]] = {}

    def record(request_id):
        return lambda reply: replies.setdefault(request_id, []).append(
            (reply.payload, reply.error))

    # A deterministic mix: conflicting multi-key transfers over a small
    # hot set plus single-key adds and reads, submitted in bursts so
    # overlapping transfers land in the same Aria batch and conflict.
    sequence = []
    for index in range(60):
        src = refs[index % ACCOUNTS]
        dst = refs[(index * 3 + 1) % ACCOUNTS]
        if src.key == dst.key:
            dst = refs[(index * 3 + 2) % ACCOUNTS]
        sequence.append(("transfer", src, (1 + index % 3, dst)))
        if index % 4 == 0:
            sequence.append(("add", refs[index % ACCOUNTS], (2,)))
        if index % 7 == 0:
            sequence.append(("read", refs[(index + 1) % ACCOUNTS], ()))
    for position, (method, ref, args) in enumerate(sequence):
        def fire(ref=ref, method=method, args=args):
            request_id = runtime.submit(ref, method, args)
            requests[request_id] = method
            runtime._reply_callbacks[request_id] = record(request_id)
        runtime.sim.schedule_at((position // 8) * 40.0, fire)
    if fail_worker_at is not None:
        runtime.fail_worker(runtime.worker_of("Account", "a0"),
                            at_ms=fail_worker_at)
    runtime.sim.run(until=60_000)
    assert len(requests) == len(sequence)
    return RunOutcome(
        requests=requests, replies=replies,
        stats=runtime.coordinator.stats,
        final_state={f"a{i}": runtime.entity_state(refs[i])
                     for i in range(ACCOUNTS)},
        recoveries=runtime.coordinator.recoveries)


def _assert_money_conserved(outcome: RunOutcome) -> None:
    total = sum(state["balance"] for state in outcome.final_state.values())
    assert total == ACCOUNTS * INITIAL + ADDED


def _assert_replies_correct(outcome: RunOutcome) -> None:
    """Exactly one reply per request, none an error.  No source can run
    dry (at most 18 of its 100 leave it), so every transfer succeeds;
    reads and adds answer a balance."""
    assert outcome.replies.keys() == outcome.requests.keys()
    for request_id, method in outcome.requests.items():
        [(payload, error)] = outcome.replies[request_id]
        assert error is None, (request_id, method, error)
        if method == "transfer":
            assert payload is True
        else:
            assert type(payload) is int and payload >= INITIAL - 18


def test_duplicate_create_rejected_across_partitions(account_program):
    """Constructors execute before their key is known (on the key-less
    worker), so the duplicate-key check must see every partition, not
    just the executing worker's own."""
    from repro.core.errors import InvocationError

    runtime = StateflowRuntime(account_program)
    (ref,) = runtime.preload(Account, [("dup", 100)])
    runtime.start()
    with pytest.raises(InvocationError, match="already exists"):
        runtime.create(Account, "dup", 55)
    assert runtime.entity_state(ref)["balance"] == 100


class TestConflictingMix:
    @pytest.fixture(scope="class")
    def outcome(self, account_program, pipeline_depth):
        return _drive(account_program, pipeline_depth=pipeline_depth)

    def test_conflicts_and_single_key_commits(self, outcome):
        # The mix must exercise the machinery for the checks to mean
        # anything.
        assert outcome.stats.aborts_waw + outcome.stats.aborts_raw > 0
        assert outcome.stats.fallback_runs > 0
        assert outcome.stats.single_key > 0

    def test_money_conserved(self, outcome):
        _assert_money_conserved(outcome)

    def test_replies_correct(self, outcome):
        _assert_replies_correct(outcome)


class TestConflictingMixThroughRecovery:
    @pytest.fixture(scope="class")
    def outcome(self, account_program, pipeline_depth):
        return _drive(account_program, pipeline_depth=pipeline_depth,
                      fail_worker_at=200.0)

    def test_recovery_happened(self, outcome):
        assert outcome.recoveries >= 1

    def test_money_conserved(self, outcome):
        _assert_money_conserved(outcome)

    def test_replies_correct(self, outcome):
        _assert_replies_correct(outcome)
