"""Determinism regression: identical (seed, fault plan) pairs must
reproduce the run bit for bit — byte-identical committed-state
snapshots and identical reply traces.  This is the property that makes
every chaos (and rescale) scenario a *test* instead of an anecdote."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import chaos_coordinator_config
from repro.faults import (FaultEvent, FaultPlan, MessageFaultProfile,
                          random_plan, staged_plan)
from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload


def _run_once(account_program, seed: int, plan: FaultPlan,
              workers: int = 5):
    """One chaos run; returns (committed-state bytes, reply trace)."""
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        workers=workers, fault_plan=plan,
        coordinator=chaos_coordinator_config()))
    trace: list[tuple] = []
    runtime.reply_tap = lambda reply: trace.append(
        (reply.request_id, repr(reply.payload), reply.error,
         runtime.sim.now))
    workload = YcsbWorkload("T", record_count=20, distribution="uniform",
                            seed=seed + 1, initial_balance=300)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=90, duration_ms=1_500, warmup_ms=0, drain_ms=20_000,
        seed=seed + 2))
    driver.run()
    runtime.sim.run(until=runtime.sim.now + 20_000)
    state = materialize_snapshot(runtime.committed.snapshot())
    state_bytes = repr(sorted(state.items(), key=repr)).encode("utf-8")
    return state_bytes, trace


# Generated plans: hypothesis picks the plan seed and knobs; the plan
# builder itself is deterministic, so shrinking stays meaningful.
plan_strategy = st.builds(
    lambda plan_seed, intensity, coordinator: random_plan(
        plan_seed, duration_ms=1_500.0, workers=5, intensity=intensity,
        coordinator_faults=coordinator),
    plan_seed=st.integers(0, 2**16),
    intensity=st.sampled_from(["light", "medium", "heavy"]),
    coordinator=st.booleans())


@given(seed=st.integers(0, 2**16), plan=plan_strategy)
@settings(max_examples=5, deadline=None)
def test_same_seed_and_plan_reproduce_identically(account_program, seed,
                                                  plan):
    first_state, first_trace = _run_once(account_program, seed, plan)
    second_state, second_trace = _run_once(account_program, seed, plan)
    assert first_state == second_state, (
        "committed-state snapshots diverged across identical runs")
    assert first_trace == second_trace, (
        "reply traces diverged across identical runs")


def test_fixed_seed_regression(account_program):
    """A pinned scenario (worker crash + drops + partition) so any
    future nondeterminism fails loudly even without hypothesis."""
    plan = FaultPlan(seed=17, events=[
        FaultEvent(kind="messages", at_ms=100.0, duration_ms=600.0,
                   channel="all",
                   profile=MessageFaultProfile(drop_p=0.05, duplicate_p=0.05,
                                               delay_p=0.2, delay_ms=20.0)),
        FaultEvent(kind="crash_worker", at_ms=400.0, worker=2),
        FaultEvent(kind="partition", at_ms=700.0, duration_ms=150.0,
                   isolate=("worker-0",)),
    ])
    first = _run_once(account_program, 17, plan)
    second = _run_once(account_program, 17, plan)
    assert first == second

    runs_differ = _run_once(account_program, 18, plan)
    assert runs_differ[1] != first[1], (
        "different runtime seeds should perturb the trace — if they do "
        "not, the fault machinery is not actually wired in")


# ---------------------------------------------------------------------------
# Rescale determinism: same (seed, workload, staged resizes, fault plan)
# -> byte-identical final state and reply trace
# ---------------------------------------------------------------------------


#: ``staged_plan`` keywords: one to three resizes at chosen times.
staged_strategy = st.fixed_dictionaries({
    "targets": st.lists(st.integers(1, 8), min_size=1, max_size=3),
    "start_ms": st.integers(100, 800).map(float),
    "interval_ms": st.integers(200, 600).map(float)})


@given(seed=st.integers(0, 2**16), staged=staged_strategy)
@settings(max_examples=5, deadline=None)
def test_same_seed_and_rescale_plan_reproduce_identically(
        account_program, seed, staged):
    """Resize-only plans (no faults) replay byte-identically."""
    plan = staged_plan(**staged)
    first = _run_once(account_program, seed, plan, workers=2)
    second = _run_once(account_program, seed, plan, workers=2)
    assert first == second, (
        "a resize-only run diverged across identical replays")


@given(seed=st.integers(0, 2**16), plan=plan_strategy,
       staged=staged_strategy)
@settings(max_examples=5, deadline=None)
def test_combined_rescale_and_chaos_reproduce_identically(
        account_program, seed, plan, staged):
    """The full battery: rescale steps interleaved with crashes, drops
    and fail-overs must still replay bit for bit."""
    plan = staged_plan(**staged, faults=plan)
    first = _run_once(account_program, seed, plan, workers=2)
    second = _run_once(account_program, seed, plan, workers=2)
    assert first[0] == second[0], (
        "committed-state snapshots diverged across identical "
        "rescale+chaos runs")
    assert first[1] == second[1], (
        "reply traces diverged across identical rescale+chaos runs")


def test_rescale_events_inside_fault_plan_reproduce(account_program):
    """Random ``rescale`` events mixed into a generated fault plan are
    deterministic too."""
    plan = random_plan(31, duration_ms=1_500.0, workers=2,
                       intensity="medium", rescales=2)
    first_state, first_trace = _run_once(account_program, 31, plan,
                                         workers=2)
    second_state, second_trace = _run_once(account_program, 31, plan,
                                           workers=2)
    assert first_state == second_state
    assert first_trace == second_trace
