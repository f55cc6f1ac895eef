"""The cost profiles: the kernel picks one, and every component of both
runtimes reads its costs from it.  On a ``Simulation`` they are the
numbers every committed digest rests on; on a ``WallClock`` they are all
zero and draw nothing from the RNG."""

from dataclasses import fields

import pytest

from repro.runtimes.stateflow import StateflowRuntime
from repro.runtimes.statefun import StatefunRuntime
from repro.substrates.costs import MODELLED, ZERO, cost_profile
from repro.substrates.simulation import Simulation
from repro.substrates.spawner import ProcessSpawner, SimulatorSpawner
from repro.substrates.wallclock import WallClock
from repro.workloads import Account


def _read_costs(program, kernel_class):
    """Every cost a StateFlow and a StateFun runtime on a fresh
    *kernel_class* read, by name, as the components hold them."""
    flow = StateflowRuntime(program, sim=kernel_class(3))
    fun = StatefunRuntime(program, sim=kernel_class(3))
    worker, coordinator = flow.workers[0], flow.coordinator
    costs = {
        "exec_service_ms": worker._exec_service_ms,
        "state_op_ms": worker._state_op_ms,
        "conflict_check_ms_per_txn":
            coordinator.costs.conflict_check_ms_per_txn,
        "dispatch_ms_per_txn": coordinator.costs.dispatch_ms_per_txn,
        "idle_seal_fraction": coordinator.costs.idle_seal_fraction,
        "router_service_ms": fun.costs.router_service_ms,
        "state_service_ms": fun.costs.state_service_ms,
        "function_service_ms": fun.costs.function_service_ms,
        "buffer_timeout_ms": fun.task_channel.timeout_ms,
    }
    for name, runtime in (("stateflow", flow), ("statefun", fun)):
        kafka, network = runtime.broker.config, runtime.network.config
        costs.update({
            f"{name}.produce": kafka.produce_latency,
            f"{name}.fetch": kafka.fetch_latency,
            f"{name}.broker_cpu_ms": kafka.broker_cpu_ms,
            f"{name}.intra_cluster": network.intra_cluster,
            f"{name}.rpc_hop": network.rpc_hop,
        })
    return costs, flow


def _model(model):
    return (model.median_ms, model.sigma, model.floor_ms)


def test_the_simulator_charges_its_modelled_costs(account_program):
    costs, _ = _read_costs(account_program, Simulation)
    models = {name: _model(costs.pop(name)) for name in list(costs)
              if name.endswith(("produce", "fetch", "intra_cluster",
                                "rpc_hop"))}
    assert costs == {
        "exec_service_ms": 0.3, "state_op_ms": 0.05,
        "conflict_check_ms_per_txn": 0.01, "dispatch_ms_per_txn": 0.02,
        "idle_seal_fraction": 0.25,
        "router_service_ms": 0.04, "state_service_ms": 0.06,
        "function_service_ms": 1.0, "buffer_timeout_ms": 25.0,
        "stateflow.broker_cpu_ms": 0.01, "statefun.broker_cpu_ms": 0.01}
    for name in ("stateflow", "statefun"):
        assert models[f"{name}.produce"] == (5.0, 0.35, 0.01)
        assert models[f"{name}.fetch"] == (5.0, 0.35, 0.01)
        assert models[f"{name}.intra_cluster"] == (0.25, 0.25, 0.01)
        assert models[f"{name}.rpc_hop"] == (1.0, 0.3, 0.01)


def test_the_real_clock_charges_nothing_and_draws_nothing(account_program):
    costs, flow = _read_costs(account_program, WallClock)
    before = flow.sim.rng.getstate()
    for name, cost in costs.items():
        drawn = cost.sample(flow.sim) if hasattr(cost, "sample") else cost
        assert drawn == 0.0, name
    (ref,) = flow.preload(Account, [("a", 100)])
    assert flow.invoke(ref, "add", 1).unwrap() == 101
    flow.close()
    assert flow.sim.rng.getstate() == before


@pytest.mark.parametrize("profile", [MODELLED, ZERO], ids=["modelled",
                                                          "zero"])
def test_a_profile_is_frozen(profile):
    with pytest.raises(AttributeError):
        profile.exec_service_ms = 1.0
    with pytest.raises(AttributeError):
        profile.kafka.broker_cpu_ms = 1.0


def test_the_kernel_is_the_one_fact():
    assert cost_profile(Simulation()) is MODELLED
    assert cost_profile(WallClock()) is ZERO
    assert SimulatorSpawner().kernel.real_time is Simulation.real_time \
        is False
    assert ProcessSpawner().kernel.real_time is WallClock.real_time is True
    assert all(getattr(ZERO, field.name) == 0.0 for field in fields(ZERO)
               if field.name not in ("kafka", "network"))
