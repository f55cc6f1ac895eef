"""Network latency models."""

import math
import random

from dataclasses import replace

import pytest

from repro.substrates.costs import MODELLED, ZERO
from repro.substrates.network import LatencyModel, Network
from repro.substrates.simulation import Simulation


class TestLatencyModel:
    def test_samples_positive_and_floored(self):
        sim = Simulation(seed=1)
        model = LatencyModel(median_ms=0.0001, floor_ms=0.05)
        assert all(model.sample(sim) >= 0.05 for _ in range(50))

    def test_median_roughly_respected(self):
        sim = Simulation(seed=1)
        model = LatencyModel(median_ms=10.0, sigma=0.3)
        samples = sorted(model.sample(sim) for _ in range(500))
        median = samples[len(samples) // 2]
        assert 8.0 < median < 12.0

    def test_the_zero_profile_hop_is_zero_and_draws_nothing(self):
        """A model with no spread is a constant: the real clock's hop
        costs exactly nothing and leaves the RNG where it was."""
        models = (ZERO.network.intra_cluster, ZERO.network.rpc_hop,
                  ZERO.kafka.produce_latency, ZERO.kafka.fetch_latency)
        sim = Simulation(seed=7)
        before = sim.rng.getstate()
        assert [model.sample(sim) for model in models] == [0.0] * 4
        assert sim.rng.getstate() == before
        assert LatencyModel(median_ms=2.0, sigma=0.0,
                            floor_ms=3.0).sample(sim) == 3.0

    def test_draws_with_spread_are_pinned(self):
        """Every simulator digest rests on this sequence."""
        sim = Simulation(seed=7)
        model = LatencyModel(median_ms=0.25, sigma=0.25)
        assert [model.sample(sim) for _ in range(20)] == [
            0.22871663954935037, 0.2680702816844738, 0.25613947261323183,
            0.17013716869432133, 0.17612980074673462, 0.20736847417523632,
            0.20310973465926482, 0.2640850249287008, 0.3104050162468196,
            0.21029617241115509, 0.15993192175933393, 0.18022184880410946,
            0.2748951099968544, 0.25552225450042715, 0.19707616576027076,
            0.2861818145528404, 0.2062586227261236, 0.24293333607692155,
            0.3802777139632227, 0.1931698212565383]

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("median_ms, sigma, floor_ms", [
        (0.25, 0.25, 0.01),    # the intra-cluster hop
        (5.0, 0.35, 0.01),     # Kafka produce and fetch
        (1.0, 0.3, 0.01),      # the StateFun RPC hop
        (1.0, 1.5, 0.8),       # the floor wins on about 45 % of draws
        (1e-4, 0.3, 0.05),     # the floor wins on every draw
    ])
    def test_the_inlined_draw_is_the_stdlibs_bit_for_bit(
            self, seed, median_ms, sigma, floor_ms):
        """``sample`` inlines ``random.lognormvariate``: the same floats,
        from the same draws, leaving the RNG in the same state."""
        sim, reference = Simulation(seed=seed), random.Random(seed)
        model = LatencyModel(median_ms=median_ms, sigma=sigma,
                             floor_ms=floor_ms)
        mu = math.log(median_ms)
        drawn = [model.sample(sim) for _ in range(10_000)]
        expected = [max(reference.lognormvariate(mu, sigma), floor_ms)
                    for _ in range(10_000)]
        assert drawn == expected
        assert sim.rng.getstate() == reference.getstate()
        if floor_ms > 0.01:
            assert floor_ms in drawn


class TestNetwork:
    def test_send_delivers_after_latency(self):
        sim = Simulation(seed=2)
        network = Network(sim, replace(
            MODELLED.network,
            intra_cluster=LatencyModel(median_ms=3.0, sigma=0.0001)))
        seen = []
        network.send(lambda: seen.append(sim.now))
        sim.run()
        assert len(seen) == 1
        assert seen[0] == pytest.approx(3.0, rel=0.05)
        assert network.messages_sent == 1

    def test_rpc_round_trip(self):
        sim = Simulation(seed=2)
        network = Network(sim, replace(
            MODELLED.network,
            rpc_hop=LatencyModel(median_ms=2.0, sigma=0.0001)))
        trace = []

        def service(done):
            trace.append(("served", sim.now))
            sim.schedule(5.0, done)

        network.rpc(service, lambda: trace.append(("back", sim.now)))
        sim.run()
        assert trace[0][0] == "served"
        assert trace[1][0] == "back"
        # ~2ms there + 5ms service + ~2ms back
        assert trace[1][1] == pytest.approx(9.0, rel=0.1)

