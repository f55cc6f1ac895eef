"""Network latency models and the cluster layout."""

import pytest

from repro.bench.harness import process_stateflow_overrides
from repro.substrates.cluster import Cluster, ClusterLayout
from repro.substrates.network import LatencyModel, Network, NetworkConfig
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

    def test_scaled(self):
        model = LatencyModel(median_ms=4.0).scaled(2.0)
        assert model.median_ms == 8.0

    def test_the_process_preset_hop_is_zero_and_draws_nothing(self):
        """A model with no spread is a constant: the preset's "zero"
        hop costs exactly nothing and leaves the RNG where it was."""
        overrides = process_stateflow_overrides()
        models = (overrides["network"].intra_cluster,
                  overrides["network"].rpc_hop,
                  overrides["kafka"].produce_latency,
                  overrides["kafka"].fetch_latency)
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


class TestNetwork:
    def test_send_delivers_after_latency(self):
        sim = Simulation(seed=2)
        network = Network(sim, NetworkConfig(
            intra_cluster=LatencyModel(median_ms=3.0, sigma=0.0001)))
        seen = []
        network.send(lambda: seen.append(sim.now))
        sim.run()
        assert len(seen) == 1
        assert seen[0] == pytest.approx(3.0, rel=0.05)
        assert network.messages_sent == 1

    def test_rpc_round_trip(self):
        sim = Simulation(seed=2)
        network = Network(sim, NetworkConfig(
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


class TestCluster:
    def test_paper_layout_totals_14(self):
        layout = ClusterLayout()
        assert layout.total == 14
        assert (layout.kafka_cores, layout.system_cores,
                layout.client_cores) == (4, 6, 4)

    def test_nodes_and_failure(self):
        sim = Simulation()
        cluster = Cluster(sim)
        node = cluster.add_node("w1", cores=2)
        assert cluster.node("w1") is node
        assert node.alive
        node.kill()
        assert cluster.alive_nodes() == []
        node.restart()
        assert cluster.alive_nodes() == [node]

    def test_duplicate_node_rejected(self):
        cluster = Cluster(Simulation())
        cluster.add_node("w1", 1)
        with pytest.raises(ValueError):
            cluster.add_node("w1", 1)
