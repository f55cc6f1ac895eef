"""Bench plumbing: runtime overrides, stand-ins for the harness, closing
wall-clock runtimes, Blob entity, hashing."""

import importlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bench
from repro.bench import Blob, build_runtime, harness, pipeline, ycsb_program
from repro.core.serialization import state_size_bytes
from repro.ir.dataflow import stable_hash
from repro.runtimes import LocalRuntime


class TestBuildRuntime:
    def test_statefun_overrides(self):
        runtime = build_runtime("statefun", ycsb_program(),
                                function_cores=5)
        assert runtime.config.function_cores == 5

    def test_stateflow_overrides(self):
        runtime = build_runtime("stateflow", ycsb_program(), workers=3)
        assert len(runtime.workers) == 3

    def test_seed_controls_simulation(self):
        first = build_runtime("stateflow", ycsb_program(), seed=1)
        second = build_runtime("stateflow", ycsb_program(), seed=1)
        assert first.sim.rng.random() == second.sim.rng.random()


@pytest.mark.parametrize(
    "name", ["autoscale", "chaos", "paper", "pipeline", "recovery"])
def test_a_stand_in_does_not_outlive_its_test(name, monkeypatch):
    """A cell module imported for the first time while a test stands in
    for ``harness.build_runtime`` and ``harness.ycsb_row`` reaches the
    real functions once the stand-ins are gone."""
    def stand_in(*args, **kwargs):
        raise AssertionError("a stand-in outlived its test")

    module = f"repro.bench.{name}"
    monkeypatch.delitem(sys.modules, module, raising=False)
    monkeypatch.delattr(repro.bench, name, raising=False)
    with monkeypatch.context() as patch:
        for attribute in ("build_runtime", "ycsb_row"):
            patch.setattr(harness, attribute, stand_in)
        fresh = importlib.import_module(module)
    assert stand_in not in vars(fresh).values()
    if name == "chaos":
        with pytest.raises(ValueError, match="unknown system"):
            fresh.run_chaos_cell(system="nonesuch")


class _FailingRuntime:
    """A wall-clock runtime whose kernel fails once the load starts."""

    def __init__(self):
        self.sim = self
        self.now = 0.0
        self.closed = False

    def preload(self, *args):
        pass

    def start(self):
        pass

    def schedule(self, *args):
        pass

    def run_until(self, *args, **kwargs):
        raise RuntimeError("the kernel failed")

    def close(self):
        self.closed = True


@pytest.mark.parametrize("run", [
    lambda: harness.ycsb_row("stateflow", "T", "uniform", record_count=10,
                             runtime_overrides={"spawner": "process"}),
    lambda: pipeline._sweep("wallclock", seed=1, **{
        **pipeline.LEGS["wallclock"], "records": 10}),
], ids=["ycsb_row", "pipeline"])
def test_a_wall_clock_run_that_raises_still_closes_its_runtime(run,
                                                               monkeypatch):
    """Worker processes must not outlive a failed run."""
    runtime = _FailingRuntime()
    monkeypatch.setattr(harness, "build_runtime",
                        lambda *args, **kwargs: runtime)
    with pytest.raises(RuntimeError, match="kernel failed"):
        run()
    assert runtime.closed


class TestBlob:
    def test_state_size_tracks_request(self):
        from repro import compile_program

        program = compile_program([Blob])
        runtime = LocalRuntime(program)
        small = runtime.create(Blob, "s", 1024)
        big = runtime.create(Blob, "b", 64 * 1024)
        small_size = state_size_bytes(runtime.entity_state(small))
        big_size = state_size_bytes(runtime.entity_state(big))
        assert big_size > small_size * 10

    def test_touch_preserves_size_and_versions(self):
        from repro import compile_program

        program = compile_program([Blob])
        runtime = LocalRuntime(program)
        ref = runtime.create(Blob, "x", 2048)
        before = len(runtime.entity_state(ref)["payload"])
        assert runtime.call(ref, "touch", "tag-1") == 1
        assert runtime.call(ref, "touch", "tag-2") == 2
        after = runtime.entity_state(ref)["payload"]
        assert len(after) == before
        assert after.startswith("tag-2")
        assert runtime.call(ref, "peek") == 2


class TestStableHash:
    def test_cross_type_stability(self):
        assert stable_hash("alice") == stable_hash("alice")
        assert stable_hash(17) == 17

    @given(st.text(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_always_non_negative_31bit(self, key):
        value = stable_hash(key)
        assert 0 <= value < 2**31

    @given(st.lists(st.text(min_size=1, max_size=12), min_size=50,
                    max_size=50, unique=True))
    @settings(max_examples=10, deadline=None)
    def test_spreads_over_partitions(self, keys):
        partitions = {stable_hash(k) % 4 for k in keys}
        assert len(partitions) >= 2  # no pathological clumping
