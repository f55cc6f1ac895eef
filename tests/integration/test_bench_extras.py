"""Bench plumbing: runtime overrides, Blob entity, hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import Blob, build_runtime, ycsb_program
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
