"""Unit battery for the view-maintenance operators and the compiler.

Every operator consumes absolute-state deltas and emits its own delta;
these tests pin the retraction memos (group buckets, top-k index), the
tombstone flow, the deterministic top-k tie-break, plan memoization in
the compiler, and the ViewManager's registration/freshness/duplicate-
delivery contract over a fake committed store.
"""

import pytest

from repro.views import (
    TOMBSTONE,
    FilterMap,
    GroupAggregate,
    TopK,
    ViewCompiler,
    ViewError,
    ViewManager,
    ViewSpec,
    compile_spec,
    rank_key,
    recompute,
)


class TestFilterMap:
    def test_passthrough_shares_rows_projection_builds_new_ones(self):
        """The row contract: a row is private to the view layer when it
        arrives and immutable from there, so a stage that does not
        reshape it passes the row itself; only a projection is a new
        dict."""
        row = {"v": 1, "w": 2}
        assert FilterMap().apply({"a": row})["a"] is row
        kept = FilterMap(where=lambda r: r["v"] > 0).apply({"a": row})
        assert kept["a"] is row
        projected = FilterMap(project=("v",)).apply({"a": row})
        assert projected == {"a": {"v": 1}} and row == {"v": 1, "w": 2}

    def test_failing_rows_become_tombstones(self):
        stage = FilterMap(where=lambda r: r["v"] > 0)
        out = stage.apply({"a": {"v": 5}, "b": {"v": -5}})
        assert out["a"] == {"v": 5}
        assert out["b"] is TOMBSTONE

    def test_tombstones_flow_through(self):
        assert FilterMap(where=lambda r: True).apply(
            {"a": TOMBSTONE})["a"] is TOMBSTONE

    def test_projection(self):
        out = FilterMap(project=("v",)).apply({"a": {"v": 1, "w": 2}})
        assert out == {"a": {"v": 1}}

    def test_projection_missing_field_raises(self):
        with pytest.raises(ViewError, match="lacks field"):
            FilterMap(project=("v", "nope")).apply({"a": {"v": 1}})


class TestGroupAggregate:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ViewError, match="unknown aggregate kind"):
            GroupAggregate("median")

    def test_sum_needs_value_field(self):
        with pytest.raises(ViewError, match="needs a value field"):
            GroupAggregate("sum")

    def test_count_update_retracts_old_contribution(self):
        agg = GroupAggregate("count", group_of=lambda r: r["g"])
        agg.apply({"a": {"g": "x"}, "b": {"g": "x"}})
        out = agg.apply({"a": {"g": "y"}})  # a moves from x to y
        assert out == {"x": 1, "y": 1}
        assert agg.result() == {"x": 1, "y": 1}

    def test_sum_delete_emits_group_tombstone(self):
        agg = GroupAggregate("sum", group_of=lambda r: r["g"],
                             value_of=lambda r: r["v"])
        agg.apply({"a": {"g": "x", "v": 7}})
        out = agg.apply({"a": TOMBSTONE})
        assert out["x"] is TOMBSTONE
        assert agg.result() == {}

    def test_retracting_unknown_key_is_noop(self):
        agg = GroupAggregate("count")
        assert agg.apply({"ghost": TOMBSTONE}) == {}
        assert agg.result() == {}

    def test_avg_is_total_over_count(self):
        agg = GroupAggregate("avg", value_of=lambda r: r["v"])
        agg.apply({"a": {"v": 10}, "b": {"v": 20}})
        assert agg.result() == {None: 15.0}
        agg.apply({"b": TOMBSTONE})
        assert agg.result() == {None: 10.0}

    def test_duplicate_application_is_idempotent(self):
        agg = GroupAggregate("sum", value_of=lambda r: r["v"])
        delta = {"a": {"v": 3}, "b": {"v": 4}}
        agg.apply(delta)
        agg.apply(delta)  # absolute states: re-apply retracts first
        assert agg.result() == {None: 7}


class TestTopK:
    def _topk(self, k=2):
        return TopK(k, score_of=lambda r: r["v"])

    def test_k_must_be_positive(self):
        with pytest.raises(ViewError, match="k >= 1"):
            TopK(0, score_of=lambda r: r["v"])

    def test_orders_highest_first(self):
        top = self._topk()
        rows = top.apply({"a": {"v": 1}, "b": {"v": 9}, "c": {"v": 5}})
        assert [r["__key__"] for r in rows] == ["b", "c"]

    def test_ties_break_by_ascending_key_string(self):
        top = self._topk(k=3)
        rows = top.apply({"z": {"v": 5}, "a": {"v": 5}, "m": {"v": 5}})
        assert [r["__key__"] for r in rows] == ["a", "m", "z"]

    def test_eviction_backfills_from_index(self):
        top = self._topk()
        top.apply({"a": {"v": 1}, "b": {"v": 9}, "c": {"v": 5}})
        rows = top.apply({"b": TOMBSTONE})  # 'a' re-enters from the index
        assert [r["__key__"] for r in rows] == ["c", "a"]

    def test_update_moves_key(self):
        top = self._topk()
        top.apply({"a": {"v": 1}, "b": {"v": 9}, "c": {"v": 5}})
        rows = top.apply({"a": {"v": 100}})
        assert [r["__key__"] for r in rows] == ["a", "b"]

    def test_invisible_change_emits_nothing(self):
        top = self._topk()
        top.apply({"a": {"v": 1}, "b": {"v": 9}, "c": {"v": 5}})
        assert top.apply({"a": {"v": 2}}) is None, (
            "a below-the-cut move must not push an update")

    def test_in_place_update_of_top_row_emits(self):
        top = self._topk()
        top.apply({"a": {"v": 1}, "b": {"v": 9}, "c": {"v": 5}})
        rows = top.apply({"b": {"v": 9, "tag": "new"}})
        assert rows is not None and rows[0]["tag"] == "new", (
            "same membership but changed row content must re-emit")

    def test_matches_nlargest_with_rank_key(self):
        import heapq

        top = self._topk(k=3)
        delta = {f"k{i}": {"v": (i * 7) % 5} for i in range(10)}
        top.apply(delta)
        want = heapq.nlargest(
            3, delta.items(), key=lambda kv: rank_key(kv[1]["v"], kv[0]))
        assert [r["__key__"] for r in top.result()] == [k for k, _ in want]


class TestViewSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ViewError, match="unknown view kind"):
            ViewSpec("v", "E", "median").validated()

    @pytest.mark.parametrize("kind", ["sum", "avg", "top_k"])
    def test_field_required(self, kind):
        with pytest.raises(ViewError, match="needs field="):
            ViewSpec("v", "E", kind, k=3).validated()

    def test_top_k_needs_k(self):
        with pytest.raises(ViewError, match="k >= 1"):
            ViewSpec("v", "E", "top_k", field="v").validated()

    def test_top_k_rejects_group_by(self):
        with pytest.raises(ViewError, match="group_by"):
            ViewSpec("v", "E", "top_k", field="v", k=3,
                     group_by="g").validated()


class TestCompiler:
    def test_equivalent_specs_share_one_plan(self):
        compiler = ViewCompiler()
        where = lambda r: r["v"] > 0  # noqa: E731 - identity matters
        a = compiler.normalize(ViewSpec("a", "E", "count", where=where))
        b = compiler.normalize(ViewSpec("b", "E", "count", where=where))
        assert a is b
        assert len(compiler.plans) == 1

    def test_distinct_predicates_do_not_share(self):
        compiler = ViewCompiler()
        a = compiler.normalize(
            ViewSpec("a", "E", "count", where=lambda r: True))
        b = compiler.normalize(
            ViewSpec("b", "E", "count", where=lambda r: True))
        assert a is not b

    def test_forget_drops_the_plan(self):
        compiler = ViewCompiler()
        compiled = compiler.normalize(ViewSpec("a", "E", "count"))
        compiler.forget(compiled)
        assert compiler.plans == []

    def test_value_shapes(self):
        assert compile_spec(ViewSpec("c", "E", "count")).value() == 0
        assert compile_spec(ViewSpec("s", "E", "sum", field="v")).value() == 0
        assert compile_spec(
            ViewSpec("a", "E", "avg", field="v")).value() is None
        assert compile_spec(
            ViewSpec("t", "E", "top_k", field="v", k=2)).value() == []
        assert compile_spec(
            ViewSpec("g", "E", "count", group_by="g")).value() == {}

    def test_group_by_missing_field_raises(self):
        compiled = compile_spec(ViewSpec("g", "E", "count", group_by="g"))
        with pytest.raises(ViewError, match="cannot group by"):
            compiled.apply({"a": {"v": 1}})

    def test_hydrate_equals_recompute(self):
        spec = ViewSpec("s", "E", "sum", field="v", group_by="g")
        items = [(f"k{i}", {"g": i % 3, "v": i}) for i in range(10)]
        compiled = compile_spec(spec)
        compiled.hydrate(items)
        assert compiled.value() == recompute(spec, items)


class FakeStore:
    """The committed-store surface views scan."""

    def __init__(self, rows):
        self._rows = dict(rows)  # (entity, key) -> state

    def keys(self):
        return list(self._rows)

    def get(self, entity, key):
        state = self._rows.get((entity, key))
        return dict(state) if state is not None else None

    def put(self, entity, key, state):
        self._rows[(entity, key)] = state


class TestViewManager:
    def _manager(self, rows=()):
        return ViewManager(FakeStore(rows))

    def test_register_hydrates_from_store(self):
        manager = self._manager({("E", "a"): {"v": 2}, ("E", "b"): {"v": 3},
                                 ("F", "x"): {"v": 100}})
        snap = manager.register(ViewSpec("total", "E", "sum", field="v"))
        assert snap.value == 5, "hydration must scan only the spec's entity"

    def test_duplicate_name_rejected(self):
        manager = self._manager()
        manager.register(ViewSpec("v", "E", "count"))
        with pytest.raises(ViewError, match="already registered"):
            manager.register(ViewSpec("v", "E", "count"))

    def test_read_unknown_view(self):
        with pytest.raises(ViewError, match="no registered view"):
            self._manager().read("ghost")

    def test_shared_plan_maintained_once(self):
        manager = self._manager({("E", "a"): {"v": 1}})
        manager.register(ViewSpec("one", "E", "count"))
        manager.register(ViewSpec("two", "E", "count"))
        assert len(manager._compiler.plans) == 1
        manager.on_commit(0, {("E", "b"): {"v": 2}}, at_ms=1.0)
        assert manager.read("one").value == 2
        assert manager.read("two").value == 2
        assert manager.commits_applied == 1

    def test_unregister_keeps_shared_plan_alive(self):
        manager = self._manager()
        manager.register(ViewSpec("one", "E", "count"))
        manager.register(ViewSpec("two", "E", "count"))
        manager.unregister("one")
        assert manager.read("two").value == 0
        manager.unregister("two")
        assert manager._compiler.plans == []

    def test_commit_advances_freshness_even_when_empty(self):
        manager = self._manager()
        manager.register(ViewSpec("v", "E", "count"))
        manager.on_commit(4, {}, at_ms=7.0)
        snap = manager.read("v")
        assert snap.last_applied_batch == 4
        assert snap.as_of_ms == 7.0

    def test_duplicate_delivery_skipped(self):
        manager = self._manager()
        manager.register(ViewSpec("v", "E", "sum", field="v"))
        delta = {("E", "a"): {"v": 10}}
        manager.on_commit(0, delta, at_ms=1.0)
        manager.on_commit(0, delta, at_ms=1.0)  # replayed batch
        assert manager.read("v").value == 10

    def test_lag_measures_distance_to_head(self):
        head = {"value": 0}
        manager = ViewManager(FakeStore({}), head=lambda: head["value"])
        manager.register(ViewSpec("v", "E", "count"))
        head["value"] = 3
        assert manager.read("v").lag_batches == 3
        manager.on_commit(3, {}, at_ms=None)
        assert manager.read("v").lag_batches == 0

    def test_on_restore_rewinds_to_store(self):
        store = FakeStore({("E", "a"): {"v": 1}})
        manager = ViewManager(store)
        manager.register(ViewSpec("v", "E", "sum", field="v"))
        manager.on_commit(0, {("E", "b"): {"v": 99}}, at_ms=1.0)
        assert manager.read("v").value == 100
        # recovery rewound the committed store; the uncommitted write
        # to b must vanish from the view
        manager.on_restore(last_closed=-1, at_ms=2.0)
        snap = manager.read("v")
        assert snap.value == 1
        assert snap.last_applied_batch == -1
        assert manager.rehydrations == 1

    def test_subscriptions_deliver_updates(self):
        manager = self._manager()
        manager.register(ViewSpec("v", "E", "count"))
        seen = []
        manager.subscribe("v", seen.append)
        manager.on_commit(0, {("E", "a"): {"v": 1}}, at_ms=1.0)
        manager.on_commit(1, {}, at_ms=2.0)  # no visible change: no push
        assert [u.value for u in seen] == [1]
        assert seen[0].batch_id == 0

    def test_transport_carries_deliveries(self):
        manager = self._manager()
        manager.register(ViewSpec("v", "E", "count"))
        queued = []
        manager.transport = queued.append  # deferred deliver closures
        seen = []
        manager.subscribe("v", seen.append)
        manager.on_commit(0, {("E", "a"): {"v": 1}}, at_ms=1.0)
        assert seen == [] and len(queued) == 1
        queued[0]()  # the substrate delivers later, off the commit path
        assert [u.value for u in seen] == [1]

    def test_expected_is_the_full_scan_oracle(self):
        store = FakeStore({("E", "a"): {"v": 1}})
        manager = ViewManager(store)
        manager.register(ViewSpec("v", "E", "sum", field="v"))
        store.put("E", "z", {"v": 41})  # store moved; view not yet told
        assert manager.read("v").value == 1
        assert manager.expected("v") == 42
