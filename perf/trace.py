"""Outside-in tracing: spans recorded at the calls into each layer.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
wraps, from outside, the public boundary of every layer (see
``BOUNDARIES`` and the callback wrapping in ``_wrap_kernel``); each
call becomes a span ``(name, start, end, parent, id)`` kept in memory
and written out when the rep ends.  A span's *self* time is its
duration minus the time its child spans cover, so the per-layer self
times of one run add up to the traced interval without double counting.

A span name is ``<layer>.<operation>``.  Every wrapper is installed on
its own: when a refactor removes an entry point, that wrapper is
reported in :attr:`Tracer.missing` with the reason and the rest of the
trace still works.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter_ns


def _first_arg_attr(attr: str) -> Callable[[tuple], Any]:
    """Span id = ``args[1].<attr>`` (``args[0]`` is ``self``)."""
    return lambda args: getattr(args[1], attr, None) if len(args) > 1 else None


def _arg(index: int) -> Callable[[tuple], Any]:
    return lambda args: args[index] if len(args) > index else None


#: (module, class or None, attribute, span name, id extractor).
#: Module-level functions are patched in the namespace that looks them
#: up (``from x import f`` binds a private reference).
BOUNDARIES: list[tuple[str, str | None, str, str, Any]] = [
    ("repro.runtimes.executor", "OperatorExecutor", "handle",
     "executor.handle", _first_arg_attr("request_id")),
    *[("repro.runtimes.state", "PartitionedStore", method,
       f"state.{method}", None)
      for method in ("get", "put", "apply_writes", "pin_view",
                     "release_view", "snapshot", "capture_base",
                     "capture_delta")],
    # Pipelined batches read through the pinned view, not the store.
    ("repro.runtimes.state", "PartitionedReadView", "get", "state.get", None),
    ("repro.runtimes.state", None, "fast_deepcopy", "state.deepcopy", None),
    ("repro.runtimes.stateflow.procworker", None, "fast_deepcopy",
     "state.deepcopy", None),
    ("repro.runtimes.stateflow.aria", "BatchMember", "from_context",
     "aria.member", None),
    ("repro.runtimes.stateflow.coordinator", None, "decide",
     "aria.decide", None),
    ("repro.runtimes.stateflow.snapshots", "ChangelogStore", "append",
     "snapshots.append", _arg(1)),
    ("repro.runtimes.stateflow.snapshots", "SnapshotStore", "take",
     "snapshots.take", None),
    ("repro.storage.changelog", "FileChangelogStore", "append",
     "storage.append", _arg(1)),
    ("repro.storage.snapstore", "FileSnapshotStore", "take",
     "storage.take", None),
    ("os", None, "fsync", "storage.fsync", None),
    ("repro.views.manager", "ViewManager", "on_commit",
     "views.on_commit", _arg(1)),
    ("repro.views.manager", "ViewManager", "read", "views.read", None),
    ("repro.substrates.network", "Network", "send", "network.send", None),
    ("repro.substrates.kafka", "KafkaBroker", "produce",
     "kafka.produce", None),
    # The wall-clock kernel's one blocking point.
    ("repro.substrates.wallclock", None, "_conn_wait", "wallclock.wait",
     None),
    ("repro.runtimes.stateflow.procworker", None, "encode_frame",
     "wire.encode", None),
    ("repro.runtimes.stateflow.procworker", None, "decode_frame",
     "wire.decode", None),
    ("repro.storage.changelog", None, "encode_frame", "wire.encode", None),
    ("repro.storage.snapstore", None, "encode_frame", "wire.encode", None),
    ("multiprocessing.connection", "_ConnectionBase", "send_bytes",
     "pipe.send", None),
    ("multiprocessing.connection", "_ConnectionBase", "recv_bytes",
     "pipe.recv", None),
]

#: Kernels whose ``schedule``/``schedule_at`` wrap their callbacks.
KERNELS = [("repro.substrates.simulation", "Simulation", ("schedule",)),
           ("repro.substrates.wallclock", "WallClock",
            ("schedule", "schedule_at"))]


def layer_of_callback(callback: Any) -> str:
    """A scheduled callback belongs to the module that defined it: that
    attributes coordinator, worker, kafka, network, runtime and
    generator time without touching their private methods."""
    module = getattr(callback, "__module__", None) or ""
    if module.startswith("repro."):
        return module.rsplit(".", 1)[1]
    return "generator"


class Tracer:
    def __init__(self) -> None:
        #: ``(name, start_ns, end_ns, parent index or -1, id)``
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []        # [span index, child ns, layer]
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Whole durations, children included (no span nests in one of
        #: its own name, so these do not double count).
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Calls that entered a layer from outside it (a same-layer
        #: child, such as ``state.deepcopy`` under ``state.get``, is
        #: not a new call into the layer).
        self.entries: dict[str, int] = defaultdict(int)
        #: wrapper name -> why it could not be installed.
        self.missing: dict[str, str] = {}
        #: Spans are recorded only while this is set: the harness turns
        #: it on for the load phase, so set-up, warm-up and the
        #: correctness checks stay out of the per-layer numbers.
        self.enabled = False

    # -- recording ------------------------------------------------------
    def wrap(self, name: str, function: Callable,
             span_id: Callable[[tuple], Any] | None = None) -> Callable:
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        self_ns, calls, entries = self.self_ns, self.calls, self.entries
        total_ns = self.total_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [index, 0, layer]
            stack.append(frame)
            started = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = _clock()
                stack.pop()
                duration = ended - started
                spans[index] = (name, started, ended,
                                parent[0] if parent else -1,
                                span_id(args) if span_id else None)
                self_ns[name] += duration - frame[1]
                total_ns[name] += duration
                calls[name] += 1
                if parent is None or parent[2] != layer:
                    entries[layer] += 1
                if parent is not None:
                    parent[1] += duration

        return traced

    def root(self, name: str, function: Callable) -> Callable:
        """The harness's own span around a whole load phase: recording
        is on exactly while it runs."""
        traced = self.wrap(name, function)

        def recording(*args, **kwargs):
            self.enabled = True
            try:
                return traced(*args, **kwargs)
            finally:
                self.enabled = False

        return recording

    # -- installation ---------------------------------------------------
    def _resolve(self, module_name: str, class_name: str | None,
                 attribute: str) -> tuple[Any, Any]:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        return owner, getattr(owner, attribute)

    def install(self) -> None:
        for module, class_name, attribute, name, span_id in BOUNDARIES:
            label = f"{name}@{module}"
            try:
                owner, original = self._resolve(module, class_name, attribute)
            except (ImportError, AttributeError) as exc:
                self.missing[label] = f"{type(exc).__name__}: {exc}"
                continue
            wrapped = self.wrap(name, original, span_id)
            if class_name is not None and isinstance(
                    owner.__dict__.get(attribute), classmethod):
                # ``original`` is already bound to the class.
                wrapped = staticmethod(wrapped)
            setattr(owner, attribute, wrapped)
        for module, class_name, methods in KERNELS:
            for method in methods:
                try:
                    owner, original = self._resolve(module, class_name,
                                                    method)
                except (ImportError, AttributeError) as exc:
                    self.missing[f"{class_name}.{method}"] = \
                        f"{type(exc).__name__}: {exc}"
                    continue
                setattr(owner, method,
                        self._wrap_kernel(original, class_name.lower()))

    def _wrap_kernel(self, schedule: Callable, kernel_layer: str) -> Callable:
        """``schedule(self, when, callback)``: the call is a span of the
        kernel's layer, and the callback runs later as a span of the
        layer that defined it."""
        wrap = self.wrap
        callback_spans: dict[str, str] = {}

        def scheduling(kernel, when, callback):
            layer = layer_of_callback(callback)
            name = callback_spans.get(layer)
            if name is None:
                name = callback_spans[layer] = f"{layer}.callback"
            return schedule(kernel, when, wrap(name, callback))

        return self.wrap(f"{kernel_layer}.schedule", scheduling)

    # -- reporting ------------------------------------------------------
    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_ns", "calls"}}`` over every finished span."""
        layers: dict[str, dict[str, float]] = {}
        for name, nanos in self.self_ns.items():
            entry = layers.setdefault(name.split(".", 1)[0],
                                      {"self_ns": 0, "calls": 0})
            entry["self_ns"] += nanos
        for layer, count in self.entries.items():
            layers.setdefault(layer, {"self_ns": 0, "calls": 0})[
                "calls"] = count
        return layers

    def write(self, path: str) -> None:
        """Spans as ``[name index, start ns, duration ns, parent, id]``
        with starts relative to the first span."""
        names = sorted(self.self_ns)
        index = {name: i for i, name in enumerate(names)}
        origin = min((span[1] for span in self.spans if span), default=0)
        rows = [span and [index[span[0]], span[1] - origin,
                          span[2] - span[1], span[3],
                          span[4] if isinstance(span[4], (int, str))
                          else None]
                for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"unit": "ns",
                       "columns": ["name", "start", "duration", "parent",
                                   "id"],
                       "names": names, "spans": rows,
                       "missing": self.missing}, handle)
