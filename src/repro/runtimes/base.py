"""Runtime interface shared by the Local, StateFun-style, and StateFlow
backends.

"The choice of a runtime system is completely independent of the
application layer, which allows switching to different runtime systems
with no changes to the application code" (Section 1): every runtime
accepts a :class:`~repro.compiler.pipeline.CompiledProgram` and exposes
the same create/invoke surface.

The same independence holds one layer down: every runtime keeps its
committed operator state behind the shared
:class:`~repro.runtimes.state.StateBackend` contract (re-exported here)
in a :class:`~repro.runtimes.state.DictStateBackend`, which the
StateFlow runtime shards into worker-owned slots with
:class:`~repro.runtimes.state.PartitionedStore`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from ..compiler.pipeline import CompiledProgram
from ..core.errors import InvocationError
from ..core.refs import EntityRef
from .state import StateBackend

__all__ = ["InvocationResult", "Runtime", "StateBackend"]


@dataclass(slots=True)
class InvocationResult:
    """Outcome of one client request."""

    value: Any = None
    error: str | None = None
    #: End-to-end latency in *simulated* milliseconds (wall-clock for the
    #: Local runtime, virtual time for the simulated distributed ones).
    latency_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        """Return the value, raising if the invocation failed."""
        if self.error is not None:
            raise InvocationError(self.error, cause=self.error)
        return self.value


class Runtime(abc.ABC):
    """Common surface of every execution backend."""

    name: str = "abstract"

    def __init__(self, program: CompiledProgram):
        self.program = program
        self.dataflow = program.dataflow

    # -- client operations -------------------------------------------------
    @abc.abstractmethod
    def create(self, entity: str | type, *args: Any) -> EntityRef:
        """Instantiate an entity and return its partition-keyed ref."""

    @abc.abstractmethod
    def invoke(self, ref: EntityRef, method: str, *args: Any,
               ) -> InvocationResult:
        """Call ``ref.method(*args)`` through the dataflow and wait for
        the reply (drives the runtime until the reply arrives)."""

    def call(self, ref: EntityRef, method: str, *args: Any) -> Any:
        """Convenience: invoke and unwrap."""
        return self.invoke(ref, method, *args).unwrap()

    # -- introspection -------------------------------------------------------
    @abc.abstractmethod
    def entity_state(self, ref: EntityRef) -> dict[str, Any] | None:
        """Committed state of one entity (tests / debugging)."""

    def entity_names(self) -> list[str]:
        return list(self.program.entities)
