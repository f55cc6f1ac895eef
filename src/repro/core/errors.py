"""Exception hierarchy for the stateful-entities compiler and runtimes.

Compile-time errors (subclasses of :class:`CompilationError`) enforce the
programming-model limitations from Section 2.2 of the paper: static type
hints, no recursion, stable keys, serializable state.  Runtime errors cover
routing, transactions, and fault-tolerance machinery.
"""

from __future__ import annotations


class StatefulEntityError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Compile-time errors
# ---------------------------------------------------------------------------

class CompilationError(StatefulEntityError):
    """Raised when static analysis or transformation of an entity fails."""

    def __init__(self, message: str, *, entity: str | None = None,
                 method: str | None = None, lineno: int | None = None):
        self.entity = entity
        self.method = method
        self.lineno = lineno
        location = ""
        if entity:
            location = f" [entity={entity}"
            if method:
                location += f", method={method}"
            if lineno is not None:
                location += f", line={lineno}"
            location += "]"
        super().__init__(message + location)


class MissingTypeHintError(CompilationError):
    """A stateful entity function parameter or return lacks a type hint."""


class MissingKeyError(CompilationError):
    """An entity class does not define the mandatory ``__key__`` method."""


class RecursionNotSupportedError(CompilationError):
    """The call graph contains (mutual) recursion, which the state machine
    cannot unroll into a finite automaton (Section 5, Program Analysis)."""


class UnsupportedConstructError(CompilationError):
    """The analyzed code uses a Python construct outside the supported
    subset (e.g. ``async``, generators, nested function definitions)."""


class KeyMutationError(CompilationError):
    """A method assigns to the attribute returned by ``__key__``; entity
    keys must be stable for the lifetime of the entity."""


# ---------------------------------------------------------------------------
# Runtime errors
# ---------------------------------------------------------------------------

class RuntimeExecutionError(StatefulEntityError):
    """Base class for errors raised while executing a dataflow."""


class UnknownEntityError(RuntimeExecutionError):
    """An event addressed an operator that is not part of the dataflow."""


class EntityNotFoundError(RuntimeExecutionError):
    """A method was invoked on a key with no materialised entity state."""


class EntityAlreadyExistsError(RuntimeExecutionError):
    """``__init__`` was routed to a key that already holds an entity."""


class SerializationError(RuntimeExecutionError):
    """Entity state contains values that cannot be serialized (the paper
    forbids sockets, DB connections, pipes, ... in entity state)."""


class UnsupportedFeatureError(RuntimeExecutionError):
    """The selected runtime cannot execute the requested feature (e.g.
    Statefun has no transaction support, mirroring the paper)."""


class InvocationError(RuntimeExecutionError):
    """A user method raised an exception; wraps the original error so the
    caller sees it once, exactly."""

    def __init__(self, message: str, *, cause: str | None = None):
        self.cause = cause
        super().__init__(message)
