"""Programming model for stateful entities (paper Section 2.2).

Public surface:

- :func:`entity` / :func:`stateflow` — class decorator declaring an entity.
- :func:`transactional` — method decorator for ACID cross-entity methods.
- :class:`EntityRef` — partition-keyed handle to a remote entity.
- :class:`EntityRegistry` / ``REGISTRY`` — entity class registry.
- Descriptors (:class:`EntityDescriptor`, ...) produced by static analysis.
- The exception hierarchy (:class:`StatefulEntityError` and friends).
"""

from .descriptors import (
    EntityDescriptor,
    MethodDescriptor,
    ParamSpec,
    StateField,
)
from .entity import (
    REGISTRY,
    EntityRegistry,
    entity,
    entity_source,
    is_entity_class,
    is_transactional,
    scoped_registry,
    stateflow,
    stateful_entity,
    transactional,
    transactional_methods,
)
from .errors import (
    CompilationError,
    EntityAlreadyExistsError,
    EntityNotFoundError,
    InvocationError,
    KeyMutationError,
    MissingKeyError,
    MissingTypeHintError,
    RecursionNotSupportedError,
    RuntimeExecutionError,
    SerializationError,
    StatefulEntityError,
    UnknownEntityError,
    UnsupportedConstructError,
    UnsupportedFeatureError,
)
from .refs import EntityRef, is_entity_ref, ref_for
from .serialization import (
    check_serializable,
    decode,
    dumps,
    encode,
    loads,
    state_size_bytes,
)
from .types import BUILTIN_TYPE_NAMES, TypeEnvironment, annotation_name

__all__ = [
    "BUILTIN_TYPE_NAMES",
    "CompilationError",
    "EntityAlreadyExistsError",
    "EntityDescriptor",
    "EntityNotFoundError",
    "EntityRef",
    "EntityRegistry",
    "InvocationError",
    "KeyMutationError",
    "MethodDescriptor",
    "MissingKeyError",
    "MissingTypeHintError",
    "ParamSpec",
    "REGISTRY",
    "RecursionNotSupportedError",
    "RuntimeExecutionError",
    "SerializationError",
    "StateField",
    "StatefulEntityError",
    "TypeEnvironment",
    "UnknownEntityError",
    "UnsupportedConstructError",
    "UnsupportedFeatureError",
    "annotation_name",
    "check_serializable",
    "decode",
    "dumps",
    "encode",
    "entity",
    "entity_source",
    "is_entity_class",
    "is_entity_ref",
    "is_transactional",
    "loads",
    "ref_for",
    "scoped_registry",
    "state_size_bytes",
    "stateflow",
    "stateful_entity",
    "transactional",
    "transactional_methods",
]
