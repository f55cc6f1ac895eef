"""State serialization and the paper's serializability restriction.

Entity state "needs to be serializable, i.e., connections to databases,
local pipes, and other non-serializable constructs are not allowed and will
eventually generate a runtime error" (Section 2.2).  We enforce this with an
explicit whitelist codec instead of pickling arbitrary objects: the codec
doubles as the wire format for events and as the snapshot format, and it
raises :class:`SerializationError` eagerly on forbidden values.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import SerializationError
from .refs import EntityRef

_SCALARS = (str, int, float, bool, type(None))
#: The one-key dicts :func:`encode` writes for non-JSON values.
_TAGS = frozenset(("__bytes__", "__ref__", "__tuple__", "__set__",
                   "__kdict__"))


def check_serializable(value: Any, *, path: str = "state") -> None:
    """Raise :class:`SerializationError` if *value* cannot be serialized.

    Accepts JSON-style scalars, lists, tuples, sets, string-or-scalar-keyed
    dicts, bytes, and :class:`EntityRef`.  Everything else — open files,
    sockets, lambdas, arbitrary objects — is rejected.
    """
    if isinstance(value, _SCALARS) or isinstance(value, (bytes, EntityRef)):
        return
    if isinstance(value, (list, tuple, set, frozenset)):
        for index, item in enumerate(value):
            check_serializable(item, path=f"{path}[{index}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, _SCALARS):
                raise SerializationError(
                    f"unserializable dict key {key!r} at {path}")
            check_serializable(item, path=f"{path}[{key!r}]")
        return
    raise SerializationError(
        f"value of type {type(value).__name__!r} at {path} is not "
        f"serializable entity state (the programming model forbids "
        f"connections, pipes, and other live resources)")


def encode(value: Any) -> Any:
    """Convert *value* into a JSON-compatible tree (checking legality)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, EntityRef):
        return {"__ref__": value.to_dict()}
    if isinstance(value, (list, tuple)):
        tag = "__tuple__" if isinstance(value, tuple) else None
        items = [encode(item) for item in value]
        return {"__tuple__": items} if tag else items
    if isinstance(value, (set, frozenset)):
        return {"__set__": [encode(item) for item in sorted(value, key=repr)]}
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            # A one-key dict spelled like one of the codec's own tags
            # would decode as that tag; the pair form carries any dict.
            if not isinstance(key, str) or (len(value) == 1
                                            and key in _TAGS):
                return {"__kdict__": [[encode(key), encode(item)]
                                      for key, item in value.items()]}
            encoded[key] = encode(item)
        return encoded
    raise SerializationError(
        f"cannot encode value of type {type(value).__name__!r}")


def decode(value: Any) -> Any:
    """Inverse of :func:`encode`."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, list):
        return [decode(item) for item in value]
    if isinstance(value, dict):
        if "__bytes__" in value and len(value) == 1:
            return bytes.fromhex(value["__bytes__"])
        if "__ref__" in value and len(value) == 1:
            return EntityRef.from_dict(value["__ref__"])
        if "__tuple__" in value and len(value) == 1:
            return tuple(decode(item) for item in value["__tuple__"])
        if "__set__" in value and len(value) == 1:
            return set(decode(item) for item in value["__set__"])
        if "__kdict__" in value and len(value) == 1:
            return {decode(k): decode(v) for k, v in value["__kdict__"]}
        return {key: decode(item) for key, item in value.items()}
    raise SerializationError(
        f"cannot decode value of type {type(value).__name__!r}")


def dumps(value: Any) -> bytes:
    """Serialize *value* to bytes (the simulated wire/snapshot format)."""
    return json.dumps(encode(value), separators=(",", ":")).encode()


def loads(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`dumps`."""
    return decode(json.loads(data.decode()))


def state_size_bytes(state: dict[str, Any]) -> int:
    """Size of an entity's serialized state, used by the overhead bench."""
    return len(dumps(state))
