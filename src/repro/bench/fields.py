"""Typed required-field checks for persisted JSON payloads.

Shard manifests and results, broker plan headers and lease objects, and
run records all validate their JSON the same way: a field must be present
and of the right type, or loading fails with a labeled error that names
the source and the field.  :class:`FieldReader` is that one set of checks.
Each format binds it to its own error class, so a corrupt manifest still
raises :class:`~repro.bench.shard.ShardError` and a corrupt run record
still raises :class:`~repro.bench.registry.RegistryError`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple, Type


class FieldReader:
    """Required-field readers that raise ``error`` on a missing or
    mistyped field."""

    def __init__(self, error: Type[Exception]) -> None:
        self.error = error

    def require(self, payload: Mapping[str, object], key: str,
                source: str) -> object:
        if key not in payload:
            raise self.error(f"{source}: missing required field {key!r}")
        return payload[key]

    def require_int(self, payload: Mapping[str, object], key: str,
                    source: str) -> int:
        value = self.require(payload, key, source)
        if isinstance(value, bool) or not isinstance(value, int):
            raise self.error(f"{source}: field {key!r} must be an integer, "
                             f"got {value!r}")
        return value

    def require_number(self, payload: Mapping[str, object], key: str,
                       source: str) -> float:
        value = self.require(payload, key, source)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.error(f"{source}: field {key!r} must be a number, "
                             f"got {value!r}")
        return float(value)

    def require_str(self, payload: Mapping[str, object], key: str,
                    source: str) -> str:
        value = self.require(payload, key, source)
        if not isinstance(value, str):
            raise self.error(f"{source}: field {key!r} must be a string, "
                             f"got {value!r}")
        return value

    def require_str_tuple(self, payload: Mapping[str, object], key: str,
                          source: str) -> Tuple[str, ...]:
        value = self.require(payload, key, source)
        if not isinstance(value, (list, tuple)) \
                or not all(isinstance(item, str) for item in value):
            raise self.error(f"{source}: field {key!r} must be a list of "
                             f"strings, got {value!r}")
        return tuple(value)

    def require_list(self, payload: Mapping[str, object], key: str,
                     source: str) -> list:
        value = self.require(payload, key, source)
        if not isinstance(value, list):
            raise self.error(f"{source}: field {key!r} must be a list, "
                             f"got {type(value).__name__}")
        return value

    def require_dict(self, payload: Mapping[str, object], key: str,
                     source: str) -> Dict[str, object]:
        value = self.require(payload, key, source)
        if not isinstance(value, dict):
            raise self.error(f"{source}: field {key!r} must be a JSON "
                             f"object, got {type(value).__name__}")
        return value
