"""Persistence of the offline navigation model.

The paper notes the navigation model is version-specific but *reusable across
machines* for the same application build (§5.2).  This module serialises the
UI Navigation Graph to JSON so the expensive offline phase (GUI ripping plus
any manual blocklist/context curation) runs once per application build; any
other machine can load the JSON and rebuild the forest, core topology and
query engine deterministically.

Only the UNG is persisted: the forest and core view are cheap, deterministic
functions of it, so storing them would just risk divergence from the
transformation code.

Loading validates the shape of the payload: a malformed file raises
:class:`ValueError` naming the offending field (``nodes[3].node_id``),
never a bare ``KeyError``/``TypeError``/``AttributeError``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Type, Union

from repro.ripping.ripper import RipReport
from repro.ripping.ung import NavigationGraph, UNGNode
from repro.uia.control_types import ControlType

#: Format marker so later revisions can migrate old files.
FORMAT_VERSION = 1


def ung_to_dict(ung: NavigationGraph, report: Optional[RipReport] = None) -> Dict:
    """Serialisable representation of a UNG (plus optional rip report)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "app_name": ung.app_name,
        "root_id": ung.root_id,
        "nodes": [
            {
                "node_id": node.node_id,
                "name": node.name,
                "control_type": node.control_type.value,
                "automation_id": node.automation_id,
                "description": node.description,
                "contexts": sorted(node.contexts),
                "window": node.window,
            }
            for node in ung.nodes.values()
        ],
        "edges": [[source, target] for source, target in ung.edges()],
    }
    if report is not None:
        payload["rip_report"] = report.as_dict()
    return payload


def ung_digest(ung: NavigationGraph) -> str:
    """Short content digest of a UNG's canonical serialized form.

    Two UNGs with the same digest serialize to the same bytes (modulo the
    rip report, which is intentionally excluded: its timings differ between
    otherwise identical rips).  Tests and the benchmark's correctness gate
    compare models by it.
    """
    encoded = json.dumps(ung_to_dict(ung), sort_keys=True,
                         ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


_MISSING = object()

_KIND_NAMES = {str: "a string", int: "an integer", (int, float): "a number",
               bool: "a boolean", list: "a list"}


def _field(payload: Dict, key: str, where: str, kind: Type,
           default: object = _MISSING) -> object:
    """``payload[key]``, checked to be a ``kind``; ``where`` names
    ``payload`` in the error (``nodes[3]``)."""
    name = f"{where}.{key}" if where else key
    if key not in payload:
        if default is _MISSING:
            raise ValueError(f"missing field {name}")
        return default
    value = payload[key]
    if isinstance(value, bool) and kind is not bool \
            or not isinstance(value, kind):
        raise ValueError(f"field {name} must be {_KIND_NAMES[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _string_list(payload: Dict, key: str, where: str) -> list:
    values = _field(payload, key, where, list, default=[])
    for index, value in enumerate(values):
        if not isinstance(value, str):
            raise ValueError(f"field {where}.{key}[{index}] must be a string, "
                             f"got {type(value).__name__}")
    return values


def ung_from_dict(payload: Dict) -> NavigationGraph:
    """Rebuild a UNG from its serialised representation.

    Raises :class:`ValueError` naming the field when ``payload`` is not a
    model of the current format.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"a model must be a JSON object, "
                         f"got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported navigation-model format version {version!r}")
    ung = NavigationGraph(app_name=_field(payload, "app_name", "", str, ""))
    for index, entry in enumerate(_field(payload, "nodes", "", list)):
        where = f"nodes[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object, "
                             f"got {type(entry).__name__}")
        control_type = _field(entry, "control_type", where, str)
        try:
            control_type = ControlType(control_type)
        except ValueError:
            raise ValueError(f"field {where}.control_type: unknown control "
                             f"type {control_type!r}") from None
        ung.add_node(UNGNode(
            node_id=_field(entry, "node_id", where, str),
            name=_field(entry, "name", where, str),
            control_type=control_type,
            automation_id=_field(entry, "automation_id", where, str, ""),
            description=_field(entry, "description", where, str, ""),
            contexts=set(_string_list(entry, "contexts", where)),
            window=_field(entry, "window", where, str, ""),
        ))
    ung.root_id = _field(payload, "root_id", "", str, ung.root_id)
    if ung.root_id not in ung.nodes:
        raise ValueError(f"field root_id: {ung.root_id!r} is not a node")
    for index, edge in enumerate(_field(payload, "edges", "", list)):
        if not (isinstance(edge, list) and len(edge) == 2
                and all(isinstance(end, str) for end in edge)):
            raise ValueError(f"edges[{index}] must be a [source, target] "
                             f"pair of node ids, got {edge!r}")
        for end in edge:
            if end not in ung.nodes:
                raise ValueError(f"edges[{index}]: {end!r} is not a node")
        ung.add_edge(*edge)
    return ung


def save_ung(ung: NavigationGraph, path: Union[str, Path],
             report: Optional[RipReport] = None) -> Path:
    """Write the UNG (and optional rip report) to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(ung_to_dict(ung, report), handle, ensure_ascii=False, indent=1)
    return path


def load_ung(path: Union[str, Path]) -> NavigationGraph:
    """Load a UNG previously written by :func:`save_ung`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return ung_from_dict(json.load(handle))


def rip_report_from_dict(payload: Dict) -> RipReport:
    """Rebuild a :class:`RipReport` from :meth:`RipReport.as_dict` output.

    Keys the current report does not have are ignored, so reports saved
    with fields that were later removed still load.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"field rip_report must be a JSON object, "
                         f"got {type(payload).__name__}")
    defaults = RipReport()
    values = {}
    for key in RipReport.__dataclass_fields__:
        if key not in payload:
            continue
        kind = type(getattr(defaults, key))
        kind = (int, float) if kind is float else kind
        values[key] = _field(payload, key, "rip_report", kind)
    if "contexts" in values:
        _string_list(values, "contexts", "rip_report")
    return RipReport(**values)


def load_model(path: Union[str, Path]) -> Tuple[NavigationGraph, Optional[RipReport]]:
    """Load a UNG plus its rip report (when one was saved alongside it).

    This is the machine-transfer entry point: the UNG file produced on the
    modeling machine carries the rip statistics, so a loading machine can
    report the original offline cost without re-ripping.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    ung = ung_from_dict(payload)
    report_payload = payload.get("rip_report")
    report = rip_report_from_dict(report_payload) \
        if report_payload not in (None, {}) else None
    return ung, report
