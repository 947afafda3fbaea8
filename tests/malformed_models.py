"""Malformed navigation-model payloads shared by the loader, CLI and cache
tests.

Each case is ``(id, payload, message)``: ``payload`` is what the model file
holds (a JSON value, or raw text for the non-JSON case) and ``message`` a
fragment the loader's :class:`ValueError` must contain — the field it names.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ripping.ripper import RipReport
from repro.ripping.ung import VIRTUAL_ROOT_ID, NavigationGraph, UNGNode
from repro.topology.persistence import ung_to_dict
from repro.uia.control_types import ControlType


def valid_model(app_name: str = "Word") -> dict:
    """A small well-formed model: the virtual root plus three buttons."""
    ung = NavigationGraph(app_name=app_name)
    for name in ("Home", "Bold", "Italic"):
        ung.add_node(UNGNode(node_id=f"{name}|Button|", name=name,
                             control_type=ControlType.BUTTON))
    ung.add_edge(VIRTUAL_ROOT_ID, "Home|Button|")
    ung.add_edge("Home|Button|", "Bold|Button|")
    ung.add_edge("Home|Button|", "Italic|Button|")
    return ung_to_dict(ung, RipReport(app_name=app_name, clicks=3))


def _with(**changes) -> dict:
    payload = valid_model()
    payload.update(changes)
    return payload


def _node_without(index: int, key: str) -> dict:
    payload = valid_model()
    del payload["nodes"][index][key]
    return payload


def _node_with(index: int, **changes) -> dict:
    payload = valid_model()
    payload["nodes"][index].update(changes)
    return payload


def _without(key: str) -> dict:
    payload = valid_model()
    del payload[key]
    return payload


MALFORMED_MODELS = [
    ("not-json", "{not json", "Expecting property name"),
    ("top-level-list", [valid_model()], "must be a JSON object, got list"),
    ("nodes-not-a-list", _with(nodes=5), "field nodes must be a list"),
    ("missing-nodes", _without("nodes"), "missing field nodes"),
    ("node-not-an-object", _with(nodes=[7]), "nodes[0] must be a JSON object"),
    ("missing-node-id", _node_without(3, "node_id"), "missing field nodes[3].node_id"),
    ("node-name-not-a-string", _node_with(2, name=None), "field nodes[2].name"),
    ("unknown-control-type", _node_with(1, control_type="Lever"),
     "nodes[1].control_type"),
    ("contexts-not-strings", _node_with(1, contexts=[1]), "nodes[1].contexts[0]"),
    ("root-not-a-node", _with(root_id="nowhere"), "field root_id"),
    ("missing-edges", _without("edges"), "missing field edges"),
    ("edge-not-a-pair", _with(edges=[["Home|Button|"]]), "edges[0]"),
    ("edge-to-unknown-node", _with(edges=[[VIRTUAL_ROOT_ID, "Home|Button|"],
                                          ["Home|Button|", "Gone|Button|"]]),
     "edges[1]"),
    ("rip-report-not-an-object", _with(rip_report=[1]),
     "field rip_report must be a JSON object"),
    ("rip-report-field-type", _with(rip_report={"clicks": "many"}),
     "field rip_report.clicks"),
]

MALFORMED_IDS = [case[0] for case in MALFORMED_MODELS]


def write_model(path: Path, payload) -> Path:
    """Write ``payload`` as a model file (raw text stays as it is)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return path
