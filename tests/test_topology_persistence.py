"""Tests for navigation-model persistence (reuse across machines, §5.2)."""

import json

import pytest

from malformed_models import MALFORMED_IDS, MALFORMED_MODELS, valid_model, write_model
from repro.apps import PowerPointApp
from repro.dmi.interface import DMI, OfflineArtifacts
from repro.topology.core import extract_core
from repro.topology.forest import build_forest
from repro.topology.persistence import (
    FORMAT_VERSION,
    load_model,
    load_ung,
    save_ung,
    ung_digest,
    ung_from_dict,
    ung_to_dict,
)


def test_ung_round_trips_through_dict(ppt_artifacts):
    ung = ppt_artifacts.ung
    restored = ung_from_dict(ung_to_dict(ung))
    assert restored.app_name == ung.app_name
    assert restored.node_count() == ung.node_count()
    assert restored.edge_count() == ung.edge_count()
    assert set(restored.nodes) == set(ung.nodes)
    assert sorted(restored.edges()) == sorted(ung.edges())
    sample = next(iter(ung.nodes.values()))
    assert restored.nodes[sample.node_id].control_type == sample.control_type


def test_ung_round_trips_through_json_file(tmp_path, ppt_artifacts):
    path = save_ung(ppt_artifacts.ung, tmp_path / "models" / "ppt.json",
                    report=ppt_artifacts.rip_report)
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["rip_report"]["app_name"] == "PowerPoint"
    restored = load_ung(path)
    assert restored.node_count() == ppt_artifacts.ung.node_count()


def test_unknown_format_version_is_rejected(ppt_artifacts):
    payload = ung_to_dict(ppt_artifacts.ung)
    payload["format_version"] = 999
    with pytest.raises(ValueError):
        ung_from_dict(payload)


@pytest.mark.parametrize("case,payload,message", MALFORMED_MODELS, ids=MALFORMED_IDS)
def test_malformed_model_raises_value_error_naming_the_field(
        tmp_path, case, payload, message):
    path = write_model(tmp_path / f"{case}.json", payload)
    with pytest.raises(ValueError) as raised:
        load_model(path)
    assert message in str(raised.value)


def test_valid_model_fixture_loads(tmp_path):
    ung, report = load_model(write_model(tmp_path / "model.json", valid_model()))
    assert ung.node_count() == 4 and ung.edge_count() == 3
    assert report.clicks == 3


def test_saved_report_with_retired_fields_still_loads(tmp_path, ppt_artifacts):
    """Reports saved when rips could replay a trace carry mode/visit/reuse
    fields the report no longer has; the model and the rest of the report
    still load."""
    path = save_ung(ppt_artifacts.ung, tmp_path / "ppt.json",
                    report=ppt_artifacts.rip_report)
    payload = json.loads(path.read_text())
    payload["rip_report"].update(mode="incremental", nodes_visited=12,
                                 nodes_reused=500, nodes_patched=3,
                                 fallback_reason="")
    path.write_text(json.dumps(payload))
    ung, report = load_model(path)
    assert ung_digest(ung) == ung_digest(ppt_artifacts.ung)
    assert report == ppt_artifacts.rip_report


def test_loaded_model_rebuilds_forest_and_drives_dmi(tmp_path, ppt_artifacts):
    """The 'other machine' workflow: load JSON, rebuild forest + core, run a task."""
    path = save_ung(ppt_artifacts.ung, tmp_path / "ppt.json")
    ung = load_ung(path)
    forest = build_forest(ung)
    core = extract_core(forest)
    artifacts = OfflineArtifacts(ung=ung, forest=forest, core=core,
                                 rip_report=ppt_artifacts.rip_report)
    app = PowerPointApp()
    dmi = DMI(app, artifacts)
    blue = [n for n in forest.find_by_name("Blue", leaves_only=True)
            if "Fill Color" in " > ".join(p.name for p in n.path_from_root())][0]
    apply_all = [n for n in forest.find_by_name("Apply to All", leaves_only=True)
                 if "Format Background" in " > ".join(p.name for p in n.path_from_root())][0]
    result = dmi.visit([{"id": blue.node_id}, {"id": apply_all.node_id}])
    assert result.ok
    assert all(s.background.color == "Blue" for s in app.presentation.slides)
