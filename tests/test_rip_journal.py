"""The UI change journal and the journal-driven ripper built on it.

Covers the journal itself (:mod:`repro.uia.journal`), the ripper's
full-walk fallback rule on a probe app whose one action button does one
kind of change per case, persistence of the new report field, and that no
rip — normal or raising — leaks its journal or its deferred layout.
"""

from __future__ import annotations

import json

import pytest

from reference_ripper import ReferenceRipper
from repro.apps.base import Application
from repro.apps.mutable import MutableDemoApp
from repro.gui.ribbon import DialogBuilder, build_menu_button
from repro.gui.widgets import Button, Group, SplitButton, TabItem, TextLabel
from repro.ripping.ripper import GuiRipper
from repro.topology.persistence import load_model, save_ung, ung_digest
from repro.uia import journal
from repro.uia.element import UIElement
from repro.uia.patterns import ExpandCollapseState, PatternId
from repro.uia.tree import visible_elements


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
def test_watched_reads_are_plain_and_writes_record_only_while_installed():
    element = UIElement(name="a")
    assert "visible" in element.__dict__ and element.visible is True
    element.visible = False                      # no journal: not recorded
    with journal.record() as recorded:
        assert journal.active() is recorded
        element.visible = False                  # unchanged: not recorded
        element.visible = True
        element.name = "b"
        element.automation_id = "id.b"
    assert journal.active() is None
    assert recorded == [("visible", element, False),
                                ("name", element, "a"),
                                ("automation_id", element, "")]
    assert (element.visible, element.name, element.automation_id) == (True, "b", "id.b")


def test_construction_records_nothing_and_structure_is_recorded():
    with journal.record() as recorded:
        parent = UIElement(name="parent")
        child = UIElement(name="child", visible=False)
        assert recorded == []
        parent.add_child(child)
        parent.remove_child(child)
    assert recorded == [("add", parent, child), ("remove", parent, child)]


def test_pattern_state_and_selection_are_recorded():
    tab = TabItem("Tab")
    split = SplitButton("Split")
    with journal.record() as recorded:
        tab.select()
        split.get_pattern(PatternId.EXPAND_COLLAPSE).expand()
    assert [(kind, old) for kind, _, old in recorded] == [
        ("is_selected", False), ("state", ExpandCollapseState.COLLAPSED)]


def test_record_nests_and_restores_the_previous_journal():
    element = UIElement()
    with journal.record() as outer:
        with journal.record() as inner:
            element.visible = False
        element.visible = True
    assert journal.active() is None
    assert [e[2] for e in inner] == [True]
    assert [e[2] for e in outer] == [False]


# ----------------------------------------------------------------------
# the fallback rule, case by case
# ----------------------------------------------------------------------
class ProbeApp(Application):
    """One action button whose click does exactly one kind of change:

    * ``rename`` — renames an on-screen label;
    * ``rebuild`` — rebuilds a group's children under an on-screen parent;
    * ``hide`` — hides a group outside the clicked subtree and shows a
      hidden one;
    * ``dialog`` — opens a dialog built on click;
    * ``other-desktop`` — renames and rebuilds controls of another app on
      its own desktop, and shows a hidden group of its own.
    """

    APP_NAME = "Probe"

    def __init__(self, case: str) -> None:
        self.case = case
        self.generation = 0
        self.other = ProbeApp("hide") if case == "other-desktop" else None
        super().__init__()

    def build_ui(self) -> None:
        window = self.window
        self.status = window.add_child(TextLabel("Status"))
        self.box = window.add_child(Group(name="Box", automation_id="Probe.Box"))
        self._fill_box()
        self.aside = window.add_child(Group(name="Aside", automation_id="Probe.Aside"))
        self.aside.add_child(Button("Aside Action", automation_id="Probe.AsideAction"))
        self.extras = window.add_child(Group(name="Extras", automation_id="Probe.Extras",
                                             visible=False))
        self.extras.add_child(build_menu_button(
            "Extra Menu", {"Extra Item": lambda: None},
            automation_id="Probe.ExtraMenu"))
        actions = window.add_child(Group(name="Actions", automation_id="Probe.Actions"))
        actions.add_child(Button("Act", automation_id="Probe.Act", on_click=self._act))

    def _fill_box(self) -> None:
        for label in ("Box One", f"Box Gen {self.generation}"):
            self.box.add_child(Button(label))

    def _act(self) -> None:
        self.generation += 1
        if self.case == "rename":
            self.status.name = f"Status {self.generation}"
        elif self.case == "rebuild":
            self.box.clear_children()
            self._fill_box()
        elif self.case == "hide":
            self.aside.visible = False
            self.extras.visible = True
        elif self.case == "dialog":
            builder = DialogBuilder(f"Probe Dialog {self.generation}")
            dialog = builder.dialog
            builder.add_checkbox(dialog, "Probe Option", on_change=lambda v: None)
            dialog.add_child(build_menu_button(
                "Dialog Menu", {"Dialog Item": lambda: None},
                automation_id="Probe.DialogMenu"))
            self.open_dialog(builder.build())
        elif self.case == "other-desktop":
            self.other.status.name = f"Status {self.generation}"
            self.other.box.clear_children()
            self.other._fill_box()
            self.extras.visible = True


@pytest.mark.parametrize("case,falls_back", [
    ("rename", True), ("rebuild", True), ("hide", False), ("dialog", False),
    ("other-desktop", False)])
def test_probe_rip_equals_reference_and_falls_back_only_on_restructure(
        case, falls_back):
    production = GuiRipper(ProbeApp(case))
    production.rip()
    reference = ReferenceRipper(ProbeApp(case))
    reference.rip()
    assert ung_digest(production.ung) == ung_digest(reference.ung)
    for field in ("clicks", "blocked", "nodes"):
        assert getattr(production.report, field) == getattr(reference.report, field)
    assert (production.report.walk_fallbacks > 0) == falls_back
    # The click revealed something in every case.
    act = next(node_id for node_id in production.ung.nodes
               if node_id.startswith("Probe.Act|"))
    assert production.ung.successors(act)


def test_saved_model_without_walk_fallbacks_still_loads(tmp_path):
    ripper = GuiRipper(ProbeApp("rename"))
    ung = ripper.rip()
    path = save_ung(ung, tmp_path / "probe.json", report=ripper.report)
    payload = json.loads(path.read_text())
    del payload["rip_report"]["walk_fallbacks"]
    path.write_text(json.dumps(payload))
    loaded, report = load_model(path)
    assert ung_digest(loaded) == ung_digest(ung)
    assert report.walk_fallbacks == 0
    assert report.clicks == ripper.report.clicks


# ----------------------------------------------------------------------
# no leaked rip state
# ----------------------------------------------------------------------
def assert_no_leaked_rip_state(app: Application) -> None:
    assert journal.active() is None
    assert not app.desktop.layout_deferred
    laid_out = [(element, element.rect) for window in app.desktop.open_windows()
                for element in visible_elements(window)]
    app.desktop.relayout()
    assert all(element.rect == rect for element, rect in laid_out)


def test_a_rip_lays_out_once_and_leaks_nothing(monkeypatch):
    app = MutableDemoApp()
    layouts = []
    layout_windows = app.desktop.layout.layout_windows
    monkeypatch.setattr(app.desktop.layout, "layout_windows",
                        lambda windows: (layouts.append(len(windows)),
                                         layout_windows(windows)))
    deferred = []
    click = app.input.click
    monkeypatch.setattr(app.input, "click",
                        lambda element: (deferred.append(app.desktop.layout_deferred),
                                         click(element)))
    ripper = GuiRipper(app)
    ripper.rip()
    assert ripper.report.clicks > 0 and all(deferred)
    assert layouts == [1]
    assert_no_leaked_rip_state(app)


def test_a_rip_whose_exploration_raises_leaks_nothing():
    class Failing(GuiRipper):
        explored = 0

        def _explore(self, element, node_id, depth, context):
            self.explored += 1
            if self.explored == 20:
                raise RuntimeError("exploration failed")
            super()._explore(element, node_id, depth, context)

    app = MutableDemoApp()
    with pytest.raises(RuntimeError, match="exploration failed"):
        Failing(app).rip()
    assert_no_leaked_rip_state(app)


def test_the_journal_is_emptied_between_top_level_branches():
    app = MutableDemoApp()
    sizes = []

    class Watching(GuiRipper):
        def _restore_state(self, mark):
            super()._restore_state(mark)
            sizes.append((mark.depth, len(self._journal)))

    Watching(app).rip()
    assert sizes and all(size == 0 for depth, size in sizes if depth == 0)
