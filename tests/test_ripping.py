"""Tests for the GUI ripper, UNG, blocklist and exploration contexts."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import PowerPointApp, WordApp
from repro.bench.telemetry import AggregatingSink, EventSink, use_sink
from repro.ripping.blocklist import AccessBlocklist, default_blocklist_for
from repro.ripping.contexts import DEFAULT_CONTEXT, context_plan_for
from repro.ripping.ripper import GuiRipper, RipperConfig, rip_application
from repro.ripping.ung import NavigationGraph, UNGNode, VIRTUAL_ROOT_ID
from repro.uia.control_types import ControlType
from repro.uia.element import UIElement


# ----------------------------------------------------------------------
# NavigationGraph
# ----------------------------------------------------------------------
def small_graph():
    graph = NavigationGraph(app_name="demo")
    for node_id in ("a", "b", "c"):
        graph.add_node(UNGNode(node_id=node_id, name=node_id.upper(),
                               control_type=ControlType.BUTTON))
    graph.add_edge(VIRTUAL_ROOT_ID, "a")
    graph.add_edge("a", "b")
    graph.add_edge("a", "c")
    graph.add_edge("b", "c")
    return graph


def test_graph_counts_and_queries():
    graph = small_graph()
    assert graph.node_count() == 4            # + virtual root
    assert graph.edge_count() == 4
    assert graph.successors("a") == ["b", "c"]
    assert graph.predecessors("c") == ["a", "b"]
    assert graph.in_degree("c") == 2
    assert set(graph.leaf_ids()) == {"c"}
    assert graph.merge_node_ids() == ["c"]
    assert not graph.has_cycle()


def test_add_node_merges_metadata():
    graph = NavigationGraph()
    graph.add_node(UNGNode(node_id="x", name="X", control_type=ControlType.BUTTON,
                           contexts={"default"}))
    merged = graph.add_node(UNGNode(node_id="x", name="X", control_type=ControlType.BUTTON,
                                    contexts={"image"}, description="the X button"))
    assert merged.contexts == {"default", "image"}
    assert merged.description == "the X button"
    assert graph.node_count() == 2


def test_add_edge_requires_registered_endpoints_and_deduplicates():
    graph = small_graph()
    with pytest.raises(KeyError):
        graph.add_edge("a", "zzz")
    assert graph.add_edge("a", "b") is False   # duplicate
    assert graph.edge_count() == 4


def test_cycle_detection_and_reachability():
    graph = small_graph()
    graph.add_edge("c", "a")
    assert graph.has_cycle()
    assert graph.reachable_from_root() == {VIRTUAL_ROOT_ID, "a", "b", "c"}


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 7), edges=st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14))
def test_cycle_detection_agrees_with_networkx(size, edges):
    import networkx

    graph = NavigationGraph()
    for index in range(size):
        graph.add_node(UNGNode(node_id=str(index), name=str(index),
                               control_type=ControlType.BUTTON))
    for source, target in edges:
        if source < size and target < size:
            graph.add_edge(str(source), str(target))
    expected = not networkx.is_directed_acyclic_graph(graph.to_networkx())
    assert graph.has_cycle() == expected


def test_ripping_does_not_import_networkx():
    """networkx costs ~20 MB of resident memory; only ``to_networkx`` loads it."""
    code = ("import sys; from repro.apps import WordApp; "
            "from repro.dmi.interface import build_offline_artifacts; "
            "build_offline_artifacts(WordApp()); "
            "assert 'networkx' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_find_nodes_by_name():
    graph = small_graph()
    assert [n.node_id for n in graph.find_nodes_by_name("A")] == ["a"]
    assert graph.find_nodes_by_name("a", exact=False)


def test_to_networkx_mirrors_structure():
    graph = small_graph()
    nx_graph = graph.to_networkx()
    assert nx_graph.number_of_nodes() == 4
    assert nx_graph.number_of_edges() == 4


# ----------------------------------------------------------------------
# blocklist
# ----------------------------------------------------------------------
def test_blocklist_matches_names_substrings_and_prefixes():
    blocklist = AccessBlocklist(names={"Print"}, name_substrings={"export"},
                                automation_id_prefixes={"App.External"})
    assert blocklist.blocks(UIElement(name="Print"))
    assert blocklist.blocks(UIElement(name="Export as PDF"))
    assert blocklist.blocks(UIElement(name="x", automation_id="App.External.Browser"))
    assert not blocklist.blocks(UIElement(name="Save"))


def test_blocklist_merge_and_defaults():
    merged = AccessBlocklist.from_names(["A"]).merged_with(AccessBlocklist.from_names(["B"]))
    assert merged.names == {"A", "B"}
    for app_name in ("Word", "Excel", "PowerPoint", "SomethingElse"):
        defaults = default_blocklist_for(app_name)
        assert "OK" in defaults.names and "Cancel" in defaults.names


# ----------------------------------------------------------------------
# exploration contexts
# ----------------------------------------------------------------------
def test_context_plan_includes_default_first():
    app = PowerPointApp()
    plan = context_plan_for(app)
    assert plan[0].name == DEFAULT_CONTEXT
    assert {c.name for c in plan[1:]} == {"image_selected", "text_box_selected"}


def test_context_plan_for_app_without_contexts():
    app = WordApp()
    assert [c.name for c in context_plan_for(app)] == [DEFAULT_CONTEXT]


# ----------------------------------------------------------------------
# ripper (on the MiniApp fixture and on Word)
# ----------------------------------------------------------------------
def test_ripper_builds_connected_graph(mini_app):
    ung, report = rip_application(mini_app)
    stats = ung.stats()
    assert stats["nodes"] > 40
    assert stats["reachable_from_root"] == stats["nodes"]
    assert report.clicks > 0
    assert report.duration_seconds >= 0
    assert DEFAULT_CONTEXT in report.contexts


def test_ripper_discovers_merge_nodes_for_shared_dialog(mini_app):
    # The two colour drop-downs share the identically named theme galleries,
    # but their identifiers differ (different automation ids), so a true
    # merge arises only for the shared dialog controls in bigger apps; here
    # we check that the colour cells of each drop-down were discovered.
    ung, _ = rip_application(mini_app)
    blues = ung.find_nodes_by_name("Blue")
    assert len(blues) >= 2


def test_ripper_respects_blocklist(mini_app):
    blocklist = AccessBlocklist.from_names({"Open Settings", "OK", "Cancel", "Close"})
    ung, report = rip_application(mini_app, blocklist=blocklist)
    # The dialog never opens, so its contents are absent from the graph.
    assert not ung.find_nodes_by_name("Enable feature")
    assert report.blocked > 0


def test_blocklisted_dialog_buttons_are_recorded_but_not_activated(mini_app):
    ung, _ = rip_application(mini_app)
    ok_nodes = ung.find_nodes_by_name("OK")
    assert ok_nodes, "OK button should be recorded as a node"
    assert all(ung.out_degree(n.node_id) == 0 for n in ok_nodes)


def test_ripper_restores_ui_state_after_exploration(mini_app):
    rip_application(mini_app)
    # No dialogs left open, nothing left expanded.
    assert mini_app.open_dialogs() == []
    dropdown = mini_app.window.find(automation_id="Mini.FontColor")
    assert all(not child.is_on_screen() for child in dropdown.children)


def test_ripper_click_budget_is_respected(mini_app):
    config = RipperConfig(max_clicks=5)
    ripper = GuiRipper(mini_app, config=config)
    ripper.rip()
    assert ripper.report.clicks <= 6


def test_ripper_max_depth_limits_exploration(mini_app):
    shallow = GuiRipper(mini_app, config=RipperConfig(max_depth=1)).rip()
    deep = GuiRipper(type(mini_app)(), config=RipperConfig(max_depth=10)).rip()
    assert shallow.node_count() <= deep.node_count()


def test_full_rip_emits_rip_full_event(mini_app):
    with use_sink(AggregatingSink()) as sink:
        GuiRipper(mini_app).rip()
    assert sink.count("rip_full") == 1


def test_rip_full_event_carries_the_report_figures(mini_app):
    class Recording(EventSink):
        def __init__(self):
            self.events = []

        def emit(self, event):
            self.events.append(event)

    sink = Recording()
    ripper = GuiRipper(mini_app, sink=sink)
    ripper.rip()
    [event] = sink.events
    assert (event.name, event.app) == ("rip_full", mini_app.APP_NAME)
    assert event.nodes_visited == ripper.report.clicks > 0
    assert event.nodes == ripper.report.nodes
    assert event.seconds == ripper.report.duration_seconds


def test_word_rip_has_paper_like_structural_properties(word_artifacts):
    ung = word_artifacts.ung
    stats = ung.stats()
    assert stats["nodes"] > 500, "Office-like app should expose hundreds of controls"
    assert stats["merge_nodes"] > 5, "shared dialogs should create merge nodes"
    assert stats["has_cycle"], "More/Less buttons should create a cycle"
    # scoped root initialization: Bold hangs below the Home tab, not the root
    bold = ung.find_nodes_by_name("Bold")[0]
    assert VIRTUAL_ROOT_ID not in ung.predecessors(bold.node_id)


def test_powerpoint_contexts_contribute_contextual_tab_nodes(ppt_artifacts):
    ung = ppt_artifacts.ung
    nodes = ung.find_nodes_by_name("Compress Pictures")
    assert nodes, "Picture Format content requires the image_selected context"
    assert any("image_selected" in n.contexts or "default" in n.contexts for n in nodes)
