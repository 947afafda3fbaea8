"""Tests for decycling, externalization, forest construction and serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.tokens import estimate_tokens
from repro.ripping.ung import NavigationGraph, UNGNode, VIRTUAL_ROOT_ID
from repro.topology.core import CoreTopologyConfig, extract_core
from repro.topology.decycle import decycle
from repro.topology.externalize import (
    ExternalizationConfig,
    externalized_only_size,
    full_clone_size,
    plan_externalization,
)
from repro.topology.forest import ForestBuildError, build_forest
from repro.topology.query import FULL_FOREST, QueryEngine
from repro.topology.serialize import SerializationConfig, leaf_catalog, serialize_forest, serialize_node
from repro.uia.control_types import ControlType


# ----------------------------------------------------------------------
# graph builders
# ----------------------------------------------------------------------
def graph_from_edges(edges, root_children):
    graph = NavigationGraph(app_name="synthetic")
    nodes = {VIRTUAL_ROOT_ID}
    for pair in edges:
        nodes.update(pair)
    for node_id in sorted(nodes - {VIRTUAL_ROOT_ID}):
        graph.add_node(UNGNode(node_id=node_id, name=node_id, control_type=ControlType.BUTTON))
    for child in root_children:
        graph.add_edge(VIRTUAL_ROOT_ID, child)
    for source, target in edges:
        if source == "ROOT":
            continue
        graph.add_edge(source, target)
    return graph


def diamond_with_cycle():
    """ROOT -> a -> {b, c} -> d (merge), d -> a (cycle), d -> e."""
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "a"), ("d", "e")]
    return graph_from_edges(edges, root_children=["a"])


# ----------------------------------------------------------------------
# decycle
# ----------------------------------------------------------------------
def test_decycle_removes_back_edges_and_preserves_reachability():
    graph = diamond_with_cycle()
    assert graph.has_cycle()
    dag = decycle(graph)
    assert dag.is_acyclic()
    assert ("d", "a") in dag.removed_back_edges
    assert dag.nodes() >= {"a", "b", "c", "d", "e"}


def test_decycle_drops_unreachable_nodes():
    graph = diamond_with_cycle()
    graph.add_node(UNGNode(node_id="island", name="island", control_type=ControlType.BUTTON))
    dag = decycle(graph)
    assert "island" in dag.unreachable
    assert "island" not in dag.nodes()


def test_topological_order_parents_before_children():
    dag = decycle(diamond_with_cycle())
    order = dag.topological_order()
    position = {node: i for i, node in enumerate(order)}
    for source, targets in dag.successors.items():
        for target in targets:
            assert position[source] < position[target]


def test_in_degree_identifies_merge_nodes():
    dag = decycle(diamond_with_cycle())
    assert dag.in_degree()["d"] == 2


# ----------------------------------------------------------------------
# externalization
# ----------------------------------------------------------------------
def test_low_threshold_externalizes_merge_node():
    dag = decycle(diamond_with_cycle())
    plan = plan_externalization(dag, ExternalizationConfig(clone_cost_threshold=0))
    assert "d" in plan.externalized
    assert plan.clone_costs["d"] >= 1


def test_high_threshold_clones_instead():
    dag = decycle(diamond_with_cycle())
    plan = plan_externalization(dag, ExternalizationConfig(clone_cost_threshold=1000))
    assert plan.externalized == set()


def test_estimated_total_nodes_matches_built_forest():
    graph = diamond_with_cycle()
    dag = decycle(graph)
    for threshold in (0, 1000):
        plan = plan_externalization(dag, ExternalizationConfig(clone_cost_threshold=threshold))
        forest = build_forest(graph, dag=dag, plan=plan)
        # reference nodes are extra bookkeeping nodes not included in the
        # reverse-topological size estimate of shared subtrees
        assert forest.node_count() >= plan.estimated_total_nodes - len(forest.entry_map)


def test_clone_size_bounds():
    dag = decycle(diamond_with_cycle())
    assert full_clone_size(dag) >= externalized_only_size(dag) - 4
    assert full_clone_size(dag) >= len(dag.nodes())


def test_node_ceiling_is_enforced():
    dag = decycle(diamond_with_cycle())
    with pytest.raises(ValueError):
        plan_externalization(dag, ExternalizationConfig(clone_cost_threshold=10**9,
                                                        max_total_nodes=3))


# ----------------------------------------------------------------------
# forest invariants
# ----------------------------------------------------------------------
def test_forest_paths_are_unique_and_acyclic():
    graph = diamond_with_cycle()
    forest = build_forest(graph, ExternalizationConfig(clone_cost_threshold=0))
    for node in forest.iter_all_nodes():
        # every node has exactly one parent (tree property)
        assert node.parent is None or node in node.parent.children
    # the externalized merge node becomes a shared subtree with 2 references
    assert len(forest.shared_subtrees) == 1
    subtree_id = next(iter(forest.shared_subtrees))
    assert len(forest.references_to_subtree(subtree_id)) == 2


def test_forest_control_path_for_main_tree_and_subtree():
    graph = diamond_with_cycle()
    forest = build_forest(graph, ExternalizationConfig(clone_cost_threshold=0))
    b = forest.find_by_name("b")[0]
    assert forest.control_path(b.node_id) == ["a", "b"]
    e = forest.find_by_name("e")[0]          # lives inside the shared subtree of d
    path = forest.control_path(e.node_id)
    assert path[-2:] == ["d", "e"]
    assert path[0] == "a"


def test_forest_entry_ref_selects_entry_path():
    graph = diamond_with_cycle()
    forest = build_forest(graph, ExternalizationConfig(clone_cost_threshold=0))
    subtree_id = next(iter(forest.shared_subtrees))
    refs = forest.references_to_subtree(subtree_id)
    e = forest.find_by_name("e")[0]
    for ref in refs:
        path = forest.control_path(e.node_id, entry_ref_ids=[ref.node_id])
        parent_name = ref.parent.name
        assert parent_name in path


def test_forest_cloning_duplicates_when_not_externalized():
    graph = diamond_with_cycle()
    forest = build_forest(graph, ExternalizationConfig(clone_cost_threshold=1000))
    # d (and its child e) appear twice: once under b, once under c
    assert len(forest.find_by_name("d")) == 2
    assert len(forest.find_by_name("e")) == 2
    assert forest.shared_subtrees == {}


def test_forest_node_ids_are_consecutive_and_unique():
    forest = build_forest(diamond_with_cycle())
    ids = sorted(n.node_id for n in forest.iter_all_nodes())
    assert ids == list(range(1, len(ids) + 1))


def test_unknown_node_lookup_raises():
    forest = build_forest(diamond_with_cycle())
    with pytest.raises(KeyError):
        forest.node(10**6)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_serialize_node_schema_contains_name_type_and_id():
    forest = build_forest(diamond_with_cycle())
    a = forest.find_by_name("a")[0]
    text = serialize_node(a)
    assert text.startswith("a(Button)_")
    assert "[" in text and "]" in text


def test_serialize_forest_renders_subtrees_and_entry_map():
    forest = build_forest(diamond_with_cycle(), ExternalizationConfig(clone_cost_threshold=0))
    text = serialize_forest(forest)
    assert "## Main tree" in text
    assert "## Shared subtrees" in text
    assert "entry map" in text.lower()
    assert "{ref:S1}" in text


def test_serialize_escapes_structural_characters():
    graph = NavigationGraph()
    graph.add_node(UNGNode(node_id="weird", name="a(b)[c],d", control_type=ControlType.BUTTON))
    graph.add_edge(VIRTUAL_ROOT_ID, "weird")
    forest = build_forest(graph)
    text = serialize_forest(forest)
    assert "\\(" in text and "\\[" in text and "\\," in text


def test_serialize_max_depth_marks_hidden_children():
    forest = build_forest(diamond_with_cycle(), ExternalizationConfig(clone_cost_threshold=1000))
    text = serialize_node(forest.main_root, max_depth=1)
    assert "more via further_query" in text


def test_leaf_catalog_lists_functional_controls_with_paths():
    forest = build_forest(diamond_with_cycle(), ExternalizationConfig(clone_cost_threshold=1000))
    catalog = leaf_catalog(forest)
    assert any("a > b > d > e" in path for path in catalog.values())


# ----------------------------------------------------------------------
# core extraction and query-on-demand
# ----------------------------------------------------------------------
def test_core_depth_limit_prunes_deep_nodes():
    graph = graph_from_edges(
        [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "n5")],
        root_children=["n0"])
    forest = build_forest(graph)
    core = extract_core(forest, CoreTopologyConfig(max_depth=3))
    deep = forest.find_by_name("n5")[0]
    shallow = forest.find_by_name("n1")[0]
    assert core.contains(shallow.node_id)
    assert not core.contains(deep.node_id)
    assert core.pruned_node_count() >= 2


def test_core_prunes_large_homogeneous_enumerations_only():
    graph = NavigationGraph()
    graph.add_node(UNGNode(node_id="fonts", name="Fonts", control_type=ControlType.COMBO_BOX))
    graph.add_edge(VIRTUAL_ROOT_ID, "fonts")
    for index in range(60):
        node_id = f"font{index}"
        graph.add_node(UNGNode(node_id=node_id, name=node_id, control_type=ControlType.LIST_ITEM))
        graph.add_edge("fonts", node_id)
    forest = build_forest(graph)
    core = extract_core(forest, CoreTopologyConfig(enumeration_threshold=40,
                                                   enumeration_sample=4))
    kept = [n for n in forest.find_by_name("font", exact=False, leaves_only=True)
            if core.contains(n.node_id)]
    assert len(kept) == 4
    # the virtual root itself is never treated as an enumeration
    assert core.contains(forest.main_root.node_id)


def test_core_manual_prune_names():
    forest = build_forest(diamond_with_cycle())
    core = extract_core(forest, CoreTopologyConfig(manual_prune_names={"b"}))
    b = forest.find_by_name("b")[0]
    assert not core.contains(b.node_id)


def test_core_token_estimate_is_computed_once(monkeypatch):
    core = extract_core(build_forest(diamond_with_cycle()))
    serialize = core.serialize
    calls = []
    monkeypatch.setattr(core, "serialize",
                        lambda *args: calls.append(args) or serialize(*args))
    estimates = [core.token_estimate() for _ in range(3)]
    assert estimates == [estimate_tokens(serialize())] * 3
    assert len(calls) == 1


def test_query_engine_targeted_and_global_queries():
    forest = build_forest(diamond_with_cycle())
    core = extract_core(forest, CoreTopologyConfig(max_depth=1))
    engine = QueryEngine(forest, core)
    assert engine.initial_prompt_text()
    b = forest.find_by_name("b")[0]
    result = engine.further_query([b.node_id])
    assert "b(Button)" in result.text
    assert result.tokens > 0
    everything = engine.further_query(FULL_FOREST)
    assert everything.is_global
    unknown = engine.further_query([10**6])
    assert unknown.unknown_ids == [10**6]
    report = engine.coverage_report()
    assert report["queries_answered"] == 3
    assert engine.total_query_tokens() >= result.tokens


# ----------------------------------------------------------------------
# property-based: the pipeline holds its invariants on random DAG-ish graphs
# ----------------------------------------------------------------------
@st.composite
def random_graph(draw):
    node_count = draw(st.integers(min_value=2, max_value=18))
    names = [f"n{i}" for i in range(node_count)]
    edges = set()
    # random forward edges (guaranteeing reachability chain) + random extras
    for i in range(1, node_count):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((names[parent], names[i]))
    extra = draw(st.lists(st.tuples(st.integers(0, node_count - 1),
                                    st.integers(0, node_count - 1)), max_size=12))
    for a, b in extra:
        if a != b:
            edges.add((names[a], names[b]))
    graph = graph_from_edges(sorted(edges), root_children=[names[0]])
    return graph


@settings(max_examples=40, deadline=None)
@given(random_graph(), st.integers(min_value=0, max_value=50))
def test_pipeline_invariants_on_random_graphs(graph, threshold):
    dag = decycle(graph)
    assert dag.is_acyclic()
    plan = plan_externalization(dag, ExternalizationConfig(clone_cost_threshold=threshold))
    forest = build_forest(graph, dag=dag, plan=plan)
    # 1. ids unique and consecutive
    ids = sorted(n.node_id for n in forest.iter_all_nodes())
    assert ids == list(range(1, len(ids) + 1))
    # 2. every reachable UNG node is represented at least once
    reachable = graph.reachable_from_root() - {VIRTUAL_ROOT_ID}
    represented = {n.control_id for n in forest.iter_all_nodes() if n.control_id}
    assert reachable <= represented
    # 3. every non-reference node has a resolvable, cycle-free control path
    for node in forest.iter_all_nodes():
        if node.is_reference or node.control_id == VIRTUAL_ROOT_ID:
            continue
        path = forest.control_path(node.node_id)
        assert path, f"empty path for {node}"
        assert path[-1] == node.control_id
        assert len(path) == len(set(path)) or len(path) <= len(set(path)) + 2
    # 4. references point at existing subtrees
    for ref_id, subtree_id in forest.entry_map.items():
        assert subtree_id in forest.shared_subtrees
        assert forest.node(ref_id).is_reference
