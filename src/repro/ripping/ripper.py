"""The GUI ripper: DFS exploration with differential capture (paper §4.1).

The ripper drives a live (simulated) application:

1. **Root node initialization** — a virtual root is introduced and the
   controls on the initial screen are attached to it.  If a tab strip has an
   active tab, controls that are only visible *because* that tab is active
   are attached to the tab's node instead of the root (detected
   differentially by briefly switching to a sibling tab).
2. **DFS exploration** — for every clickable, non-blocklisted control the
   ripper clicks the control and records every newly revealed control as a
   successor: a control that came on screen with an identifier that was
   not on screen before the click.
3. **State restoration** — after exploring a branch the ripper restores the
   prior UI state (closes windows the click opened, collapses expansions,
   re-selects the previously selected tab) so sibling branches are explored
   from a consistent state.
4. **Context-aware exploration** — the whole procedure repeats for every
   exploration context the application registers (e.g. "image selected"),
   and the per-context results merge into a single UNG.

Journal-driven capture, diff and restore
----------------------------------------
Steps 2 and 3 never walk the whole widget tree.  While a rip runs, the UI
change journal (:mod:`repro.uia.journal`) records every visibility,
expansion, selection, name and structure write.  A capture is a journal
position plus the open windows.  The reveal set of a click comes from the
net visibility flips and the windows opened or closed since the capture,
walked top-down and compared with an on-screen identifier count the ripper
keeps up to date.  A restore undoes exactly the expansions, tab selections
and windows journaled since its capture.  A click therefore costs the size
of what it changed, not the size of the UI, and the journal is emptied
whenever no capture is outstanding.

**Fallback rule:** a journaled rename or structure change inside a window
that was open at the last count may have changed identifiers the count
holds, so the ripper recounts with one full walk of the open windows
(``RipReport.walk_fallbacks`` counts these).  Changes inside windows the
click opened, and on other desktops, need no fallback.  Layout is deferred
while a rip runs (the ripper reads no geometry) and done once at the end.

A rip runs once per application build; the model moves to other machines
and later runs as a persisted UNG (:mod:`repro.topology.persistence`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.apps.base import Application
from repro.gui.widgets import TabControl, TabItem, Window
from repro.ripping.blocklist import AccessBlocklist, default_blocklist_for
from repro.ripping.contexts import DEFAULT_CONTEXT, context_plan_for
from repro.ripping.ung import NavigationGraph, UNGNode, VIRTUAL_ROOT_ID
from repro.uia.control_types import (
    ControlType,
    NON_NAVIGATING_CONTROL_TYPES,
    is_clickable_type,
)
from repro.uia import journal
from repro.uia.element import UIElement
from repro.uia.identifiers import ancestor_path_field, identifier_parts, identifier_string
from repro.uia.patterns import ExpandCollapseState, PatternId

#: Lazily bound telemetry module (importing :mod:`repro.bench.telemetry` at
#: the top level would pull in the whole ``repro.bench`` package, which
#: imports the runner, which imports the DMI stack, which imports us).
_telemetry = None


def _events():
    global _telemetry
    if _telemetry is None:
        from repro.bench import telemetry
        _telemetry = telemetry
    return _telemetry


@dataclass
class RipperConfig:
    """Exploration budgets and switches."""

    #: Maximum number of activations during one rip.
    max_clicks: int = 50000
    #: Maximum DFS depth measured in activations from the root.
    max_depth: int = 14
    #: Whether to explore the application's registered contexts.
    explore_contexts: bool = True


@dataclass
class RipReport:
    """Statistics of one ripping run (paper §5.2, offline modeling cost)."""

    app_name: str = ""
    clicks: int = 0
    blocked: int = 0
    contexts: List[str] = field(default_factory=list)
    duration_seconds: float = 0.0
    nodes: int = 0
    edges: int = 0
    leaves: int = 0
    merge_nodes: int = 0
    cycles: bool = False
    #: Full walks of the open windows the journal-driven diff fell back to
    #: (a rename or structure change inside an already open window).
    walk_fallbacks: int = 0

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class _Mark:
    """A capture: where the journal stood and which windows were open."""

    position: int
    open_window_ids: Set[int]
    #: Captures still unrestored when this one was taken.
    depth: int


#: Journal entry kinds that can change identifiers of counted controls.
_RESTRUCTURING = frozenset({"name", "automation_id", "add", "remove"})


class GuiRipper:
    """Builds the UI Navigation Graph for one application instance."""

    def __init__(self, app: Application, blocklist: Optional[AccessBlocklist] = None,
                 config: Optional[RipperConfig] = None, sink=None) -> None:
        self.app = app
        self.blocklist = blocklist if blocklist is not None else default_blocklist_for(app.APP_NAME)
        self.config = config or RipperConfig()
        self.sink = sink
        self.ung = NavigationGraph(app_name=app.APP_NAME)
        self.report = RipReport(app_name=app.APP_NAME)
        self._visited: Set[str] = set()
        self._clicks = 0
        self._init_journal_state()

    def _init_journal_state(self) -> None:
        #: The change journal, installed while a rip runs.
        self._journal: Optional[List[journal.Entry]] = None
        #: Captures not yet restored; the journal is emptied at zero.
        self._open_marks = 0
        #: Identifier -> number of on-screen controls carrying it, as of
        #: journal position ``_synced`` and windows ``_synced_windows``.
        self._on_screen_count: Dict[str, int] = {}
        self._synced = 0
        self._synced_windows: List[Window] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def rip(self) -> NavigationGraph:
        """Run the full exploration and return the UNG.

        The change journal is installed and layout deferred for the rip.
        """
        with journal.record() as recorded, self.app.desktop.deferred_layout():
            self._journal = recorded
            try:
                return self._run()
            finally:
                self._init_journal_state()

    def _run(self) -> NavigationGraph:
        started = time.perf_counter()
        contexts = context_plan_for(self.app) if self.config.explore_contexts else \
            context_plan_for(self.app)[:1]
        for context in contexts:
            context.enter()
            self._rip_context(context.name)
            self.report.contexts.append(context.name)
        self.report.duration_seconds = time.perf_counter() - started
        stats = self.ung.stats()
        self.report.nodes = stats["nodes"]
        self.report.edges = stats["edges"]
        self.report.leaves = stats["leaves"]
        self.report.merge_nodes = stats["merge_nodes"]
        self.report.cycles = stats["has_cycle"]
        self.report.clicks = self._clicks
        self._emit_rip_event()
        return self.ung

    def _emit_rip_event(self) -> None:
        sink = _events().resolve(self.sink)
        if sink:
            sink.emit(_events().RipFull(
                app=self.app.APP_NAME, nodes_visited=self._clicks,
                nodes=self.report.nodes, seconds=self.report.duration_seconds))

    def _add_element(self, element: UIElement, context: str) -> UNGNode:
        return self.ung.add_element(element, context=context,
                                    window=self._window_title(element))

    # ------------------------------------------------------------------
    # per-context exploration
    # ------------------------------------------------------------------
    def _rip_context(self, context: str) -> None:
        initial = [element for element, _ in self._count_on_screen()]
        scoped = self._active_tab_scoped_elements()
        self._trim_journal()

        frontier: List[Tuple[UIElement, str, int]] = []
        for element in initial:
            if element is self.app.window:
                continue
            node = self._add_element(element, context)
            parent_id = VIRTUAL_ROOT_ID
            if element.runtime_id in scoped:
                parent_id = scoped[element.runtime_id]
                # The owning tab itself is part of ``initial`` and is attached
                # to the virtual root by its own iteration.
            if parent_id != node.node_id:
                self.ung.add_edge(parent_id, node.node_id)
            frontier.append((element, node.node_id, 1))

        for element, node_id, depth in frontier:
            self._explore(element, node_id, depth, context)

    def _active_tab_scoped_elements(self) -> Dict[int, str]:
        """Map runtime ids of controls scoped to the active tab -> tab node id.

        Implements the paper's root-initialization rule: controls that are
        only visible because the default tab is active are attached to that
        tab instead of the virtual root.  Detection is differential: briefly
        select a sibling tab, observe what disappears, then restore.
        """
        scoped: Dict[int, str] = {}
        for tab_control in self._find_tab_controls():
            selected = tab_control.selected_tab()
            others = [t for t in tab_control.tabs() if t is not selected and t.visible]
            if selected is None or not others:
                continue
            before = {e.runtime_id for e, _ in self._on_screen()}
            others[0].select()
            after = {e.runtime_id for e, _ in self._on_screen()}
            selected.select()
            disappeared = before - after - {selected.runtime_id}
            tab_node = self._add_element(selected, DEFAULT_CONTEXT)
            self.ung.add_edge(VIRTUAL_ROOT_ID, tab_node.node_id)
            for runtime_id in disappeared:
                scoped[runtime_id] = tab_node.node_id
        return scoped

    def _find_tab_controls(self) -> List[TabControl]:
        result = []
        for window in self._app_windows():
            for element in window.iter_subtree():
                if isinstance(element, TabControl):
                    result.append(element)
        return result

    # ------------------------------------------------------------------
    # DFS
    # ------------------------------------------------------------------
    def _explore(self, element: UIElement, node_id: str, depth: int, context: str) -> None:
        if node_id in self._visited:
            return
        self._visited.add(node_id)
        if depth > self.config.max_depth or self._clicks >= self.config.max_clicks:
            return
        if not self._should_activate(element):
            if self.blocklist.blocks(element):
                self.report.blocked += 1
            return
        if not element.is_on_screen():
            # A sibling's exploration hid this control (e.g. a collapsed
            # menu); skip rather than force visibility.
            return

        state_before = self._capture_state()
        revealed = self._activate_and_diff(element)
        registered: List[Tuple[UIElement, str]] = []
        for new_element in revealed:
            new_node = self._add_element(new_element, context)
            if new_node.node_id != node_id:
                self.ung.add_edge(node_id, new_node.node_id)
                registered.append((new_element, new_node.node_id))
        for new_element, new_id in registered:
            # Exploring an earlier sibling may have rebuilt part of the UI
            # (detaching this element); re-registration keeps ids consistent
            # with what exploration will observe from here on.
            current_id = identifier_string(new_element)
            if current_id != new_id:
                refreshed = self._add_element(new_element, context)
                self.ung.add_edge(node_id, refreshed.node_id)
                new_id = refreshed.node_id
            self._explore(new_element, new_id, depth + 1, context)
        self._restore_state(state_before)

    def _should_activate(self, element: UIElement) -> bool:
        if self.blocklist.blocks(element):
            return False
        if not element.is_enabled:
            return False
        if element.control_type in NON_NAVIGATING_CONTROL_TYPES:
            return False
        if element.control_type == ControlType.WINDOW:
            return False
        if element.control_type == ControlType.DATA_ITEM:
            # Grid cells are functional leaves; activating each of the
            # hundreds of cells adds nothing to the topology.
            return False
        return is_clickable_type(element.control_type) or bool(element.patterns)

    def _activate_and_diff(self, element: UIElement) -> List[UIElement]:
        """Click ``element`` and return the controls that became visible.

        A control counts as revealed when it came on screen with a composite
        control identifier that was not on screen before the click (first
        occurrence per identifier, in pre-order).  Keying on identifiers
        rather than object identity means an application that rebuilds part
        of its widget tree (fresh objects, same controls) does not produce
        spurious "new control" edges.
        """
        self._sync()
        self._clicks += 1
        try:
            self.app.input.click(element)
        except Exception:
            # Disabled controls, pattern errors and the like simply produce
            # no outgoing edges.
            return []
        return self._sync()

    # ------------------------------------------------------------------
    # the on-screen identifier count
    # ------------------------------------------------------------------
    def _on_screen(self) -> List[Tuple[UIElement, str]]:
        """``(control, identifier)`` for every on-screen control of the
        app's open windows, in pre-order: one full walk."""
        return [pair for window in self._app_windows()
                for pair in _on_screen_subtree(window)]

    def _count_on_screen(self) -> List[Tuple[UIElement, str]]:
        """Recount with one full walk; return :meth:`_on_screen`'s pairs."""
        pairs = self._on_screen()
        counts: Dict[str, int] = {}
        for _, identifier in pairs:
            counts[identifier] = counts.get(identifier, 0) + 1
        self._on_screen_count = counts
        self._synced = len(self._journal)
        self._synced_windows = self._app_windows()
        return pairs

    def _sync(self) -> List[UIElement]:
        """Bring the on-screen count up to date with the journal.

        Returns the reveal set of the changes since the last sync: controls
        that came on screen with an identifier the count did not hold, in
        pre-order, first occurrence per identifier.
        """
        entries = self._journal
        start = self._synced
        was_open = self._synced_windows
        windows = self._app_windows()
        if start == len(entries) and windows == was_open:
            return []
        was_open_set = set(was_open)
        was_visible: Dict[UIElement, bool] = {}
        for kind, subject, detail in entries[start:]:
            if kind == "visible":
                was_visible.setdefault(subject, detail)
            elif kind in _RESTRUCTURING and subject.root() in was_open_set:
                return self._recount()
        self._synced = len(entries)
        self._synced_windows = windows
        now_open = set(windows)
        kept = was_open_set & now_open

        vanished: List[str] = []
        appearing: List[UIElement] = [w for w in windows if w not in was_open_set]
        for window in was_open:
            if window not in now_open:
                vanished.extend(i for _, i in _on_screen_subtree(window, was_visible))
        flipped = [e for e, old in was_visible.items() if old != e.visible]
        flipped_set = set(flipped)
        for element in flipped:
            if not _shown_through(element, flipped_set, kept):
                continue
            if element.visible:
                appearing.append(element)
            else:
                vanished.extend(i for _, i in _on_screen_subtree(element, was_visible))

        counts = self._on_screen_count
        revealed: List[UIElement] = []
        seen: Set[str] = set()
        appeared: List[str] = []
        for root in _preorder(appearing, windows):
            for node, identifier in _on_screen_subtree(root):
                appeared.append(identifier)
                if identifier not in counts and identifier not in seen:
                    seen.add(identifier)
                    revealed.append(node)
        for identifier in vanished:
            remaining = counts[identifier] - 1
            if remaining:
                counts[identifier] = remaining
            else:
                del counts[identifier]
        for identifier in appeared:
            counts[identifier] = counts.get(identifier, 0) + 1
        return revealed

    def _recount(self) -> List[UIElement]:
        """The fallback: a full walk, diffed against the previous count."""
        self.report.walk_fallbacks += 1
        before = self._on_screen_count
        revealed: List[UIElement] = []
        seen: Set[str] = set()
        for node, identifier in self._count_on_screen():
            if identifier not in before and identifier not in seen:
                seen.add(identifier)
                revealed.append(node)
        return revealed

    def _trim_journal(self) -> None:
        """Drop journal entries once no capture needs them."""
        if not self._open_marks:
            self._sync()
            self._journal.clear()
            self._synced = 0

    # ------------------------------------------------------------------
    # state capture / restore
    # ------------------------------------------------------------------
    def _capture_state(self) -> _Mark:
        self._sync()
        mark = _Mark(position=len(self._journal),
                     open_window_ids={w.runtime_id for w in self._synced_windows},
                     depth=self._open_marks)
        self._open_marks += 1
        return mark

    def _restore_state(self, mark: _Mark) -> None:
        # 1. Close windows opened since the mark (newest first).
        for window in reversed(self._app_windows()):
            if window.runtime_id not in mark.open_window_ids:
                window.close()
        # 2. Collapse expansions made since the mark.
        windows = self._app_windows()
        was_state = self._first_values("state", mark)
        expanded = [p for p, old in was_state.items()
                    if old != ExpandCollapseState.EXPANDED
                    and p.state == ExpandCollapseState.EXPANDED
                    and p.element.root() in windows]
        for pattern in _preorder(expanded, windows, key=lambda p: p.element):
            if pattern.state == ExpandCollapseState.EXPANDED:
                try:
                    pattern.collapse()
                except Exception:
                    pass
        # 3. Re-select tabs whose selection changed since the mark.
        was_selected = self._first_values("is_selected", mark)
        tab_controls = []
        for pattern in was_selected:
            parent = pattern.element.parent
            if (isinstance(pattern.element, TabItem) and isinstance(parent, TabControl)
                    and parent not in tab_controls and parent.root() in windows):
                tab_controls.append(parent)

        def selected_at_mark(tab: TabItem) -> bool:
            pattern = tab.get_pattern(PatternId.SELECTION_ITEM)
            return was_selected.get(pattern, pattern.is_selected)

        for tab_control in _preorder(tab_controls, windows):
            selected = tab_control.selected_tab()
            if selected is not None and selected_at_mark(selected):
                continue
            for tab in tab_control.tabs():
                if selected_at_mark(tab):
                    tab.select()
                    break
        self._open_marks = mark.depth
        self._trim_journal()

    def _first_values(self, kind: str, mark: _Mark) -> Dict[object, object]:
        """Subject -> its value at ``mark``, for ``kind`` entries since."""
        values: Dict[object, object] = {}
        for entry_kind, subject, old in self._journal[mark.position:]:
            if entry_kind == kind:
                values.setdefault(subject, old)
        return values

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _app_windows(self) -> List[Window]:
        return self.app.desktop.open_windows(self.app.process_id)

    @staticmethod
    def _window_title(element: UIElement) -> str:
        root = element.root()
        return root.name if isinstance(root, Window) or root.name else ""


def _on_screen_subtree(root: UIElement,
                      was_visible: Optional[Dict[UIElement, bool]] = None,
                      ) -> List[Tuple[UIElement, str]]:
    """``(control, identifier)`` for every on-screen control of ``root``'s
    subtree, assuming ``root``'s ancestors are on screen; pre-order, with
    identifiers built top-down.  Given ``was_visible`` (the visibility of
    controls changed since the last sync), on screen *as of that sync*."""
    result: List[Tuple[UIElement, str]] = []
    stack = [(root, ancestor_path_field(root))]
    while stack:
        node, path = stack.pop()
        visible = node.visible if was_visible is None \
            else was_visible.get(node, node.visible)
        if not visible:
            continue
        identifier, child_path = identifier_parts(node, path)
        result.append((node, identifier))
        stack.extend((child, child_path) for child in reversed(node.children))
    return result


def _shown_through(element: UIElement, flipped: Set[UIElement],
                   windows: Set[UIElement]) -> bool:
    """Whether ``element``'s visibility flip is what changed its subtree's
    on-screen state: no ancestor flipped too, every ancestor is visible
    (their visibility did not change, so they were visible before too), and
    it lies in one of ``windows``."""
    node = element
    while node.parent is not None:
        node = node.parent
        if node in flipped or not node.visible:
            return False
    return node in windows


def _preorder(items: list, windows: List[Window], key=lambda item: item) -> list:
    """``items`` (of controls in ``windows``, via ``key``) in pre-order."""
    if len(items) < 2:
        return list(items)

    def position(item) -> List[int]:
        node = key(item)
        path = []
        while node.parent is not None:
            path.append(node.parent.children.index(node))
            node = node.parent
        path.append(windows.index(node))
        path.reverse()
        return path

    return sorted(items, key=position)


def rip_application(app: Application, blocklist: Optional[AccessBlocklist] = None,
                    config: Optional[RipperConfig] = None) -> Tuple[NavigationGraph, RipReport]:
    """Convenience helper: rip ``app`` and return (UNG, report)."""
    ripper = GuiRipper(app, blocklist=blocklist, config=config)
    ung = ripper.rip()
    return ung, ripper.report
