"""The snapshot-diff GUI ripper, kept as an executable specification.

:class:`ReferenceRipper` is a :class:`~repro.ripping.ripper.GuiRipper` whose
three per-click steps are the original whole-tree implementation:

* ``_capture_state`` walks every open window and records the open windows,
  the expanded controls and the selected tabs;
* ``_activate_and_diff`` snapshots the identifier strings of every visible
  control before the click, clicks, walks the visible tree again and
  returns every control whose identifier was absent before (pre-order,
  first occurrence per identifier);
* ``_restore_state`` closes windows the branch opened (newest first),
  collapses every expansion the branch introduced and re-selects the
  previously selected tabs — each step a walk over every open window.

Everything else (DFS order, budgets, contexts, graph building) is the
production ripper's, so any difference between the two is a difference in
exactly those three steps.  The cost is quadratic in the size of the UI;
the oracle tests keep their inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.gui.widgets import TabControl, TabItem
from repro.ripping.ripper import GuiRipper
from repro.uia.element import UIElement
from repro.uia.identifiers import identifier_string
from repro.uia.patterns import ExpandCollapseState, PatternId


@dataclass
class SnapshotState:
    """Snapshot of the restorable UI state around an activation."""

    open_window_ids: Set[int]
    expanded_ids: Set[int]
    selected_tab_ids: Set[int]


class ReferenceRipper(GuiRipper):
    """A :class:`GuiRipper` that diffs and restores from tree snapshots."""

    def _snapshot_windows(self):
        return self.app.desktop.open_windows(self.app.process_id)

    def _snapshot_visible(self) -> List[UIElement]:
        result: List[UIElement] = []
        for window in self._snapshot_windows():
            stack: List[UIElement] = [window]
            while stack:
                node = stack.pop()
                if not node.visible:
                    continue
                result.append(node)
                stack.extend(reversed(node.children))
        return result

    def _snapshot_tab_controls(self) -> List[TabControl]:
        return [element for window in self._snapshot_windows()
                for element in window.iter_subtree()
                if isinstance(element, TabControl)]

    def _activate_and_diff(self, element: UIElement) -> List[UIElement]:
        before = {identifier_string(e) for e in self._snapshot_visible()}
        self._clicks += 1
        try:
            self.app.input.click(element)
        except Exception:
            return []
        revealed = []
        seen_new = set()
        for candidate in self._snapshot_visible():
            identifier = identifier_string(candidate)
            if identifier in before or identifier in seen_new:
                continue
            seen_new.add(identifier)
            revealed.append(candidate)
        return revealed

    def _capture_state(self) -> SnapshotState:
        expanded = set()
        selected_tabs = set()
        for window in self._snapshot_windows():
            for node in window.iter_subtree():
                pattern = node.get_pattern(PatternId.EXPAND_COLLAPSE)
                if pattern is not None and pattern.state == ExpandCollapseState.EXPANDED:
                    expanded.add(node.runtime_id)
                if isinstance(node, TabItem) and node.is_selected:
                    selected_tabs.add(node.runtime_id)
        return SnapshotState(
            open_window_ids={w.runtime_id for w in self._snapshot_windows()},
            expanded_ids=expanded,
            selected_tab_ids=selected_tabs,
        )

    def _restore_state(self, state: SnapshotState) -> None:
        for window in reversed(self._snapshot_windows()):
            if window.runtime_id not in state.open_window_ids:
                window.close()
        for window in self._snapshot_windows():
            for node in window.iter_subtree():
                pattern = node.get_pattern(PatternId.EXPAND_COLLAPSE)
                if (pattern is not None
                        and pattern.state == ExpandCollapseState.EXPANDED
                        and node.runtime_id not in state.expanded_ids):
                    try:
                        pattern.collapse()
                    except Exception:
                        pass
        for tab_control in self._snapshot_tab_controls():
            selected = tab_control.selected_tab()
            if selected is not None and selected.runtime_id in state.selected_tab_ids:
                continue
            for tab in tab_control.tabs():
                if tab.runtime_id in state.selected_tab_ids:
                    tab.select()
                    break
        self.app.desktop.relayout()
