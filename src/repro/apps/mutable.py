"""A synthetic application with scripted UI mutations.

The ripper's oracle tests need an application whose UI can be changed
*between* rips in controlled, scoped ways — something the Office-like apps
deliberately avoid (their trees are fixed per build).  A mutated instance is
ripped again and compared with the reference ripper and with a fresh
instance given the same mutations.  :class:`MutableDemoApp` provides:

* a deliberately wide main window (two colour drop-downs, a quick-action
  button strip, a two-tab section) so a full rip visits on the order of a
  hundred nodes, and
* a small ``Settings`` dialog built fresh on every open from a persistent
  spec list, so dialog-scoped mutations are cheap to express and cheap to
  re-explore.

Widget mutations (add/remove, property edits, tab switches) change the live
tree; dialog-spec edits change the model the ``Settings`` dialog is built
from, so they show only when the dialog next opens.

The app is intentionally *not* registered in ``APP_FACTORIES``: it models no
benchmark tasks.  It exists for the ripper's sake.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.apps.base import Application
from repro.gui.ribbon import DialogBuilder, build_color_dropdown
from repro.gui.widgets import Button, Edit, Group, Pane, TabControl, TabItem

#: The title of the dialog built from the dialog spec.
SETTINGS_WINDOW = "Settings"


class MutableDemoApp(Application):
    """A wide-surface demo app whose UI mutates on request."""

    APP_NAME = "MutableDemo"
    APP_VERSION = "1.0"

    def __init__(self, desktop=None):
        self.state_log: List[Tuple] = []
        self.font_color = "Black"
        self.fill_color = "White"
        self.status_text = ""
        # (kind, label) rows the Settings dialog is rebuilt from on every
        # open; mutating this list changes the *next* dialog's contents.
        self._dialog_spec: List[Tuple[str, str]] = [
            ("checkbox", "Autosave"),
            ("checkbox", "Spell check"),
            ("edit", "Author"),
            ("spinner", "Zoom"),
            ("combo", "Theme"),
        ]
        self._quick_group: Group
        self._tabs: TabControl
        super().__init__(desktop=desktop)

    def document_title(self) -> str:
        return "Mutable Document"

    @property
    def state(self):
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build_ui(self) -> None:
        window = self.window
        ribbon = Group(name="Demo Ribbon", automation_id="Mutable.Ribbon")
        window.add_child(ribbon)
        ribbon.add_child(build_color_dropdown(
            "Font Color", automation_id="Mutable.FontColor",
            on_choice=lambda c: setattr(self, "font_color", c)))
        ribbon.add_child(build_color_dropdown(
            "Fill Color", automation_id="Mutable.FillColor",
            on_choice=lambda c: setattr(self, "fill_color", c)))
        ribbon.add_child(Button(
            "Open Settings", automation_id="Mutable.OpenSettings",
            description="Open the settings dialog",
            on_click=self._open_settings))

        self._quick_group = Group(name="Quick Actions",
                                  automation_id="Mutable.Quick")
        window.add_child(self._quick_group)
        for label in ("Cut", "Copy", "Paste", "Undo", "Redo"):
            self._add_quick_button_widget(label)
        self._quick_group.add_child(Edit(
            "Status Line", automation_id="Mutable.StatusLine",
            on_commit=lambda v: setattr(self, "status_text", v)))

        self._tabs = TabControl(name="Demo Tabs", automation_id="Mutable.Tabs")
        window.add_child(self._tabs)
        for title, actions in (("Layout", ("Align Left", "Align Center",
                                           "Align Right", "Justify")),
                               ("View", ("Zoom In", "Zoom Out",
                                         "Full Screen", "Ruler"))):
            panel = Pane(name=f"{title} panel",
                         automation_id=f"Mutable.{title}.Panel")
            for action in actions:
                panel.add_child(Button(
                    action,
                    automation_id=f"Mutable.{title}.{action.replace(' ', '')}",
                    on_click=lambda a=action: self.state_log.append(("action", a))))
            tab = TabItem(name=title, automation_id=f"Mutable.Tab.{title}",
                          panel=panel)
            self._tabs.add_tab(tab)
            window.add_child(panel)
        self._tabs.tabs()[0].select()

    def _open_settings(self) -> None:
        builder = DialogBuilder(SETTINGS_WINDOW)
        dialog = builder.dialog
        for kind, label in self._dialog_spec:
            if kind == "checkbox":
                builder.add_checkbox(
                    dialog, label,
                    on_change=lambda v, l=label: self.state_log.append((l, v)))
            elif kind == "edit":
                builder.add_edit(
                    dialog, label,
                    on_commit=lambda v, l=label: self.state_log.append((l, v)))
            elif kind == "spinner":
                builder.add_spinner(
                    dialog, label, value=100.0, minimum=10.0, maximum=400.0,
                    on_change=lambda v, l=label: self.state_log.append((l, v)))
            elif kind == "combo":
                builder.add_combo(
                    dialog, label, choices=("Light", "Dark", "Contrast"),
                    on_change=lambda v, l=label: self.state_log.append((l, v)))
            else:
                raise ValueError(f"unknown dialog spec kind {kind!r}")
        self.open_dialog(builder.build())

    # ------------------------------------------------------------------
    # scripted mutations
    # ------------------------------------------------------------------
    def _add_quick_button_widget(self, label: str) -> Button:
        return self._quick_group.add_child(Button(
            label, automation_id=f"Mutable.Quick.{label.replace(' ', '')}",
            on_click=lambda: self.state_log.append(("quick", label))))

    def add_quick_button(self, label: str) -> Button:
        """Add a button to the main window's quick strip."""
        button = self._add_quick_button_widget(label)
        self.desktop.relayout()
        return button

    def remove_quick_button(self, label: str) -> None:
        """Remove a quick-strip button by name."""
        for child in list(self._quick_group.children):
            if child.name == label:
                self._quick_group.remove_child(child)
                self.desktop.relayout()
                return
        raise KeyError(f"no quick button named {label!r}")

    def set_status_line(self, text: str) -> None:
        """Change the status edit's text."""
        for child in self._quick_group.children:
            if isinstance(child, Edit) and child.name == "Status Line":
                child.set_text(text)
                return
        raise KeyError("no Status Line edit")

    def toggle_tab(self) -> None:
        """Activate the currently unselected tab."""
        tabs = self._tabs.tabs()
        current = self._tabs.selected_tab()
        for tab in tabs:
            if tab is not current:
                tab.select()
                return

    def mutate_dialog_spec(self, kind: str, label: str) -> None:
        """Append a row to the Settings dialog spec.

        The spec lives in the model, not the widget tree: the row appears
        the next time the dialog opens.
        """
        self._dialog_spec.append((kind, label))

    def drop_dialog_spec_row(self, label: str) -> None:
        """Remove a Settings dialog spec row by label."""
        before = len(self._dialog_spec)
        self._dialog_spec = [(kind, l) for kind, l in self._dialog_spec
                             if l != label]
        if len(self._dialog_spec) == before:
            raise KeyError(f"no dialog spec row labeled {label!r}")
