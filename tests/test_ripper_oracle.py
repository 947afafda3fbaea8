"""The production ripper against the snapshot-diff reference and the generator.

Two oracles:

* :class:`reference_ripper.ReferenceRipper` — the original whole-tree
  snapshot diff/restore.  The production ripper must produce the same UNG
  (digest) and the same click/blocked/node counts on random synthetic
  specs, the three Office apps and every
  :class:`~repro.apps.mutable.MutableDemoApp` mutation scenario, both on a
  freshly mutated app and on a second rip of an app that was ripped, then
  mutated.  That second rip must also equal a rip of a fresh twin given
  the same mutations.
* :func:`repro.apps.synthetic.topology_for` — every control the generator
  put into an app must be a node of its UNG.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_ripper import ReferenceRipper
from repro.apps import ExcelApp, PowerPointApp, WordApp
from repro.apps.mutable import MutableDemoApp
from repro.apps.synthetic import SyntheticApp, SyntheticSpec, topology_for
from repro.ripping.ripper import GuiRipper
from repro.topology.persistence import ung_digest

RIPPERS = (GuiRipper, ReferenceRipper)


def observed(ripper):
    """Everything a rip must reproduce exactly."""
    report = ripper.report
    return {
        "ung": ung_digest(ripper.ung),
        "clicks": report.clicks,
        "blocked": report.blocked,
        "nodes": report.nodes,
    }


def full_rip(ripper_cls, app):
    ripper = ripper_cls(app)
    ripper.rip()
    return ripper


def assert_same(build, rip):
    """Rip a fresh ``build()`` with each ripper; the observations agree.
    Returns the production ripper."""
    production, reference = (rip(cls, build()) for cls in RIPPERS)
    assert observed(production) == observed(reference)
    return production


def topology_names(value) -> set:
    """Every control name in a generated topology."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        value = [item for key, item in value.items() if key != "token"]
    names = set()
    for item in value if isinstance(value, list) else ():
        names |= topology_names(item)
    return names


# ----------------------------------------------------------------------
# full rips
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), groups=st.integers(1, 6),
       dialogs=st.integers(1, 3), cycle=st.booleans(),
       contexts=st.integers(0, 2))
def test_synthetic_rip_equals_reference_and_covers_topology(
        seed, groups, dialogs, cycle, contexts):
    spec = SyntheticSpec(seed=seed, groups=groups, dialogs=dialogs,
                         cycle=cycle, contexts=contexts)
    ung = assert_same(lambda: SyntheticApp(spec), full_rip).ung
    names = {node.name for node in ung.nodes.values()}
    assert topology_names(topology_for(spec)) <= names


@pytest.mark.parametrize("app_cls", [WordApp, ExcelApp, PowerPointApp])
def test_office_rip_equals_reference(app_cls):
    assert_same(app_cls, full_rip)


# ----------------------------------------------------------------------
# MutableDemoApp: every scenario, on a fresh app and re-ripped after it
# ----------------------------------------------------------------------
SCENARIOS = {
    "none": lambda app, i: None,
    "add-quick-button": lambda app, i: app.add_quick_button(f"Action {i}"),
    "remove-quick-button": lambda app, i: app.remove_quick_button("Copy"),
    "status-line": lambda app, i: app.set_status_line(f"status {i}"),
    "toggle-tab": lambda app, i: app.toggle_tab(),
    "dialog-checkbox": lambda app, i: app.mutate_dialog_spec("checkbox", f"Option {i}"),
    "dialog-edit": lambda app, i: app.mutate_dialog_spec("edit", f"Field {i}"),
    "dialog-drop-row": lambda app, i: app.drop_dialog_spec_row("Zoom"),
    "add-then-remove": lambda app, i: (app.add_quick_button(f"Temp {i}"),
                                       app.remove_quick_button(f"Temp {i}")),
}


def mutated(names):
    def build():
        app = MutableDemoApp()
        for step, name in enumerate(names):
            SCENARIOS[name](app, step)
        return app
    return build


def rerip(ripper_cls, app, mutations=()):
    """Rip ``app``, apply ``mutations`` to it, then rip it again."""
    full_rip(ripper_cls, app)
    for step, name in enumerate(mutations):
        SCENARIOS[name](app, step)
    return full_rip(ripper_cls, app)


def assert_rerip_equals_reference_and_twin(mutations):
    ripper = assert_same(MutableDemoApp,
                         lambda cls, app: rerip(cls, app, mutations))
    twin = full_rip(GuiRipper, mutated(mutations)())
    assert ung_digest(ripper.ung) == ung_digest(twin.ung)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_mutable_scenario_full_rip_equals_reference(scenario):
    assert_same(mutated([scenario]), full_rip)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_mutable_scenario_rerip_equals_reference_and_twin(scenario):
    assert_rerip_equals_reference_and_twin([scenario])


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(st.sampled_from(sorted(SCENARIOS)), min_size=1,
                       max_size=3, unique=True))
def test_mutation_sequences_rerip_equals_reference_and_twin(script):
    assert_rerip_equals_reference_and_twin(script)
