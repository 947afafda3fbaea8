"""The UI change journal: every watched write, recorded only while installed.

The GUI ripper needs to know, after each click, exactly which controls
changed visibility, expansion or selection, which were renamed and where the
tree was restructured — without walking the whole widget tree.  This module
provides that as an event sink (the pattern real accessibility clients use
instead of re-walking: NVDA's PowerPoint module subscribes to the
application's change events rather than polling the object model).

* :class:`Watched` is a *set-only* data descriptor.  Placed on a class
  attribute, it leaves reads as plain instance-dict reads (a data descriptor
  without ``__get__`` falls through to the instance dict) and routes writes
  through :meth:`Watched.__set__`, which appends an entry to the installed
  journal when the value actually changes.
* :func:`record` installs a fresh journal — a plain list of entries — for
  the duration of a ``with`` block (nesting restores the previous one on
  exit).  With no journal installed a watched write costs one global
  lookup.

Entries are tuples ``(kind, subject, detail)``:

* ``("visible" | "name" | "automation_id", element, old_value)``;
* ``("state" | "is_selected", pattern, old_value)`` — expand/collapse state
  and selection-item flag;
* ``("add" | "remove", parent, child)`` — structure changes.

Constructors write watched fields straight into the instance dict, so
building a control never produces an entry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

Entry = Tuple[str, object, object]

#: The journal watched writes go to, or None (nothing is recorded).
_active: Optional[List[Entry]] = None


def active() -> Optional[List[Entry]]:
    """The installed journal, if any."""
    return _active


def append(kind: str, subject: object, detail: object) -> None:
    """Record one entry if a journal is installed (structure changes)."""
    if _active is not None:
        _active.append((kind, subject, detail))


@contextmanager
def record() -> Iterator[List[Entry]]:
    """Install a fresh, empty journal for the ``with`` block."""
    global _active
    previous = _active
    journal: List[Entry] = []
    _active = journal
    try:
        yield journal
    finally:
        _active = previous


class Watched:
    """Set-only data descriptor journaling changes of one attribute."""

    __slots__ = ("name",)

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __set__(self, instance: object, value: object) -> None:
        values = instance.__dict__
        if _active is not None:
            old = values.get(self.name, value)
            if old != value:
                _active.append((self.name, instance, old))
        values[self.name] = value
