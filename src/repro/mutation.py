"""The process-wide IR mutation counter.

Content fingerprints (:mod:`repro.sdfg.serialize`) are memoized on the IR
objects they describe, and a memo is valid only while :data:`generation`
is unchanged.  Every IR mutator — graph edits, descriptor registration
and replacement, connector additions, and assignment to the fields
transforms rewrite — calls :func:`changed` *after* changing the object,
so a fingerprint read concurrently with a mutation is tagged with the
pre-bump generation and can never be served once the mutation is visible.

One counter serves every object, so a bump invalidates every memo.  That
is sound even for sub-objects shared between graphs (a map shared by an
entry/exit pair, a nested SDFG).  To keep the bumps rare, only objects
some fingerprint has read are *observed*: the fingerprinting code sets
their ``_observed`` flag before reading them, and :func:`changed` bumps
only for an observed object.  A change to an unobserved object cannot
alter any memoized digest — no memo covers it — and whatever makes it
reachable from an observed graph (``add_node``, ``add_edge``, assigning
``MapEntry.map``, ...) is itself a change to an observed object.  So new
objects and fresh copies are free to mutate: building an SDFG, ``loads``
and the tuner's copy-then-transform of each candidate never bump, and
the memos of a served graph survive a search running beside it.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Any, Callable

__all__ = ["generation", "bump", "changed", "tracked"]

_counter = itertools.count(1)

#: Advances on every change to an observed IR object; read as
#: ``mutation.generation``.
generation = 0


def bump() -> None:
    """Invalidate every memoized fingerprint."""
    global generation
    generation = next(_counter)


def changed(obj: Any) -> None:
    """Record that *obj* changed (call after the change): bumps unless no
    fingerprint has read *obj* yet."""
    if obj._observed:
        bump()


def tracked(slot: str, convert: Callable[[Any], Any] | None = None) -> property:
    """A field stored in *slot* whose assignment calls :func:`changed`.

    Reads go straight to the slot; *convert* normalizes assigned values
    (e.g. ``tuple``, so the stored value cannot be mutated in place).
    """

    def fset(obj: Any, value: Any) -> None:
        setattr(obj, slot, value if convert is None else convert(value))
        changed(obj)

    return property(attrgetter(slot), fset)
