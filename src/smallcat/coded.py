"""Coded diagrams and the search for diagram maps on codes.

A :class:`CodedDiagram` codes a set-valued diagram by element index, in
the layout of Catlab's acsets (Patterson, Lynch, Fairbanks,
arXiv:2106.04703): element ``i`` of an object is ``values[o][i]``, and a
morphism acts by an index table.  A map out of a coded diagram is the
tuple of the codes of its images, one slot per element of the source in
object order.  Its naturality squares are filed once by their last slot
(:func:`_squares`), and :func:`_map_search` feeds them with the target's
tables to :func:`~smallcat.searchcore.backtrack`: the one index search.
:func:`_maps` runs it under a node budget for ``enumerate_diagram_maps``,
the commuting squares and :mod:`smallcat.kan`; the diagram lifting search
pins candidates and adds fibre checks to it.  :func:`_search_families`
is the one search for compatible families on codes, of the limit and of
the right Kan core.

Codes are built inside a call and dropped at its return; nothing here
caches them.  Only the commands that search for diagram maps or compute a
Kan extension load this module.
"""
from __future__ import annotations

from operator import add, getitem, itemgetter
from typing import Iterator

from .fincat import FiniteCategory, distinct, record
from .searchcore import NodeBudget, backtrack, constraint_lists, generators
from .setval import SetDiagram


@record(frozen=True)
class CodedDiagram:
    """A diagram coded by element index: element ``i`` of ``o`` is
    ``values[o][i]``, and ``action[m]`` is the index table of ``m``, with
    ``None`` for an image outside the target set."""

    shape: FiniteCategory
    values: dict[str, tuple[str, ...]]
    action: dict[str, tuple[int | None, ...]]


def _code(X: SetDiagram) -> CodedDiagram:
    """``X`` coded by the position of each element in its value tuple; the
    value tuples are shared, not copied.  An element listed twice at one
    object is a ``ValueError``."""
    C, values = X.shape, X.values
    index = {}
    for o, vs in values.items():
        index[o] = at = {e: i for i, e in enumerate(vs)}
        if len(at) != len(vs):     # name the first repeat
            twice = next(e for i, e in enumerate(vs) if e in vs[:i])
            raise ValueError(f"object {o}: element {twice} listed twice")
    action = {}
    for m in C.morphisms:
        f, code = X.action[m], index[C.target[m]].get
        action[m] = tuple([code(f[e]) for e in values[C.source[m]]])
    return CodedDiagram(C, values, action)


def _offsets(X: CodedDiagram) -> dict[str, int]:
    """The slot of element 0 of each object in a map out of ``X``."""
    offsets, n = {}, 0
    for o in X.shape.objects:
        offsets[o] = n
        n += len(X.values[o])
    return offsets


def _squares(X: CodedDiagram) -> list[list[tuple]]:
    """The naturality squares of a map ``a`` out of ``X``, filed by their
    last slot: ``(m, key, k2)`` asks ``table[key(a)] == a[k2]`` of the
    table of ``m`` in the target, where ``key`` reads the slot of an
    element of the source of ``m`` and ``k2`` is that of its image."""
    C = X.shape
    offsets = _offsets(X)
    n = sum(map(len, X.values.values()))
    keys = [itemgetter(k) for k in range(n)]
    filed: list[list[tuple]] = [[] for _ in range(n)]
    for m in C.morphisms:
        k, base = offsets[C.source[m]], offsets[C.target[m]]
        for j in X.action[m]:
            k2 = base + j
            filed[k if k > k2 else k2].append((m, keys[k], k2))
            k += 1
    return filed


def _map_search(X: CodedDiagram, Y: CodedDiagram, squares: list[list[tuple]]
                ) -> tuple[list, list[list[tuple]]]:
    """The candidates and constraint lists of
    :func:`~smallcat.searchcore.backtrack` whose solutions are the maps ``X ->
    Y``, in lexicographic order: each slot ranges over the codes of ``Y``
    at its object, and ``squares`` are those of ``X``."""
    candidates: list = []
    for o in X.shape.objects:
        candidates += [range(len(Y.values[o]))] * len(X.values[o])
    tables, checks = Y.action, []
    for filed in squares:
        slot = []
        for m, key, k2 in filed:
            slot.append((tables[m], key, k2))
        checks.append(slot)
    return candidates, checks


def _maps(X: CodedDiagram, Y: CodedDiagram, squares: list[list[tuple]],
          node_budget: int) -> Iterator[tuple[int, ...]]:
    """The maps ``X -> Y`` in lexicographic order, each as its tuple of
    codes: the solutions of :func:`_map_search` (``squares`` are those of
    ``X``) under ``node_budget`` nodes."""
    if X.shape is not Y.shape and X.shape != Y.shape:
        raise ValueError("shapes differ")
    return map(tuple, backtrack(*_map_search(X, Y, squares), NodeBudget(
        node_budget, "diagram map search exceeded budget", "diagram_maps")))


def _coded_error(X: CodedDiagram) -> str | None:
    """The first error :func:`~smallcat.setval.validate_diagram` reports on
    the names of ``X``, whose tables are total and stay inside their
    targets: an identity that moves an element, then a composable pair on
    which the action is not functorial.

    Once every identity acts as one, a pair with an identity in it is
    functorial, and the pairs whose left factor is one of the
    :func:`~smallcat.searchcore.generators` of the shape decide the rest.
    Only when one of those fails are all pairs scanned for the first
    failure."""
    C, action = X.shape, X.action
    for o in C.objects:
        t = action[C.identity[o]]
        if t != tuple(range(len(t))):
            return f"identity of {o} does not act as identity"
    lefts = set(generators(C))
    identities = set(C.identity.values())
    for (f, g), h in C.compose.items():
        if f in lefts and g not in identities and \
                tuple(map(action[f].__getitem__, action[g])) != action[h]:
            return _first_pair_error(X, identities)
    return None


def _first_pair_error(X: CodedDiagram, identities: set[str]) -> str | None:
    """The first composable pair of non-identities, in table order, on which
    ``X`` is not functorial."""
    C = X.shape
    for (f, g), h in C.compose.items():
        if f in identities or g in identities:
            continue
        tf, tg, th = X.action[f], X.action[g], X.action[h]
        if tuple(map(tf.__getitem__, tg)) != th:
            e = next(i for i, j in enumerate(tg) if tf[j] != th[i])
            return f"functoriality fails at ({f},{g}) on " \
                   f"{X.values[C.source[g]][e]}"
    return None


# ---------------------------------------------------------------------------
# the family search of limits and right Kan extensions


def _search_families(heads: list[str], elements: list, links,
                     budget: int) -> list[tuple[str, tuple[int, ...]]]:
    """The families ``a`` with slot ``k`` a code of ``elements[k]`` that
    meet each constraint ``(table, (k,), k2)`` of ``links``, ``table[a[k]]
    == a[k2]``: ``(name, a)`` pairs in name order, the name ``(h0v0,...)``
    joining each ``heads[k]`` and ``elements[k][a[k]]``.  The one family
    search of the limit and the right Kan core.

    ``budget`` bounds the nodes of the search (``backtrack``): past it,
    ``BudgetError`` is raised (``limit product exceeds budget``), before a
    family is named.  Raises :class:`ValueError` when two families render
    to one name.
    """
    found = list(map(tuple, backtrack(
        [range(len(vs)) for vs in elements],
        constraint_lists(len(heads), links),
        NodeBudget(budget, "limit product exceeds budget", "limit_families"))))
    names = [f"({','.join(map(add, heads, map(getitem, elements, a)))})"
             for a in found]
    if len(set(names)) != len(names):
        distinct(names, "family identifier {} names two families")
    return sorted(zip(names, found))
