"""The search core: invertible morphisms and generating sets, the one
union-find (:func:`least_members`), and the one search loop
(:func:`backtrack`) under a node budget.

Only the code that searches, quotients or chases loads this module, so
loading a document and checking its tables compiles none of it.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .fincat import BudgetError, FiniteCategory, hom_index


# ---------------------------------------------------------------------------
# invertible morphisms and generating sets


def isomorphisms(C: FiniteCategory) -> list[str]:
    """The invertible morphisms of ``C`` in ``morphisms`` order, each inverse
    looked for in one :func:`hom_index`."""
    homs = hom_index(C)
    return [m for m in C.morphisms if any(
        C.compose[n, m] == C.identity[C.source[m]]
        and C.compose[m, n] == C.identity[C.target[m]]
        for n in homs.get((C.target[m], C.source[m]), ()))]


def generators(C: FiniteCategory) -> tuple[str, ...]:
    """Non-identity morphisms of which every non-identity morphism of ``C``
    is a composite: in increasing number of factorisations into two
    non-identities (ties in ``morphisms`` order), each that the earlier
    ones do not yet generate.

    A check of functoriality needs only these: if a map ``t`` of tables
    sends identities to identities and ``t(s.g) = t(s).t(g)`` for every
    generator ``s`` and every ``g`` composable with it, then ``t(f.g) =
    t(f).t(g)`` for all composable ``f`` and ``g``.  Write ``f = s.f2``
    with ``s`` a generator and ``f2`` a shorter composite or an identity;
    then ``t(f.g) = t(s.(f2.g)) = t(s).t(f2.g) = t(s).t(f2).t(g) =
    t(f).t(g)``, by associativity and induction on the length of ``f``.
    For the same reason the left Kan chase joins along generators only: a
    join along ``s.f2`` is one along ``f2`` followed by one along ``s``.

    Computed once per category and kept on it, outside its fields, so a
    category's tables must not change after the first call.
    """
    # getattr, not C.__dict__: reading __dict__ would give C a dict of its
    # own, and every attribute read on C would then take the slow path
    found = getattr(C, "_generators", None)
    if found is not None:
        return found
    identities = set(C.identity.values())
    factorisations = dict.fromkeys(C.morphisms, 0)
    for (f, g), h in C.compose.items():
        if f not in identities and g not in identities:
            factorisations[h] += 1
    gens: list[str] = []
    # made holds the composites of gens: it is closed under composition
    # once each member has been composed with every earlier one both ways.
    # The indecomposables, with no factorisation, come first: each is taken.
    made: set[str] = set()
    leaving: dict[str, list[str]] = {}    # members of made by source
    arriving: dict[str, list[str]] = {}   # and by target
    for m in sorted(C.morphisms, key=factorisations.__getitem__):
        if m in made or m in identities:
            continue
        gens.append(m)
        todo = [m]
        while todo:
            x = todo.pop()
            if x not in made:
                made.add(x)
                leaving.setdefault(C.source[x], []).append(x)
                arriving.setdefault(C.target[x], []).append(x)
                todo += [C.compose[x, y] for y in arriving.get(C.source[x], ())]
                todo += [C.compose[y, x] for y in leaving.get(C.target[x], ())]
    found = tuple(gens)
    object.__setattr__(C, "_generators", found)
    return found


# ---------------------------------------------------------------------------
# partitions


def least_members(items: Sequence, links: Iterable[tuple[int, int]]) -> list:
    """For each of ``items``, the minimal item of its class in the partition
    joining ``items[i]`` with ``items[j]`` for each ``(i, j)`` in ``links``.

    The one union-find of the package (Tarjan 1975), run on positions: the
    items need only be mutually comparable.  Paths are halved, and the
    larger root is linked under the smaller, so a parent never comes after
    its child; one pass in position order then reads each root from its
    parent's and keeps the minimal item of each class.
    """
    parent = list(range(len(items)))
    for i, j in links:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]   # i skips to its grandparent
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    least = list(items)
    for k, x in enumerate(items):
        parent[k] = r = parent[parent[k]]
        if x < least[r]:
            least[r] = x
    return list(map(least.__getitem__, parent))


# ---------------------------------------------------------------------------
# the backtracking core of the exhaustive searches


class NodeBudget:
    """How many candidates a search may still try (``limit=None``: no
    limit); trying one more raises :class:`BudgetError` with ``message``,
    the search's ``kind`` and ``limit``, and ``reached`` one past it."""

    __slots__ = ("left", "limit", "message", "kind")

    def __init__(self, limit: int | None, message: str,
                 kind: str | None = None):
        self.left = math.inf if limit is None else limit
        self.limit = limit
        self.message = message
        self.kind = kind


def constraint_lists(n: int, constraints: Iterable[tuple]) -> list[list[tuple]]:
    """File constraints for :func:`backtrack` over ``n`` variables.

    Each constraint ``(table, key_slots, value_slot)`` requires
    ``table[key] == a[value_slot]``, where ``key`` is ``a[s]`` for a single
    key slot ``s`` and the tuple of ``a[s]`` for several.  Slots ``0..n-1``
    are the variables and slot ``-1 - j`` is constant ``j``.  A constraint
    is filed under its highest variable slot, so that it is checked exactly
    once, when its last variable is assigned; one on constants alone is
    dropped.
    """
    lists: list[list[tuple]] = [[] for _ in range(n)]
    for table, keys, value in constraints:
        last = max(value, *keys)
        if last >= 0:
            lists[last].append((table, itemgetter(*keys), value))
    return lists


def backtrack(candidates: list, constraints: list[list[tuple]],
              budget: NodeBudget, constants=()) -> Iterator[list]:
    """Yield every assignment that meets all constraints, in lexicographic
    order.

    Variable ``k`` takes its values from ``candidates[k]``, in order.  An
    assignment is a list holding the variables, then ``constants`` in
    reverse, so that slot ``-1 - j`` reads constant ``j``.
    ``constraints[k]`` comes from :func:`constraint_lists`.  Each candidate
    tried is one node of ``budget``.  The yielded list is reused, so copy
    what you keep.
    """
    n = len(candidates)
    a = [None] * n + list(reversed(constants))
    if not n:
        yield a
        return
    # A stack of candidate iterators rather than recursion, so that the
    # number of variables is not bounded by Python's recursion limit.
    left = budget.left
    pending = [iter(candidates[0])] + [None] * (n - 1)
    k = 0
    try:
        while k >= 0:
            for c in pending[k]:
                left -= 1
                if left < 0:
                    raise BudgetError(budget.message, budget.kind,
                                      budget.limit, budget.limit + 1)
                a[k] = c
                for table, key, value in constraints[k]:
                    if table[key(a)] != a[value]:
                        break
                else:
                    if k + 1 == n:
                        yield a
                    else:
                        k += 1
                        pending[k] = iter(candidates[k])
                        break
            else:
                k -= 1
    finally:
        budget.left = left


def _forced(pairs) -> dict | None:
    """The map sending each key to its value, or None if some key is sent
    to two values: the pinned candidates of a lifting search, None when the
    square's top contradicts itself along its left map."""
    out: dict = {}
    for key, value in pairs:
        if out.setdefault(key, value) != value:
            return None
    return out
