"""Functor enumeration: the search over finite categories that the
lifting commands run.

It runs on :func:`smallcat.searchcore.backtrack`: the non-identity
morphisms are the variables, and every composite of the domain is a
constraint.

Only the commands that search (``lift``, ``rlp``, the paper suite) and
documents with an ``involution`` block load this module.  Products,
coproducts, cores, natural transformations, the equivalence tests and the
isomorphism search live in :mod:`smallcat.equivalence`, and the bounded
word closure that completes a category from generators and relations in
:mod:`smallcat.closure`.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from .fincat import BudgetError, CatFunctor, FiniteCategory, hom_index
from .searchcore import NodeBudget, backtrack, constraint_lists


# ---------------------------------------------------------------------------
# functor enumeration


def _iter_functors(C: FiniteCategory, D: FiniteCategory,
                   ob_choices: dict[str, Sequence[str]] | None = None,
                   mor_filter: Callable[[str, str], bool] | None = None,
                   node_budget: int | None = 2_000_000) -> Iterator[CatFunctor]:
    """Yield every functor ``C -> D`` in lexicographic order.

    ``ob_choices[x]``, where given, lists the candidate images of object
    ``x`` in order (all of ``D.objects`` otherwise); ``mor_filter(m, n)``
    restricts morphism images.  For each choice of object images,
    :func:`backtrack` assigns the non-identity morphisms; every composite
    ``f g = h`` of ``C`` is a constraint ``D.compose[(F f, F g)] == F h``,
    with identity images as constants.  One node budget covers every
    choice.
    """
    obs = list(C.objects)
    nonid = [m for m in C.morphisms if not C.is_identity(m)]
    n = len(nonid)
    slot = {m: k for k, m in enumerate(nonid)}
    slot.update((C.identity[x], -1 - j) for j, x in enumerate(obs))
    constraints = constraint_lists(n, (
        (D.compose, (slot[f], slot[g]), slot[h])
        for (f, g), h in C.compose.items()))
    hom = hom_index(D)
    budget = NodeBudget(node_budget, "functor search exceeded node budget",
                        "functor_search")
    ob_choices = ob_choices or {}
    for ob_imgs in itertools.product(*(ob_choices.get(x, D.objects)
                                       for x in obs)):
        ob_map = dict(zip(obs, ob_imgs))
        ids = [D.identity[y] for y in ob_imgs]
        if mor_filter and not all(mor_filter(C.identity[x], i)
                                  for x, i in zip(obs, ids)):
            continue
        candidates = [hom.get((ob_map[C.source[m]], ob_map[C.target[m]]), ())
                      for m in nonid]
        if mor_filter:
            candidates = [[c for c in cs if mor_filter(m, c)]
                          for m, cs in zip(nonid, candidates)]
        for a in backtrack(candidates, constraints, budget, ids):
            mor_map = {C.identity[x]: i for x, i in zip(obs, ids)}
            mor_map.update(zip(nonid, a))
            yield CatFunctor(C, D, dict(ob_map), mor_map)


def enumerate_functors(C: FiniteCategory, D: FiniteCategory,
                       max_results: int = 100_000,
                       node_budget: int | None = 2_000_000) -> list[CatFunctor]:
    """All functors ``C -> D``, duplicate-free, in lexicographic order."""
    out = []
    for F in _iter_functors(C, D, node_budget=node_budget):
        out.append(F)
        if len(out) > max_results:
            raise BudgetError("too many functors", "functor_count",
                              max_results, len(out))
    return out
