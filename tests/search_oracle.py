"""The four backtracking searches as they were before the shared core.

Each search here carries its own ``consistent()``/``extend()`` pair.  They
are kept, unchanged, as the exhaustive reference that ``test_search``
compares :func:`smallcat.fincat.backtrack` and its constraint builders
against: the same results in the same order, and (for the three budgeted
searches) the same minimal node budget.  The lifting search is kept as it
was too, one functor search per choice of object images: the lifting
search now spends one budget on all the choices, so its minimal budget is
the sum of the per-choice ones.

Kept the same way: the natural-transformation enumeration as it was before
it ran on :func:`~smallcat.fincat.backtrack` (a product of the hom-sets,
refused past its size budget, then filtered), the fullness, faithfulness
and essential surjectivity tests as they were before they read
:func:`~smallcat.fincat.hom_index`, and the search for commuting squares
as it was before it compared coded composites.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterator

from smallcat import setval
from smallcat.cycops import TruncatedOperad, all_ext_perms, all_perms
from smallcat.fincat import (
    BudgetError,
    CatFunctor,
    FiniteCategory,
    NaturalTransformation,
    _forced,
)
from smallcat.setval import DiagramMap, SetDiagram


def _iter_functors(C: FiniteCategory, D: FiniteCategory,
                   fixed_ob: dict[str, str] | None = None,
                   mor_filter: Callable[[str, str], bool] | None = None,
                   node_budget: int | None = 2_000_000) -> Iterator[CatFunctor]:
    """Yield every functor ``C -> D`` in lexicographic order.

    ``fixed_ob`` pins object images; ``mor_filter(m, n)`` restricts morphism
    images.  Backtracking prunes with the composition table as soon as a
    constraint involves only assigned morphisms.
    """
    obs = list(C.objects)
    nonid = [m for m in C.morphisms if not C.is_identity(m)]
    nodes = 0

    def consistent(mor_map: dict[str, str], new: str) -> bool:
        comp, dcomp = C.compose, D.compose
        for a in mor_map:
            for f, g in ((new, a), (a, new)):
                if C.composable(f, g):
                    h = comp[(f, g)]
                    if h in mor_map and dcomp[(mor_map[f], mor_map[g])] != mor_map[h]:
                        return False
        for a in mor_map:
            for b in mor_map:
                if C.composable(a, b) and comp[(a, b)] == new:
                    if dcomp[(mor_map[a], mor_map[b])] != mor_map[new]:
                        return False
        return True

    def obj_choices(x: str):
        if fixed_ob and x in fixed_ob:
            return (fixed_ob[x],)
        return D.objects

    for ob_imgs in itertools.product(*(obj_choices(x) for x in obs)):
        ob_map = dict(zip(obs, ob_imgs))
        mor_map = {C.identity[x]: D.identity[ob_map[x]] for x in obs}
        if any(mor_filter and not mor_filter(C.identity[x], mor_map[C.identity[x]])
               for x in obs):
            continue

        def extend(k: int) -> Iterator[dict[str, str]]:
            nonlocal nodes
            if k == len(nonid):
                yield dict(mor_map)
                return
            m = nonid[k]
            for n in D.hom(ob_map[C.source[m]], ob_map[C.target[m]]):
                if mor_filter and not mor_filter(m, n):
                    continue
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise BudgetError("functor search exceeded node budget")
                mor_map[m] = n
                if consistent(mor_map, m):
                    yield from extend(k + 1)
                del mor_map[m]

        for mm in extend(0):
            yield CatFunctor(C, D, dict(ob_map), mm)


def lifting_choices(sq):
    """``catmodel.iter_liftings`` as it was up to its loop: the pinned object
    images and the morphism filter of each choice of object images, in
    order."""
    i, p, top, bottom = sq.left, sq.right, sq.top, sq.bottom
    A, B = i.domain, i.codomain
    X = p.domain

    fixed_ob = _forced((i.ob_map[a], top.ob_map[a]) for a in A.objects)
    forced_mor = _forced((i.mor_map[m], top.mor_map[m]) for m in A.morphisms)
    if fixed_ob is None or forced_mor is None:
        return
    for b in B.objects:
        if b in fixed_ob and p.ob_map[fixed_ob[b]] != bottom.ob_map[b]:
            return

    def obj_filter(b: str) -> list[str]:
        if b in fixed_ob:
            return [fixed_ob[b]]
        return [x for x in X.objects if p.ob_map[x] == bottom.ob_map[b]]

    def mor_filter(n: str, cand: str) -> bool:
        if n in forced_mor and cand != forced_mor[n]:
            return False
        return p.mor_map[cand] == bottom.mor_map[n]

    obs = list(B.objects)
    for combo in itertools.product(*(obj_filter(b) for b in obs)):
        yield dict(zip(obs, combo)), mor_filter


def iter_liftings(sq, node_budget: int | None = 2_000_000
                  ) -> Iterator[CatFunctor]:
    """``catmodel.iter_liftings`` as it was: one functor search, each with
    its own ``node_budget``, per choice of object images."""
    for pinned, mor_filter in lifting_choices(sq):
        yield from _iter_functors(sq.left.codomain, sq.right.domain,
                                  fixed_ob=pinned, mor_filter=mor_filter,
                                  node_budget=node_budget)


def enumerate_diagram_maps(X: SetDiagram, Y: SetDiagram,
                           node_budget: int = 2_000_000) -> list[DiagramMap]:
    """All diagram maps ``X -> Y``, by element-level backtracking."""
    C = X.shape
    if C != Y.shape:
        raise ValueError("shapes differ")
    variables = [(o, e) for o in C.objects for e in X.values[o]]
    assign: dict[tuple[str, str], str] = {}
    out: list[DiagramMap] = []
    nodes = 0

    out_edges: dict[str, list[str]] = {o: [] for o in C.objects}
    in_edges: dict[str, list[str]] = {o: [] for o in C.objects}
    for m in C.morphisms:
        out_edges[C.source[m]].append(m)
        in_edges[C.target[m]].append(m)

    def consistent(o: str, e: str, img: str) -> bool:
        for m in out_edges[o]:
            o2, e2 = C.target[m], X.action[m][e]
            if (o2, e2) == (o, e):
                if Y.action[m][img] != img:
                    return False
            elif (o2, e2) in assign and Y.action[m][img] != assign[(o2, e2)]:
                return False
        for m in in_edges[o]:
            o1 = C.source[m]
            for e1 in X.values[o1]:
                if X.action[m][e1] == e and (o1, e1) in assign:
                    if Y.action[m][assign[(o1, e1)]] != img:
                        return False
        return True

    def extend(k: int) -> Iterator[None]:
        nonlocal nodes
        if k == len(variables):
            comps: dict[str, dict[str, str]] = {o: {} for o in C.objects}
            for (o, e), img in assign.items():
                comps[o][e] = img
            out.append(DiagramMap(X, Y, comps))
            yield
            return
        o, e = variables[k]
        for img in Y.values[o]:
            nodes += 1
            if nodes > node_budget:
                raise BudgetError("diagram map search exceeded budget")
            if consistent(o, e, img):
                assign[(o, e)] = img
                yield from extend(k + 1)
                del assign[(o, e)]

    for _ in extend(0):
        pass
    return out


def solve_diagram_lifting(i: DiagramMap, p: DiagramMap,
                          top: DiagramMap, bottom: DiagramMap,
                          node_budget: int = 500_000) -> DiagramMap | None:
    """A filler for a commuting square of diagram maps, or None."""
    B, X = i.target, p.source
    shape = B.shape
    variables = [(o, e) for o in shape.objects for e in B.values[o]]
    forced: dict[tuple[str, str], str] = {}
    for o in shape.objects:
        for a in i.source.values[o]:
            b = i.components[o][a]
            want = top.components[o][a]
            if forced.get((o, b), want) != want:
                return None
            forced[(o, b)] = want
    assign: dict[tuple[str, str], str] = {}
    nodes = 0

    def consistent(o, e, img) -> bool:
        if p.components[o][img] != bottom.components[o][e]:
            return False
        for m in shape.morphisms:
            if shape.source[m] == o:
                o2, e2 = shape.target[m], B.action[m][e]
                if (o2, e2) == (o, e):
                    if X.action[m][img] != img:
                        return False
                elif (o2, e2) in assign and X.action[m][img] != assign[(o2, e2)]:
                    return False
            if shape.target[m] == o:
                o1 = shape.source[m]
                for e1 in B.values[o1]:
                    if B.action[m][e1] == e and (o1, e1) in assign:
                        if X.action[m][assign[(o1, e1)]] != img:
                            return False
        return True

    def extend(k: int):
        nonlocal nodes
        if k == len(variables):
            comps: dict[str, dict[str, str]] = {o: {} for o in shape.objects}
            for (o, e), img in assign.items():
                comps[o][e] = img
            yield DiagramMap(B, X, comps)
            return
        o, e = variables[k]
        candidates = [forced[(o, e)]] if (o, e) in forced else list(X.values[o])
        for img in candidates:
            nodes += 1
            if nodes > node_budget:
                raise BudgetError("diagram lifting search exceeded budget")
            if consistent(o, e, img):
                assign[(o, e)] = img
                yield from extend(k + 1)
                del assign[(o, e)]

    for h in extend(0):
        return h
    return None


def _enumerate_maps(P: TruncatedOperad, Q: TruncatedOperad,
                    source_ext: dict | None = None,
                    target_ext: dict | None = None) -> list[dict[int, dict[str, str]]]:
    """Backtracking enumeration of (cyclic) operad maps as raw map families."""
    A = P.arity_bound
    variables = [(n, x) for n in range(A + 1) for x in P.elements[n]]
    assign: dict[tuple[int, str], str] = {}
    arity = P.arity_of()
    out = []

    def consistent(n: int, x: str, img: str) -> bool:
        if n == 1 and x == P.unit and img != Q.unit:
            return False
        for s in all_perms(n):
            y = P.action[(n, s, x)]
            want = Q.action[(n, s, img)]
            if y == x:
                if want != img:
                    return False
            elif (n, y) in assign and want != assign[(n, y)]:
                return False
        if source_ext is not None:
            for s in all_ext_perms(n):
                y = source_ext[(n, s, x)]
                want = target_ext[(n, s, img)]
                if y == x:
                    if want != img:
                        return False
                elif (n, y) in assign and want != assign[(n, y)]:
                    return False
        me = (n, x)
        for (i, a, b), c in P.comp.items():
            ka, kb, kc = (arity[a], a), (arity[b], b), (arity[c], c)
            if me not in (ka, kb, kc):
                continue
            va = img if ka == me else assign.get(ka)
            vb = img if kb == me else assign.get(kb)
            vc = img if kc == me else assign.get(kc)
            if va is None or vb is None or vc is None:
                continue
            if Q.comp[(i, va, vb)] != vc:
                return False
        return True

    def extend(k: int):
        if k == len(variables):
            out.append({n: {x: assign[(n, x)] for x in P.elements[n]}
                        for n in range(A + 1)})
            return
        n, x = variables[k]
        for img in Q.elements[n]:
            if consistent(n, x, img):
                assign[(n, x)] = img
                extend(k + 1)
                del assign[(n, x)]

    extend(0)
    return out


def enumerate_naturals(F: CatFunctor, G: CatFunctor,
                       budget: int = 1_000_000) -> list[NaturalTransformation]:
    """All natural transformations ``F => G``, in lexicographic order."""
    if F.domain != G.domain or F.codomain != G.codomain:
        raise ValueError("parallel functors required")
    C, D = F.domain, F.codomain
    obs = list(C.objects)
    choices = [D.hom(F.ob_map[x], G.ob_map[x]) for x in obs]
    total = 1
    for ch in choices:
        total *= max(len(ch), 1)
        if total > budget:
            raise BudgetError("too many candidate transformations")
    out = []
    for combo in itertools.product(*choices):
        comp = dict(zip(obs, combo))
        if all(D.compose[(comp[C.target[m]], F.mor_map[m])]
               == D.compose[(G.mor_map[m], comp[C.source[m]])]
               for m in C.morphisms):
            out.append(NaturalTransformation(F, G, comp))
    return out


def is_full(F: CatFunctor) -> bool:
    C, D = F.domain, F.codomain
    for x in C.objects:
        for y in C.objects:
            images = {F.mor_map[m] for m in C.hom(x, y)}
            if not set(D.hom(F.ob_map[x], F.ob_map[y])) <= images:
                return False
    return True


def is_faithful(F: CatFunctor) -> bool:
    C = F.domain
    for x in C.objects:
        for y in C.objects:
            h = C.hom(x, y)
            if len({F.mor_map[m] for m in h}) != len(h):
                return False
    return True


def is_essentially_surjective(F: CatFunctor) -> bool:
    D = F.codomain
    hit = {F.ob_map[x] for x in F.domain.objects}
    for d in D.objects:
        if d in hit:
            continue
        if not any(any(D.is_iso(m) for m in D.hom(h, d)) for h in hit):
            return False
    return True


def diagram_squares(i: DiagramMap, p: DiagramMap,
                    node_budget: int = 500_000
                    ) -> list[tuple[DiagramMap, DiagramMap]]:
    """All commuting squares (top, bottom) from ``i`` to ``p``."""
    tops = setval.enumerate_diagram_maps(i.source, p.source, node_budget)
    bottoms = setval.enumerate_diagram_maps(i.target, p.target, node_budget)
    bis = [(bottom, setval.compose_diagram_maps(bottom, i).key())
           for bottom in bottoms]
    out = []
    for top in tops:
        pt = setval.compose_diagram_maps(p, top).key()
        out += [(top, bottom) for bottom, bi in bis if bi == pt]
    return out
