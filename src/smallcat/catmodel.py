"""Finite-scale tooling for the canonical model structure on categories.

Fibration and cofibration predicates are decided by brute force on the
tables; lifting problems are solved by exhaustive constrained functor
search.

Pushouts of categories and the bounded small object argument in
set-valued diagram categories live in :mod:`smallcat.soa`, which only the
code that factors or glues loads; their old names here
(``catmodel.bounded_soa``, ``catmodel.pushout_category``, ...) still work
through the module ``__getattr__``.
"""
from __future__ import annotations

from typing import Iterator

# Timed functions are called via their module: see the package docstring.
from . import fincat, moved
from .fincat import CatFunctor, _forced, compose_functors, record
from .search import _iter_functors, coproduct

# Read from smallcat.soa on first access.
__getattr__ = moved(globals(), soa="""
    PushoutResult SoaStageCell FactorizationResult pushout_category
    solve_diagram_lifting diagram_squares _unsolved_cells diagram_has_rlp
    bounded_soa""")

# standard and universal are reached at call time: lift and rlp skip them


@record(frozen=True)
class LiftingSquare:
    """A commuting square with left vertical ``i`` and right vertical ``p``.

    ``top: dom(i) -> dom(p)`` and ``bottom: cod(i) -> cod(p)`` must satisfy
    ``p . top == bottom . i``.
    """

    left: CatFunctor
    right: CatFunctor
    top: CatFunctor
    bottom: CatFunctor


def validate_square(sq: LiftingSquare) -> list[str]:
    errors = []
    for name, F in (("left", sq.left), ("right", sq.right),
                    ("top", sq.top), ("bottom", sq.bottom)):
        errs = fincat.validate_functor(F)
        if errs:
            errors.append(f"{name} invalid: {errs[0]}")
    if errors:
        return errors
    if sq.top.domain != sq.left.domain or sq.bottom.domain != sq.left.codomain \
            or sq.top.codomain != sq.right.domain \
            or sq.bottom.codomain != sq.right.codomain:
        return ["square endpoints do not match"]
    lhs = compose_functors(sq.right, sq.top)
    rhs = compose_functors(sq.bottom, sq.left)
    if lhs.ob_map != rhs.ob_map or lhs.mor_map != rhs.mor_map:
        return ["square does not commute"]
    return []


# ---------------------------------------------------------------------------
# predicates


def is_isofibration(p: CatFunctor) -> bool:
    """Every isomorphism out of a lifted object lifts with that source."""
    X, Y = p.domain, p.codomain
    lifts = {(X.source[phi], p.mor_map[phi])
             for phi in fincat.isomorphisms(X)}
    isos = fincat.isomorphisms(Y)
    return all((x, psi) in lifts for x in X.objects for psi in isos
               if Y.source[psi] == p.ob_map[x])


def is_injective_on_objects(i: CatFunctor) -> bool:
    return len(set(i.ob_map.values())) == len(i.domain.objects)


# ---------------------------------------------------------------------------
# lifting problems


def iter_liftings(sq: LiftingSquare,
                  node_budget: int | None = 2_000_000) -> Iterator[CatFunctor]:
    """Yield every diagonal filler of the square, in lexicographic order.

    One functor search over the fibre-compatible object images, so one
    ``node_budget`` bounds the whole search, not each choice of images."""
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

    ob_choices = {b: [fixed_ob[b]] if b in fixed_ob else
                  [x for x in X.objects if p.ob_map[x] == bottom.ob_map[b]]
                  for b in B.objects}

    def mor_filter(n: str, cand: str) -> bool:
        if n in forced_mor and cand != forced_mor[n]:
            return False
        return p.mor_map[cand] == bottom.mor_map[n]

    yield from _iter_functors(B, X, ob_choices=ob_choices,
                              mor_filter=mor_filter, node_budget=node_budget)


def solve_lifting(sq: LiftingSquare,
                  node_budget: int | None = 2_000_000) -> CatFunctor | None:
    """A diagonal making both triangles commute, or None (exhaustive)."""
    if validate_square(sq):
        raise ValueError("not a commuting square: " + "; ".join(validate_square(sq)))
    for h in iter_liftings(sq, node_budget):
        return h
    return None


def commuting_squares(i: CatFunctor, p: CatFunctor,
                      tops: list[CatFunctor], bottoms: list[CatFunctor]
                      ) -> Iterator[tuple[int, int]]:
    """Index pairs ``(t, b)`` with ``p . tops[t] == bottoms[b] . i``, in
    order."""
    bis = [compose_functors(bottom, i) for bottom in bottoms]
    for t, top in enumerate(tops):
        pt = compose_functors(p, top)
        for b, bi in enumerate(bis):
            if pt.ob_map == bi.ob_map and pt.mor_map == bi.mor_map:
                yield t, b


def enumerate_squares(i: CatFunctor, p: CatFunctor,
                      node_budget: int | None = 2_000_000) -> list[LiftingSquare]:
    """All commuting squares with ``i`` on the left and ``p`` on the right."""
    tops = list(_iter_functors(i.domain, p.domain, node_budget=node_budget))
    bottoms = list(_iter_functors(i.codomain, p.codomain, node_budget=node_budget))
    return [LiftingSquare(i, p, tops[t], bottoms[b])
            for t, b in commuting_squares(i, p, tops, bottoms)]


def _lifts_all(pairs, node_budget: int | None) -> bool:
    """Every square on every ``(i, p)`` in ``pairs`` has a diagonal."""
    return all(solve_lifting(sq, node_budget) is not None
               for i, p in pairs for sq in enumerate_squares(i, p, node_budget))


def has_rlp(test_maps: list[CatFunctor], p: CatFunctor,
            node_budget: int | None = 2_000_000) -> bool:
    """``p`` lifts against every square built on every map in ``test_maps``."""
    return _lifts_all(((i, p) for i in test_maps), node_budget)


def has_llp(i: CatFunctor, test_maps: list[CatFunctor],
            node_budget: int | None = 2_000_000) -> bool:
    return _lifts_all(((i, p) for p in test_maps), node_budget)


# ---------------------------------------------------------------------------
# generating sets for the canonical model structure (configuration data;
# validated against the isofibration oracle, not assumed)


def default_generating_cofibrations() -> list[CatFunctor]:
    """{empty -> pt, pt + pt -> arrow, parallel pair -> arrow}."""
    from .standard import (empty_category, parallel_pair, terminal_category,
                           walking_arrow)
    pt = terminal_category()
    arrow = walking_arrow()
    g0 = CatFunctor(empty_category(), pt, {}, {})
    two = coproduct(pt, pt)
    g1 = CatFunctor(two, arrow,
                    {"pt#0": "a", "pt#1": "b"},
                    {"id_pt#0": "id_a", "id_pt#1": "id_b"})
    pp = parallel_pair()
    g2 = CatFunctor(pp, arrow,
                    {"a": "a", "b": "b"},
                    {"id_a": "id_a", "id_b": "id_b", "f": "f", "g": "f"})
    return [g0, g1, g2]


def default_generating_acyclic_cofibrations() -> list[CatFunctor]:
    """{pt -> walking isomorphism}."""
    from .standard import terminal_category, walking_iso
    pt = terminal_category()
    E = walking_iso()
    return [CatFunctor(pt, E, {"pt": "a"}, {"id_pt": "id_a"})]
