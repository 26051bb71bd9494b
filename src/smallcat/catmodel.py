"""Finite-scale tooling for the canonical model structure on categories.

Fibration and cofibration predicates are decided by brute force on the
tables; lifting problems are solved by exhaustive constrained functor
search.  Pushouts of categories are completed by a bounded word closure
(they can be infinite, so the computation fails loudly past its budget),
and a bounded small object argument is provided for set-valued diagram
categories, where pushouts are computed level-wise.
"""
from __future__ import annotations

from typing import Iterator

# Timed functions are called via their module: see the package docstring.
from . import fincat, setval
from .fincat import (
    CatFunctor,
    FiniteCategory,
    NodeBudget,
    Partition,
    compose_functors,
    field,
    record,
)
from .search import _iter_functors, bounded_closure, coproduct
from .setval import DiagramMap, SetDiagram

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


@record(frozen=True)
class PushoutResult:
    category: FiniteCategory
    from_left: CatFunctor    # cod(i) -> pushout
    from_right: CatFunctor   # cod(f) -> pushout


@record
class SoaStageCell:
    """One attached cell: generator index plus its attaching square."""

    generator: int
    attach: DiagramMap    # dom(I[k]) -> current stage
    against: DiagramMap   # cod(I[k]) -> codomain of the map being factored


@record
class FactorizationResult:
    middle: SetDiagram
    left: DiagramMap           # cellular part
    right: DiagramMap          # remainder
    stages: int
    saturated: bool
    cells: list[list[SoaStageCell]] = field(default_factory=list)


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
    for x in X.objects:
        px = p.ob_map[x]
        for psi in Y.morphisms:
            if Y.source[psi] != px or not Y.is_iso(psi):
                continue
            found = False
            for phi in X.morphisms:
                if (X.source[phi] == x and X.is_iso(phi)
                        and p.mor_map[phi] == psi):
                    found = True
                    break
            if not found:
                return False
    return True


def is_injective_on_objects(i: CatFunctor) -> bool:
    return len(set(i.ob_map.values())) == len(i.domain.objects)


# ---------------------------------------------------------------------------
# lifting problems


def _forced(pairs) -> dict | None:
    """The map sending each key to its value, or None if some key is sent
    to two values (the square's top contradicts itself along ``i``)."""
    out: dict = {}
    for key, value in pairs:
        if out.setdefault(key, value) != value:
            return None
    return out


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


# ---------------------------------------------------------------------------
# pushouts of categories


def pushout_category(i: CatFunctor, f: CatFunctor,
                     max_morphisms: int = 400,
                     max_word_len: int = 10) -> PushoutResult:
    """The pushout of ``cod(i) <-i- A -f-> cod(f)`` by bounded word closure.

    Raises :class:`BudgetError` if the closure exceeds its budget (pushouts
    in the category of categories can be infinite).
    """
    if i.domain != f.domain:
        raise ValueError("pushout legs must share their domain")
    A, B, C = i.domain, i.codomain, f.codomain

    # glue objects, then letters; each class is named by its least label
    sides = {"B": B, "C": C}
    ob_classes = Partition(f"{s}:{x}" for s, S in sides.items()
                           for x in S.objects)
    for a in A.objects:
        ob_classes.union(f"B:{i.ob_map[a]}", f"C:{f.ob_map[a]}")
    keys = [(s, m) for s, S in sides.items() for m in S.morphisms]
    letter_classes = Partition(f"{s}:{m}" for s, m in keys)
    for m in A.morphisms:
        letter_classes.union(f"B:{i.mor_map[m]}", f"C:{f.mor_map[m]}")

    def ob_label(side, x):
        return ob_classes.find(f"{side}:{x}")

    def letter_label(side, m):
        return letter_classes.find(f"{side}:{m}")

    objects = sorted({ob_label(s, x) for s, S in sides.items()
                      for x in S.objects})
    members: dict[str, list[tuple[str, str]]] = {}
    for key in keys:
        members.setdefault(letter_label(*key), []).append(key)

    letters: dict[str, tuple[str, str]] = {}
    identity_letters: set[str] = set()
    for lab, mem in members.items():
        side, m = mem[0]
        S = sides[side]
        letters[lab] = (ob_label(side, S.source[m]),
                        ob_label(side, S.target[m]))
        if any(sides[s].is_identity(mm) for s, mm in mem):
            identity_letters.add(lab)

    rules: dict[tuple[str, str], set[str]] = {}
    for side, S in sides.items():
        for (m1, m2), m3 in S.compose.items():
            key = (letter_label(side, m1), letter_label(side, m2))
            rules.setdefault(key, set()).add(letter_label(side, m3))

    cat, letter_map = bounded_closure(objects, letters, rules,
                                      identity_letters,
                                      max_morphisms, max_word_len)
    from_left = CatFunctor(B, cat,
                           {x: ob_label("B", x) for x in B.objects},
                           {m: letter_map[letter_label("B", m)]
                            for m in B.morphisms})
    from_right = CatFunctor(C, cat,
                            {x: ob_label("C", x) for x in C.objects},
                            {m: letter_map[letter_label("C", m)]
                             for m in C.morphisms})
    return PushoutResult(cat, from_left, from_right)


# ---------------------------------------------------------------------------
# bounded small object argument in diagram categories


def solve_diagram_lifting(i: DiagramMap, p: DiagramMap,
                          top: DiagramMap, bottom: DiagramMap,
                          node_budget: int = 500_000) -> DiagramMap | None:
    """A filler for a commuting square of diagram maps, or None."""
    B, X = i.target, p.source
    forced = _forced(((o, i.components[o][a]), top.components[o][a])
                     for o in B.shape.objects for a in i.source.values[o])
    if forced is None:
        return None
    budget = NodeBudget(node_budget, "diagram lifting search exceeded budget")
    return next(setval._iter_diagram_maps(B, X, budget, forced, (p, bottom)),
                None)


def diagram_squares(i: DiagramMap, p: DiagramMap,
                    node_budget: int = 500_000
                    ) -> list[tuple[DiagramMap, DiagramMap]]:
    """All commuting squares (top, bottom) from ``i`` to ``p``."""
    tops = setval.enumerate_diagram_maps(i.source, p.source, node_budget)
    bottoms = setval.enumerate_diagram_maps(i.target, p.target, node_budget)
    out = []
    for top in tops:
        pt = setval.compose_diagram_maps(p, top)
        for bottom in bottoms:
            if pt.key() == setval.compose_diagram_maps(bottom, i).key():
                out.append((top, bottom))
    return out


def _unsolved_cells(gens: list[DiagramMap], p: DiagramMap,
                    node_budget: int) -> Iterator[SoaStageCell]:
    """Every square on ``gens[k]`` against ``p`` without a filler, in order."""
    for k, i in enumerate(gens):
        for top, bottom in diagram_squares(i, p, node_budget):
            if solve_diagram_lifting(i, p, top, bottom, node_budget) is None:
                yield SoaStageCell(k, top, bottom)


def diagram_has_rlp(gens: list[DiagramMap], p: DiagramMap,
                    node_budget: int = 500_000) -> bool:
    return next(_unsolved_cells(gens, p, node_budget), None) is None


def bounded_soa(gens: list[DiagramMap], f: DiagramMap,
                max_stages: int,
                node_budget: int = 500_000) -> FactorizationResult:
    """Bounded small object argument for ``f`` against the maps ``gens``.

    Each stage glues on the coproduct of all currently unsolved lifting
    problems via a level-wise pushout (squares that already admit a filler
    pose no problem and are skipped, so the procedure can stabilize in
    finitely many stages).  Stops early once the remainder has the right
    lifting property; the ``saturated`` flag records whether that happened
    within ``max_stages``.
    """
    current = f.source
    left = setval.identity_diagram_map(f.source)
    remainder = f
    cells: list[list[SoaStageCell]] = []
    stages = 0
    for _ in range(max_stages):
        stage_cells = list(_unsolved_cells(gens, remainder, node_budget))
        if not stage_cells:
            break
        shape = current.shape
        dom_sum, dom_inj = setval.coproduct_diagrams(
            [gens[c.generator].source for c in stage_cells])
        cod_sum, cod_inj = setval.coproduct_diagrams(
            [gens[c.generator].target for c in stage_cells])
        sum_gen = DiagramMap(dom_sum, cod_sum, {
            o: {dom_inj[k].components[o][e]:
                cod_inj[k].components[o][gens[c.generator].components[o][e]]
                for k, c in enumerate(stage_cells)
                for e in gens[c.generator].source.values[o]}
            for o in shape.objects})
        attach = DiagramMap(dom_sum, current, {
            o: {dom_inj[k].components[o][e]: stage_cells[k].attach.components[o][e]
                for k in range(len(stage_cells))
                for e in gens[stage_cells[k].generator].source.values[o]}
            for o in shape.objects})
        new, from_current, from_cells = setval.diagram_pushout(attach,
                                                               sum_gen)
        q_comps = {}
        for o in shape.objects:
            comp = {}
            for e in current.values[o]:
                comp[from_current.components[o][e]] = remainder.components[o][e]
            for k, c in enumerate(stage_cells):
                gen = gens[c.generator]
                for e in gen.target.values[o]:
                    tag = from_cells.components[o][cod_inj[k].components[o][e]]
                    want = c.against.components[o][e]
                    if comp.get(tag, want) != want:
                        raise AssertionError("inconsistent remainder after pushout")
                    comp[tag] = want
            q_comps[o] = comp
        remainder = DiagramMap(new, f.target, q_comps)
        left = setval.compose_diagram_maps(from_current, left)
        current = new
        cells.append(stage_cells)
        stages += 1
    saturated = diagram_has_rlp(gens, remainder, node_budget)
    return FactorizationResult(current, left, remainder, stages,
                               saturated, cells)
