"""Pushouts of categories and the bounded small object argument.

Pushouts of categories glue objects and letters with
:func:`~smallcat.fincat.least_members` and are completed by a bounded
word closure (:mod:`smallcat.closure`; they can be infinite, so the
computation fails loudly past its budget).  The bounded small object argument factors a map
of set-valued diagrams against a set of generating maps, gluing on the
unsolved lifting problems of each stage by a level-wise pushout; lifting
problems between diagram maps are solved by one coded search.

Every name here is also reachable as an attribute of
:mod:`smallcat.catmodel`, where it lived before; only ``smallcat soa``
and the code that factors or glues loads this module.
"""
from __future__ import annotations

from operator import getitem, itemgetter
from typing import Iterator

from . import setval
from .fincat import (
    CatFunctor,
    FiniteCategory,
    NodeBudget,
    _forced,
    backtrack,
    field,
    least_members,
    record,
)
from .setval import DiagramMap, SetDiagram

# closure is imported by the function that calls it: the small object
# argument never runs the word closure


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


# ---------------------------------------------------------------------------
# pushouts of categories


def pushout_category(i: CatFunctor, f: CatFunctor,
                     max_morphisms: int = 400,
                     max_word_len: int = 10) -> PushoutResult:
    """The pushout of ``cod(i) <-i- A -f-> cod(f)`` by bounded word closure.

    Raises :class:`BudgetError` if the closure exceeds its budget (pushouts
    in the category of categories can be infinite).
    """
    from .closure import bounded_closure
    if i.domain != f.domain:
        raise ValueError("pushout legs must share their domain")
    A, B, C = i.domain, i.codomain, f.codomain

    # glue objects, then letters; each class is named by its least label
    sides = {"B": B, "C": C}
    ob_label = _glue(B.objects, C.objects,
                     [(i.ob_map[a], f.ob_map[a]) for a in A.objects])
    letter_label = _glue(B.morphisms, C.morphisms,
                         [(i.mor_map[m], f.mor_map[m]) for m in A.morphisms])
    objects = sorted(set(ob_label.values()))
    members: dict[str, list[tuple[str, str]]] = {}
    for key, lab in letter_label.items():
        members.setdefault(lab, []).append(key)

    letters: dict[str, tuple[str, str]] = {}
    identity_letters: set[str] = set()
    for lab, mem in members.items():
        side, m = mem[0]
        S = sides[side]
        letters[lab] = (ob_label[side, S.source[m]],
                        ob_label[side, S.target[m]])
        if any(sides[s].is_identity(mm) for s, mm in mem):
            identity_letters.add(lab)

    rules: dict[tuple[str, str], set[str]] = {}
    for side, S in sides.items():
        for (m1, m2), m3 in S.compose.items():
            key = (letter_label[side, m1], letter_label[side, m2])
            rules.setdefault(key, set()).add(letter_label[side, m3])

    cat, letter_map = bounded_closure(objects, letters, rules,
                                      identity_letters,
                                      max_morphisms, max_word_len)
    from_left = CatFunctor(B, cat,
                           {x: ob_label["B", x] for x in B.objects},
                           {m: letter_map[letter_label["B", m]]
                            for m in B.morphisms})
    from_right = CatFunctor(C, cat,
                            {x: ob_label["C", x] for x in C.objects},
                            {m: letter_map[letter_label["C", m]]
                             for m in C.morphisms})
    return PushoutResult(cat, from_left, from_right)


def _glue(left, right, pairs: list[tuple[str, str]]
          ) -> dict[tuple[str, str], str]:
    """The label of the class of each ``("B", x)``, ``x`` in ``left``, and
    each ``("C", y)``, ``y`` in ``right``, in the partition joining
    ``("B", b)`` with ``("C", c)`` for each ``(b, c)`` in ``pairs``: the
    least ``side:x`` of its members."""
    keys = [("B", x) for x in left] + [("C", y) for y in right]
    at = {key: k for k, key in enumerate(keys)}
    return dict(zip(keys, least_members(
        [f"{s}:{x}" for s, x in keys],
        [(at["B", b], at["C", c]) for b, c in pairs])))


# ---------------------------------------------------------------------------
# bounded small object argument in diagram categories


def solve_diagram_lifting(i: DiagramMap, p: DiagramMap,
                          top: DiagramMap, bottom: DiagramMap,
                          node_budget: int = 500_000) -> DiagramMap | None:
    """A filler for a commuting square of diagram maps, or None: the first
    map ``cod(i) -> dom(p)`` of the coded search that agrees with ``top``
    on the image of ``i`` and lies over ``bottom``."""
    from .coded import _code, _map_search, _squares
    from .universal import _decode_map
    B, X = i.target, p.source
    forced = _forced(((o, i.components[o][a]), top.components[o][a])
                     for o in B.shape.objects for a in i.source.values[o])
    if forced is None:
        return None
    S = _code(B)
    candidates, checks = _map_search(S, _code(X), _squares(S))
    over = {o: tuple(map(p.components[o].__getitem__, vs))
            for o, vs in X.values.items()}
    slots = [(o, e) for o in B.shape.objects for e in B.values[o]]
    for k, (o, e) in enumerate(slots):
        if (o, e) in forced:
            candidates[k] = (X.values[o].index(forced[o, e]),)
        # p of the image of e is bottom(e), the constant at slot -1 - k
        checks[k].append((over[o], itemgetter(k), -1 - k))
    budget = NodeBudget(node_budget, "diagram lifting search exceeded budget",
                        "diagram_lifting")
    a = next(backtrack(candidates, checks, budget,
                       [bottom.components[o][e] for o, e in slots]), None)
    return None if a is None else _decode_map(B, X, a)


def diagram_squares(i: DiagramMap, p: DiagramMap,
                    node_budget: int = 500_000
                    ) -> list[tuple[DiagramMap, DiagramMap]]:
    """All commuting squares (top, bottom) from ``i`` to ``p``, by top, then
    by bottom: both hom-sets are searched on codes, each under
    ``node_budget``, ``p . top`` and ``bottom . i`` are compared as codes,
    and only the squares found are decoded."""
    from .coded import _code, _maps, _squares
    from .universal import _decode_map
    A, B, X, Y = i.source, i.target, p.source, p.target
    tops, found = (_maps(S, _code(T), _squares(S), node_budget)
                   for S, T in ((_code(A), X), (_code(B), Y)))
    slot = {pair: k for k, pair in enumerate(
        (o, e) for o in B.shape.objects for e in B.values[o])}
    # per slot of a top: the slot of its image under i, and p's codes there
    at, over = [], []
    for o in A.shape.objects:
        code = {y: j for j, y in enumerate(Y.values[o])}
        table = tuple([code[p.components[o][x]] for x in X.values[o]])
        for a in A.values[o]:
            at.append(slot[o, i.components[o][a]])
            over.append(table)
    bottoms: dict[tuple, list] = {}
    for b in found:
        bottoms.setdefault(tuple([b[k] for k in at]), []).append(b)
    out = []
    for t in tops:
        fits = bottoms.get(tuple(map(getitem, over, t)), ())
        if fits:
            top = _decode_map(A, X, t)
            out += [(top, _decode_map(B, Y, b)) for b in fits]
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
    within ``max_stages``, which must be at least 0.
    """
    if max_stages < 0:
        raise ValueError(f"max_stages {max_stages} is not an integer of "
                         f"at least 0")
    current = f.source
    left = setval.identity_diagram_map(f.source)
    remainder = f
    cells: list[list[SoaStageCell]] = []
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
    saturated = diagram_has_rlp(gens, remainder, node_budget)
    return FactorizationResult(current, left, remainder, len(cells),
                               saturated, cells)
