"""The right adjoint to the forgetful functor from cyclic operads to
operads, and operad maps.

Its value on ``P`` has ``(n+1)``-tuples of ``P(n)`` elements in arity
``n``, compositions given coordinatewise by a three-case splice formula,
and the extended action by an index-shuffling formula whose modular
representative is pinned down by exhaustive validation of the axioms.
Tables are computed on ``P``'s element codes by :func:`_right_adjoint_core`.
``smallcat cyclic`` and the paper suite's ``cyclic`` case check that core
(:func:`check_right_adjoint`); :func:`right_adjoint_R` renders it for the
map reports.

Also here: truncation and the forgetful functor, validation and
enumeration of (cyclic) operad maps, the hom-count and product reports,
and the standard operads: terminal, associative and monoid.  Every name
here is also reachable as an attribute of :mod:`smallcat.cycops`, where
it lived before; only ``smallcat cyclic`` and the paper suite load this
module.
"""
from __future__ import annotations

import itertools
from itertools import chain

# Timed functions are called via their module: see the package docstring.
from . import cycops
from .cycops import (
    CyclicOperadMap,
    OperadMap,
    TruncatedCyclicOperad,
    TruncatedOperad,
    _action_rows,
    _columns,
    _comp_tables,
    _rows,
    all_ext_perms,
    all_perms,
    ext_of_perm,
    perm_compose,
)
from .fincat import (
    NodeBudget,
    backtrack,
    constraint_lists,
    distinct,
    field,
    record,
)


# ---------------------------------------------------------------------------
# the right adjoint to the forgetful functor


def _tuple_name(parts: tuple[str, ...]) -> str:
    return "(" + ",".join(parts) + ")"


def _tuples(P: TruncatedOperad) -> dict[int, dict[str, tuple[str, ...]]]:
    """Each arity ``n`` of the right adjoint on ``P``: every ``(n+1)``-tuple
    of ``P(n)`` elements, keyed by its name.  Raises :class:`ValueError` when
    two tuples, of one arity or of two, render to one name."""
    tuples = {n: list(itertools.product(P.elements[n], repeat=n + 1))
              for n in range(P.arity_bound + 1)}
    names = {n: list(map(_tuple_name, ts)) for n, ts in tuples.items()}
    distinct(list(chain.from_iterable(names.values())),
             "tuple identifier {} names two tuples")
    return {n: dict(zip(names[n], tuples[n])) for n in tuples}


class SigmaIndexError(ValueError):
    """The induced index permutation left its expected range."""


def _sigma_i(sigma: tuple[int, ...], i: int, n: int) -> tuple[int, ...]:
    """The permutation of {1..n} given by
    ``k -> sigma(k - i) - sigma(n + 1 - i)  (mod n+1)``."""
    base = sigma[(n + 1 - i) % (n + 1)]
    out = []
    for k in range(1, n + 1):
        v = (sigma[(k - i) % (n + 1)] - base) % (n + 1)
        if not 1 <= v <= n:
            raise SigmaIndexError(
                f"index permutation escapes range at (sigma={sigma}, i={i}, k={k})")
        out.append(v)
    return tuple(out)


def _right_adjoint_core(P: TruncatedOperad):
    """The right adjoint on ``P`` as the arguments of
    :func:`cycops._check_coded`, each entry a position in its arity (the
    unit is ``None`` if ``P``'s is not in arity 1).

    Arity ``n`` is the set of ``(n+1)``-tuples of ``P(n)`` elements.  The
    partial composition splices coordinatewise in three ranges, the
    extended action permutes and twists coordinates, and the unit doubles
    the unit of ``P``.  Raises :class:`ValueError` when a table of ``P``
    has a gap or an escape, or when two tuples render to one name.
    """
    A = P.arity_bound
    decode = _tuples(P)
    code = {n: {x: k for k, x in enumerate(P.elements[n])} for n in range(A + 1)}
    errors: list[str] = []
    Pcomp = _comp_tables(P, code, errors)
    Prows = _action_rows(P, code, P.action, all_perms, "action", errors)
    if errors:
        raise ValueError(f"right adjoint of a partial operad: {errors[0]}")
    elements, parts, pos = {}, {}, {}
    for n in range(A + 1):
        # the names and the codes of the tuples, both in product order
        names = list(decode[n])
        codes = list(itertools.product(range(len(P.elements[n])), repeat=n + 1))
        order = sorted(range(len(names)), key=names.__getitem__)
        elements[n] = tuple(map(names.__getitem__, order))
        parts[n] = list(map(codes.__getitem__, order))
        pos[n] = {x: k for k, x in enumerate(parts[n])}

    comp = {}
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            r = m + n - 1
            if r > A:
                continue
            width = len(parts[n])
            by_rows = width > len(parts[m])
            pcols, qcols = _columns(parts[m], m + 1), _columns(parts[n], n + 1)
            for i in range(1, m + 1):
                # coordinate j of p o_i q is p[v] o_k q[u], or q[u] o_k p[v]
                # when the flag is set, in the table F of P's o_k
                recipe = [(Pcomp[i + j, m, n], 0, j, False) if j <= m - i else
                          (Pcomp[i + j - m, n, m], i + j - m, m + 1 - i, True)
                          if j <= m + n - i else
                          (Pcomp[i + j - m - n, m, n], 0, j - n + 1, False)
                          for j in range(r + 1)]
                # along the longer side: each row lists p o_i q over q, for
                # one p, or each column over p, for one q
                if by_rows:
                    rows = [list(map(pos[r].__getitem__, zip(*[
                        map(F[2 if flip else 1][p[v]].__getitem__, qcols[u])
                        for F, u, v, flip in recipe]))) for p in parts[m]]
                    flat = list(chain.from_iterable(rows))
                    comp[i, m, n] = flat, rows, _columns(rows, width)
                    continue
                cols = [list(map(pos[r].__getitem__, zip(*[
                    map(F[1 if flip else 2][q[u]].__getitem__, pcols[v])
                    for F, u, v, flip in recipe]))) for q in parts[n]]
                flat = list(chain.from_iterable(zip(*cols)))
                comp[i, m, n] = flat, _rows(flat, width, len(parts[m])), cols

    rows, extended = {}, {}
    for n in range(A + 1):
        cols = _columns(parts[n], n + 1)
        ident = list(range(len(P.elements[n])))
        extended[n] = {}
        for sigma in all_ext_perms(n):
            # coordinate i of x.sigma is x[src] acted on by sigma_i
            coords = [map((Prows[n][_sigma_i(sigma, i, n)] if n else ident).__getitem__,
                          cols[(n + 1 - sigma[(n + 1 - i) % (n + 1)]) % (n + 1)])
                      for i in range(n + 1)]
            extended[n][sigma] = list(map(pos[n].__getitem__, zip(*coords)))
        rows[n] = {s: extended[n][ext_of_perm(s)] for s in all_perms(n)}
    u = code.get(1, {}).get(P.unit)
    return elements, pos.get(1, {}).get((u, u)), comp, rows, extended


def right_adjoint_R(P: TruncatedOperad) -> TruncatedCyclicOperad:
    """The value of the right adjoint on ``P``: :func:`_right_adjoint_core`
    rendered as name-keyed tables."""
    elements, _, comp, rows, extended = _right_adjoint_core(P)
    A = P.arity_bound
    named = {}
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            if m + n - 1 <= A:
                named.update(zip(
                    [(i, pn, qn) for pn in elements[m] for qn in elements[n]
                     for i in range(1, m + 1)],
                    map(elements[m + n - 1].__getitem__, chain.from_iterable(
                        zip(*[comp[i, m, n][0] for i in range(1, m + 1)])))))

    def render(table):
        return {(n, s, x): elements[n][y] for n in range(A + 1)
                for s, row in table[n].items() for x, y in zip(elements[n], row)}
    unit = _tuple_name((P.unit, P.unit))
    RP = TruncatedOperad(A, elements, unit, named, render(rows))
    return TruncatedCyclicOperad(RP, render(extended))


def check_right_adjoint(P: TruncatedOperad) -> tuple[dict[int, int], list[str]]:
    """The size of each arity of the right adjoint on ``P`` and its errors
    under :func:`cycops.validate_cyclic`, read off the unrendered core."""
    core = _right_adjoint_core(P)
    return ({n: len(xs) for n, xs in core[0].items()},
            cycops._check_coded(*core))


def restricted_action_matches(Q: TruncatedCyclicOperad) -> list[str]:
    """The extended action at permutations fixing 0 must be the operad
    action; :func:`cycops.validate_cyclic` checks this on codes."""
    P = Q.operad
    return [f"restriction differs at ({n},{s},{x})"
            for n in range(P.arity_bound + 1) for s in all_perms(n)
            for x in P.elements[n]
            if Q.extended.get((n, ext_of_perm(s), x)) != P.action[n, s, x]]


def right_adjoint_R_map(g: OperadMap) -> CyclicOperadMap:
    """The right adjoint on maps: coordinatewise application."""
    RQ = cycops.right_adjoint_R(g.source)
    RQ2 = cycops.right_adjoint_R(g.target)
    parts = _tuples(g.source)
    maps = {n: {xn: _tuple_name(tuple(g.maps[n][p] for p in parts[n][xn]))
                for xn in RQ.operad.elements[n]}
            for n in range(g.source.arity_bound + 1)}
    return CyclicOperadMap(RQ, RQ2, maps)


def truncate_operad(P: TruncatedOperad, bound: int) -> TruncatedOperad:
    """Forget arities above ``bound`` (a smaller verification budget)."""
    _check_unit_arity(bound)
    if bound >= P.arity_bound:
        return P
    arity = P.arity_of()
    return TruncatedOperad(
        bound,
        {n: P.elements[n] for n in range(bound + 1)},
        P.unit,
        {(i, a, b): c for (i, a, b), c in P.comp.items()
         if arity[a] + arity[b] - 1 <= bound},
        {(n, s, x): y for (n, s, x), y in P.action.items() if n <= bound},
    )


def forget_cyclic(Q: TruncatedCyclicOperad) -> TruncatedOperad:
    """Drop the extended action."""
    return Q.operad


def forget_cyclic_map(f: CyclicOperadMap) -> OperadMap:
    return OperadMap(f.source.operad, f.target.operad,
                     {n: dict(c) for n, c in f.maps.items()})


# ---------------------------------------------------------------------------
# map validation and enumeration


def validate_operad_map(h: OperadMap) -> list[str]:
    P, Q = h.source, h.target
    errors = []
    if P.arity_bound != Q.arity_bound:
        return ["arity bounds differ"]
    A = P.arity_bound
    for n in range(A + 1):
        comp = h.maps.get(n)
        if comp is None or set(comp) != set(P.elements[n]) \
                or not set(comp.values()) <= set(Q.elements[n]):
            errors.append(f"arity {n}: not a function into the target")
    if errors:
        return errors
    if h.maps[1][P.unit] != Q.unit:
        errors.append("unit not preserved")
    arity = P.arity_of()
    for (i, a, b), c in P.comp.items():
        m, n = arity[a], arity[b]
        if Q.comp[(i, h.maps[m][a], h.maps[n][b])] != h.maps[m + n - 1][c]:
            errors.append(f"composition not preserved at ({i},{a},{b})")
    for (n, s, x), y in P.action.items():
        if Q.action[(n, s, h.maps[n][x])] != h.maps[n][y]:
            errors.append(f"action not preserved at ({n},{s},{x})")
    return errors


def validate_cyclic_map(h: CyclicOperadMap) -> list[str]:
    errors = validate_operad_map(forget_cyclic_map(h))
    if errors:
        return errors
    for (n, s, x), y in h.source.extended.items():
        if h.target.extended[(n, s, h.maps[n][x])] != h.maps[n][y]:
            errors.append(f"extended action not preserved at ({n},{s},{x})")
    return errors


def _enumerate_maps(P: TruncatedOperad, Q: TruncatedOperad,
                    source_ext: dict | None = None,
                    target_ext: dict | None = None,
                    node_budget: int = 2_000_000) -> list[dict[int, dict[str, str]]]:
    """Backtracking enumeration of (cyclic) operad maps as raw map families.

    Each element ``x`` of ``P(n)`` is a variable with candidates ``Q(n)``
    (only ``Q``'s unit for ``P``'s unit).  The constraints say that the map
    commutes with the actions, the extended actions when given, and the
    partial compositions.
    """
    arities = range(P.arity_bound + 1)
    variables = [(n, x) for n in arities for x in P.elements[n]]
    slot = {v: k for k, v in enumerate(variables)}
    consts: dict = {}

    def const(value) -> int:
        return consts.setdefault(value, -1 - len(consts))

    arity = P.arity_of()
    actions = [(P.action, Q.action, all_perms)]
    if source_ext is not None:
        actions.append((source_ext, target_ext, all_ext_perms))
    constraints = [(target, (const(n), const(s), k), slot[(n, source[(n, s, x)])])
                   for source, target, perms in actions
                   for (n, x), k in slot.items() for s in perms(n)]
    constraints += [(Q.comp, (const(i), slot[(arity[a], a)], slot[(arity[b], b)]),
                     slot[(arity[c], c)])
                    for (i, a, b), c in P.comp.items()]
    candidates = [[y for y in Q.elements[n] if (n, x) != (1, P.unit) or y == Q.unit]
                  for n, x in variables]
    budget = NodeBudget(node_budget, "operad map search exceeded budget",
                        "operad_maps")
    out = []
    for a in backtrack(candidates, constraint_lists(len(variables), constraints),
                       budget, list(consts)):
        out.append({n: {x: a[slot[(n, x)]] for x in P.elements[n]} for n in arities})
    return out


def enumerate_operad_maps(P: TruncatedOperad, Q: TruncatedOperad) -> list[OperadMap]:
    maps = (OperadMap(P, Q, m) for m in _enumerate_maps(P, Q))
    return [h for h in maps if not validate_operad_map(h)]


def enumerate_cyclic_maps(Q1: TruncatedCyclicOperad,
                          Q2: TruncatedCyclicOperad) -> list[CyclicOperadMap]:
    maps = (CyclicOperadMap(Q1, Q2, m) for m in _enumerate_maps(
        Q1.operad, Q2.operad, source_ext=Q1.extended, target_ext=Q2.extended))
    return [h for h in maps if not validate_cyclic_map(h)]


# ---------------------------------------------------------------------------
# adjunction and product checks


@record
class AdjunctionCountReport:
    ok: bool
    operad_map_count: int
    cyclic_map_count: int
    projection_is_bijection: bool
    failures: list[str] = field(default_factory=list)


def check_adjunction_count(Q: TruncatedCyclicOperad,
                           P: TruncatedOperad) -> AdjunctionCountReport:
    """Compare hom-set sizes on both sides of the claimed adjunction and
    test the candidate bijection given by the zeroth projection."""
    failures: list[str] = []
    RP = cycops.right_adjoint_R(P)
    operad_maps = enumerate_operad_maps(forget_cyclic(Q), P)
    cyclic_maps = enumerate_cyclic_maps(Q, RP)
    if len(operad_maps) != len(cyclic_maps):
        failures.append(
            f"hom counts differ: {len(operad_maps)} operad maps vs "
            f"{len(cyclic_maps)} cyclic maps")
    parts = _tuples(P)
    image = set()
    bijective = True
    for h in cyclic_maps:
        proj = {n: {x: parts[n][h.maps[n][x]][0] for x in Q.operad.elements[n]}
                for n in range(P.arity_bound + 1)}
        cand = OperadMap(forget_cyclic(Q), P, proj)
        if validate_operad_map(cand):
            bijective = False
            failures.append("projection of a cyclic map is not an operad map")
            continue
        image.add(cand.key())
    if len(image) != len(cyclic_maps):
        bijective = False
    if image != {h.key() for h in operad_maps}:
        bijective = False
    return AdjunctionCountReport(not failures, len(operad_maps), len(cyclic_maps),
                                 bijective, failures)


@record
class ProductActionReport:
    ok: bool
    preserves_surjectivity: bool
    preserves_injectivity: bool
    failures: list[str] = field(default_factory=list)


def check_FR_products(f: CyclicOperadMap) -> ProductActionReport:
    """Check that forget-then-right-adjoint acts arity-wise as the
    ``(n+1)``-fold product of the underlying map, and that level
    surjectivity and injectivity are preserved."""
    failures: list[str] = []
    g = forget_cyclic_map(f)
    rg = right_adjoint_R_map(g)
    errs = validate_cyclic_map(rg)
    failures.extend(f"product map: {e}" for e in errs)
    A = g.source.arity_bound
    parts = _tuples(g.source)
    for n in range(A + 1):
        for xn in rg.source.operad.elements[n]:
            expected = _tuple_name(tuple(g.maps[n][p] for p in parts[n][xn]))
            if rg.maps[n][xn] != expected:
                failures.append(f"not the coordinatewise product at ({n},{xn})")
    surj = True
    inj = True
    for n in range(A + 1):
        f_surj = set(g.maps[n].values()) == set(g.target.elements[n])
        f_inj = len(set(g.maps[n].values())) == len(g.source.elements[n])
        r_surj = set(rg.maps[n].values()) == set(rg.target.operad.elements[n])
        r_inj = len(set(rg.maps[n].values())) == len(rg.source.operad.elements[n])
        if f_surj and not r_surj:
            surj = False
            failures.append(f"surjectivity lost at arity {n}")
        if f_inj and not r_inj:
            inj = False
            failures.append(f"injectivity lost at arity {n}")
    return ProductActionReport(not failures, surj, inj, failures)


# ---------------------------------------------------------------------------
# standard operads


def perm_inverse(s: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for k, v in enumerate(s, start=1):
        inv[v - 1] = k
    return tuple(inv)


def _check_unit_arity(A: int) -> None:
    if A < 1:
        raise ValueError(f"arity bound {A} is below 1: an operad needs its "
                         f"unit in arity 1")


def terminal_operad(A: int) -> TruncatedOperad:
    """One element in every arity."""
    _check_unit_arity(A)
    elements = {n: (f"t{n}",) for n in range(A + 1)}
    comp = {(i, f"t{m}", f"t{n}"): f"t{m + n - 1}"
            for m in range(1, A + 1) for n in range(A + 2 - m)
            for i in range(1, m + 1)}
    action = {(n, s, f"t{n}"): f"t{n}"
              for n in range(A + 1) for s in all_perms(n)}
    return TruncatedOperad(A, elements, "t1", comp, action)


def terminal_cyclic_operad(A: int) -> TruncatedCyclicOperad:
    P = terminal_operad(A)
    extended = {(n, s, f"t{n}"): f"t{n}"
                for n in range(A + 1) for s in all_ext_perms(n)}
    return TruncatedCyclicOperad(P, extended)


def associative_operad(A: int) -> TruncatedOperad:
    """Arity ``n`` is the permutations of ``{1..n}`` (multiplication orders);
    composition splices words, the action is group multiplication."""
    _check_unit_arity(A)
    name = {n: {p: "".join(map(str, p)) for p in all_perms(n)}
            for n in range(A + 1)}
    elements = {n: tuple(name[n].values()) for n in range(A + 1)}
    comp = {}
    for m in range(1, A + 1):
        for n in range(A + 1):
            if m + n - 1 > A:
                continue
            for p in all_perms(m):
                wp = perm_inverse(p)
                for q in all_perms(n):
                    wq = perm_inverse(q)
                    for i in range(1, m + 1):
                        spliced: list[int] = []
                        for v in wp:
                            if v < i:
                                spliced.append(v)
                            elif v == i:
                                spliced.extend(i - 1 + u for u in wq)
                            else:
                                spliced.append(v + n - 1)
                        comp[(i, name[m][p], name[n][q])] = \
                            name[m + n - 1][perm_inverse(tuple(spliced))]
    action = {(n, s, name[n][p]): name[n][perm_compose(p, s)]
              for n in range(A + 1) for p in all_perms(n) for s in all_perms(n)}
    return TruncatedOperad(A, elements, name[1][(1,)], comp, action)


def monoid_operad(A: int, elements: tuple[str, ...],
                  mult: dict[tuple[str, str], str],
                  unit: str) -> TruncatedOperad:
    """Every positive arity is the monoid; composition multiplies, the
    symmetric action is trivial.  Element names carry their arity to keep
    identifiers distinct across arities."""
    _check_unit_arity(A)

    def tag(x, n):
        return f"{x}@{n}"

    els: dict[int, tuple[str, ...]] = {0: ()}
    els.update({n: tuple(sorted(tag(x, n) for x in elements))
                for n in range(1, A + 1)})
    comp = {(i, tag(a, m), tag(b, n)): tag(mult[(a, b)], m + n - 1)
            for m in range(1, A + 1) for n in range(1, A + 2 - m)
            for i in range(1, m + 1) for a in elements for b in elements}
    action = {(n, s, tag(x, n)): tag(x, n)
              for n in range(1, A + 1) for s in all_perms(n) for x in elements}
    return TruncatedOperad(A, els, tag(unit, 1), comp, action)
