"""Adjunction certificates: a given adjunction, and the two Kan
adjunctions on a finite corpus of diagrams.

:func:`certify_adjunction` checks the naturality of a unit and a counit
and both triangle identities.  :func:`certify_kan_adjunctions` checks that
extension along ``iota`` is left and right adjoint to restriction on a
corpus of diagrams.  It reads the coded Kan cores of :mod:`smallcat.kan`
directly and never renders an extension.

Only the commands that certify an adjunction load this module.
"""
from __future__ import annotations

from itertools import islice

# Timed functions are called via their module: see the package docstring.
from . import fincat
from .coded import _code, _maps, _offsets, _squares
from .fincat import CatFunctor, NaturalTransformation, field, record
from .kan import _lan_core, _ran_core
from .setval import SetDiagram, restrict


@record
class AdjunctionReport:
    """Outcome of an adjunction check; ``failures`` carries witnesses."""

    ok: bool
    checked: int
    failures: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# adjunction certification


def certify_adjunction(left: CatFunctor, right: CatFunctor,
                       unit: NaturalTransformation,
                       counit: NaturalTransformation) -> AdjunctionReport:
    """Verify naturality of unit and counit and both triangle identities.

    ``left : C -> D`` and ``right : D -> C`` with unit ``id_C => right.left``
    and counit ``left.right => id_D``.  The first failing identity is
    reported with its witness.
    """
    from .equivalence import validate_natural
    C, D = left.domain, left.codomain
    failures: list[str] = []
    checked = 0
    for name, F in (("left adjoint", left), ("right adjoint", right)):
        errs = fincat.validate_functor(F)
        if errs:
            failures.append(f"{name} invalid: {errs[0]}")
    for name, nt in (("unit", unit), ("counit", counit)):
        errs = validate_natural(nt)
        if errs:
            failures.append(f"{name} not natural: {errs[0]}")
    if failures:
        return AdjunctionReport(False, checked, failures)
    for c in C.objects:
        checked += 1
        lc = left.ob_map[c]
        if D.compose[(counit.components[lc],
                      left.mor_map[unit.components[c]])] != D.identity[lc]:
            failures.append(f"left triangle fails at object {c}")
    for d in D.objects:
        checked += 1
        rd = right.ob_map[d]
        if C.compose[(right.mor_map[counit.components[d]],
                      unit.components[rd])] != C.identity[rd]:
            failures.append(f"right triangle fails at object {d}")
    return AdjunctionReport(not failures, checked, failures)


def certify_kan_adjunctions(iota: CatFunctor,
                            domain_diagrams: list[SetDiagram],
                            codomain_diagrams: list[SetDiagram],
                            naturality_budget: int = 3,
                            node_budget: int = 2_000_000) -> AdjunctionReport:
    """Certify the two Kan adjunctions on a finite corpus of diagrams.

    For every corpus pair the transposition for (extend-left, restrict) and
    for (restrict, extend-right) is checked to be a bijection of hom-sets.
    The naturality of the first in both variables is checked on the first
    ``naturality_budget`` maps, in search order, of ``lan X -> Y`` and of
    each ``X2 -> X`` and ``Y -> Y2`` between corpus diagrams; only those
    are searched for, so ``node_budget`` bounds each bijection search and
    each such prefix, never a whole hom-set.

    It runs on codes end to end: each diagram is coded once, the Kan
    extensions come from :func:`_lan_core` and :func:`_ran_core`, a
    restriction is a gather, maps are searched for by
    :func:`~smallcat.coded._maps`, a left transpose gathers ``f`` at
    the slots of the unit's images, and a right transpose looks each family
    up by its components.  No element is named after the diagrams are
    coded; the witnesses name the diagrams by their places in the corpus.
    """
    C, D = iota.domain, iota.codomain
    nb = naturality_budget
    failures: list[str] = []
    checked = 0

    def bijection(side, where, homs, transpose, targets):
        # a transpose is natural iff it is among the maps found
        image = set()
        for f in homs:
            t = transpose(f)
            if t in targets:
                image.add(t)
            else:
                failures.append(f"{side} transpose not natural {where}")
        if len(image) != len(homs):
            failures.append(f"{side} transpose not injective {where}")
        if image != targets:
            failures.append(f"{side} transpose not surjective {where}")

    xs = [_code(X) for X in domain_diagrams]
    ys = [_code(Y) for Y in codomain_diagrams]
    lefts = [_lan_core(iota, X) for X in xs]
    rights = [_ran_core(iota, X) for X in xs]
    rys = [restrict(iota, Y) for Y in ys]
    xsq, ysq, rysq = ([_squares(S) for S in Ss] for Ss in (xs, ys, rys))
    lsq = [_squares(L.extension) for L in lefts]
    xat, yat, ryat = ([_offsets(S) for S in Ss] for Ss in (xs, ys, rys))
    lat = [_offsets(L.extension) for L in lefts]
    # lan_idx[xi][k]: the slot in LX of the unit's image of slot k of X
    lan_idx = []
    for L, at in zip(lefts, lat):
        idx: list[int] = []
        for c in C.objects:
            d = iota.ob_map[c]
            idx += [at[d] + s for s in L.tables[d][c, D.identity[d]]]
        lan_idx.append(idx)
    firsts: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for xi, X in enumerate(xs):
        R = rights[xi]
        families = {}   # the families at d by their components
        for d in D.objects:
            columns = list(R.tables[d].values())
            families[d] = dict(zip(zip(*columns), range(len(
                R.extension.values[d])))) if columns else {(): 0}
        for yi, Y in enumerate(ys):
            checked += 1
            where = f"(X{xi},Y{yi})"
            rY, at = rys[yi], ryat[yi]
            left_homs = list(_maps(lefts[xi].extension, Y, lsq[xi], node_budget))
            firsts[(xi, yi)] = left_homs[:nb]
            gather = lan_idx[xi]
            bijection("lan", where, left_homs,
                      lambda f: tuple(map(f.__getitem__, gather)),
                      set(_maps(X, rY, xsq[xi], node_budget)))
            # the family of y at d reads g at the slots of Y phi y in rY
            ran_idx = [(families[d], [at[c] + Y.action[phi][y]
                                      for phi, c in R.tables[d]])
                       for d in D.objects for y in range(len(Y.values[d]))]
            bijection("ran", where, list(_maps(rY, X, rysq[yi], node_budget)),
                      lambda g: tuple([fams.get(tuple(map(g.__getitem__, idx)))
                                       for fams, idx in ran_idx]),
                      set(_maps(Y, R.extension, ysq[yi], node_budget)))

    # naturality of the lan transposition in both variables: for u: X2 ->
    # X, f: LX -> Y and v: Y -> Y2, the transpose of v.f.lan(u) at slot k
    # of X2 is v at the slot in Y of f[A[k]], and restrict(v) after the
    # transpose of f after u is v at that of f[B[k]]
    ends: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for xi, X in enumerate(xs):
        for xj, X2 in enumerate(xs):
            us = list(islice(_maps(X2, X, xsq[xj], node_budget), nb))
            if not us:
                continue
            src, tgt = lefts[xj], lefts[xi]
            # lan(u) sends the class of item (pair, i) of LX2 to that of
            # (pair, u[i]) of LX, as in lan_map
            plan = []
            for d in D.objects:
                base, into = lat[xj][d], lat[xi][d]
                for pair in src.objects[d].values():
                    first, inj = xat[xj][pair[0]], tgt.tables[d][pair]
                    plan += [(base + s, into, inj, first + i)
                             for i, s in enumerate(src.tables[d][pair])]
            # the slot in X of element 0 of the object of each slot of X2
            x_first = [xat[xi][c] for c in C.objects for _ in X2.values[c]]
            sides = []
            for u in us:
                lu: list = [None] * len(lsq[xj])
                for p, into, inj, k in plan:
                    lu[p] = into + inj[u[k]]
                sides.append(([lu[s] for s in lan_idx[xj]],
                              [lan_idx[xi][b + v] for b, v in zip(x_first, u)]))
            for yi, Y in enumerate(ys):
                # the slot in Y of element 0 of the object of each slot of LX
                y_first = [yat[yi][d] for d in D.objects
                           for _ in tgt.extension.values[d]]
                # per (f, u): the pairs of slots of Y that v must identify
                needs = []
                for f in firsts[(xi, yi)]:
                    fy = [b + v for b, v in zip(y_first, f)]
                    needs += [[(fy[a], fy[b]) for a, b in zip(A, B)
                               if fy[a] != fy[b]] for A, B in sides]
                if not needs:
                    continue
                for yj, Y2 in enumerate(ys):
                    if (yi, yj) not in ends:
                        ends[(yi, yj)] = list(islice(
                            _maps(Y, Y2, ysq[yi], node_budget), nb))
                    vs = ends[(yi, yj)]
                    checked += len(needs) * len(vs)
                    bad = sum(any(v[a] != v[b] for a, b in need)
                              for need in needs for v in vs)
                    failures += ["transpose unnatural "
                                 f"(X{xj}->X{xi},Y{yi}->Y{yj})"] * bad
    return AdjunctionReport(not failures, checked, failures)
