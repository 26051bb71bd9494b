"""The right adjoint to the forgetful functor from cyclic operads to
operads.

Its value on ``P`` has ``(n+1)``-tuples of ``P(n)`` elements in arity
``n``, compositions given coordinatewise by a three-case splice formula,
and the extended action by an index-shuffling formula whose modular
representative is pinned down by exhaustive validation of the axioms.
Tables are computed on ``P``'s element codes by :func:`_right_adjoint_core`.
``smallcat cyclic`` and the paper suite's ``cyclic`` case check that core
(:func:`check_right_adjoint`).

Only ``smallcat cyclic`` and the paper suite load this module.  The
rendering of the core for the map reports (``right_adjoint_R``),
truncation and the forgetful functor, validation and enumeration of
(cyclic) operad maps, the hom-count and product reports, and the standard
operads live in :mod:`smallcat.cycmaps`.
"""
from __future__ import annotations

import itertools
from itertools import chain

from . import cycops
from .cycops import (
    TruncatedOperad,
    _action_rows,
    _columns,
    _comp_tables,
    _rows,
    all_ext_perms,
    all_perms,
    ext_of_perm,
)
from .fincat import distinct


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


def check_right_adjoint(P: TruncatedOperad) -> tuple[dict[int, int], list[str]]:
    """The size of each arity of the right adjoint on ``P`` and its errors
    under :func:`cycops.validate_cyclic`, read off the unrendered core."""
    core = _right_adjoint_core(P)
    return ({n: len(xs) for n, xs in core[0].items()},
            cycops._check_coded(*core))
