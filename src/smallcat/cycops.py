"""Arity-truncated operads and cyclic operads over finite sets.

An operad here is a family of finite sets ``P(0..A)`` with partial
compositions, right symmetric-group actions and a unit; every axiom is
checked exhaustively wherever all intermediate arities stay within the
truncation bound ``A`` (a verification budget, recorded in reports).

Permutations of ``{1..n}`` are stored as image tuples ``(s(1),...,s(n))``
and compose by ``(s.t)(k) = s(t(k))``; actions are right actions, so
``x.(s t) = (x.s).t``.  A cyclic operad extends each action to the
permutations of ``{0..n}`` (image tuples of length ``n+1``); compatibility
with the compositions is checked on the cyclic generator, which together
with the plain symmetric actions generates the extended group.

Likewise ``x.(s t) = (x.s).t`` is checked for every ``s`` but only for
``t`` in :func:`generators` (a transposition and the full cycle), and
outer and inner equivariance only at generators.  This is exact: the ``t``
at which such an axiom holds are closed under products (by associativity
of the action, and since :func:`block_perm` and :func:`shift_perm` are
multiplicative), hence form the whole group.  A failing generator check is
rerun on every permutation, so it reports the exhaustive witnesses.

The forgetful functor from cyclic operads to operads has a right adjoint:
its value on ``P`` has ``(n+1)``-tuples of ``P(n)`` elements in arity
``n``, compositions given coordinatewise by a three-case splice formula,
and the extended action by an index-shuffling formula whose modular
representative is pinned down by exhaustive validation of the axioms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fincat import NodeBudget, backtrack, constraint_lists


# ---------------------------------------------------------------------------
# permutation helpers


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def all_perms(n: int):
    return sorted(itertools.permutations(range(1, n + 1)))


def perm_compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """(s.t)(k) = s(t(k))."""
    return tuple(s[t[k] - 1] for k in range(len(t)))


def perm_inverse(s: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for k, v in enumerate(s, start=1):
        inv[v - 1] = k
    return tuple(inv)


def ext_identity(n: int) -> tuple[int, ...]:
    """Identity of the extended group on {0..n}, as an image tuple."""
    return tuple(range(n + 1))


def all_ext_perms(n: int):
    return sorted(itertools.permutations(range(n + 1)))


def ext_compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(s[t[k]] for k in range(len(t)))


def ext_of_perm(s: tuple[int, ...]) -> tuple[int, ...]:
    """Extend a permutation of {1..n} to {0..n} by fixing 0."""
    return (0,) + s


def cyclic_generator(n: int) -> tuple[int, ...]:
    """The cycle ``j -> j+1 (mod n+1)`` on {0..n}."""
    return tuple((j + 1) % (n + 1) for j in range(n + 1))


def generators(identity: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The swap of the first two letters and the cycle taking each letter
    to the next, which generate the permutations of ``identity``'s letters
    (``(1 2)`` and the n-cycle, or ``(0 1)`` and :func:`cyclic_generator`)."""
    return sorted({identity[1:2] + identity[:1] + identity[2:],
                   identity[1:] + identity[:1]})


def block_perm(s: tuple[int, ...], i: int, n: int) -> tuple[int, ...]:
    """The permutation appearing when a relabeled operation is composed.

    For ``s`` on ``m`` letters and a block of ``n`` letters substituted at
    slot ``i`` of the relabeled operation (slot ``s(i)`` of the original),
    returns the induced permutation of ``m+n-1`` letters.
    """
    base = s[i - 1]
    moved = tuple(v if v < base else v + n - 1 for v in s)
    return moved[:i - 1] + tuple(range(base, base + n)) + moved[i:]


def shift_perm(t: tuple[int, ...], i: int, m: int) -> tuple[int, ...]:
    """The permutation letting ``t`` act inside the block at slot ``i``."""
    return (tuple(range(1, i)) + tuple(i - 1 + v for v in t)
            + tuple(range(i + len(t), m + len(t))))


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class TruncatedOperad:
    """Finite sets with partial compositions, unit, and right actions.

    ``comp[(i, a, b)]`` is ``a o_i b``; it must be present exactly when the
    arities satisfy ``1 <= i <= m`` and ``m + n - 1 <= arity_bound``.
    ``action[(n, s, x)]`` is ``x.s`` for ``s`` a permutation of {1..n}.
    """

    arity_bound: int
    elements: dict[int, tuple[str, ...]]
    unit: str
    comp: dict[tuple[int, str, str], str]
    action: dict[tuple[int, tuple[int, ...], str], str]

    def arity_of(self) -> dict[str, int]:
        return {x: n for n, xs in self.elements.items() for x in xs}


@dataclass(frozen=True)
class TruncatedCyclicOperad:
    """An operad whose actions extend to the permutations of {0..n}."""

    operad: TruncatedOperad
    extended: dict[tuple[int, tuple[int, ...], str], str]


@dataclass(frozen=True)
class OperadMap:
    source: TruncatedOperad
    target: TruncatedOperad
    maps: dict[int, dict[str, str]]

    def key(self) -> tuple:
        return tuple((n, tuple(sorted(c.items())))
                     for n, c in sorted(self.maps.items()))


@dataclass(frozen=True)
class CyclicOperadMap:
    source: TruncatedCyclicOperad
    target: TruncatedCyclicOperad
    maps: dict[int, dict[str, str]]

    key = OperadMap.key


# ---------------------------------------------------------------------------
# validation


def _on_generators(check, identity, everything) -> list[str]:
    """Run ``check`` on the generators of each symmetric group, and again
    on ``everything`` only if that fails, so failures list every witness."""
    errors = check(lambda n: generators(identity(n)))
    return check(everything) if errors else errors


def _totality_errors(P: TruncatedOperad, table, perms, label: str) -> list[str]:
    errors = []
    for n in range(P.arity_bound + 1):
        members = frozenset(P.elements[n])
        for s in perms(n):
            for x in P.elements[n]:
                v = table.get((n, s, x))
                if v is None:
                    errors.append(f"{label} missing at ({n},{s},{x})")
                elif v not in members:
                    errors.append(f"{label} escapes arity at ({n},{s},{x})")
    return errors


def _action_errors(P: TruncatedOperad, table, perms, compose, identity,
                   identity_msg: str, assoc_msg: str) -> list[str]:
    """Identity and ``x.(s t) = (x.s).t`` for a total action ``table``,
    with ``s`` over ``perms`` and ``t`` over generators first."""
    def check(right) -> list[str]:
        errors = []
        for n in range(P.arity_bound + 1):
            e = identity(n)
            for x in P.elements[n]:
                if table[(n, e, x)] != x:
                    errors.append(identity_msg.format(n=n, x=x))
            for s in perms(n):
                for t in right(n):
                    st = compose(s, t)
                    for x in P.elements[n]:
                        if table[(n, t, table[(n, s, x)])] != table[(n, st, x)]:
                            errors.append(assoc_msg.format(n=n, s=s, t=t, x=x))
        return errors
    return _on_generators(check, identity, perms)


def _equivariance_errors(P: TruncatedOperad, perms) -> list[str]:
    """Outer equivariance for ``s`` and inner for ``t`` over ``perms``."""
    A = P.arity_bound
    errors = []
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            if m + n - 1 > A:
                continue
            r = m + n - 1
            blocks = {i: [(s, block_perm(s, i, n)) for s in perms(m)]
                      for i in range(1, m + 1)}
            shifts = {i: [(t, shift_perm(t, i, m)) for t in perms(n)]
                      for i in range(1, m + 1)}
            for a in P.elements[m]:
                for b in P.elements[n]:
                    for i in range(1, m + 1):
                        for s, bs in blocks[i]:
                            lhs = P.comp[(i, P.action[(m, s, a)], b)]
                            rhs = P.action[(r, bs, P.comp[(s[i - 1], a, b)])]
                            if lhs != rhs:
                                errors.append(
                                    f"equivariance (outer) fails at "
                                    f"({s},{i},{a},{b})")
                        for t, sh in shifts[i]:
                            lhs = P.comp[(i, a, P.action[(n, t, b)])]
                            rhs = P.action[(r, sh, P.comp[(i, a, b)])]
                            if lhs != rhs:
                                errors.append(
                                    f"equivariance (inner) fails at "
                                    f"({t},{i},{a},{b})")
    return errors


def validate_operad(P: TruncatedOperad) -> list[str]:
    """Every axiom within the arity bound, exactly (the action axioms via
    generators, see the module docstring); lists witnesses."""
    A = P.arity_bound
    errors: list[str] = []
    for n in range(A + 1):
        if n not in P.elements:
            errors.append(f"missing arity {n}")
    if errors:
        return errors
    names = [x for n in range(A + 1) for x in P.elements[n]]
    if len(set(names)) != len(names):
        return ["element identifiers collide across arities"]
    if P.unit not in P.elements.get(1, ()):
        errors.append("unit is not an element of arity 1")
    members = {n: frozenset(P.elements[n]) for n in range(A + 1)}

    # composition table domain and typing
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            if m + n - 1 > A:
                continue
            for i in range(1, m + 1):
                for a in P.elements[m]:
                    for b in P.elements[n]:
                        v = P.comp.get((i, a, b))
                        if v is None:
                            errors.append(f"composition missing at ({i},{a},{b})")
                        elif v not in members[m + n - 1]:
                            errors.append(f"composition escapes arity at ({i},{a},{b})")
    errors += _totality_errors(P, P.action, all_perms, "action")
    if errors:
        return errors

    action_errors = _action_errors(
        P, P.action, all_perms, perm_compose, identity_perm,
        "identity action fails at ({n},{x})",
        "action not associative at ({n},{s},{t},{x})")
    errors += action_errors

    # unit axioms
    for n in range(A + 1):
        for b in P.elements[n]:
            if P.comp.get((1, P.unit, b)) != b:
                errors.append(f"left unit fails at {b}")
    for m in range(1, A + 1):
        for a in P.elements[m]:
            for i in range(1, m + 1):
                if P.comp.get((i, a, P.unit)) != a:
                    errors.append(f"right unit fails at ({i},{a})")

    # associativity, all intermediate arities within bound
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            for k in range(0, A + 1):
                if m + n - 1 > A or m + n + k - 2 > A:
                    continue
                for a in P.elements[m]:
                    for b in P.elements[n]:
                        for c in P.elements[k]:
                            for i in range(1, m + 1):
                                ab = P.comp[(i, a, b)]
                                for j in range(1, m + n - 1 + 1):
                                    lhs = P.comp[(j, ab, c)]
                                    if j < i:
                                        if m + k - 1 > A:
                                            continue
                                        rhs = P.comp[(i + k - 1,
                                                      P.comp[(j, a, c)], b)]
                                    elif j <= i + n - 1:
                                        if n + k - 1 > A:
                                            continue
                                        rhs = P.comp[(i, a,
                                                      P.comp[(j - i + 1, b, c)])]
                                    else:
                                        if m + k - 1 > A:
                                            continue
                                        rhs = P.comp[(i,
                                                      P.comp[(j - n + 1, a, c)], b)]
                                    if lhs != rhs:
                                        errors.append(
                                            f"associativity fails at "
                                            f"({a} o_{i} {b}) o_{j} {c}")

    # equivariance: generators suffice once the actions are actions
    def equivariance(perms):
        return _equivariance_errors(P, perms)
    errors += (equivariance(all_perms) if action_errors
               else _on_generators(equivariance, identity_perm, all_perms))
    return errors


def restricted_action_matches(Q: TruncatedCyclicOperad) -> list[str]:
    """The extended action at permutations fixing 0 must be the operad action."""
    P = Q.operad
    errors = []
    for n in range(P.arity_bound + 1):
        for s in all_perms(n):
            for x in P.elements[n]:
                if Q.extended.get((n, ext_of_perm(s), x)) != P.action[(n, s, x)]:
                    errors.append(f"restriction differs at ({n},{s},{x})")
    return errors


def validate_cyclic(Q: TruncatedCyclicOperad) -> list[str]:
    """Operad axioms, extended group action, restriction, and compatibility
    of the cyclic generator with every partial composition."""
    P = Q.operad
    errors = validate_operad(P)
    if errors:
        return errors
    A = P.arity_bound
    errors = _totality_errors(P, Q.extended, all_ext_perms, "extended action")
    if errors:
        return errors
    errors = _action_errors(
        P, Q.extended, all_ext_perms, ext_compose, ext_identity,
        "extended identity fails at ({n},{x})",
        "extended action not associative at ({n},{s},{t})")
    errors.extend(restricted_action_matches(Q))
    if errors:
        return errors

    # compatibility of the cyclic generator with partial composition
    for m in range(1, A + 1):
        for n in range(1, A + 1):
            if m + n - 1 > A:
                continue
            r = m + n - 1
            gm, gn, gr = cyclic_generator(m), cyclic_generator(n), cyclic_generator(r)
            for a in P.elements[m]:
                ta = Q.extended[(m, gm, a)]
                for b in P.elements[n]:
                    tb = Q.extended[(n, gn, b)]
                    for i in range(1, m + 1):
                        lhs = Q.extended[(r, gr, P.comp[(i, a, b)])]
                        if i >= 2:
                            rhs = P.comp[(i - 1, ta, b)]
                        else:
                            rhs = P.comp[(n, tb, ta)]
                        if lhs != rhs:
                            errors.append(
                                f"cyclic compatibility fails at "
                                f"(i={i},{a},{b})")
    return errors


# ---------------------------------------------------------------------------
# standard operads


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


# ---------------------------------------------------------------------------
# the right adjoint to the forgetful functor


def _tuple_name(parts: tuple[str, ...]) -> str:
    return "(" + ",".join(parts) + ")"


def _tuple_parts(name: str) -> list[str]:
    """Split a tuple identifier at its top-level commas (names may nest)."""
    inner = name[1:-1]
    parts, depth, start = [], 0, 0
    for k, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:k])
            start = k + 1
    if inner:
        parts.append(inner[start:])
    return parts


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


def right_adjoint_R(P: TruncatedOperad) -> TruncatedCyclicOperad:
    """The value of the right adjoint on ``P``.

    Arity ``n`` is the set of ``(n+1)``-tuples of ``P(n)`` elements.  The
    partial composition splices coordinatewise in three ranges, the
    extended action permutes and twists coordinates, and the unit doubles
    the unit of ``P``.
    """
    A = P.arity_bound
    tuples = {n: list(itertools.product(P.elements[n], repeat=n + 1))
              for n in range(A + 1)}
    elements = {n: tuple(sorted(_tuple_name(t) for t in tuples[n]))
                for n in range(A + 1)}
    decode = {n: {_tuple_name(t): t for t in tuples[n]} for n in range(A + 1)}

    comp = {}
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            r = m + n - 1
            if r > A:
                continue
            for pn in elements[m]:
                p = decode[m][pn]
                for qn in elements[n]:
                    q = decode[n][qn]
                    for i in range(1, m + 1):
                        out = []
                        for j in range(r + 1):
                            if j <= m - i:
                                out.append(P.comp[(i + j, p[j], q[0])])
                            elif j <= m + n - i:
                                out.append(P.comp[(i + j - m, q[i + j - m],
                                                   p[m + 1 - i])])
                            else:
                                out.append(P.comp[(i + j - m - n,
                                                   p[j - n + 1], q[0])])
                        comp[(i, pn, qn)] = _tuple_name(tuple(out))

    extended = {}
    for n in range(A + 1):
        for sigma in all_ext_perms(n):
            # coordinate i of x.sigma is x[src] acted on by sigma_i
            coords = []
            for i in range(n + 1):
                src = (n + 1 - sigma[(n + 1 - i) % (n + 1)]) % (n + 1)
                if n >= 1:
                    si = _sigma_i(sigma, i, n)
                    act = {y: P.action[(n, si, y)] for y in P.elements[n]}
                else:
                    act = {y: y for y in P.elements[n]}
                coords.append((src, act))
            for xn in elements[n]:
                x = decode[n][xn]
                extended[(n, sigma, xn)] = _tuple_name(
                    tuple(act[x[src]] for src, act in coords))

    action = {}
    for n in range(A + 1):
        for s in all_perms(n):
            for xn in elements[n]:
                action[(n, s, xn)] = extended[(n, ext_of_perm(s), xn)]

    unit = _tuple_name((P.unit, P.unit))
    RP = TruncatedOperad(A, elements, unit, comp, action)
    return TruncatedCyclicOperad(RP, extended)


def right_adjoint_R_map(g: OperadMap) -> CyclicOperadMap:
    """The right adjoint on maps: coordinatewise application."""
    RQ = right_adjoint_R(g.source)
    RQ2 = right_adjoint_R(g.target)
    maps = {n: {xn: _tuple_name(tuple(g.maps[n][p] for p in _tuple_parts(xn)))
                for xn in RQ.operad.elements[n]}
            for n in range(g.source.arity_bound + 1)}
    return CyclicOperadMap(RQ, RQ2, maps)


def truncate_operad(P: TruncatedOperad, bound: int) -> TruncatedOperad:
    """Forget arities above ``bound`` (a smaller verification budget)."""
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
    budget = NodeBudget(node_budget, "operad map search exceeded budget")
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


@dataclass
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
    RP = right_adjoint_R(P)
    operad_maps = enumerate_operad_maps(forget_cyclic(Q), P)
    cyclic_maps = enumerate_cyclic_maps(Q, RP)
    if len(operad_maps) != len(cyclic_maps):
        failures.append(
            f"hom counts differ: {len(operad_maps)} operad maps vs "
            f"{len(cyclic_maps)} cyclic maps")
    image = set()
    bijective = True
    for h in cyclic_maps:
        proj = {n: {x: _tuple_parts(h.maps[n][x])[0] for x in Q.operad.elements[n]}
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


@dataclass
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
    for n in range(A + 1):
        for xn in rg.source.operad.elements[n]:
            expected = _tuple_name(tuple(g.maps[n][p]
                                         for p in _tuple_parts(xn)))
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
