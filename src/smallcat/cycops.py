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

Tables are checked and built on integer codes (a name's position in its
arity), with names rendered only at the edges: once per element of the
right adjoint, and for each reported witness.  One checker,
:func:`_check_coded`, runs every axiom on coded tables: the validators
code a record's name-keyed tables for it, and
:func:`smallcat.cycadj.check_right_adjoint` hands it the right adjoint's
coded core, never rendered.

The right adjoint to the forgetful functor from cyclic operads to
operads, truncation, map validation and enumeration, the adjunction
reports, and the standard operads (terminal, associative, monoid) live in
:mod:`smallcat.cycadj`, which only ``smallcat cyclic`` and the paper
suite load; their old names here (``cycops.right_adjoint_R``,
``cycops.terminal_operad``, ...) still work through the module
``__getattr__``.
"""
from __future__ import annotations

import itertools
from itertools import chain

from . import moved
from .fincat import record

# Read from smallcat.cycadj on first access.
__getattr__ = moved(globals(), cycadj="""
    _tuple_name _tuples SigmaIndexError _sigma_i right_adjoint_R
    check_right_adjoint right_adjoint_R_map truncate_operad forget_cyclic
    forget_cyclic_map validate_operad_map validate_cyclic_map _enumerate_maps
    enumerate_operad_maps enumerate_cyclic_maps AdjunctionCountReport
    check_adjunction_count ProductActionReport check_FR_products perm_inverse
    _check_unit_arity terminal_operad terminal_cyclic_operad
    associative_operad monoid_operad restricted_action_matches""")


# ---------------------------------------------------------------------------
# permutation helpers


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def all_perms(n: int):
    return sorted(itertools.permutations(range(1, n + 1)))


def perm_compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """(s.t)(k) = s(t(k))."""
    return tuple(s[t[k] - 1] for k in range(len(t)))


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


@record(frozen=True)
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


@record(frozen=True)
class TruncatedCyclicOperad:
    """An operad whose actions extend to the permutations of {0..n}."""

    operad: TruncatedOperad
    extended: dict[tuple[int, tuple[int, ...], str], str]


@record(frozen=True)
class OperadMap:
    source: TruncatedOperad
    target: TruncatedOperad
    maps: dict[int, dict[str, str]]

    def key(self) -> tuple:
        return tuple((n, tuple(sorted(c.items())))
                     for n, c in sorted(self.maps.items()))


@record(frozen=True)
class CyclicOperadMap:
    source: TruncatedCyclicOperad
    target: TruncatedCyclicOperad
    maps: dict[int, dict[str, str]]

    key = OperadMap.key


# ---------------------------------------------------------------------------
# validation
#
# The validators check tables on integer codes: an element of arity ``n``
# is its index in ``elements[n]``.  ``comp[i, m, n]`` holds the codes of
# ``a o_i b`` as one list in ``(a, b)`` order, cut into rows by ``a`` and
# into columns by ``b``; ``rows[n][s]`` lists the codes of ``x.s``.  Each
# axiom compares whole coded lists.  The positions at which two lists
# differ are the witnesses; those of one loop nest are sorted into the
# order of the exhaustive scan, and names are rendered only for messages.


def _coded(table, code, label: str, errors: list[str], *axes) -> list[int]:
    """The codes of ``table``'s values at the keys ``product(*axes)``; each
    key whose value is missing or has no code adds an error."""
    row = list(map(code.get, map(table.get, itertools.product(*axes))))
    if None in row:
        for key, c in zip(itertools.product(*axes), row):
            if c is None:
                what = "missing" if table.get(key) is None else "escapes arity"
                errors.append(f"{label} {what} at ({','.join(map(str, key))})")
    return row


def _columns(rows, width: int) -> list[tuple]:
    """The columns of a table with ``width`` columns, even without rows."""
    return list(zip(*rows)) or [()] * width


def _rows(flat: list, width: int, count: int) -> list[list]:
    """The ``count`` rows of a table with ``width`` columns that ``flat``
    lists row by row."""
    if not width:
        return [[] for _ in range(count)]
    return list(map(list, zip(*[iter(flat)] * width)))


def _take(table, keys) -> list[int]:
    """The rows of a coded table at ``keys``, concatenated."""
    flat, rows, _ = table
    if len(flat) == len(rows):      # one column: the flat list is it
        return list(map(flat.__getitem__, keys))
    return list(chain.from_iterable(map(rows.__getitem__, keys)))


def _differ(lhs: list, rhs: list) -> list[int]:
    """The positions at which two lists differ."""
    if lhs == rhs:
        return []
    return [k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y]


def _comp_tables(P: TruncatedOperad, code, errors: list[str]) -> dict:
    """``comp[i, m, n]``, the codes of ``a o_i b`` as a ``(flat, rows,
    columns)`` table, for every composition within the bound; gaps and
    escapes add errors."""
    A = P.arity_bound
    comp = {}
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            if m + n - 1 > A:
                continue
            width = len(P.elements[n])
            for i in range(1, m + 1):
                flat = _coded(P.comp, code[m + n - 1], "composition", errors,
                              (i,), P.elements[m], P.elements[n])
                rows = _rows(flat, width, len(P.elements[m]))
                comp[i, m, n] = flat, rows, _columns(rows, width)
    return comp


def _action_rows(P: TruncatedOperad, code, table, perms, label: str,
                 errors: list[str]) -> dict:
    """``rows[n][s]``, the codes of ``x.s`` in ``table``, for every ``s`` in
    ``perms(n)``; gaps and escapes add errors."""
    return {n: {s: _coded(table, code[n], label, errors, (n,), (s,), P.elements[n])
                for s in perms(n)}
            for n in range(P.arity_bound + 1)}


def _on_generators(check, identity, everything) -> list[str]:
    """Run ``check`` on the generators of each symmetric group, and again
    on ``everything`` only if that fails, so failures list every witness."""
    errors = check(lambda n: generators(identity(n)))
    return check(everything) if errors else errors


def _action_errors(els, rows, perms, compose, identity, identity_msg: str,
                   assoc_msg: str) -> list[str]:
    """Identity and ``x.(s t) = (x.s).t`` for total coded action ``rows``,
    with ``s`` over ``perms`` and ``t`` over generators first."""
    def check(right) -> list[str]:
        errors = []
        for n, row in rows.items():
            errors += [identity_msg.format(n=n, x=els[n][k]) for k in
                       _differ(row[identity(n)], list(range(len(els[n]))))]
            for s in perms(n):
                for t in right(n):
                    moved = list(map(row[t].__getitem__, row[s]))
                    errors += [assoc_msg.format(n=n, s=s, t=t, x=els[n][k]) for k
                               in _differ(moved, row[compose(s, t)])]
        return errors
    return _on_generators(check, identity, perms)


def _associativity_errors(els, comp) -> list[str]:
    """``(a o_i b) o_j c`` against its other bracketing, wherever all
    intermediate arities are within the bound."""
    A = len(els) - 1
    errors = []
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            for k in range(0, A + 1):
                if m + n - 1 > A or m + n + k - 2 > A:
                    continue
                nb, nc = len(els[n]), len(els[k])
                # (a, c, b) order to (a, b, c) order
                swap = None if nb <= 1 or nc <= 1 else [
                    (a * nc + c) * nb + b for a in range(len(els[m]))
                    for b in range(nb) for c in range(nc)]
                witnesses = []
                for i in range(1, m + 1):
                    ab = comp[i, m, n][0]
                    for j in range(1, m + n):
                        if j < i or j > i + n - 1:
                            # (a o_first c) o_rest b, computed in (a, c, b) order
                            if m + k - 1 > A:
                                continue
                            first, rest = (j, i + k - 1) if j < i else (j - n + 1, i)
                            rhs = _take(comp[rest, m + k - 1, n], comp[first, m, k][0])
                            if swap:
                                rhs = list(map(rhs.__getitem__, swap))
                        else:
                            # a o_i (b o_(j-i+1) c): the column at each bc, read down a
                            if n + k - 1 > A:
                                continue
                            H = comp[i, m, n + k - 1][2]
                            rhs = list(chain.from_iterable(zip(*map(
                                H.__getitem__, comp[j - i + 1, n, k][0]))))
                        lhs = _take(comp[j, m + n - 1, k], ab)
                        witnesses += [(p // (nb * nc), p // nc % nb, p % nc, i, j)
                                      for p in _differ(lhs, rhs)]
                errors += [f"associativity fails at ({els[m][a]} o_{i} "
                           f"{els[n][b]}) o_{j} {els[k][c]}"
                           for a, b, c, i, j in sorted(witnesses)]
    return errors


def _equivariance_errors(els, comp, rows, perms) -> list[str]:
    """Outer equivariance for ``s`` and inner for ``t`` over ``perms``."""
    A = len(els) - 1
    errors = []
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            r = m + n - 1
            if r > A:
                continue
            nb, outer, inner = len(els[n]), perms(m), perms(n)
            witnesses = []
            for i in range(1, m + 1):
                F = comp[i, m, n]
                for z, s in enumerate(outer):
                    lhs = _take(F, rows[m][s])
                    rhs = list(map(rows[r][block_perm(s, i, n)].__getitem__,
                                   comp[s[i - 1], m, n][0]))
                    witnesses += [(*divmod(p, nb), i, 0, z) for p in _differ(lhs, rhs)]
                for z, t in enumerate(inner):
                    lhs = list(chain.from_iterable(zip(*map(F[2].__getitem__,
                                                            rows[n][t]))))
                    rhs = list(map(rows[r][shift_perm(t, i, m)].__getitem__, F[0]))
                    witnesses += [(*divmod(p, nb), i, 1, z) for p in _differ(lhs, rhs)]
            errors += [f"equivariance ({('outer', 'inner')[w]}) fails at "
                       f"({(outer, inner)[w][z]},{i},{els[m][a]},{els[n][b]})"
                       for a, b, i, w, z in sorted(witnesses)]
    return errors


def _code_operad(P: TruncatedOperad):
    """The errors of coding ``P`` (missing arities, colliding names, a stray
    unit, gaps and escapes), or the code of each name per arity and the
    arguments of :func:`_check_coded` for ``P``."""
    A = P.arity_bound
    errors = [f"missing arity {n}" for n in range(A + 1) if n not in P.elements]
    if errors:
        return errors, None, None
    els = {n: P.elements[n] for n in range(A + 1)}
    names = [x for xs in els.values() for x in xs]
    if len(set(names)) != len(names):
        return ["element identifiers collide across arities"], None, None
    if P.unit not in P.elements.get(1, ()):
        errors.append("unit is not an element of arity 1")
    code = {n: {x: k for k, x in enumerate(xs)} for n, xs in els.items()}
    comp = _comp_tables(P, code, errors)
    rows = _action_rows(P, code, P.action, all_perms, "action", errors)
    if errors:
        return errors, None, None
    return errors, code, (els, code[1][P.unit], comp, rows)


def _check_coded(els, unit: int, comp, rows, ext=None, ext_gaps=()) -> list[str]:
    """Every axiom of :func:`validate_operad` on total coded tables, and of
    :func:`validate_cyclic` when ``ext`` holds the extended action's rows;
    ``ext_gaps``, that table's gaps and escapes, are reported once the
    operad axioms hold.  The names ``els[n]`` of arity ``n``, distinct
    across arities, are read only for messages."""
    A = len(els) - 1
    action_errors = _action_errors(
        els, rows, all_perms, perm_compose, identity_perm,
        "identity action fails at ({n},{x})",
        "action not associative at ({n},{s},{t},{x})")
    errors = list(action_errors)

    # unit axioms
    for n in range(A + 1):
        errors += [f"left unit fails at {els[n][b]}" for b in
                   _differ(comp[1, 1, n][1][unit], list(range(len(els[n]))))]
    for m in range(1, A + 1):
        ident = list(range(len(els[m])))
        errors += [f"right unit fails at ({i},{els[m][a]})" for a, i in sorted(
            (a, i) for i in range(1, m + 1)
            for a in _differ([row[unit] for row in comp[i, m, 1][1]], ident))]

    errors += _associativity_errors(els, comp)

    # equivariance: generators suffice once the actions are actions
    def equivariance(perms):
        return _equivariance_errors(els, comp, rows, perms)
    errors += (equivariance(all_perms) if action_errors
               else _on_generators(equivariance, identity_perm, all_perms))
    if errors or ext is None or ext_gaps:
        return errors or list(ext_gaps)

    errors = _action_errors(
        els, ext, all_ext_perms, ext_compose, ext_identity,
        "extended identity fails at ({n},{x})",
        "extended action not associative at ({n},{s},{t})")
    # the extended action at permutations fixing 0 is the operad action
    errors += [f"restriction differs at ({n},{s},{els[n][k]})"
               for n in range(A + 1) for s in all_perms(n)
               for k in _differ(ext[n][ext_of_perm(s)], rows[n][s])]
    if errors:
        return errors

    # compatibility of the cyclic generator with partial composition
    turn = {n: ext[n][cyclic_generator(n)] for n in range(A + 1)}
    for m in range(1, A + 1):
        for n in range(1, A + 1):
            r = m + n - 1
            if r > A:
                continue
            nb, witnesses = len(els[n]), []
            for i in range(1, m + 1):
                lhs = list(map(turn[r].__getitem__, comp[i, m, n][0]))
                if i >= 2:
                    rhs = _take(comp[i - 1, m, n], turn[m])
                else:
                    G = comp[n, n, m][1]
                    rhs = [G[y][x] for x in turn[m] for y in turn[n]]
                witnesses += [(*divmod(p, nb), i) for p in _differ(lhs, rhs)]
            errors += [f"cyclic compatibility fails at (i={i},{els[m][a]},"
                       f"{els[n][b]})" for a, b, i in sorted(witnesses)]
    return errors


def validate_operad(P: TruncatedOperad) -> list[str]:
    """Every axiom within the arity bound, exactly (the action axioms via
    generators, see the module docstring); lists witnesses."""
    errors, _, coded = _code_operad(P)
    return errors or _check_coded(*coded)


def validate_cyclic(Q: TruncatedCyclicOperad) -> list[str]:
    """Operad axioms, extended group action, restriction, and compatibility
    of the cyclic generator with every partial composition."""
    errors, code, coded = _code_operad(Q.operad)
    if errors:
        return errors
    gaps: list[str] = []
    ext = _action_rows(Q.operad, code, Q.extended, all_ext_perms,
                       "extended action", gaps)
    return _check_coded(*coded, ext, gaps)
