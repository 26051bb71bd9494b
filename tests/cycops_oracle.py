"""The cyclic-operad validators and right adjoint as they were before the
action axioms were checked on group generators.

Every action-associativity and equivariance check here runs over all
permutations, every membership test scans the element tuple, and
``right_adjoint_R`` rebuilds each index permutation per element.  They are
kept, unchanged, as the reference that ``test_cycops_oracle`` compares
:mod:`smallcat.cycops` against, together with the loop-built
``block_perm`` and ``shift_perm`` they call.
"""
import itertools

from smallcat.cycops import (
    TruncatedCyclicOperad,
    TruncatedOperad,
    _sigma_i,
    _tuple_name,
    all_ext_perms,
    all_perms,
    cyclic_generator,
    ext_compose,
    ext_identity,
    ext_of_perm,
    identity_perm,
    perm_compose,
)


def block_perm(s: tuple[int, ...], i: int, n: int) -> tuple[int, ...]:
    """The permutation appearing when a relabeled operation is composed.

    For ``s`` on ``m`` letters and a block of ``n`` letters substituted at
    slot ``i`` of the relabeled operation (slot ``s(i)`` of the original),
    returns the induced permutation of ``m+n-1`` letters.
    """
    m = len(s)

    def shift(v: int) -> int:
        return v if v < s[i - 1] else v + n - 1

    out = []
    for k in range(1, i):
        out.append(shift(s[k - 1]))
    for k in range(i, i + n):
        out.append(s[i - 1] + (k - i))
    for k in range(i + n, m + n):
        out.append(shift(s[k - n]))
    return tuple(out)


def shift_perm(t: tuple[int, ...], i: int, m: int) -> tuple[int, ...]:
    """The permutation letting ``t`` act inside the block at slot ``i``."""
    n = len(t)
    out = list(range(1, m + n))
    for j in range(1, n + 1):
        out[i - 1 + j - 1] = i - 1 + t[j - 1]
    return tuple(out)


def validate_operad(P: TruncatedOperad) -> list[str]:
    """Exhaustive axiom check within the arity bound; lists witnesses."""
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
                        elif v not in P.elements[m + n - 1]:
                            errors.append(f"composition escapes arity at ({i},{a},{b})")
    # action tables: totality, action axioms
    for n in range(A + 1):
        for s in all_perms(n):
            for x in P.elements[n]:
                v = P.action.get((n, s, x))
                if v is None:
                    errors.append(f"action missing at ({n},{s},{x})")
                elif v not in P.elements[n]:
                    errors.append(f"action escapes arity at ({n},{s},{x})")
    if errors:
        return errors

    for n in range(A + 1):
        for x in P.elements[n]:
            if P.action[(n, identity_perm(n), x)] != x:
                errors.append(f"identity action fails at ({n},{x})")
        for s in all_perms(n):
            for t in all_perms(n):
                st = perm_compose(s, t)
                for x in P.elements[n]:
                    if P.action[(n, t, P.action[(n, s, x)])] != P.action[(n, st, x)]:
                        errors.append(f"action not associative at ({n},{s},{t},{x})")

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

    # equivariance
    for m in range(1, A + 1):
        for n in range(0, A + 1):
            if m + n - 1 > A:
                continue
            for a in P.elements[m]:
                for b in P.elements[n]:
                    for i in range(1, m + 1):
                        for s in all_perms(m):
                            lhs = P.comp[(i, P.action[(m, s, a)], b)]
                            rhs = P.action[(m + n - 1, block_perm(s, i, n),
                                            P.comp[(s[i - 1], a, b)])]
                            if lhs != rhs:
                                errors.append(
                                    f"equivariance (outer) fails at "
                                    f"({s},{i},{a},{b})")
                        for t in all_perms(n):
                            lhs = P.comp[(i, a, P.action[(n, t, b)])]
                            rhs = P.action[(m + n - 1, shift_perm(t, i, m),
                                            P.comp[(i, a, b)])]
                            if lhs != rhs:
                                errors.append(
                                    f"equivariance (inner) fails at "
                                    f"({t},{i},{a},{b})")
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
    # extended action is a right group action
    for n in range(A + 1):
        for s in all_ext_perms(n):
            for x in P.elements[n]:
                v = Q.extended.get((n, s, x))
                if v is None:
                    errors.append(f"extended action missing at ({n},{s},{x})")
                elif v not in P.elements[n]:
                    errors.append(f"extended action escapes arity at ({n},{s},{x})")
    if errors:
        return errors
    for n in range(A + 1):
        for x in P.elements[n]:
            if Q.extended[(n, ext_identity(n), x)] != x:
                errors.append(f"extended identity fails at ({n},{x})")
        for s in all_ext_perms(n):
            for t in all_ext_perms(n):
                st = ext_compose(s, t)
                for x in P.elements[n]:
                    if Q.extended[(n, t, Q.extended[(n, s, x)])] != \
                            Q.extended[(n, st, x)]:
                        errors.append(f"extended action not associative at ({n},{s},{t})")
    errors.extend(restricted_action_matches(Q))
    if errors:
        return errors

    # compatibility of the cyclic generator with partial composition
    for m in range(1, A + 1):
        for n in range(1, A + 1):
            if m + n - 1 > A:
                continue
            r = m + n - 1
            for a in P.elements[m]:
                ta = Q.extended[(m, cyclic_generator(m), a)]
                for b in P.elements[n]:
                    tb = Q.extended[(n, cyclic_generator(n), b)]
                    for i in range(1, m + 1):
                        lhs = Q.extended[(r, cyclic_generator(r),
                                          P.comp[(i, a, b)])]
                        if i >= 2:
                            rhs = P.comp[(i - 1, ta, b)]
                        else:
                            rhs = P.comp[(n, tb, ta)]
                        if lhs != rhs:
                            errors.append(
                                f"cyclic compatibility fails at "
                                f"(i={i},{a},{b})")
    return errors


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
            for xn in elements[n]:
                x = decode[n][xn]
                out = []
                for i in range(n + 1):
                    src = (n + 1 - sigma[(n + 1 - i) % (n + 1)]) % (n + 1)
                    if n >= 1:
                        si = _sigma_i(sigma, i, n)
                        out.append(P.action[(n, si, x[src])])
                    else:
                        out.append(x[src])
                extended[(n, sigma, xn)] = _tuple_name(tuple(out))

    action = {}
    for n in range(A + 1):
        for s in all_perms(n):
            for xn in elements[n]:
                action[(n, s, xn)] = extended[(n, ext_of_perm(s), xn)]

    unit = _tuple_name((P.unit, P.unit))
    RP = TruncatedOperad(A, elements, unit, comp, action)
    return TruncatedCyclicOperad(RP, extended)
