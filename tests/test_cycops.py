import pytest


from smallcat.cycadj import _sigma_i, check_right_adjoint
from smallcat.cycmaps import (
    associative_operad,
    check_FR_products,
    check_adjunction_count,
    enumerate_operad_maps,
    forget_cyclic,
    monoid_operad,
    perm_inverse,
    right_adjoint_R_map,
    terminal_cyclic_operad,
    truncate_operad,
    validate_cyclic_map,
    validate_operad_map,
)
from smallcat.cycops import (
    CyclicOperadMap,
    OperadMap,
    TruncatedCyclicOperad,
    TruncatedOperad,
    all_ext_perms,
    all_perms,
    block_perm,
    cyclic_generator,
    ext_compose,
    ext_identity,
    ext_of_perm,
    generators,
    identity_perm,
    perm_compose,
    right_adjoint_R,
    shift_perm,
    terminal_operad,
    validate_cyclic,
    validate_operad,
)


def sign_operad(A=3):
    return monoid_operad(A, ("p", "m"),
                         {("p", "p"): "p", ("p", "m"): "m",
                          ("m", "p"): "m", ("m", "m"): "p"}, "p")


def test_perm_helpers():
    s = (2, 1, 3)
    assert perm_compose(s, s) == identity_perm(3)
    assert perm_inverse((2, 3, 1)) == (3, 1, 2)
    assert cyclic_generator(2) == (1, 2, 0)


def closure(generators, identity, compose):
    """The permutations reachable from ``identity`` by right
    multiplication with ``generators``."""
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [compose(s, g) for s in frontier for g in generators]
        frontier = [s for s in frontier if s not in seen]
        seen.update(frontier)
    return seen


def test_generating_sets_generate():
    for n in range(6):
        assert closure(generators(identity_perm(n)), identity_perm(n),
                       perm_compose) == set(all_perms(n))
        assert closure(generators(ext_identity(n)), ext_identity(n),
                       ext_compose) == set(all_ext_perms(n))
    assert generators(identity_perm(3)) == [(2, 1, 3), (2, 3, 1)]
    assert generators(ext_identity(3)) == [(1, 0, 2, 3), cyclic_generator(3)]
    assert generators(identity_perm(1)) == [(1,)]
    assert generators(ext_identity(0)) == [(0,)]


def test_block_and_shift_perms_are_multiplicative():
    # the generator checks of validate_operad rely on these identities
    for m in range(1, 5):
        for n in range(4):
            assert all(block_perm(identity_perm(m), i, n) == identity_perm(m + n - 1)
                       for i in range(1, m + 1))
            for s in all_perms(m):
                for t in all_perms(m):
                    st = perm_compose(s, t)
                    for i in range(1, m + 1):
                        assert block_perm(st, i, n) == perm_compose(
                            block_perm(s, t[i - 1], n), block_perm(t, i, n))
            for i in range(1, m + 1):
                assert shift_perm(identity_perm(n), i, m) == identity_perm(m + n - 1)
                for u in all_perms(n):
                    for v in all_perms(n):
                        assert shift_perm(perm_compose(u, v), i, m) == perm_compose(
                            shift_perm(u, i, m), shift_perm(v, i, m))


def test_terminal_operad_valid_and_cyclic():
    P = terminal_operad(3)
    assert validate_operad(P) == []
    Q = terminal_cyclic_operad(3)
    assert validate_cyclic(Q) == []


def test_associative_operad_valid():
    assert validate_operad(associative_operad(3)) == []


def test_monoid_operad_valid():
    assert validate_operad(sign_operad()) == []


# Below arity bound 1 there is no arity-1 element to be the unit.
@pytest.mark.parametrize("bound", [0, -1])
def test_terminal_operad_below_bound_1_raises(bound):
    with pytest.raises(ValueError, match=f"arity bound {bound} is below 1"):
        terminal_operad(bound)


@pytest.mark.parametrize("bound", [0, -1])
def test_associative_operad_below_bound_1_raises(bound):
    with pytest.raises(ValueError, match=f"arity bound {bound} is below 1"):
        associative_operad(bound)


def test_monoid_operad_below_bound_1_raises():
    with pytest.raises(ValueError, match="arity bound 0 is below 1"):
        sign_operad(0)



@pytest.mark.parametrize("bound", [0, -3])
def test_truncate_operad_below_bound_1_raises(bound):
    # it used to return an operad with no unit arity, which failed validation
    with pytest.raises(ValueError, match=f"arity bound {bound} is below 1"):
        truncate_operad(terminal_operad(2), bound)

def test_corrupted_unit_is_named():
    P = terminal_operad(2)
    bad = TruncatedOperad(P.arity_bound, P.elements, "t2", P.comp, P.action)
    report = validate_operad(bad)
    assert report
    assert any("unit" in line for line in report)


def test_R_sizes_are_powers():
    for P in (terminal_operad(3), associative_operad(2), sign_operad(3)):
        RQ = right_adjoint_R(P)
        for n in range(P.arity_bound + 1):
            assert len(RQ.operad.elements[n]) == len(P.elements[n]) ** (n + 1)


def test_R_of_terminal_is_terminal():
    RQ = right_adjoint_R(terminal_operad(3))
    assert validate_cyclic(RQ) == []
    for n in range(4):
        assert len(RQ.operad.elements[n]) == 1


def test_R_of_associative_is_cyclic():
    RQ = right_adjoint_R(associative_operad(3))
    assert validate_cyclic(RQ) == []


def test_R_of_sign_operad_is_cyclic():
    RQ = right_adjoint_R(sign_operad())
    assert validate_cyclic(RQ) == []


def test_sigma_i_well_defined_exhaustively():
    for n in range(4):
        for sigma in all_ext_perms(n):
            for i in range(n + 1):
                if n >= 1:
                    out = _sigma_i(sigma, i, n)
                    assert sorted(out) == list(range(1, n + 1))


def test_forget_preserves_tables():
    RQ = right_adjoint_R(sign_operad())
    P = forget_cyclic(RQ)
    assert P.comp is RQ.operad.comp or P.comp == RQ.operad.comp
    assert P.unit == RQ.operad.unit
    assert validate_operad(P) == []


def test_restricted_action_is_diagonal_twisted():
    # for permutations fixing 0, coordinate 0 transforms diagonally and the
    # other coordinates are permuted among themselves
    P = associative_operad(2)
    RQ = right_adjoint_R(P)
    n = 2
    for s in all_perms(n):
        ext = ext_of_perm(s)
        # index map on coordinates 1..n is a permutation of 1..n
        idx = [(n + 1 - ext[(n + 1 - i) % (n + 1)]) % (n + 1)
               for i in range(1, n + 1)]
        assert sorted(idx) == list(range(1, n + 1))
        for xn in RQ.operad.elements[n][:4]:
            parts = xn[1:-1].split(",")
            moved = RQ.extended[(n, ext, xn)]
            got = moved[1:-1].split(",")
            assert got[0] == P.action[(n, s, parts[0])]


def test_adjunction_count_terminal_terminal():
    rep = check_adjunction_count(terminal_cyclic_operad(3), terminal_operad(3))
    assert rep.ok
    assert rep.operad_map_count == 1
    assert rep.cyclic_map_count == 1
    assert rep.projection_is_bijection


def positive_terminal_cyclic(A):
    # one element in every positive arity, empty arity zero
    elements = {0: ()}
    elements.update({n: (f"e{n}",) for n in range(1, A + 1)})
    comp = {}
    for m in range(1, A + 1):
        for n in range(1, A + 1):
            if m + n - 1 > A:
                continue
            for i in range(1, m + 1):
                comp[(i, f"e{m}", f"e{n}")] = f"e{m + n - 1}"
    action = {(n, s, f"e{n}"): f"e{n}"
              for n in range(1, A + 1) for s in all_perms(n)}
    extended = {(n, s, f"e{n}"): f"e{n}"
                for n in range(1, A + 1) for s in all_ext_perms(n)}
    P = TruncatedOperad(A, elements, "e1", comp, action)
    Q = TruncatedCyclicOperad(P, extended)
    assert validate_cyclic(Q) == []
    return Q


def test_adjunction_count_positive_terminal_to_sign():
    rep = check_adjunction_count(positive_terminal_cyclic(3), sign_operad())
    assert rep.ok, rep.failures
    assert rep.operad_map_count == rep.cyclic_map_count == 2
    assert rep.projection_is_bijection


def test_adjunction_count_obstructed_instance():
    # no map can exist: the associative operad has no fixed points in
    # arity 2, so both hom-sets are empty
    rep = check_adjunction_count(terminal_cyclic_operad(2),
                                 associative_operad(2))
    assert rep.ok, rep.failures
    assert rep.operad_map_count == rep.cyclic_map_count == 0


def test_enumerate_operad_maps_validates():
    A = 2
    maps = enumerate_operad_maps(sign_operad(A), sign_operad(A))
    assert len(maps) >= 1  # at least the identity
    for h in maps:
        assert validate_operad_map(h) == []


def test_check_FR_products_identity():
    Q = terminal_cyclic_operad(2)
    ident = CyclicOperadMap(Q, Q, {n: {x: x for x in Q.operad.elements[n]}
                                   for n in range(3)})
    assert validate_cyclic_map(ident) == []
    rep = check_FR_products(ident)
    assert rep.ok, rep.failures
    assert rep.preserves_surjectivity and rep.preserves_injectivity


def test_check_FR_products_surjection():
    # collapse of the sign cyclic structure onto the terminal one
    A = 2
    RS = right_adjoint_R(sign_operad(A))
    RT = right_adjoint_R(terminal_operad(A))
    maps = {}
    for n in range(A + 1):
        tname = RT.operad.elements[n][0] if RT.operad.elements[n] else None
        maps[n] = {x: tname for x in RS.operad.elements[n]}
    f = CyclicOperadMap(RS, RT, maps)
    assert validate_cyclic_map(f) == []
    rep = check_FR_products(f)
    assert rep.ok, rep.failures
    assert rep.preserves_surjectivity


def test_right_adjoint_R_map_is_cyclic():
    A = 2
    collapse = OperadMap(sign_operad(A), terminal_operad(A), {
        0: {},
        1: {"m@1": "t1", "p@1": "t1"},
        2: {"m@2": "t2", "p@2": "t2"},
    })
    assert validate_operad_map(collapse) == []
    rg = right_adjoint_R_map(collapse)
    assert validate_cyclic_map(rg) == []


def colliding_operad():
    """Arity 1 is a monoid on ``a`` (the unit), ``a,b``, ``b,c`` and ``c``,
    so that ``(a,b,c)`` renders two pairs of ``R``'s arity 1."""
    els = ("a", "a,b", "b,c", "c")

    def mult(x, y):
        return y if x == "a" else x if y == "a" else "c"
    return TruncatedOperad(1, {0: (), 1: els}, "a",
                           {(1, x, y): mult(x, y) for x in els for y in els},
                           {(1, s, x): x for s in all_perms(1) for x in els})


def test_R_rejects_two_tuples_with_one_name():
    P = colliding_operad()
    assert validate_operad(P) == []
    with pytest.raises(ValueError, match=r"\(a,b,c\) names two tuples"):
        right_adjoint_R(P)


def arity_crossing_operad():
    """Z/2 on ``x`` (the unit) and ``y`` in arity 1 and one element ``x,y``
    in arity 0, so that ``(x,y)`` renders an element of ``R``'s arity 0 and
    one of its arity 1."""
    els = ("x", "y")
    comp = {(1, a, b): "x" if a == b else "y" for a in els for b in els}
    comp.update({(1, a, "x,y"): "x,y" for a in els})
    return TruncatedOperad(1, {0: ("x,y",), 1: els}, "x", comp,
                           {(n, s, x): x for n, xs in ((0, ("x,y",)), (1, els))
                            for s in all_perms(n) for x in xs})


def test_R_rejects_one_name_in_two_arities():
    P = arity_crossing_operad()
    assert validate_operad(P) == []
    for build in (right_adjoint_R, check_right_adjoint):
        with pytest.raises(ValueError, match=r"^tuple identifier \(x,y\) "
                                             r"names two tuples$"):
            build(P)


def test_R_rejects_partial_tables():
    P = sign_operad(2)
    for table in ("comp", "action"):
        entries = dict(getattr(P, table))
        key = next(iter(entries))
        entries[key] = "p@9"
        bad = TruncatedOperad(2, P.elements, P.unit,
                              **{"comp": P.comp, "action": P.action, table: entries})
        with pytest.raises(ValueError, match=r"^right adjoint of a partial "
                                             r"operad: \w+ escapes arity at"):
            right_adjoint_R(bad)
        del entries[key]
        with pytest.raises(ValueError, match=r"missing at"):
            right_adjoint_R(bad)


def test_R_reads_tuples_whose_elements_hold_commas():
    M = monoid_operad(2, ("x,y", "z"),
                      {(a, b): "z" if "z" in (a, b) else "x,y"
                       for a in ("x,y", "z") for b in ("x,y", "z")}, "x,y")
    assert validate_operad(M) == []
    ident = OperadMap(M, M, {n: {x: x for x in M.elements[n]} for n in range(3)})
    rg = right_adjoint_R_map(ident)
    assert validate_cyclic_map(rg) == []
    assert all(rg.maps[n][x] == x for n in rg.maps for x in rg.maps[n])
    rep = check_adjunction_count(positive_terminal_cyclic(2), M)
    assert rep.ok and rep.projection_is_bijection, rep.failures


def test_modular_functor_composites_are_identity_stub():
    # The genus-zero inclusion of cyclic operads into modular-operad-like
    # data has both adjoints (envelope, extension by a point) whose
    # composites with the forgetful functor are the identity on cyclic
    # operads.  No modular data type is built here; the content at this
    # truncation is exactly that the identity is a Quillen self-adjunction,
    # i.e. the identity map is a cyclic map both ways.
    Q = terminal_cyclic_operad(2)
    ident = CyclicOperadMap(Q, Q, {n: {x: x for x in Q.operad.elements[n]}
                                   for n in range(3)})
    assert validate_cyclic_map(ident) == []
