"""The recorded literature checks behind ``smallcat paper-suite``.

Each case reproduces one published example or counterexample and returns
its JSON payload and whether the claim holds.  Each imports the modules
it uses when it runs, so ``--case`` loads only what that case needs.
"""
from __future__ import annotations


def _case_dagger() -> tuple[dict, bool]:
    from . import invcat
    rep = invcat.reproduce_dagger_counterexample()
    payload = {"p_isofib": rep["p_isofib"], "Rp_isofib": rep["Rp_isofib"]}
    return payload, rep["p_isofib"] and not rep["Rp_isofib"]


def _case_truncation() -> tuple[dict, bool]:
    from . import chaincx
    out = {}
    ok = True
    for p in (2, 5):
        rep = chaincx.reproduce_truncation_counterexample(p)
        out[str(p)] = {"acyclic_fib": rep["acyclic_fib"],
                       "FR_acyclic_fib": rep["FR_acyclic_fib"]}
        ok = ok and rep["acyclic_fib"] and not rep["FR_acyclic_fib"]
    return out, ok


def _case_nabla() -> tuple[dict, bool]:
    from . import nabla
    pres = nabla.build_nabla(2)
    two = len(pres.semidirect.category.hom("[0]", "[0]"))
    doubling = nabla.hom_doubling(pres)
    return ({"hom_0_0": two, "hom_doubling": doubling,
             "presentations_isomorphic": pres.isomorphic},
            two == 2 and doubling and pres.isomorphic)


def _case_icat() -> tuple[dict, bool]:
    from . import invcat
    from .fincat import (CatFunctor, empty_category, opposite,
                         terminal_category, walking_arrow)
    from .search import coproduct, product
    X = walking_arrow()
    LX = invcat.L_inv(X)
    RX = invcat.R_inv(X)
    counts_ok = (len(LX.base.objects) == 2 * len(X.objects)
                 and len(RX.base.objects) == len(X.objects) ** 2)
    underlying_ok = (invcat.forget_inv(LX) == coproduct(X, opposite(X))
                     and invcat.forget_inv(RX) == product(X, opposite(X)))
    rep = invcat.check_inv_adjunctions(
        [terminal_category(), X], invcat.L_inv(X))
    rep2 = invcat.check_inv_adjunctions([X], invcat.R_inv(terminal_category()))
    # a fixed object outside the image breaks the cofibration criterion
    empty = invcat.L_inv(empty_category())
    pt = invcat.trivial_involution(terminal_category())
    to_fixed = invcat.EquivariantFunctor(
        empty, pt, CatFunctor(empty.base, pt.base, {}, {}))
    to_free = invcat.EquivariantFunctor(
        empty, invcat.L_inv(terminal_category()),
        CatFunctor(empty.base, invcat.L_inv(terminal_category()).base, {}, {}))
    exercise_ok = (not invcat.is_inv_cofibration(to_fixed)
                   and invcat.is_inv_cofibration(to_free))
    ok = counts_ok and underlying_ok and rep.ok and rep2.ok and exercise_ok
    return ({"object_counts": counts_ok,
             "underlying_constructions": underlying_ok,
             "left_right_bijections": rep.ok and rep2.ok,
             "free_action_criterion": exercise_ok}, ok)


def _case_fully_faithful() -> tuple[dict, bool]:
    from . import setval
    from .fincat import CatFunctor, chain_category, walking_arrow
    C = walking_arrow()
    D = chain_category(2)
    iota = CatFunctor(C, D, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = setval.SetDiagram.build(
        C, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    unit_iso = setval.is_iso_diagram_map(setval.lan_unit(iota, X))
    counit_iso = setval.is_iso_diagram_map(setval.ran_counit(iota, X))
    comma = setval.comma_over(iota, "1")
    terminal = setval.terminal_objects(comma.category)
    return ({"unit_iso": unit_iso, "counit_iso": counit_iso,
             "comma_has_terminal_identity": len(terminal) == 1},
            unit_iso and counit_iso and len(terminal) == 1)


def _case_semidirect_lan() -> tuple[dict, bool]:
    from . import semidirect, setval
    from .fincat import cyclic_group, discrete_category
    C = discrete_category("ab")
    action = semidirect.permutation_action(
        cyclic_group(2), C,
        {"g0": {"a": "a", "b": "b"}, "g1": {"a": "b", "b": "a"}})
    F = setval.SetDiagram.build(
        C, {"a": ("u",), "b": ("v", "w")},
        {"id_a": {"u": "u"}, "id_b": {"v": "v", "w": "w"}})
    rep = semidirect.verify_lan_formula(action, F)
    return ({"natural_iso": rep.natural_iso,
             "components_indexed_by_group": rep.comma_components_indexed_by_group},
            rep.ok)


def _case_boundary_preservation() -> tuple[dict, bool]:
    # the flip of the simplex category preserves boundary inclusions
    from . import nabla, setval
    from .fincat import opposite_functor
    N = 2
    action = nabla.nabla_action(N)
    flip_op = opposite_functor(action.rho[nabla.SWAP])
    ok = True
    for n in range(N + 1):
        inc = nabla.boundary_inclusion_sset(N, n)
        moved = setval.restrict_map(flip_op, inc)
        if setval.validate_diagram_map(moved) or \
                not setval.is_mono_diagram_map(moved):
            ok = False
    return {"flip_preserves_boundary_monos": ok}, ok


def _case_joyal_generators() -> tuple[dict, bool]:
    from . import nabla
    gens = nabla.generating_cofibrations(2)
    normal = all(nabla.is_normal_mono(g) for g in gens)
    return {"generators": len(gens), "all_normal_monos": normal}, normal


def _case_cyclic() -> tuple[dict, bool]:
    from . import cycadj, cycops
    P = cycops.associative_operad(3)
    R_sizes, errs = cycadj.check_right_adjoint(P)
    sizes = all(R_sizes[n] == len(P.elements[n]) ** (n + 1) for n in range(4))
    valid = errs == []
    T = cycops.terminal_operad(3)
    RT = cycops.right_adjoint_R(T)
    ident = cycops.CyclicOperadMap(
        RT, RT, {n: {x: x for x in RT.operad.elements[n]} for n in range(4)})
    prod = cycops.check_FR_products(ident)
    return ({"R_sizes_are_powers": sizes, "R_assoc_cyclic": valid,
             "FR_products": prod.ok}, sizes and valid and prod.ok)


def _case_isofibration() -> tuple[dict, bool]:
    from .catmodel import (default_generating_acyclic_cofibrations, has_rlp,
                           is_isofibration)
    from .fincat import (CatFunctor, enumerate_functors, indiscrete_category,
                         terminal_category, validate_functor, walking_arrow,
                         walking_iso)
    X = indiscrete_category(["x", "xp", "y"])
    Y = indiscrete_category(["z", "y"])
    ob = {"x": "z", "xp": "z", "y": "y"}
    mor = {m: f"to_{ob[X.target[m]]}_from_{ob[X.source[m]]}"
           for m in X.morphisms}
    p = CatFunctor(X, Y, ob, mor)
    section_ok = validate_functor(p) == [] and is_isofibration(p)
    J = default_generating_acyclic_cofibrations()
    agree = True
    for C in (terminal_category(), walking_arrow(), walking_iso()):
        for D in (terminal_category(), walking_iso()):
            for F in enumerate_functors(C, D)[:6]:
                if has_rlp(J, F) != is_isofibration(F):
                    agree = False
    return ({"section_functor_isofib": section_ok, "rlp_oracle_agrees": agree},
            section_ok and agree)


PAPER_CASES = {
    "dagger": _case_dagger,
    "truncation": _case_truncation,
    "nabla": _case_nabla,
    "icat": _case_icat,
    "fully-faithful": _case_fully_faithful,
    "semidirect-lan": _case_semidirect_lan,
    "boundary-preservation": _case_boundary_preservation,
    "joyal-generators": _case_joyal_generators,
    "cyclic": _case_cyclic,
    "isofibration": _case_isofibration,
}
