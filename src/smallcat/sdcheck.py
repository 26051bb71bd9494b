"""Group actions, and the checks made on semidirect products.

:func:`verify_lan_formula` certifies that restricting the left Kan
extension along the inclusion of ``C`` gives the coproduct of the twisted
copies of the diagram, one per group element, through the terminal object
of each component of the comma category.  Every name here is also
reachable through :mod:`smallcat.semidirect`, where it lived before.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable

# Timed functions are called via their module: see the package docstring.
from . import fincat, semidirect
from .fincat import (
    CatFunctor,
    FiniteCategory,
    FiniteGroup,
    compose_functors,
    field,
    opposite_functor,
    pair_name,
    record,
)
from .semidirect import GroupAction, SemidirectCategory, inclusion_iota
from .standard import identity_functor, opposite_group, validate_group

# setval is imported in the functions, so that action blocks load none
if TYPE_CHECKING:
    from .setval import DiagramMap, SetDiagram


def validate_action(action: GroupAction) -> list[str]:
    """Group axioms, functoriality of every rho, and homomorphism property."""
    errors = validate_group(action.group)
    if errors:
        return [f"group invalid: {errors[0]}"]
    G, C = action.group, action.target
    for g in G.elements:
        F = action.rho.get(g)
        if F is None or F.domain != C or F.codomain != C:
            errors.append(f"rho[{g}] is not an endofunctor of the target")
            continue
        errors.extend(f"rho[{g}]: {e}" for e in fincat.validate_functor(F))
    if errors:
        return errors
    ident = identity_functor(C)
    if action.rho[G.identity].ob_map != ident.ob_map \
            or action.rho[G.identity].mor_map != ident.mor_map:
        errors.append("rho at the group identity is not the identity functor")
    for g in G.elements:
        for h in G.elements:
            gh = G.mult[(g, h)]
            comp = compose_functors(action.rho[g], action.rho[h])
            if comp.ob_map != action.rho[gh].ob_map \
                    or comp.mor_map != action.rho[gh].mor_map:
                errors.append(f"rho is not a homomorphism at ({g},{h})")
    for g in G.elements:
        inv = compose_functors(action.rho[g], action.rho[G.inverse[g]])
        if inv.ob_map != ident.ob_map or inv.mor_map != ident.mor_map:
            errors.append(f"rho[{g}] is not invertible via rho[{g}^-1]")
    return errors


def trivial_action(G: FiniteGroup, C: FiniteCategory) -> GroupAction:
    return GroupAction(G, C, {g: identity_functor(C) for g in G.elements})


def permutation_action(G: FiniteGroup, C: FiniteCategory,
                       ob_perm: dict[str, dict[str, str]]) -> GroupAction:
    """Action on a category determined by object permutations.

    Each ``ob_perm[g]`` must extend uniquely to morphisms (it does for
    discrete and indiscrete categories, where the convention
    ``to_y_from_x`` or ``id_x`` is used for identifiers).
    """
    rho = {}
    for g, perm in ob_perm.items():
        mor = {}
        for m in C.morphisms:
            x, y = C.source[m], C.target[m]
            if C.is_identity(m):
                mor[m] = C.identity[perm[x]]
            else:
                mor[m] = f"to_{perm[y]}_from_{perm[x]}"
        rho[g] = CatFunctor(C, C, dict(perm), mor)
    return GroupAction(G, C, rho)


def twisted_coproduct(action: GroupAction, F: SetDiagram
                      ) -> tuple[SetDiagram, dict[str, DiagramMap]]:
    """The coproduct over the group of the twisted restrictions of ``F``.

    Summand ``g`` is the restriction of ``F`` along ``rho`` at the inverse
    of ``g``; returns the total diagram and one injection per element.
    """
    from . import setval
    G = action.group
    order = sorted(G.elements)
    summands = [setval.restrict(action.rho[G.inverse[g]], F) for g in order]
    total, injections = setval.coproduct_diagrams(summands)
    return total, dict(zip(order, injections))


@record
class LanFormulaReport:
    ok: bool
    natural_iso: bool
    component_bijections: dict[str, bool] = field(default_factory=dict)
    comma_components_indexed_by_group: bool = True
    failures: list[str] = field(default_factory=list)


def verify_lan_formula(action: GroupAction, F: SetDiagram) -> LanFormulaReport:
    """Certify the coproduct decomposition of restrict-of-extend.

    Computes the left Kan extension of ``F`` along the inclusion into the
    semidirect product as a left core (:func:`~smallcat.kan._lan_core`),
    restricts its rendered extension back, and compares with the coproduct
    of the twisted restrictions via the explicit comparison map through the
    terminal object ``(id_x, g)`` of each connected component of the comma
    category; the class of each element at a comma object is read through
    the core's injection table there.  Also checks that those components
    are in bijection with the group, each with a terminal object.
    """
    from . import setval
    from .coded import _code
    from .kan import _lan_core, _render_lan
    failures: list[str] = []
    G, C = action.group, action.target
    sd = semidirect.semidirect(action)
    iota = inclusion_iota(sd)
    core = _lan_core(iota, _code(F))
    LF = _render_lan(core)
    left = setval.restrict(iota, LF)
    right, injections = twisted_coproduct(action, F)

    # comma component structure at every object
    comps_ok = True
    for x in C.objects:
        K = setval.comma_over(iota, x)
        homs = fincat.hom_index(K.category)
        comps = setval.connected_components(K.category)
        if len(comps) != len(G.elements):
            comps_ok = False
            failures.append(f"comma components at {x}: {len(comps)} != |G|")
        for comp in comps:
            # an object of the component that every object of the component
            # maps to uniquely
            wide = [t for t in comp if all(
                len(homs.get((o, t), ())) == 1 for o in comp)]
            if not wide:
                comps_ok = False
                failures.append(f"comma component at {x} lacks a terminal object")

    # comparison map through the terminal objects
    components: dict[str, dict[str, str]] = {}
    bijections: dict[str, bool] = {}
    for x in C.objects:
        names, tables = LF.values[x], core.tables[x]
        mapping: dict[str, str] = {}
        for c, m in core.objects[x].values():
            phi, g = sd.pair_of[m]
            ginv = G.inverse[g]
            u = action.rho[ginv].mor_map[phi]    # the map to the terminal object
            for e, i in zip(F.values[c], tables[c, m]):
                cls = names[i]
                img = injections[g].components[x][F.action[u][e]]
                prev = mapping.get(cls)
                if prev is not None and prev != img:
                    failures.append(f"comparison ill-defined at {x} on {cls}")
                mapping[cls] = img
        components[x] = mapping
        bijections[x] = (len(mapping) == len(left.values[x])
                         and len(set(mapping.values())) == len(right.values[x])
                         and len(mapping) == len(set(mapping.values())))
        if not bijections[x]:
            failures.append(f"comparison not bijective at {x}")

    iso = setval.DiagramMap(left, right, components)
    errs = setval.validate_diagram_map(iso)
    natural = not errs and setval.is_iso_diagram_map(iso)
    failures.extend(f"comparison map: {e}" for e in errs)
    return LanFormulaReport(ok=not failures, natural_iso=natural,
                            component_bijections=bijections,
                            comma_components_indexed_by_group=comps_ok,
                            failures=failures)


@record
class HypothesisReport:
    ok: bool
    verdicts: dict[tuple[str, str, int], bool] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def check_semidirect_hypotheses(action: GroupAction,
                                maps: list[DiagramMap],
                                predicates: dict[str, Callable[[DiagramMap], bool]]
                                ) -> HypothesisReport:
    """Check that restriction along every group element preserves predicates.

    For each named predicate, each group element ``g`` and each corpus map
    satisfying the predicate, the restriction of the map along ``rho_g``
    must satisfy it as well.  Per-case verdicts are collected; a failure is
    a map where preservation breaks.
    """
    from . import setval
    verdicts: dict[tuple[str, str, int], bool] = {}
    failures: list[str] = []
    for name, pred in sorted(predicates.items()):
        for g in action.group.elements:
            rho_g = action.rho[g]
            for k, h in enumerate(maps):
                if not pred(h):
                    continue
                preserved = pred(setval.restrict_map(rho_g, h))
                verdicts[(name, g, k)] = preserved
                if not preserved:
                    failures.append(f"{name} not preserved by rho[{g}] on map {k}")
    return HypothesisReport(not failures, verdicts, failures)


def semidirect_op(action: GroupAction) -> tuple[SemidirectCategory, CatFunctor]:
    """The opposite-compatible semidirect product.

    Builds the semidirect product of the opposite category by the auxiliary
    action of the opposite group (each element acting by the opposite of
    the inverse's action) and returns it with the contravariant comparison
    functor from the opposite of the plain semidirect product, verified to
    be an isomorphism of categories.
    """
    G, C = action.group, action.target
    Gop = opposite_group(G)
    Cop = fincat.opposite(C)
    kappa = {g: opposite_functor(action.rho[G.inverse[g]]) for g in G.elements}
    sd_op = semidirect.semidirect(GroupAction(Gop, Cop, kappa))
    sd = semidirect.semidirect(action)

    ob = {x: x for x in C.objects}
    mor = {}
    for m, (phi, g) in sd.pair_of.items():
        ginv = G.inverse[g]
        mor[m] = pair_name(action.rho[ginv].mor_map[phi], g)
    comparison = CatFunctor(fincat.opposite(sd.category), sd_op.category,
                            ob, mor)
    errs = fincat.validate_functor(comparison)
    if errs:
        raise AssertionError("semidirect opposite comparison fails: " + errs[0])
    if len(set(mor.values())) != len(mor):
        raise AssertionError("semidirect opposite comparison not bijective")
    return sd_op, comparison
