"""Semidirect products of a finite category by a finite group action.

Given an action ``rho`` of ``G`` on ``C`` by category isomorphisms, the
semidirect product has the objects of ``C`` and morphism pairs ``(phi,g)``;
the pair has source ``rho_{g^{-1}}(source(phi))``, target ``target(phi)``,
and composition twists the right factor: ``(phi,g).(psi,h) =
(phi . rho_g(psi), g h)``.  Morphism identifiers are the literal pair
strings for auditability.

Building and validating actions and the checks on semidirect products
(the Lan formula among them) live in :mod:`smallcat.sdcheck`, read
through ``__getattr__``.
"""
from __future__ import annotations

from . import moved
from .fincat import (
    CatFunctor,
    FiniteCategory,
    FiniteGroup,
    distinct,
    pair_name,
    record,
    tabulate,
)

# Read from smallcat.sdcheck on first access.
__getattr__ = moved(globals(), sdcheck="""
    validate_action trivial_action permutation_action twisted_coproduct
    LanFormulaReport verify_lan_formula HypothesisReport
    check_semidirect_hypotheses semidirect_op""")


@record(frozen=True)
class GroupAction:
    """An action of ``group`` on ``target`` by category isomorphisms."""

    group: FiniteGroup
    target: FiniteCategory
    rho: dict[str, CatFunctor]


@record(frozen=True)
class SemidirectCategory:
    """The semidirect product category plus decoding data for its pairs."""

    category: FiniteCategory
    action: GroupAction
    pair_of: dict[str, tuple[str, str]]   # morphism id -> (phi, g)


def semidirect(action: GroupAction) -> SemidirectCategory:
    """Build the semidirect product category.

    Raises ``ValueError`` when one pair identifier names two pairs.
    """
    G, C = action.group, action.target
    morphisms, source, target = [], {}, {}
    pair_of = {}
    for phi in C.morphisms:
        for g in G.elements:
            m = pair_name(phi, g)
            morphisms.append(m)
            pair_of[m] = (phi, g)
            source[m] = action.rho[G.inverse[g]].ob_map[C.source[phi]]
            target[m] = C.target[phi]
    distinct(morphisms, "semidirect identifier {} names two pairs")
    identity = {x: pair_name(C.identity[x], G.identity) for x in C.objects}

    def composite(m2: str, m1: str) -> str:
        (phi, g), (psi, h) = pair_of[m2], pair_of[m1]
        return pair_name(C.compose[(phi, action.rho[g].mor_map[psi])],
                         G.mult[(g, h)])

    cat = tabulate(C.objects, morphisms, source, target, identity, composite)
    return SemidirectCategory(cat, action, pair_of)


def inclusion_iota(sd: SemidirectCategory) -> CatFunctor:
    """The identity-on-objects inclusion ``phi -> (phi, e)``."""
    C = sd.action.target
    e = sd.action.group.identity
    return CatFunctor(C, sd.category,
                      {x: x for x in C.objects},
                      {phi: pair_name(phi, e) for phi in C.morphisms})


