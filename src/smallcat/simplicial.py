"""Representables, boundary inclusions, normal monomorphisms and the
generating cofibrations of truncated (real) simplicial sets.

A generating cofibration is the left Kan extension of a boundary
inclusion along the inclusion of the simplex category into the signed
one.  ``perfbench`` reads :func:`representable_rsset` and
:func:`generating_cofibrations` at :mod:`smallcat.nabla`, which forwards
them here.
"""
from __future__ import annotations

# Timed functions are called via their module: see the package docstring.
from . import fincat, nabla, setval
from .fincat import opposite_functor, pair_name
from .nabla import (
    UNIT,
    TruncatedRealSimplicialSet,
    TruncatedSimplicialSet,
    delta_images,
    involution_levels,
    nabla_category,
    object_level,
)
from .semidirect import inclusion_iota
from .setval import DiagramMap


def validate_sset(X: TruncatedSimplicialSet) -> list[str]:
    if X.diagram.shape != fincat.opposite(nabla.delta_leq(X.level)):
        return ["shape is not the opposite truncated simplex category"]
    return setval.validate_diagram(X.diagram)


def degenerate_simplices(X: TruncatedRealSimplicialSet, n: int) -> set[str]:
    """Simplices at level ``n`` hit by a proper degeneracy of the underlying
    simplicial set."""
    out: set[str] = set()
    delta = nabla.delta_leq(X.level)
    for eta in delta.morphisms:
        if delta.source[eta] != f"[{n}]":
            continue
        k = object_level(delta.target[eta])
        if k >= n:
            continue
        if set(delta_images(eta)) != set(range(k + 1)):
            continue
        out.update(X.diagram.action[pair_name(eta, UNIT)].values())
    return out


def is_normal_mono(h: DiagramMap) -> bool:
    """Levelwise injective with the involution acting freely outside the
    image.

    The freeness condition is evaluated twice, on all simplices and on
    nondegenerate simplices only; the two verdicts provably agree, and a
    disagreement is raised as an internal error.
    """
    shape = h.source.shape
    N = max(object_level(o) for o in shape.objects)
    X = TruncatedRealSimplicialSet(N, h.target)
    sigma = involution_levels(X)
    full, nondeg = True, True
    for o in shape.objects:
        comp = h.components[o]
        if len(set(comp.values())) != len(h.source.values[o]):
            return False
        image = set(comp.values())
        n = object_level(o)
        degs = degenerate_simplices(X, n)
        for y in h.target.values[o]:
            if y in image:
                continue
            if sigma[n][y] == y:
                full = False
                if y not in degs:
                    nondeg = False
    if full != nondeg:
        raise RuntimeError(
            "normality criteria disagree on all vs nondegenerate simplices")
    return full


def representable_sset(N: int, n: int) -> TruncatedSimplicialSet:
    """The standard ``n``-simplex truncated at level ``N``."""
    from .kan import representable
    return TruncatedSimplicialSet(N, representable(nabla.delta_leq(N),
                                                   f"[{n}]"))


def boundary_inclusion_sset(N: int, n: int) -> DiagramMap:
    """The boundary of the standard simplex into the standard simplex, as a
    map of diagrams over the opposite truncated simplex category."""
    from .kan import representable
    delta = nabla.delta_leq(N)
    simp = representable(delta, f"[{n}]")
    values = {}
    for o in delta.objects:
        values[o] = tuple(u for u in simp.values[o]
                          if set(delta_images(u)) != set(range(n + 1)))
    action = {}
    for m in delta.morphisms:
        src = delta.target[m]     # presheaf action reverses direction
        action[m] = {u: simp.action[m][u] for u in values[src]}
    boundary = setval.SetDiagram.build(simp.shape, values, action)
    inc = setval.DiagramMap(boundary, simp,
                     {o: {u: u for u in values[o]} for o in delta.objects})
    return inc


def representable_rsset(N: int, n: int) -> TruncatedRealSimplicialSet:
    """The signed standard ``n``-simplex truncated at level ``N``."""
    from .kan import representable
    sd = nabla_category(N)
    return TruncatedRealSimplicialSet(N, representable(sd.category, f"[{n}]"))


def generating_cofibrations(N: int) -> list[DiagramMap]:
    """Left Kan extensions of the boundary inclusions along the inclusion of
    the simplex category, one per dimension up to ``N``; each is verified to
    be a normal monomorphism."""
    from .kan import lan_map
    from .universal import validate_diagram_map
    sd = nabla_category(N)
    iota_op = opposite_functor(inclusion_iota(sd))
    gens = []
    for n in range(N + 1):
        inc = boundary_inclusion_sset(N, n)
        gen = lan_map(iota_op, inc)
        if validate_diagram_map(gen):
            raise AssertionError("extended boundary inclusion is not a map")
        if not is_normal_mono(gen):
            raise AssertionError(f"generator at dimension {n} is not normal")
        gens.append(gen)
    return gens
