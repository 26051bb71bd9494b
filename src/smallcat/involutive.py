"""Truncated real simplicial sets as simplicial sets with an
anti-involution: the translation in both directions, and the conjugation
squares that make an anti-involution.

:func:`to_involutive` forgets a real simplicial set down to its
underlying simplicial set and level involutions, and
:func:`from_involutive` assembles it back; the equivalence is the
identity on underlying data.  Only the commands that check or translate
a real simplicial set load this module.
"""
from __future__ import annotations

# Timed functions are called via their module: see the package docstring.
from . import fincat, nabla
from .fincat import opposite_functor, pair_name
from .nabla import (
    UNIT,
    TruncatedRealSimplicialSet,
    TruncatedSimplicialSet,
    flip_delta_morphism,
    involution_levels,
    nabla_category,
    object_level,
    validate_rsset,
)
from .semidirect import inclusion_iota


def to_involutive(X: TruncatedRealSimplicialSet
                  ) -> tuple[TruncatedSimplicialSet, dict[int, dict[str, str]]]:
    """Forget down to a simplicial set with an anti-involution.

    Returns the underlying truncated simplicial set together with the level
    involutions; the pair determines ``X`` completely.
    """
    from . import setval
    N = X.level
    sd = nabla_category(N)
    iota = inclusion_iota(sd)
    underlying = setval.restrict(opposite_functor(iota), X.diagram)
    return (TruncatedSimplicialSet(N, underlying), involution_levels(X))


def from_involutive(A: TruncatedSimplicialSet,
                    sigma: dict[int, dict[str, str]]
                    ) -> TruncatedRealSimplicialSet:
    """Assemble a real simplicial set from an anti-involution.

    ``sigma[n]`` must square to the identity and satisfy the conjugation
    square ``alpha^* . sigma_n == sigma_m . flip(alpha)^*`` for every
    ``alpha: [m] -> [n]``; the signed action is then ``(alpha, swap)^* =
    sigma_m . alpha^*``, which is the unique extension compatible with the
    composition convention of the semidirect presentation.  Invalid input
    is rejected.
    """
    from . import setval
    N = A.level
    for n in range(N + 1):
        obj = f"[{n}]"
        s = sigma.get(n)
        if s is None or set(s) != set(A.diagram.values[obj]):
            raise ValueError(f"involution at level {n} is not a total function")
        for e in A.diagram.values[obj]:
            if s[s[e]] != e:
                raise ValueError(f"involution at level {n} does not square to one")
    alpha = _unconjugated(N, A.diagram.values, A.diagram.action, sigma)
    if alpha is not None:
        raise ValueError(f"involution does not conjugate {alpha}")
    sd = nabla_category(N)
    shape = fincat.opposite(sd.category)
    values = {o: A.diagram.values[o] for o in shape.objects}
    action = {}
    for name, (phi, g) in sd.pair_of.items():
        m = object_level(sd.category.source[name])
        base = A.diagram.action[phi]
        if g == UNIT:
            action[name] = dict(base)
        else:
            action[name] = {e: sigma[m][base[e]] for e in base}
    X = TruncatedRealSimplicialSet(N, setval.SetDiagram.build(shape, values,
                                                               action))
    errs = validate_rsset(X)
    if errs:
        raise ValueError("assembled action is not functorial: " + errs[0])
    return X


def conjugation_squares_hold(X: TruncatedRealSimplicialSet) -> bool:
    """Check ``(alpha,1)^* . sigma_n == sigma_m . (flip(alpha),1)^*`` for
    every order-preserving ``alpha``."""
    N = X.level
    action = {alpha: X.diagram.action[pair_name(alpha, UNIT)]
              for alpha in nabla.delta_leq(N).morphisms}
    return _unconjugated(N, X.diagram.values, action,
                         involution_levels(X)) is None


def _unconjugated(N: int, values: dict[str, tuple[str, ...]],
                  action: dict[str, dict[str, str]],
                  sigma: dict[int, dict[str, str]]) -> str | None:
    """The first order-preserving ``alpha: [m] -> [n]`` whose square
    ``action[alpha] . sigma[n] == sigma[m] . action[flip(alpha)]`` fails
    on the simplices ``values["[n]"]``, or ``None`` if every square holds."""
    delta = nabla.delta_leq(N)
    for alpha in delta.morphisms:
        m = object_level(delta.source[alpha])
        n = object_level(delta.target[alpha])
        act, flipped = action[alpha], action[flip_delta_morphism(alpha)]
        if any(act[sigma[n][e]] != sigma[m][flipped[e]]
               for e in values[f"[{n}]"]):
            return alpha
    return None
