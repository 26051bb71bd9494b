"""Categories with anti-involution and their dagger subcategories.

An anti-involution on a finite category ``X`` is a functor
``tau: opposite(X) -> X`` whose opposite composed with itself is the
identity.  The forgetful functor to plain categories has a left adjoint
(disjoint union with the opposite, swap involution) and a right adjoint
(product with the opposite, swap involution); both are constructed here
together with exhaustive certification of the two hom-set bijections.

Dagger categories are the anti-involutive categories whose involution fixes
every object.  The coreflection onto them restricts to the fixed objects;
it famously fails to preserve isofibrations, and the standard three-object
counterexample is reproduced verbatim by :func:`reproduce_dagger_counterexample`.
"""
from __future__ import annotations


# Timed functions are called via their module: see the package docstring.
from . import fincat
from .catmodel import (
    LiftingSquare,
    commuting_squares,
    is_isofibration,
    iter_liftings,
)
from .fincat import (
    CatFunctor,
    FiniteCategory,
    compose_functors,
    opposite_functor,
    pair_name,
    record,
)
from .search import _iter_functors


@record(frozen=True)
class InvolutiveCategory:
    """A finite category with a strict anti-involution."""

    base: FiniteCategory
    tau: CatFunctor    # opposite(base) -> base


@record(frozen=True)
class EquivariantFunctor:
    """A functor commuting with the anti-involutions of its endpoints."""

    source: InvolutiveCategory
    target: InvolutiveCategory
    functor: CatFunctor


@record(frozen=True)
class DaggerCategory(InvolutiveCategory):
    """An involutive category whose involution fixes every object."""


def validate_involutive(X: InvolutiveCategory) -> list[str]:
    """Check the functor axioms for tau and that tau^op . tau is the identity."""
    errors = []
    Bop = fincat.opposite(X.base)
    if X.tau.domain != Bop or X.tau.codomain != X.base:
        return ["tau must be a functor from the opposite to the base"]
    errors.extend(fincat.validate_functor(X.tau))
    if errors:
        return errors
    square = compose_functors(opposite_functor(X.tau), X.tau)
    for x in Bop.objects:
        if square.ob_map[x] != x:
            errors.append(f"tau^op tau moves object {x}")
    for m in Bop.morphisms:
        if square.mor_map[m] != m:
            errors.append(f"tau^op tau moves morphism {m}")
    return errors


def validate_equivariant(f: EquivariantFunctor) -> list[str]:
    """Check that the underlying functor intertwines the involutions."""
    errors = fincat.validate_functor(f.functor)
    if errors:
        return errors
    tauX, tauY = f.source.tau, f.target.tau
    F = f.functor
    for x in f.source.base.objects:
        if tauY.ob_map[F.ob_map[x]] != F.ob_map[tauX.ob_map[x]]:
            errors.append(f"equivariance fails on object {x}")
    for m in f.source.base.morphisms:
        if tauY.mor_map[F.mor_map[m]] != F.mor_map[tauX.mor_map[m]]:
            errors.append(f"equivariance fails on morphism {m}")
    return errors


def validate_dagger(X: DaggerCategory) -> list[str]:
    errors = validate_involutive(X)
    for x in X.base.objects:
        if X.tau.ob_map[x] != x:
            errors.append(f"involution moves object {x}")
    return errors


# ---------------------------------------------------------------------------
# the adjoints to the forgetful functor


def _swapped(base: FiniteCategory, ob: dict[str, str],
             mor: dict[str, str]) -> InvolutiveCategory:
    """``base`` with the involution that renames by the swap tables ``ob``
    and ``mor``, each built over the identifiers that rendered ``base``."""
    tau = CatFunctor(fincat.opposite(base), base,
                     {x: ob[x] for x in base.objects},
                     {m: mor[m] for m in base.morphisms})
    return InvolutiveCategory(base, tau)


def L_inv(X: FiniteCategory) -> InvolutiveCategory:
    """``X`` plus its opposite, with the swap involution (left adjoint)."""
    from .equivalence import coproduct

    def swap(names):
        return {x + a: x + b for x in names
                for a, b in (("#0", "#1"), ("#1", "#0"))}

    return _swapped(coproduct(X, fincat.opposite(X)),
                    swap(X.objects), swap(X.morphisms))


def L_inv_insertion(X: FiniteCategory) -> CatFunctor:
    """The inclusion of ``X`` into the base of ``L_inv(X)``."""
    base = L_inv(X).base
    suffix = "#0" if X.objects else ""
    return CatFunctor(X, base,
                      {x: x + suffix for x in X.objects},
                      {m: m + suffix for m in X.morphisms})


def R_inv(X: FiniteCategory) -> InvolutiveCategory:
    """``X`` times its opposite, with the swap involution (right adjoint)."""
    from .equivalence import product

    def swap(names):
        return {pair_name(a, b): pair_name(b, a) for a in names for b in names}

    return _swapped(product(X, fincat.opposite(X)),
                    swap(X.objects), swap(X.morphisms))


def forget_inv(X: InvolutiveCategory) -> FiniteCategory:
    """Drop the involution."""
    return X.base


def trivial_involution(C: FiniteCategory) -> InvolutiveCategory:
    """The identity-on-identifiers involution; valid only when the raw maps
    of the identity are functorial from the opposite (e.g. discrete or
    commutative one-object categories)."""
    tau = CatFunctor(fincat.opposite(C), C,
                     {x: x for x in C.objects},
                     {m: m for m in C.morphisms})
    X = InvolutiveCategory(C, tau)
    errs = validate_involutive(X)
    if errs:
        raise ValueError("no trivial involution on this category: " + errs[0])
    return X


def enumerate_involutions(C: FiniteCategory) -> list[InvolutiveCategory]:
    """All strict anti-involutions carried by ``C``."""
    out = []
    Cop = fincat.opposite(C)
    for tau in _iter_functors(Cop, C):
        X = InvolutiveCategory(C, tau)
        if not validate_involutive(X):
            out.append(X)
    return out


def enumerate_equivariant(X: InvolutiveCategory, Y: InvolutiveCategory
                          ) -> list[EquivariantFunctor]:
    """All equivariant functors between two involutive categories."""
    out = []
    for F in _iter_functors(X.base, Y.base):
        f = EquivariantFunctor(X, Y, F)
        if not validate_equivariant(f):
            out.append(f)
    return out


def induced_map(f: CatFunctor) -> CatFunctor:
    """Extend ``f: X -> Y`` to ``f + tau f^op`` on the bases of the L's."""
    Y = f.codomain
    return extend_along_L(compose_functors(L_inv_insertion(Y), f),
                          L_inv(Y)).functor


def extend_along_L(f: CatFunctor, Ytau: InvolutiveCategory) -> EquivariantFunctor:
    """The adjunct of ``f: X -> base(Ytau)``: an equivariant map out of L."""
    X = f.domain
    LX = L_inv(X)
    tau = Ytau.tau
    ob, mor = {}, {}
    for x in X.objects:
        ob[x + "#0"] = f.ob_map[x]
        ob[x + "#1"] = tau.ob_map[f.ob_map[x]]
    for m in X.morphisms:
        mor[m + "#0"] = f.mor_map[m]
        mor[m + "#1"] = tau.mor_map[f.mor_map[m]]
    return EquivariantFunctor(LX, Ytau, CatFunctor(LX.base, Ytau.base, ob, mor))


def extend_along_R(f: CatFunctor, Xtau: InvolutiveCategory) -> EquivariantFunctor:
    """The adjunct of ``f: base(Xtau) -> Y``: an equivariant map into R."""
    Y = f.codomain
    RY = R_inv(Y)
    tau = Xtau.tau
    ob = {x: pair_name(f.ob_map[x], f.ob_map[tau.ob_map[x]])
          for x in Xtau.base.objects}
    mor = {m: pair_name(f.mor_map[m], f.mor_map[tau.mor_map[m]])
           for m in Xtau.base.morphisms}
    return EquivariantFunctor(Xtau, RY, CatFunctor(Xtau.base, RY.base, ob, mor))


@record
class InvAdjunctionReport:
    ok: bool
    left_checked: int
    right_checked: int
    failures: list[str]


def check_inv_adjunctions(corpus: list[FiniteCategory],
                          Ytau: InvolutiveCategory) -> InvAdjunctionReport:
    """Certify both hom-set bijections of the adjoint string on a corpus.

    Left side: maps out of the disjoint-union involutive category correspond
    to plain functors via the explicit extension formula.  Right side: maps
    into the product involutive category correspond to plain functors via
    first projection.  Both directions are checked to be mutually inverse
    bijections by exhaustive enumeration.
    """
    failures: list[str] = []
    checked = {"left": 0, "right": 0}
    Y = Ytau.base
    for k, X in enumerate(corpus):
        # each side: the plain functors, the equivariant functors they
        # should match, and the extension formula from one to the other
        sides = (("left", list(_iter_functors(X, Y)),
                  enumerate_equivariant(L_inv(X), Ytau), extend_along_L),
                 ("right", list(_iter_functors(Y, X)),
                  enumerate_equivariant(Ytau, R_inv(X)), extend_along_R))
        for side, plain, equis, extend in sides:
            if len(plain) != len(equis):
                failures.append(f"{side} hom count mismatch on corpus[{k}]")
            image = set()
            for f in plain:
                g = extend(f, Ytau)
                if validate_equivariant(g):
                    failures.append(
                        f"{side} extension not equivariant on corpus[{k}]")
                    continue
                image.add(g.functor.key())
            if image != {e.functor.key() for e in equis}:
                failures.append(f"{side} extension not bijective on corpus[{k}]")
            checked[side] += len(plain)
    return InvAdjunctionReport(not failures, checked["left"], checked["right"],
                               failures)


# ---------------------------------------------------------------------------
# cofibrations of involutive categories


def is_inv_cofibration(f: EquivariantFunctor) -> bool:
    """Injective on objects, with the target involution acting freely
    outside the image of the object map."""
    F = f.functor
    if len(set(F.ob_map.values())) != len(F.domain.objects):
        return False
    image = set(F.ob_map.values())
    tau_ob = f.target.tau.ob_map
    for y in f.target.base.objects:
        if y not in image and tau_ob[y] == y:
            return False
    return True


def inv_solve_lifting(i: EquivariantFunctor, p: EquivariantFunctor,
                      top: EquivariantFunctor, bottom: EquivariantFunctor
                      ) -> EquivariantFunctor | None:
    """A diagonal filler that is itself equivariant, or None."""
    sq = LiftingSquare(i.functor, p.functor, top.functor, bottom.functor)
    for h in iter_liftings(sq):
        cand = EquivariantFunctor(i.target, p.source, h)
        if not validate_equivariant(cand):
            return cand
    return None


def inv_has_llp(i: EquivariantFunctor,
                tests: list[EquivariantFunctor]) -> bool:
    """Left lifting property inside the involutive world (equivariant squares
    and equivariant diagonals)."""
    for p in tests:
        tops = enumerate_equivariant(i.source, p.source)
        bottoms = enumerate_equivariant(i.target, p.target)
        for t, b in commuting_squares(i.functor, p.functor,
                                      [f.functor for f in tops],
                                      [f.functor for f in bottoms]):
            if inv_solve_lifting(i, p, tops[t], bottoms[b]) is None:
                return False
    return True


def acyclic_fibration_tests(corpus: list[InvolutiveCategory]
                            ) -> list[EquivariantFunctor]:
    """All equivariant functors between corpus members whose underlying
    functor is both an equivalence and an isofibration."""
    from .equivalence import is_equivalence
    out = []
    for A in corpus:
        for B in corpus:
            for f in enumerate_equivariant(A, B):
                if is_equivalence(f.functor) and is_isofibration(f.functor):
                    out.append(f)
    return out


# ---------------------------------------------------------------------------
# dagger categories


def dagger_R(X: InvolutiveCategory) -> tuple[DaggerCategory, EquivariantFunctor]:
    """The coreflection: full subcategory on the fixed objects of the
    involution, with the restricted involution; returns it with the counit
    inclusion."""
    B = X.base
    fixed = [x for x in B.objects if X.tau.ob_map[x] == x]
    fixedset = set(fixed)
    keep = [m for m in B.morphisms
            if B.source[m] in fixedset and B.target[m] in fixedset]
    keepset = set(keep)
    sub = FiniteCategory.build(
        fixed, keep,
        {m: B.source[m] for m in keep}, {m: B.target[m] for m in keep},
        {x: B.identity[x] for x in fixed},
        {(f, g): h for (f, g), h in B.compose.items()
         if f in keepset and g in keepset},
    )
    tau = CatFunctor(fincat.opposite(sub), sub,
                     {x: x for x in fixed},
                     {m: X.tau.mor_map[m] for m in keep})
    dag = DaggerCategory(sub, tau)
    counit = EquivariantFunctor(dag, X, CatFunctor(
        sub, B, {x: x for x in fixed}, {m: m for m in keep}))
    return dag, counit


def dagger_R_map(p: EquivariantFunctor) -> EquivariantFunctor:
    """Apply the coreflection to an equivariant functor."""
    RX, _ = dagger_R(p.source)
    RY, _ = dagger_R(p.target)
    F = p.functor
    return EquivariantFunctor(RX, RY, CatFunctor(
        RX.base, RY.base,
        {x: F.ob_map[x] for x in RX.base.objects},
        {m: F.mor_map[m] for m in RX.base.morphisms}))


def _indiscrete_involutive(names, tau_ob: dict[str, str]) -> InvolutiveCategory:
    from .standard import indiscrete_category
    C = indiscrete_category(names)
    mor = {}
    for m in C.morphisms:
        x, y = C.source[m], C.target[m]
        # a morphism of the opposite from y to x maps to tau(y) -> tau(x)
        mor[m] = f"to_{tau_ob[x]}_from_{tau_ob[y]}"
    tau = CatFunctor(fincat.opposite(C), C, dict(tau_ob), mor)
    X = InvolutiveCategory(C, tau)
    assert validate_involutive(X) == []
    return X


def reproduce_dagger_counterexample() -> dict:
    """The three-object counterexample: the coreflection to dagger
    categories destroys an isofibration.

    Builds indiscrete ``X`` on ``{x, x', y}`` with the involution swapping
    ``x`` and ``x'``, indiscrete ``Y`` on ``{z, y}`` with trivial
    involution, and the projection identifying ``x`` with ``x'``; asserts
    the projection is an isofibration while its coreflection is not.
    """
    X = _indiscrete_involutive(["x", "xp", "y"],
                               {"x": "xp", "xp": "x", "y": "y"})
    Y = _indiscrete_involutive(["z", "y"], {"z": "z", "y": "y"})
    ob = {"x": "z", "xp": "z", "y": "y"}
    mor = {m: f"to_{ob[X.base.target[m]]}_from_{ob[X.base.source[m]]}"
           for m in X.base.morphisms}
    p = EquivariantFunctor(X, Y, CatFunctor(X.base, Y.base, ob, mor))
    assert validate_equivariant(p) == []
    rp = dagger_R_map(p)
    assert validate_equivariant(rp) == []
    report = {
        "p_isofib": is_isofibration(p.functor),
        "Rp_isofib": is_isofibration(rp.functor),
        "RX_objects": list(rp.source.base.objects),
        "RY_objects": list(rp.target.base.objects),
    }
    if not (report["p_isofib"] and not report["Rp_isofib"]):
        raise AssertionError(f"dagger counterexample regressed: {report}")
    return report
