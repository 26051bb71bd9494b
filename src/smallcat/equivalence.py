"""Products, coproducts and cores of finite categories, natural
transformations, and the fullness, faithfulness and equivalence tests.

Natural-transformation enumeration runs on
:func:`~smallcat.searchcore.backtrack`, and the isomorphism search on the
functor enumeration of :mod:`smallcat.search`.  Coproduct copies are
suffixed ``#0`` / ``#1`` when the two identifier sets meet.

The functor searches of ``smallcat lift`` and ``smallcat rlp`` load none
of it.
"""
from __future__ import annotations

from .fincat import (
    CatFunctor,
    FiniteCategory,
    NaturalTransformation,
    distinct,
    hom_index,
    pair_name,
)
from .search import _iter_functors
from .searchcore import NodeBudget, backtrack, constraint_lists, isomorphisms


# ---------------------------------------------------------------------------
# products, coproducts and cores


def product(C: FiniteCategory, D: FiniteCategory) -> FiniteCategory:
    """The product category, with pairwise identifiers ``(c,d)``."""
    objects = [pair_name(x, y) for x in C.objects for y in D.objects]
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    for f in C.morphisms:
        for g in D.morphisms:
            m = pair_name(f, g)
            morphisms.append(m)
            source[m] = pair_name(C.source[f], D.source[g])
            target[m] = pair_name(C.target[f], D.target[g])
    for x in C.objects:
        for y in D.objects:
            identity[pair_name(x, y)] = pair_name(C.identity[x], D.identity[y])
    for (f1, f2), f3 in C.compose.items():
        for (g1, g2), g3 in D.compose.items():
            compose[(pair_name(f1, g1), pair_name(f2, g2))] = pair_name(f3, g3)
    for names in (objects, morphisms):
        distinct(names, "product identifier {} names two pairs")
    return FiniteCategory.build(objects, morphisms, source, target, identity, compose)


def coproduct(C: FiniteCategory, D: FiniteCategory) -> FiniteCategory:
    """The disjoint union.

    If the identifier sets already are disjoint they are kept; otherwise
    every identifier is renamed with the suffixes ``#0`` (left) and ``#1``
    (right).
    """
    disjoint = (not set(C.objects) & set(D.objects)
                and not set(C.morphisms) & set(D.morphisms))
    left, right = ("", "") if disjoint else ("#0", "#1")
    objects = [x + left for x in C.objects] + [x + right for x in D.objects]
    morphisms = [m + left for m in C.morphisms] + \
        [m + right for m in D.morphisms]
    source, target, identity, compose = {}, {}, {}, {}
    for E, tag in ((C, left), (D, right)):
        for m in E.morphisms:
            source[m + tag] = E.source[m] + tag
            target[m + tag] = E.target[m] + tag
        for x in E.objects:
            identity[x + tag] = E.identity[x] + tag
        for (f, g), h in E.compose.items():
            compose[(f + tag, g + tag)] = h + tag
    return FiniteCategory.build(objects, morphisms, source, target, identity, compose)


def core(C: FiniteCategory) -> FiniteCategory:
    """The wide subcategory on exactly the invertible morphisms."""
    keep = isomorphisms(C)
    keepset = set(keep)
    return FiniteCategory.build(
        C.objects, keep,
        {m: C.source[m] for m in keep},
        {m: C.target[m] for m in keep},
        dict(C.identity),
        {(f, g): h for (f, g), h in C.compose.items()
         if f in keepset and g in keepset},
    )


def is_groupoid(C: FiniteCategory) -> bool:
    return len(isomorphisms(C)) == len(C.morphisms)


# ---------------------------------------------------------------------------
# natural transformations


class _Square:
    """Whether the naturality square of ``Fm`` and ``Gm`` commutes at the
    components ``(cy, cx)``, computed when :func:`backtrack` reads it."""

    def __init__(self, compose, Fm: str, Gm: str):
        self.compose, self.Fm, self.Gm = compose, Fm, Gm

    def __getitem__(self, key: tuple[str, str]) -> bool:
        return self.compose[key[0], self.Fm] == self.compose[self.Gm, key[1]]


def enumerate_naturals(F: CatFunctor, G: CatFunctor,
                       budget: int = 1_000_000) -> list[NaturalTransformation]:
    """All natural transformations ``F => G``, in lexicographic order: one
    :func:`backtrack` over the components, where the square of each
    non-identity ``m: x -> y`` is a table from the components at ``y`` and
    ``x`` to whether it commutes.  ``budget`` bounds the nodes searched."""
    if F.domain != G.domain or F.codomain != G.codomain:
        raise ValueError("parallel functors required")
    C, D = F.domain, F.codomain
    obs = list(C.objects)
    hom = hom_index(D)
    choices = [hom.get((F.ob_map[x], G.ob_map[x]), ()) for x in obs]
    slot = {x: k for k, x in enumerate(obs)}
    squares = []
    for m in C.morphisms:
        if C.is_identity(m):
            continue    # its square commutes for any functor
        i, j = slot[C.source[m]], slot[C.target[m]]
        squares.append((_Square(D.compose, F.mor_map[m], G.mor_map[m]), (j, i), -1))
    found = backtrack(choices, constraint_lists(len(obs), squares),
                      NodeBudget(budget, "too many candidate transformations",
                                 "natural_transformations"),
                      (True,))
    return [NaturalTransformation(F, G, dict(zip(obs, a))) for a in found]


def validate_natural(nt: NaturalTransformation) -> list[str]:
    """Check endpoint typing and every naturality square."""
    F, G = nt.source, nt.target
    C, D = F.domain, F.codomain
    morphisms = set(D.morphisms)
    errors = []
    for x in C.objects:
        c = nt.components.get(x)
        if c is None or c not in morphisms:
            errors.append(f"component at {x}: missing")
            continue
        if D.source[c] != F.ob_map[x] or D.target[c] != G.ob_map[x]:
            errors.append(f"component at {x}: wrong endpoints")
    if errors:
        return errors
    for m in C.morphisms:
        x, y = C.source[m], C.target[m]
        left = D.compose[(nt.components[y], F.mor_map[m])]
        right = D.compose[(G.mor_map[m], nt.components[x])]
        if left != right:
            errors.append(f"naturality fails at {m}")
    return errors


def is_natural_iso(nt: NaturalTransformation) -> bool:
    return not validate_natural(nt) and all(
        nt.source.codomain.is_iso(c) for c in nt.components.values())


# ---------------------------------------------------------------------------
# equivalence testing


def is_full(F: CatFunctor) -> bool:
    C, D = F.domain, F.codomain
    homs, targets = hom_index(C), hom_index(D)
    for x in C.objects:
        for y in C.objects:
            images = {F.mor_map[m] for m in homs.get((x, y), ())}
            if not images.issuperset(targets.get((F.ob_map[x], F.ob_map[y]), ())):
                return False
    return True


def is_faithful(F: CatFunctor) -> bool:
    return all(len({F.mor_map[m] for m in h}) == len(h)
               for h in hom_index(F.domain).values())


def is_essentially_surjective(F: CatFunctor) -> bool:
    D = F.codomain
    hit = {F.ob_map[x] for x in F.domain.objects}
    near = {D.target[m] for m in isomorphisms(D) if D.source[m] in hit}
    return (hit | near).issuperset(D.objects)


def is_fully_faithful(F: CatFunctor) -> bool:
    return is_full(F) and is_faithful(F)


def is_equivalence(F: CatFunctor) -> bool:
    """Brute-force equivalence verdict: full, faithful, essentially surjective."""
    return is_full(F) and is_faithful(F) and is_essentially_surjective(F)


def find_isomorphism(C: FiniteCategory, D: FiniteCategory,
                     node_budget: int | None = 2_000_000) -> CatFunctor | None:
    """An isomorphism of categories ``C -> D``, if one exists."""
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None
    for F in _iter_functors(C, D, node_budget=node_budget):
        if (len(set(F.ob_map.values())) == len(C.objects)
                and len(set(F.mor_map.values())) == len(C.morphisms)):
            return F
    return None
