"""The isofibration test as it was before the isomorphisms of each category
were collected once per call.

``is_isofibration`` scans every morphism of the domain for each
isomorphism of the codomain, and decides each ``is_iso`` by a scan of the
category's hom-set.  It is kept, unchanged, as the reference that
``test_catmodel`` compares :mod:`smallcat.catmodel` against.
"""
from smallcat.fincat import CatFunctor


def is_isofibration(p: CatFunctor) -> bool:
    """Every isomorphism out of a lifted object lifts with that source."""
    X, Y = p.domain, p.codomain
    for x in X.objects:
        px = p.ob_map[x]
        for psi in Y.morphisms:
            if Y.source[psi] != px or not Y.is_iso(psi):
                continue
            found = False
            for phi in X.morphisms:
                if (X.source[phi] == x and X.is_iso(phi)
                        and p.mor_map[phi] == psi):
                    found = True
                    break
            if not found:
                return False
    return True
