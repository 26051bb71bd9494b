"""The signed simplex category and truncated real simplicial sets.

Two independent presentations of the same category: the semidirect product
of the simplex category by the order-reversing flip, and the category of
monotone pairs.  Presheaves on it are simplicial sets with an
anti-involution, and the generating cofibrations are the extensions of the
boundary inclusions, which are exactly the normal monomorphisms.
"""
from smallcat.involutive import from_involutive, to_involutive
from smallcat.nabla import (
    TruncatedRealSimplicialSet,
    delta_leq,
    involution_levels,
)
from smallcat.presentations import build_nabla
from smallcat.simplicial import (
    generating_cofibrations,
    is_normal_mono,
    representable_rsset,
)

pres = build_nabla(2)
delta = delta_leq(2)
print("level 2: the simplex category has", len(delta.morphisms),
      "maps; the signed one has", len(pres.semidirect.category.morphisms))
print("hom sizes double everywhere; at ([0],[0]) the count is",
      len(pres.semidirect.category.hom("[0]", "[0]")))
print("the two presentations are isomorphic (verified on the full table)")

print()
print("A representable signed simplex and its underlying involution:")
Y = representable_rsset(1, 1)
print("simplices per level:", {n: len(Y.simplices(n)) for n in (0, 1)})
A, sigma = to_involutive(Y)
print("level involutions square to one:",
      all(sigma[n][sigma[n][e]] == e for n in sigma for e in sigma[n]))
back = from_involutive(A, sigma)
print("rebuilding from the involution is the identity:",
      back.diagram == Y.diagram)

print()
print("Generating cofibrations: extended boundary inclusions.")
gens = generating_cofibrations(2)
for n, g in enumerate(gens):
    tgt_sizes = {k: len(g.target.values[f'[{k}]']) for k in range(3)}
    print(f"dimension {n}: normal mono = {is_normal_mono(g)}, "
          f"target sizes {tgt_sizes}")
sigma0 = involution_levels(TruncatedRealSimplicialSet(2, gens[0].target))
a, b = sorted(gens[0].target.values["[0]"])
print("the two fresh vertices of the dimension-0 generator are swapped:",
      sigma0[0][a] == b)
