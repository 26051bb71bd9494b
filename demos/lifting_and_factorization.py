"""Lifting properties, pushouts of categories, and bounded factorizations.

Isofibrations are characterized by lifting against the point-to-isomorphism
inclusion; the solver certifies this equivalence by brute force.  Pushouts
of categories are completed by a bounded word closure that fails loudly
when the result would be infinite, and the small object argument factors a
map of diagrams through a finite cell complex.
"""
from smallcat.catmodel import (
    default_generating_acyclic_cofibrations,
    has_rlp,
    is_isofibration,
)
from smallcat.equivalence import coproduct, find_isomorphism
from smallcat.fincat import BudgetError, CatFunctor
from smallcat.search import enumerate_functors
from smallcat.soa import bounded_soa, diagram_has_rlp, pushout_category
from smallcat.standard import (
    chain_category,
    terminal_category,
    walking_arrow,
    walking_iso,
)
from smallcat.universal import compose_diagram_maps

J = default_generating_acyclic_cofibrations()
print("lifting against the point-to-isomorphism inclusion is the same as")
print("being an isofibration; checking every functor between small tests:")
agree = 0
for C in (terminal_category(), walking_arrow(), walking_iso()):
    for D in (terminal_category(), walking_iso()):
        for F in enumerate_functors(C, D):
            assert has_rlp(J, F) == is_isofibration(F)
            agree += 1
print(f"  {agree} functors, verdicts agree everywhere")

print()
print("Gluing two arrows end to start forces a composite:")
pt = terminal_category()
arrow = walking_arrow()
end = CatFunctor(pt, arrow, {"pt": "b"}, {"id_pt": "id_b"})
start = CatFunctor(pt, arrow, {"pt": "a"}, {"id_pt": "id_a"})
res = pushout_category(end, start)
print("  objects:", len(res.category.objects),
      " morphisms:", len(res.category.morphisms),
      " (isomorphic to the chain of length two:",
      find_isomorphism(res.category, chain_category(2)) is not None, ")")

print()
print("Identifying both endpoints of the arrow would free a monoid, and")
print("the closure refuses past its budget:")
two = coproduct(pt, pt)
ends = CatFunctor(two, arrow, {"pt#0": "a", "pt#1": "b"},
                  {"id_pt#0": "id_a", "id_pt#1": "id_b"})
collapse = CatFunctor(two, pt, {"pt#0": "pt", "pt#1": "pt"},
                      {"id_pt#0": "id_pt", "id_pt#1": "id_pt"})
try:
    pushout_category(ends, collapse, max_morphisms=30)
except BudgetError as exc:
    print("  BudgetError:", exc)

print()
print("Bounded small object argument on the signed interval-to-point")
print("collapse, against the extended boundary inclusions:")
from smallcat.fincat import pair_name
from smallcat.nabla import nabla_category
from smallcat.setval import DiagramMap
from smallcat.simplicial import generating_cofibrations, representable_rsset

sd = nabla_category(1)
interval = representable_rsset(1, 1).diagram
point = representable_rsset(1, 0).diagram
u = pair_name("00:0", "g0")     # the unique monotone collapse, unsigned
f = DiagramMap(interval, point, {
    o: {v: sd.category.compose[(u, v)] for v in interval.values[o]}
    for o in sd.category.objects})
gens = generating_cofibrations(1)
res = bounded_soa(gens, f, max_stages=3)
print("  stages:", res.stages, " saturated:", res.saturated)
print("  recomposes to the input:",
      compose_diagram_maps(res.right, res.left).key() == f.key())
print("  remainder lifts against every generator:",
      diagram_has_rlp(gens, res.right))
