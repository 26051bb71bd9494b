"""The right adjoint from operads to cyclic operads, computed exactly.

In arity n the adjoint takes (n+1)-fold products; partial compositions
splice coordinatewise in three index ranges, and the symmetric actions
extend to permutations that may move the output slot.  All axioms are
checked exhaustively at arity bound 3, and the adjunction is certified by
hom-set counts on small instances.
"""
from smallcat.cycmaps import (
    associative_operad,
    check_FR_products,
    check_adjunction_count,
    forget_cyclic,
    right_adjoint_R,
    terminal_cyclic_operad,
    terminal_operad,
)
from smallcat.cycops import validate_cyclic, CyclicOperadMap

P = associative_operad(3)
print("associative operad sizes:",
      {n: len(P.elements[n]) for n in range(4)})
RQ = right_adjoint_R(P)
print("right adjoint sizes:     ",
      {n: len(RQ.operad.elements[n]) for n in range(4)},
      "(always the (n+1)-st power)")
print("all cyclic axioms hold exhaustively:",
      validate_cyclic(RQ) == [])

print()
print("Adjunction certified by counting maps on small instances:")
rep = check_adjunction_count(terminal_cyclic_operad(3), terminal_operad(3))
print("terminal vs terminal:", rep.operad_map_count, "=",
      rep.cyclic_map_count,
      "and the zeroth projection is the bijection:",
      rep.projection_is_bijection)

print()
print("Forget-then-adjoint acts on maps as coordinatewise products:")
T = right_adjoint_R(terminal_operad(2))
ident = CyclicOperadMap(T, T, {n: {x: x for x in T.operad.elements[n]}
                               for n in range(3)})
prod = check_FR_products(ident)
print("product formula and preservation of epis/monos:", prod.ok)
print("underlying operad of the adjoint value keeps its tables verbatim:",
      forget_cyclic(RQ).comp == RQ.operad.comp)
