"""Categories with anti-involution: the adjoint string and its limits.

The forgetful functor to plain categories has a left adjoint (category plus
its opposite, swap involution) and a right adjoint (category times its
opposite).  Both hom-set bijections are certified by enumeration.  The
coreflection onto dagger categories then shows how such structure can fail
to respect fibrations: the classical three-object counterexample.
"""
from smallcat.fincat import CatFunctor
from smallcat.invcat import (
    L_inv,
    R_inv,
    check_inv_adjunctions,
    is_inv_cofibration,
    reproduce_dagger_counterexample,
    trivial_involution,
    EquivariantFunctor,
)
from smallcat.standard import empty_category, terminal_category, walking_arrow

X = walking_arrow()
LX = L_inv(X)
RX = R_inv(X)
print("walking arrow has", len(X.objects), "objects;")
print("its free involutive envelope has ", len(LX.base.objects))
print("its cofree involutive envelope has", len(RX.base.objects))

report = check_inv_adjunctions([terminal_category(), X], LX)
print("both adjunction bijections hold:", report.ok,
      f"({report.left_checked} + {report.right_checked} functors checked)")

print()
print("Cofibrations of involutive categories: injective on objects with a")
print("fixed-point-free involution outside the image.")
empty = L_inv(empty_category())
free_target = L_inv(terminal_category())
fixed_target = trivial_involution(terminal_category())
print("empty -> swapped point pair:",
      is_inv_cofibration(EquivariantFunctor(
          empty, free_target, CatFunctor(empty.base, free_target.base, {}, {}))))
print("empty -> fixed point:       ",
      is_inv_cofibration(EquivariantFunctor(
          empty, fixed_target, CatFunctor(empty.base, fixed_target.base, {}, {}))))

print()
print("The dagger coreflection keeps only the fixed objects.  It destroys")
print("an isofibration between indiscrete categories:")
report = reproduce_dagger_counterexample()
print("projection is an isofibration:   ", report["p_isofib"])
print("its coreflection is one as well: ", report["Rp_isofib"])
print("fixed objects upstairs:", report["RX_objects"],
      " downstairs:", report["RY_objects"])
