"""Change of rings and the two truncations, over a prime field.

The naive truncation keeps nonnegative degrees; the homotopy truncation
replaces degree zero by a cokernel.  On the two-term acyclic complex they
disagree in the strongest possible way: collapsing the complex is an
acyclic degreewise surjection, but its naive truncation has homology.
"""

from smallcat.chaincx import homology_dims
from smallcat.chainmaps import (
    reproduce_truncation_counterexample,
    two_term_identity_complex,
)
from smallcat.rings import (
    augmentation_dual_numbers,
    coinduce,
    dual_numbers,
    field_algebra,
    hom_dim,
    induce,
    module_is_free,
    pulled_back_target,
    regular_module,
    restrict_scalars,
    trivial_module,
    unit_inclusion,
)

for p in (2, 5):
    rep = reproduce_truncation_counterexample(p)
    print(f"p = {p}: collapse is an acyclic epi ({rep['acyclic_fib']}), "
          f"naive truncation stays one ({rep['FR_acyclic_fib']}), "
          f"homotopy truncation is the zero complex "
          f"({rep['homotopy_dims']} dimensions)")

print()
print("homology of the two-term complex and its naive truncation at p=2:")
C = two_term_identity_complex(2)
print("  original:", homology_dims(C))
from smallcat.chaincx import naive_truncate
print("  truncated:", homology_dims(naive_truncate(C)))

print()
print("Change of rings along the inclusion of the field into the dual")
print("numbers; the pulled-back algebra is free, so both adjoints behave.")
f = unit_inclusion(dual_numbers(2))
print("pulled-back target is free:", module_is_free(pulled_back_target(f)))
k = field_algebra(2)
M = regular_module(k)
print("tensoring the line up doubles it:", induce(f, M).module.dim)
print("the hom construction doubles it too:", coinduce(f, M).module.dim)

N = trivial_module(dual_numbers(2), augmentation_dual_numbers(2))
left = hom_dim(induce(f, M).module, N)
right = hom_dim(M, restrict_scalars(f, N))
print(f"adjunction dimensions agree: {left} = {right}")
