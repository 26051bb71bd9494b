"""Semidirect products and the coproduct decomposition of extensions.

A group acting on a category by isomorphisms yields a twisted product
category; extending a diagram of sets along the inclusion and restricting
back gives one twisted copy of the diagram per group element.  The
comparison isomorphism is constructed through the terminal objects of the
comma components and verified on the nose.
"""
from smallcat.fincat import cyclic_group
from smallcat.sdcheck import (
    permutation_action,
    semidirect_op,
    verify_lan_formula,
)
from smallcat.semidirect import semidirect
from smallcat.setval import SetDiagram
from smallcat.standard import discrete_category, symmetric_group

C = discrete_category("ab")
action = permutation_action(
    cyclic_group(2), C,
    {"g0": {"a": "a", "b": "b"}, "g1": {"a": "b", "b": "a"}})
sd = semidirect(action)
print("two points with the swap action:", len(sd.category.morphisms),
      "morphisms in the product category")
crossing = [m for m in sd.category.morphisms
            if sd.category.source[m] != sd.category.target[m]]
print("crossing morphisms:", sorted(crossing))

F = SetDiagram.build(C, {"a": ("u",), "b": ("v", "w")},
                     {"id_a": {"u": "u"}, "id_b": {"v": "v", "w": "w"}})
report = verify_lan_formula(action, F)
print("restrict-of-extend decomposes as a coproduct over the group:",
      report.natural_iso)
print("comma components biject with the group, each with a terminal object:",
      report.comma_components_indexed_by_group)

print()
print("The same machinery at a bigger group: all six permutations of")
print("three points.")
C3 = discrete_category(["p0", "p1", "p2"])
s3 = symmetric_group(3)
perms = {name: {f"p{i}": f"p{int(name[i])}" for i in range(3)}
         for name in s3.elements}
action3 = permutation_action(s3, C3, perms)
F3 = SetDiagram.build(C3, {"p0": ("x",), "p1": ("y",), "p2": ("z",)},
                      {"id_p0": {"x": "x"}, "id_p1": {"y": "y"},
                       "id_p2": {"z": "z"}})
print("decomposition holds:", verify_lan_formula(action3, F3).natural_iso)

print()
print("Presheaves fit the same framework through the opposite category:")
sd_op, comparison = semidirect_op(action)
print("contravariant comparison is a bijective functor on",
      len(comparison.mor_map), "morphisms")
