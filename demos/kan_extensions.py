"""Pointwise Kan extensions at desk scale, start to finish.

We take the inclusion of the walking arrow into the three-object chain,
extend a small diagram of sets along it on both sides, and certify the two
adjunctions by enumerating every hom-set involved.
"""
from smallcat.certify import certify_kan_adjunctions
from smallcat.fincat import CatFunctor
from smallcat.kan import comma_over, lan, lan_unit, ran, ran_counit
from smallcat.setval import SetDiagram, restrict
from smallcat.standard import chain_category, walking_arrow
from smallcat.universal import is_iso_diagram_map, terminal_objects

arrow = walking_arrow()
chain = chain_category(2)
iota = CatFunctor(arrow, chain, {"a": "0", "b": "1"},
                  {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})

print("A diagram on the walking arrow: two points mapping onto one.")
X = SetDiagram.build(
    arrow, {"a": ("u", "v"), "b": ("p",)},
    {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
     "f": {"u": "p", "v": "p"}})

LX = lan(iota, X)
RX = ran(iota, X)
print("left extension sizes: ",
      {o: len(LX.values[o]) for o in chain.objects})
print("right extension sizes:",
      {o: len(RX.values[o]) for o in chain.objects})

print()
print("The inclusion is fully faithful, so restricting the extension")
print("recovers the diagram; the comparison maps are the unit and counit.")
unit = lan_unit(iota, X)
counit = ran_counit(iota, X)
print("unit is an isomorphism:  ", is_iso_diagram_map(unit))
print("counit is an isomorphism:", is_iso_diagram_map(counit))
K = comma_over(iota, "1")
print("the comma category over the image has terminal object:",
      terminal_objects(K.category))

print()
print("Certifying both adjunctions by exhaustive hom-set enumeration...")
Y = SetDiagram.build(
    chain, {"0": ("e",), "1": ("h", "k"), "2": ("w",)},
    {"id_0": {"e": "e"}, "id_1": {"h": "h", "k": "k"}, "id_2": {"w": "w"},
     "le_0_1": {"e": "k"}, "le_1_2": {"h": "w", "k": "w"},
     "le_0_2": {"e": "w"}})
report = certify_kan_adjunctions(iota, [X], [Y])
print("bijective and natural on", report.checked, "checks:", report.ok)
print("restriction of Y has sizes",
      {o: len(restrict(iota, Y).values[o]) for o in arrow.objects})
