"""Shared small-object-argument test instance: boundary inclusions at
truncation level one, and the interval-to-point collapse to factor."""
from smallcat import fincat
from smallcat.fincat import FiniteCategory, validate_category
from smallcat.setval import DiagramMap, SetDiagram, validate_diagram
from smallcat.universal import validate_diagram_map


def delta_leq1_op():
    # the opposite of the category of [0] and [1] with monotone maps,
    # built by hand so these tests do not depend on the simplex module
    objects = ["[0]", "[1]"]
    mor = {
        "i0": ("[0]", "[0]"),
        "d0": ("[0]", "[1]"),
        "d1": ("[0]", "[1]"),
        "s0": ("[1]", "[0]"),
        "i1": ("[1]", "[1]"),
        "c0": ("[1]", "[1]"),
        "c1": ("[1]", "[1]"),
    }
    source = {m: st[0] for m, st in mor.items()}
    target = {m: st[1] for m, st in mor.items()}
    identity = {"[0]": "i0", "[1]": "i1"}
    func = {
        "i0": {0: 0}, "d0": {0: 1}, "d1": {0: 0}, "s0": {0: 0, 1: 0},
        "i1": {0: 0, 1: 1}, "c0": {0: 0, 1: 0}, "c1": {0: 1, 1: 1},
    }
    table = {}
    for g, gf in func.items():
        for f, ff in func.items():
            if target[f] == source[g]:
                comp = {k: gf[v] for k, v in ff.items()}
                for h, hf in func.items():
                    if hf == comp and source[h] == source[f] \
                            and target[h] == target[g]:
                        table[(g, f)] = h
    delta = FiniteCategory.build(objects, list(mor), source, target,
                                 identity, table)
    assert validate_category(delta) == []
    return fincat.opposite(delta)


def simplicial_diagram(shape, v0, v1, act):
    values = {"[0]": v0, "[1]": v1}
    action = {"i0": {e: e for e in v0}, "i1": {e: e for e in v1}}
    action.update(act)
    return SetDiagram.build(shape, values, action)


def soa_generators(shape):
    # boundary inclusions at truncation level 1
    empty = SetDiagram.build(shape, {"[0]": (), "[1]": ()},
                             {m: {} for m in shape.morphisms})
    point = simplicial_diagram(shape, ("v",), ("sv",),
                               {"d0": {"sv": "v"}, "d1": {"sv": "v"},
                                "s0": {"v": "sv"},
                                "c0": {"sv": "sv"}, "c1": {"sv": "sv"}})
    assert validate_diagram(point) == []
    g0 = DiagramMap(empty, point, {"[0]": {}, "[1]": {}})

    two = simplicial_diagram(shape, ("p", "q"), ("sp", "sq"),
                             {"d0": {"sp": "p", "sq": "q"},
                              "d1": {"sp": "p", "sq": "q"},
                              "s0": {"p": "sp", "q": "sq"},
                              "c0": {"sp": "sp", "sq": "sq"},
                              "c1": {"sp": "sp", "sq": "sq"}})
    assert validate_diagram(two) == []
    interval = simplicial_diagram(
        shape, ("0", "1"), ("e", "s_0", "s_1"),
        {"d0": {"e": "1", "s_0": "0", "s_1": "1"},
         "d1": {"e": "0", "s_0": "0", "s_1": "1"},
         "s0": {"0": "s_0", "1": "s_1"},
         "c0": {"e": "s_0", "s_0": "s_0", "s_1": "s_1"},
         "c1": {"e": "s_1", "s_0": "s_0", "s_1": "s_1"}})
    assert validate_diagram(interval) == []
    g1 = DiagramMap(two, interval,
                    {"[0]": {"p": "0", "q": "1"},
                     "[1]": {"sp": "s_0", "sq": "s_1"}})
    assert validate_diagram_map(g1) == []
    return [g0, g1], point, interval


def build_soa_instance():
    """Generators plus the interval-to-point collapse, ready to factor."""
    shape = delta_leq1_op()
    gens, point, interval = soa_generators(shape)
    f = DiagramMap(interval, point,
                   {"[0]": {"0": "v", "1": "v"},
                    "[1]": {"e": "sv", "s_0": "sv", "s_1": "sv"}})
    assert validate_diagram_map(f) == []
    return gens, f
