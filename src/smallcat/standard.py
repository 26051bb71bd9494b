"""Named small categories and groups, and the identity functor.

Chains, posets and indiscrete categories are thin: composition is forced.
Identifiers are ``id_x`` for identities, ``le_x_y`` in chains and posets,
``to_y_from_x`` in indiscrete categories, and the one-line notation of a
permutation; an arrow name, or a group-product pair, that two different
parts render raises ``ValueError``.
"""
from __future__ import annotations

import itertools
from typing import Callable

from .fincat import (
    CatFunctor,
    FiniteCategory,
    FiniteGroup,
    distinct,
    pair_name,
    tabulate,
)


def identity_functor(C: FiniteCategory) -> CatFunctor:
    return CatFunctor(C, C, {x: x for x in C.objects},
                      {m: m for m in C.morphisms})


def empty_category() -> FiniteCategory:
    return FiniteCategory.build([], [], {}, {}, {}, {})


def terminal_category() -> FiniteCategory:
    return FiniteCategory.build(["pt"], ["id_pt"], {"id_pt": "pt"},
                                {"id_pt": "pt"}, {"pt": "id_pt"},
                                {("id_pt", "id_pt"): "id_pt"})


def discrete_category(names) -> FiniteCategory:
    names = list(names)
    return FiniteCategory.build(
        names, [f"id_{x}" for x in names],
        {f"id_{x}": x for x in names}, {f"id_{x}": x for x in names},
        {x: f"id_{x}" for x in names},
        {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in names},
    )


def indiscrete_category(names) -> FiniteCategory:
    """Exactly one morphism between any ordered pair of objects."""
    names = sorted(names)
    return _thin_category(names, {(x, y): f"to_{y}_from_{x}"
                                  for x in names for y in names})


def walking_arrow() -> FiniteCategory:
    """The category with one nonidentity arrow ``f: a -> b``."""
    return FiniteCategory.build(
        ["a", "b"], ["id_a", "id_b", "f"],
        {"id_a": "a", "id_b": "b", "f": "a"},
        {"id_a": "a", "id_b": "b", "f": "b"},
        {"a": "id_a", "b": "id_b"},
        {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
         ("f", "id_a"): "f", ("id_b", "f"): "f"},
    )


def walking_iso() -> FiniteCategory:
    """The category with two objects and a single isomorphism between them."""
    source = {"id_a": "a", "id_b": "b", "u": "a", "v": "b"}
    target = {"id_a": "a", "id_b": "b", "u": "b", "v": "a"}
    compose = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
        ("u", "id_a"): "u", ("id_b", "u"): "u",
        ("v", "id_b"): "v", ("id_a", "v"): "v",
        ("v", "u"): "id_a", ("u", "v"): "id_b",
    }
    return FiniteCategory.build(["a", "b"], ["id_a", "id_b", "u", "v"],
                                source, target, {"a": "id_a", "b": "id_b"}, compose)


def parallel_pair() -> FiniteCategory:
    """Two objects with two parallel nonidentity arrows between them."""
    source = {"id_a": "a", "id_b": "b", "f": "a", "g": "a"}
    target = {"id_a": "a", "id_b": "b", "f": "b", "g": "b"}
    compose = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b"}
    for m in ("f", "g"):
        compose[(m, "id_a")] = m
        compose[("id_b", m)] = m
    return FiniteCategory.build(["a", "b"], ["id_a", "id_b", "f", "g"],
                                source, target, {"a": "id_a", "b": "id_b"}, compose)


def chain_category(n: int) -> FiniteCategory:
    """The poset ``0 < 1 < ... < n`` viewed as a category."""
    return _thin_category(
        [str(i) for i in range(n + 1)],
        {(str(i), str(j)): f"id_{i}" if i == j else f"le_{i}_{j}"
         for i in range(n + 1) for j in range(i, n + 1)})


def poset_category(names, leq: Callable[[str, str], bool]) -> FiniteCategory:
    """The category of a finite poset; composition is forced."""
    names = sorted(names)
    return _thin_category(names, {(x, y): f"id_{x}" if x == y else f"le_{x}_{y}"
                                  for x in names for y in names if leq(x, y)})


def _thin_category(objects: list[str],
                   name: dict[tuple[str, str], str]) -> FiniteCategory:
    """The category with one morphism ``name[(x, y)]: x -> y`` per key, in
    the order of ``name``; composition is forced."""
    distinct(name.values(), "morphism identifier {} names two morphisms")
    source = {m: x for (x, _), m in name.items()}
    target = {m: y for (_, y), m in name.items()}
    return tabulate(objects, list(name.values()), source, target,
                    {x: name[(x, x)] for x in objects},
                    lambda f, g: name[(source[g], target[f])])


def symmetric_group(n: int) -> FiniteGroup:
    """The symmetric group on ``{0, ..., n-1}``, elements named by one-line notation."""
    perms = list(itertools.permutations(range(n)))
    name = {p: "".join(map(str, p)) for p in perms}
    mult = {}
    for p in perms:
        for q in perms:
            mult[(name[p], name[q])] = name[tuple(p[q[i]] for i in range(n))]
    inverse = {}
    for p in perms:
        inv = tuple(p.index(i) for i in range(n))
        inverse[name[p]] = name[inv]
    return FiniteGroup(tuple(sorted(name.values())), mult,
                       name[tuple(range(n))], inverse)


def group_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    els = [pair_name(a, b) for a in G.elements for b in H.elements]
    distinct(els, "group product identifier {} names two pairs")
    mult = {(pair_name(a, b), pair_name(c, d)):
            pair_name(G.mult[(a, c)], H.mult[(b, d)])
            for a in G.elements for b in H.elements
            for c in G.elements for d in H.elements}
    inverse = {pair_name(a, b): pair_name(G.inverse[a], H.inverse[b])
               for a in G.elements for b in H.elements}
    return FiniteGroup(tuple(sorted(els)), mult,
                       pair_name(G.identity, H.identity), inverse)


def opposite_group(G: FiniteGroup) -> FiniteGroup:
    return FiniteGroup(G.elements,
                       {(a, b): G.mult[(b, a)] for (a, b) in G.mult},
                       G.identity, dict(G.inverse))


def group_category(G: FiniteGroup, obj: str = "*") -> FiniteCategory:
    """A group as a one-object category."""
    return FiniteCategory.build(
        [obj], list(G.elements),
        {g: obj for g in G.elements}, {g: obj for g in G.elements},
        {obj: G.identity},
        {(a, b): G.mult[(a, b)] for a in G.elements for b in G.elements},
    )


def validate_group(G: FiniteGroup) -> list[str]:
    errors = []
    els = set(G.elements)
    if G.identity not in els:
        return ["identity not an element"]
    for a in G.elements:
        for b in G.elements:
            if G.mult.get((a, b)) not in els:
                errors.append(f"product ({a},{b}) missing")
    if errors:
        return errors
    for a in G.elements:
        if G.mult[(G.identity, a)] != a or G.mult[(a, G.identity)] != a:
            errors.append(f"unit law fails at {a}")
        inv = G.inverse.get(a)
        if inv not in els or G.mult[(a, inv)] != G.identity or G.mult[(inv, a)] != G.identity:
            errors.append(f"inverse fails at {a}")
        for b in G.elements:
            for c in G.elements:
                if G.mult[(G.mult[(a, b)], c)] != G.mult[(a, G.mult[(b, c)])]:
                    errors.append(f"associativity fails at ({a},{b},{c})")
    return errors
