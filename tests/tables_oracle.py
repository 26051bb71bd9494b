"""The composition-table builders as they were before ``fincat.tabulate``.

Each builder writes its own loop over composable pairs; four of them find
the pairs by scanning all pairs of morphisms and filtering.  They are kept,
unchanged, as the reference that ``test_tables`` compares the ``tabulate``
versions against, ``repr`` included, so the insertion order of ``compose``
must match too (``monotone_pair_category`` is kept without its cache).
``induced_map`` is the envelope map as it was before it became an
``extend_along_L`` of the insertion.
"""
from __future__ import annotations

from typing import Callable

from smallcat import fincat
from smallcat.fincat import CatFunctor, FiniteCategory, pair_name
from smallcat.invcat import L_inv, L_inv_insertion
from smallcat.nabla import _monotone_maps
from smallcat.semidirect import GroupAction, SemidirectCategory
from smallcat.setval import CommaCategory


def indiscrete_category(names) -> FiniteCategory:
    """Exactly one morphism between any ordered pair of objects."""
    names = sorted(names)
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    arrow = {}
    for x in names:
        for y in names:
            m = f"to_{y}_from_{x}"
            arrow[(x, y)] = m
            morphisms.append(m)
            source[m], target[m] = x, y
        identity[x] = arrow[(x, x)]
    for (x, y) in arrow:
        for z in names:
            compose[(arrow[(y, z)], arrow[(x, y)])] = arrow[(x, z)]
    return FiniteCategory.build(names, morphisms, source, target, identity, compose)


def chain_category(n: int) -> FiniteCategory:
    """The poset ``0 < 1 < ... < n`` viewed as a category."""
    objects = [str(i) for i in range(n + 1)]
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    name = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            m = f"id_{i}" if i == j else f"le_{i}_{j}"
            name[(i, j)] = m
            morphisms.append(m)
            source[m], target[m] = str(i), str(j)
        identity[str(i)] = name[(i, i)]
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                compose[(name[(j, k)], name[(i, j)])] = name[(i, k)]
    return FiniteCategory.build(objects, morphisms, source, target, identity, compose)


def poset_category(names, leq: Callable[[str, str], bool]) -> FiniteCategory:
    """The category of a finite poset; composition is forced."""
    names = sorted(names)
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    name = {}
    for x in names:
        for y in names:
            if leq(x, y):
                m = f"id_{x}" if x == y else f"le_{x}_{y}"
                name[(x, y)] = m
                morphisms.append(m)
                source[m], target[m] = x, y
        identity[x] = name[(x, x)]
    for (x, y), m1 in name.items():
        for (y2, z), m2 in name.items():
            if y2 == y:
                compose[(m2, m1)] = name[(x, z)]
    return FiniteCategory.build(names, morphisms, source, target, identity, compose)


def monotone_pair_category(N: int) -> FiniteCategory:
    """The signed-simplex category presented by monotone pairs ``(f, t)``.

    Nonconstant maps carry their forced sign; constant maps occur with both
    signs.  Names are ``images:target:sign``.
    """
    objects = [f"[{n}]" for n in range(N + 1)]
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    data: dict[str, tuple[tuple[int, ...], int, int]] = {}
    for m in range(N + 1):
        for n in range(N + 1):
            seen = set()
            for imgs in _monotone_maps(m, n):
                for func, tags in ((imgs, None), (tuple(reversed(imgs)), None)):
                    if func in seen:
                        continue
                    seen.add(func)
                    constant = len(set(func)) == 1
                    increasing = all(func[i] <= func[i + 1]
                                     for i in range(len(func) - 1))
                    if constant:
                        signs = (1, -1)
                    else:
                        signs = (1,) if increasing else (-1,)
                    for t in signs:
                        s = "+" if t == 1 else "-"
                        name = "".join(map(str, func)) + f":{n}:{s}"
                        morphisms.append(name)
                        data[name] = (func, n, t)
                        source[name], target[name] = f"[{m}]", f"[{n}]"
    for n in range(N + 1):
        identity[f"[{n}]"] = "".join(map(str, range(n + 1))) + f":{n}:+"
    for name1, (f1, n1, t1) in data.items():
        for name2, (f2, n2, t2) in data.items():
            if source[name2] != target[name1]:
                continue
            func = tuple(f2[v] for v in f1)
            t = t1 * t2
            s = "+" if t == 1 else "-"
            compose[(name2, name1)] = "".join(map(str, func)) + f":{n2}:{s}"
    return FiniteCategory.build(objects, morphisms, source, target,
                                identity, compose)


def semidirect(action: GroupAction) -> SemidirectCategory:
    """Build the semidirect product category."""
    G, C = action.group, action.target
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    pair_of = {}
    for phi in C.morphisms:
        for g in G.elements:
            m = pair_name(phi, g)
            morphisms.append(m)
            pair_of[m] = (phi, g)
            source[m] = action.rho[G.inverse[g]].ob_map[C.source[phi]]
            target[m] = C.target[phi]
    for x in C.objects:
        identity[x] = pair_name(C.identity[x], G.identity)
    for m1 in morphisms:
        psi, h = pair_of[m1]
        for m2 in morphisms:
            phi, g = pair_of[m2]
            if source[m2] != target[m1]:
                continue
            comp = C.compose[(phi, action.rho[g].mor_map[psi])]
            compose[(m2, m1)] = pair_name(comp, G.mult[(g, h)])
    cat = FiniteCategory.build(C.objects, morphisms, source, target,
                               identity, compose)
    return SemidirectCategory(cat, action, pair_of)


def _comma_category(object_data: dict[str, tuple],
                    C: FiniteCategory,
                    proj_index: int,
                    arrow_ok) -> CommaCategory:
    objects = sorted(object_data)
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    morphism_data = {}
    homs = fincat.hom_index(C)
    for o1 in objects:
        for o2 in objects:
            c1 = object_data[o1][proj_index]
            c2 = object_data[o2][proj_index]
            for m in homs.get((c1, c2), ()):
                if arrow_ok(object_data[o1], object_data[o2], m):
                    name = f"({m},{o1},{o2})"
                    morphisms.append(name)
                    source[name], target[name] = o1, o2
                    morphism_data[name] = m
    for o in objects:
        c = object_data[o][proj_index]
        identity[o] = f"({C.identity[c]},{o},{o})"
    for n1 in morphisms:
        for n2 in morphisms:
            if source[n2] == target[n1]:
                m = C.compose[(morphism_data[n2], morphism_data[n1])]
                compose[(n2, n1)] = f"({m},{source[n1]},{target[n2]})"
    cat = FiniteCategory.build(objects, morphisms, source, target,
                               identity, compose)
    proj = CatFunctor(cat, C,
                      {o: object_data[o][proj_index] for o in objects},
                      dict(morphism_data))
    return CommaCategory(cat, proj, dict(object_data), morphism_data)


def comma_over(iota: CatFunctor, d: str) -> CommaCategory:
    """The comma category of arrows ``iota(c) -> d``; objects are ``(c,arrow)``."""
    C, D = iota.domain, iota.codomain
    object_data = {}
    for c in C.objects:
        for phi in D.hom(iota.ob_map[c], d):
            object_data[pair_name(c, phi)] = (c, phi)

    def arrow_ok(p1, p2, m):
        return D.compose[(p2[1], iota.mor_map[m])] == p1[1]

    return _comma_category(object_data, C, 0, arrow_ok)


def comma_under(d: str, iota: CatFunctor) -> CommaCategory:
    """The comma category of arrows ``d -> iota(c)``; objects are ``(arrow,c)``."""
    C, D = iota.domain, iota.codomain
    object_data = {}
    for c in C.objects:
        for phi in D.hom(d, iota.ob_map[c]):
            object_data[pair_name(phi, c)] = (phi, c)

    def arrow_ok(p1, p2, m):
        return D.compose[(iota.mor_map[m], p1[0])] == p2[0]

    return _comma_category(object_data, C, 1, arrow_ok)


def induced_map(f: CatFunctor) -> CatFunctor:
    """Extend ``f: X -> Y`` to ``f + tau f^op`` on the bases of the L's."""
    X, Y = f.domain, f.codomain
    LX, LY = L_inv(X), L_inv(Y)
    tau = LY.tau
    incX = L_inv_insertion(X)
    incY = L_inv_insertion(Y)
    sx = "#0" if X.objects else ""
    ob, mor = {}, {}
    for x in X.objects:
        ob[x + "#0"] = incY.ob_map[f.ob_map[x]]
        ob[x + "#1"] = tau.ob_map[incY.ob_map[f.ob_map[x]]]
    for m in X.morphisms:
        mor[m + "#0"] = incY.mor_map[f.mor_map[m]]
        mor[m + "#1"] = tau.mor_map[incY.mor_map[f.mor_map[m]]]
    return CatFunctor(LX.base, LY.base, ob, mor)
