"""The second presentation of the signed simplex category, by monotone
pairs ``(f, t)``, and the explicit isomorphism from the semidirect one.

:func:`build_nabla` constructs both presentations together with the
isomorphism between them and checks it tablewise, and
:func:`hom_doubling` compares the hom-sets with those of the simplex
category; ``smallcat nabla --dim N`` prints both verdicts.  Only the
commands that build the presentations load this module.
"""
from __future__ import annotations

import functools

# Timed functions are called via their module: see the package docstring.
from . import fincat, nabla
from .fincat import CatFunctor, FiniteCategory, record, tabulate
from .nabla import (
    UNIT,
    _monotone_maps,
    delta_images,
    delta_target,
    nabla_category,
)
from .semidirect import SemidirectCategory


@functools.cache
def monotone_pair_category(N: int) -> FiniteCategory:
    """The signed-simplex category presented by monotone pairs ``(f, t)``.

    Nonconstant maps carry their forced sign; constant maps occur with both
    signs.  Names are ``images:target:sign``.
    """
    objects = [f"[{n}]" for n in range(N + 1)]
    morphisms, source, target, identity = [], {}, {}, {}
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

    def composite(name2: str, name1: str) -> str:
        (f1, _, t1), (f2, n2, t2) = data[name1], data[name2]
        s = "+" if t1 * t2 == 1 else "-"
        return "".join(str(f2[v]) for v in f1) + f":{n2}:{s}"

    return tabulate(objects, morphisms, source, target, identity, composite)


@record(frozen=True)
class NablaPresentations:
    semidirect: SemidirectCategory
    pairs: FiniteCategory
    iso: CatFunctor     # semidirect presentation -> pair presentation
    isomorphic: bool    # iso is a functor and a bijection on morphisms


def build_nabla(N: int) -> NablaPresentations:
    """Both presentations of the signed simplex category plus the explicit
    isomorphism between them, with its tablewise check in ``isomorphic``."""
    sd = nabla_category(N)
    pairs = nabla.monotone_pair_category(N)
    ob = {x: x for x in sd.category.objects}
    mor = {}
    for name, (phi, g) in sd.pair_of.items():
        imgs = delta_images(phi)
        n = delta_target(phi)
        if g == UNIT:
            mor[name] = "".join(map(str, imgs)) + f":{n}:+"
        else:
            rev = tuple(reversed(imgs))
            mor[name] = "".join(map(str, rev)) + f":{n}:-"
    iso = CatFunctor(sd.category, pairs, ob, mor)
    isomorphic = (not fincat.validate_functor(iso)
                  and len(set(mor.values())) == len(mor) == len(pairs.morphisms))
    return NablaPresentations(sd, pairs, iso, isomorphic)


def hom_doubling(pres: NablaPresentations) -> bool:
    """Whether each hom-set ``[m] -> [n]`` of the signed simplex category
    has twice the maps of the simplex category: one per sign."""
    delta = pres.semidirect.action.target
    signed = fincat.hom_index(pres.semidirect.category)
    homs = fincat.hom_index(delta)
    return all(len(signed.get((x, y), ())) == 2 * len(homs.get((x, y), ()))
               for x in delta.objects for y in delta.objects)
