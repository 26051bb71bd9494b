"""Inputs of the benchmark workloads, owned by the benchmark.

The random generator is a copy of the acceptance-suite generator of
criterion 01 (functor plus one diagram on each side, sized for exhaustive
hom-set enumeration).  It lives here so that an edit to the tests cannot
change a workload.

The corpus is drawn from an indexed pool: pool instance ``i`` is generated
from its own random stream, and ``--seed`` picks which pool indices each
round of a run uses.  Every pool instance has a recorded verdict digest (see
``record.py``), so every seed's outputs are checked, not only the default's.

Library calls go through module attributes (``fincat.enumerate_functors``,
``setval.lan``) so that the traced run, which rebinds those attributes, sees
the calls made during corpus generation.
"""
from __future__ import annotations

import hashlib
import json
import random

from smallcat import catspec, chaincx, cycops, fincat, nabla, setval

KAN_POOL = 3000


# ---------------------------------------------------------------------------
# criterion 01: (iota, X, Y) triples


def random_poset(rng: random.Random) -> fincat.FiniteCategory:
    n = rng.randint(2, 4)
    names = [f"n{i}" for i in range(n)]
    closure = {(a, a) for a in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                closure.add((names[i], names[j]))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (b2, c) in list(closure):
                if b2 == b and (a, c) not in closure:
                    closure.add((a, c))
                    changed = True
    return fincat.poset_category(names, lambda x, y: (x, y) in closure)


def random_category(rng: random.Random) -> fincat.FiniteCategory:
    roll = rng.random()
    if roll < 0.55:
        C = random_poset(rng)
    elif roll < 0.7:
        C = fincat.discrete_category([f"d{i}" for i in range(rng.randint(1, 3))])
    elif roll < 0.8:
        C = fincat.walking_iso()
    elif roll < 0.9:
        C = fincat.parallel_pair()
    else:
        C = fincat.group_category(fincat.cyclic_group(2))
    if len(C.morphisms) > 12:
        return random_category(rng)
    return C


def random_functor(rng: random.Random, C, D) -> fincat.CatFunctor:
    fs = fincat.enumerate_functors(C, D, max_results=100_000)
    return fs[rng.randrange(len(fs))]


def constant_diagram(C, elems) -> setval.SetDiagram:
    return setval.SetDiagram.build(
        C, {o: tuple(elems) for o in C.objects},
        {m: {e: e for e in elems} for m in C.morphisms})


def random_diagram(rng: random.Random, C) -> setval.SetDiagram:
    if not C.objects:
        return setval.SetDiagram.build(C, {}, {})
    pieces = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.7:
            pieces.append(setval.corepresentable(C, rng.choice(sorted(C.objects))))
        else:
            pieces.append(constant_diagram(C, [f"c{rng.randrange(2)}"]))
    X, _ = setval.coproduct_diagrams(pieces)
    pairs = []
    for _ in range(rng.randint(0, 2)):
        o = rng.choice(sorted(C.objects))
        if len(X.values[o]) >= 2:
            a, b = rng.sample(sorted(X.values[o]), 2)
            pairs.append((o, a, b))
    X, _ = setval.quotient_diagram(X, pairs)
    if X.total_elements() > 20:
        return random_diagram(rng, C)
    return X


def _enum_cost(X, Y) -> int:
    cost = 1
    for o in X.shape.objects:
        cost *= max(1, len(Y.values[o])) ** len(X.values[o])
        if cost > 10 ** 9:
            return cost
    return cost


def tractable_instance(rng: random.Random):
    """A functor plus one diagram on each side, sized for exhaustive
    hom-set enumeration."""
    while True:
        C = random_category(rng)
        D = random_category(rng)
        iota = random_functor(rng, C, D)
        X = random_diagram(rng, C)
        Y = random_diagram(rng, D)
        LX = setval.lan(iota, X)
        RX = setval.ran(iota, X)
        rY = setval.restrict(iota, Y)
        cap = 40_000
        if max(_enum_cost(LX, Y), _enum_cost(X, rY),
               _enum_cost(rY, X), _enum_cost(Y, RX)) <= cap:
            return iota, X, Y


# ---------------------------------------------------------------------------
# pools, selection by seed, and digests


def kan_instance(index: int):
    return tractable_instance(random.Random(f"kan-{index}"))


def pick(seed: int, round_: int, size: int) -> list[int]:
    """The pool indices that round ``round_`` of a run with ``seed`` uses,
    in run order.  Each round draws its own corpus, so a run's percentiles
    do not rest on which few slow instances one draw happened to hold."""
    return random.Random(f"{seed}-{round_}").sample(range(KAN_POOL), size)


def digest(items) -> str:
    """A short digest of the JSON list of ``items``, hashed one item at a
    time so the list is never held whole."""
    h = hashlib.sha256(b"[")
    for k, item in enumerate(items):
        if k:
            h.update(b",")
        h.update(json.dumps(item, sort_keys=True,
                            separators=(",", ":")).encode())
    h.update(b"]")
    return h.hexdigest()[:16]


def diagram_data(X: setval.SetDiagram) -> list:
    """The element and action tables of a diagram (its shape excluded)."""
    return [sorted(X.values.items()),
            sorted((m, sorted(f.items())) for m, f in X.action.items())]


def functor_data(F: fincat.CatFunctor) -> list:
    return [sorted(F.ob_map.items()), sorted(F.mor_map.items())]


def kan_input_data(inst) -> list:
    iota, X, Y = inst
    return [iota.domain.morphisms, iota.codomain.morphisms,
            functor_data(iota), diagram_data(X), diagram_data(Y)]


def kan_verdict(report: setval.AdjunctionReport) -> str:
    return digest([report.ok, report.checked, sorted(report.failures)])


# ---------------------------------------------------------------------------
# CLI documents


def cli_suite_document() -> str:
    """The document of the criterion-11 CLI determinism check."""
    arrow, chain = fincat.walking_arrow(), fincat.chain_category(2)
    doc = catspec.CatspecDocument((
        catspec.category_block("arrow", arrow),
        catspec.category_block("chain", chain),
        catspec.functor_block(
            "iota",
            fincat.CatFunctor(arrow, chain, {"a": "0", "b": "1"},
                              {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"}),
            "arrow", "chain"),
        catspec.functor_block("ident", fincat.identity_functor(arrow),
                              "arrow", "arrow"),
        catspec.diagram_block("X", setval.SetDiagram.build(
            arrow, {"a": ("u", "v"), "b": ("p",)},
            {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
             "f": {"u": "p", "v": "p"}}), "arrow"),
        catspec.diagram_block("Y", setval.SetDiagram.build(
            chain, {"0": ("e",), "1": ("h",), "2": ("w",)},
            {"id_0": {"e": "e"}, "id_1": {"h": "h"}, "id_2": {"w": "w"},
             "le_0_1": {"e": "h"}, "le_1_2": {"h": "w"},
             "le_0_2": {"e": "w"}}), "chain"),
        catspec.rsset_block("S", nabla.representable_rsset(1, 0)),
        catspec.operad_block("T", cycops.terminal_operad(2)),
        catspec.complex_block("C", chaincx.two_term_identity_complex(2)),
    ))
    return catspec.emit(doc)

