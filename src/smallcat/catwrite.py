"""Writing ``catspec`` documents, and reading ``group`` blocks.

:func:`emit` writes canonical text, :func:`_canonical` is the order-free
view of a document that ``==`` and ``hash`` compare, and the block
builders turn objects into blocks.  A ``group`` block is read here, since
few documents hold one.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .catspec import Block, CatspecDocument, CatspecError, _checked, _entries
from .fincat import CatFunctor, FiniteCategory, FiniteGroup
from .standard import validate_group

if TYPE_CHECKING:
    from . import chaincx, cycops, invcat, nabla, setval


def _canonical(doc: CatspecDocument) -> dict:
    """The blocks of ``doc`` by kind and name, entries sorted: what ``==``
    and ``hash`` see, so that neither block nor entry order counts."""
    return {(b.kind, b.name): (b.params, tuple(b.canonical_entries()))
            for b in doc.blocks}


def emit(doc: CatspecDocument) -> str:
    """Canonical text: sorted blocks, sorted entries, LF, single spaces."""
    out: list[str] = []
    for b in sorted(doc.blocks, key=lambda b: (b.kind, b.name)):
        out.append(" ".join((b.kind, b.name) + b.params))
        for entry in b.canonical_entries():
            out.append(" ".join(entry))
        out.append("end")
    return "\n".join(out) + "\n" if out else ""


def _build_group(block: Block) -> FiniteGroup:
    elements = [e[0] for e in _entries(block, "element")]
    idents = _entries(block, "identity")
    if len(idents) != 1:
        raise CatspecError(f"group {block.name}: exactly one identity",
                           block.line)
    mult = {(e[0], e[1]): e[2] for e in _entries(block, "mult")}
    inverse = {e[0]: e[1] for e in _entries(block, "inverse")}
    G = FiniteGroup(tuple(sorted(elements)), mult, idents[0][0], inverse)
    return _checked(block, G, validate_group(G))


# ---------------------------------------------------------------------------
# block builders (objects -> blocks)


def category_block(name: str, C: FiniteCategory) -> Block:
    entries = [("object", x) for x in C.objects]
    entries += [("morphism", m, C.source[m], C.target[m]) for m in C.morphisms]
    entries += [("identity", x, C.identity[x]) for x in C.objects]
    entries += [("compose", f, g, h) for (f, g), h in C.compose.items()]
    return Block("category", name, (), tuple(entries))


def functor_block(name: str, F: CatFunctor, dom: str, cod: str) -> Block:
    entries = [("object", x, y) for x, y in F.ob_map.items()]
    entries += [("morphism", m, n) for m, n in F.mor_map.items()]
    return Block("functor", name, (dom, cod), tuple(entries))


def group_block(name: str, G: FiniteGroup) -> Block:
    entries = [("element", e) for e in G.elements]
    entries += [("identity", G.identity)]
    entries += [("mult", a, b, c) for (a, b), c in G.mult.items()]
    entries += [("inverse", a, b) for a, b in G.inverse.items()]
    return Block("group", name, (), tuple(entries))


def diagram_block(name: str, X: setval.SetDiagram, cat: str) -> Block:
    entries = [("element", o, e) for o in X.shape.objects
               for e in X.values[o]]
    entries += [("map", m, e, v) for m, f in X.action.items()
                for e, v in f.items()]
    return Block("diagram", name, (cat,), tuple(entries))


def involution_block(name: str, X: invcat.InvolutiveCategory, cat: str) -> Block:
    entries = [("object", a, b) for a, b in X.tau.ob_map.items()]
    entries += [("morphism", m, n) for m, n in X.tau.mor_map.items()]
    return Block("involution", name, (cat,), tuple(entries))


def rsset_block(name: str, X: nabla.TruncatedRealSimplicialSet) -> Block:
    return _simplex_block("rsset", name, X)


def sset_block(name: str, X: nabla.TruncatedSimplicialSet) -> Block:
    return _simplex_block("sset", name, X)


def _simplex_block(kind: str, name: str, X) -> Block:
    entries = []
    for n in range(X.level + 1):
        entries += [("simplex", str(n), e) for e in X.simplices(n)]
    entries += [("act", m, e, v) for m, f in X.diagram.action.items()
                for e, v in f.items()]
    return Block(kind, name, (str(X.level),), tuple(entries))


def operad_block(name: str, P: cycops.TruncatedOperad,
                 extended: dict | None = None) -> Block:
    entries = [("element", str(n), x) for n, xs in P.elements.items()
               for x in xs]
    entries += [("unit", P.unit)]
    entries += [("compose", str(i), a, b, c)
                for (i, a, b), c in P.comp.items()]
    entries += [("act", str(n), "p" + "".join(map(str, s)), x, y)
                for (n, s, x), y in P.action.items()]
    if extended:
        entries += [("cycact", str(n), "p" + "".join(map(str, s)), x, y)
                    for (n, s, x), y in extended.items()]
    return Block("operad", name, (str(P.arity_bound),), tuple(entries))


def complex_block(name: str, C: chaincx.FiniteComplex) -> Block:
    entries = [("dim", str(k), str(C.dim(k)))
               for k in range(C.lo, C.hi + 1)]
    for k in range(C.lo, C.hi + 1):
        for r, row in enumerate(C.d(k).rows):
            entries += [("d", str(k), str(r), str(c), str(v % C.p))
                        for c, v in enumerate(row) if v % C.p]
    return Block("complex", name, (str(C.p), str(C.lo), str(C.hi)),
                 tuple(entries))


def dmap_block(name: str, h: setval.DiagramMap, src: str, tgt: str) -> Block:
    entries = [("at", o, e, v) for o, comp in h.components.items()
               for e, v in comp.items()]
    return Block("dmap", name, (src, tgt), tuple(entries))
