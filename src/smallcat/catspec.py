"""The ``catspec`` text format binding all modules together.

A document is a sequence of blocks.  Each block opens with a header line
(kind, name, then kind-specific parameters), contains entry lines of
whitespace-separated tokens, and closes with ``end``.  Canonical form:
blocks sorted by (kind, name), entry lines sorted lexicographically,
single-space separators, LF line endings, no blank lines; parsing followed
by emission is the identity on canonical documents.

Block kinds and their entries:

- ``category NAME``: ``object X`` / ``morphism M SRC TGT`` /
  ``identity OBJ M`` / ``compose F G H`` (meaning ``F`` after ``G`` is
  ``H``).
- ``functor NAME DOM COD``: ``object X Y`` / ``morphism M N``.
- ``group NAME``: ``element E`` / ``identity E`` / ``mult A B C`` /
  ``inverse A B``.
- ``action NAME GROUP CATEGORY``: ``map G FUNCTOR``.
- ``involution NAME CATEGORY``: ``object X Y`` / ``morphism M N`` (the
  anti-involution from the opposite of the category).
- ``diagram NAME CATEGORY``: ``element OBJ E`` / ``map MOR E E2``.
- ``dmap NAME SRC TGT``: ``at OBJ E E2`` (a map between two diagram
  blocks over the same category).
- ``sset NAME N`` / ``rsset NAME N``: ``simplex LEVEL E`` /
  ``act MOR E E2`` with ``MOR`` a (signed) simplex-category morphism id.
- ``operad NAME A``: ``element N X`` / ``unit X`` / ``compose I A B C`` /
  ``act N PERM X Y`` / ``cycact N EXTPERM X Y`` (presence of ``cycact``
  lines makes the operad cyclic); permutations are ``p``-prefixed digit
  strings of images, e.g. ``p21`` for the transposition.
- ``complex NAME P LO HI``: ``dim K D`` / ``d K ROW COL VAL`` (entries of
  the degree-raising differential out of degree ``K``); ``P`` must be prime,
  with ``(P-1)^2 * max(1, max D) < 2^63`` so that int64 matrix products do
  not overflow, and the differentials may hold at most
  ``MAX_DIFFERENTIAL_ENTRIES`` (2^24) entries in all, over a window
  ``LO..HI`` of at most as many degrees.

An entry line whose keyword is not one of its block kind's, or whose token
count differs from the forms above, is rejected by :func:`parse`, as is a
non-integer ``N``, ``A``, ``I``, ``P``, ``LO``, ``HI``, ``K``, ``D``,
``ROW``, ``COL`` or ``VAL``, a negative ``D``, ``ROW`` or ``COL``, a
permutation that is not ``p`` then digits, and an operad whose bound ``A``
or element arity ``N`` is not an integer with ``0 <= N <= A``.  Every block
is validated by its module validator on load (an ``sset``/``rsset`` level
outside ``0..9`` among them), and every cross-reference must resolve;
violations raise :class:`CatspecError` with the offending line.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# numpy and chaincx are imported by the complex-block path of ``load`` only,
# so documents without a complex never load numpy.  Timed functions are
# called through their module: see the package docstring.
from . import cycops, fincat, invcat, nabla, semidirect, setval
from .fincat import (
    CatFunctor,
    FiniteCategory,
    FiniteGroup,
    validate_group,
)

# Per block kind: one slot per header parameter after the name, and one
# slot per token after the keyword of each entry keyword.  A slot is "." for
# any token, "i" for an integer, "n" for a non-negative integer, "p" for a
# permutation (``p`` then digits).
_GRAMMAR = {
    "category": ("", {"object": ".", "morphism": "...", "identity": "..",
                      "compose": "..."}),
    "functor": ("..", {"object": "..", "morphism": ".."}),
    "group": ("", {"element": ".", "identity": ".", "mult": "...",
                   "inverse": ".."}),
    "action": ("..", {"map": ".."}),
    "involution": (".", {"object": "..", "morphism": ".."}),
    "diagram": (".", {"element": "..", "map": "..."}),
    "dmap": ("..", {"at": "..."}),
    "sset": ("i", {"simplex": "..", "act": "..."}),
    "rsset": ("i", {"simplex": "..", "act": "..."}),
    "operad": ("i", {"element": "i.", "unit": ".", "compose": "i...",
                     "act": "ip..", "cycact": "ip.."}),
    "complex": ("iii", {"dim": "in", "d": "inni"}),
}
BLOCK_KINDS = tuple(_GRAMMAR)

# A complex block's differentials are dense int64 matrices; ``load``
# rejects a block whose matrices would hold more entries than this in all.
MAX_DIFFERENTIAL_ENTRIES = 2 ** 24


class CatspecError(ValueError):
    """A parse, reference, or validation failure, with its line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Block:
    kind: str
    name: str
    params: tuple[str, ...]
    entries: tuple[tuple[str, ...], ...]
    line: int = 0

    def canonical_entries(self) -> list[tuple[str, ...]]:
        return sorted(self.entries)


@dataclass(frozen=True)
class CatspecDocument:
    blocks: tuple[Block, ...]

    def get(self, kind: str, name: str) -> Block | None:
        for b in self.blocks:
            if b.kind == kind and b.name == name:
                return b
        return None

    def __eq__(self, other):
        if not isinstance(other, CatspecDocument):
            return NotImplemented
        mine = {(b.kind, b.name): (b.params, tuple(b.canonical_entries()))
                for b in self.blocks}
        theirs = {(b.kind, b.name): (b.params, tuple(b.canonical_entries()))
                  for b in other.blocks}
        return mine == theirs


def _check_slots(where: str, slots: str, tokens: list[str], line: int) -> None:
    """Reject the first token that does not fit its slot in ``_GRAMMAR``."""
    for slot, token in zip(slots, tokens):
        if slot in ("i", "n"):
            try:
                value = int(token)
            except ValueError:
                raise CatspecError(f"{where}: {token!r} is not an integer", line)
            if slot == "n" and value < 0:
                raise CatspecError(f"{where}: {token!r} is negative", line)
        elif slot == "p" and not (token[:1] == "p"
                                  and all(c.isdecimal() for c in token[1:])):
            raise CatspecError(f"{where}: {token!r} is not a permutation", line)


def parse(text: str) -> CatspecDocument:
    """Parse a document; positions are reported on errors."""
    blocks: list[Block] = []
    current: dict | None = None
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if current is None:
            kind = tokens[0]
            if kind not in BLOCK_KINDS:
                raise CatspecError(f"unknown block kind {kind!r}", lineno)
            want = _GRAMMAR[kind][0]
            if len(tokens) != 2 + len(want):
                raise CatspecError(f"{kind} header takes a name and "
                                   f"{len(want)} parameter(s)", lineno)
            if kind == "operad" and not tokens[2].isdecimal():
                raise CatspecError("operad arity bound must be a non-negative "
                                   "integer", lineno)
            _check_slots(f"{kind} header", want, tokens[2:], lineno)
            key = (kind, tokens[1])
            if key in seen:
                raise CatspecError(f"duplicate block {kind} {tokens[1]}", lineno)
            seen.add(key)
            current = {"kind": kind, "name": tokens[1],
                       "params": tuple(tokens[2:]), "entries": [],
                       "line": lineno}
        elif tokens == ["end"]:
            blocks.append(Block(current["kind"], current["name"],
                                current["params"],
                                tuple(current["entries"]), current["line"]))
            current = None
        else:
            slots = _GRAMMAR[current["kind"]][1].get(tokens[0])
            if slots is None:
                raise CatspecError(f"unknown {current['kind']} entry "
                                   f"{tokens[0]!r}", lineno)
            if len(tokens) != 1 + len(slots):
                raise CatspecError(f"{current['kind']} entry {tokens[0]} "
                                   f"takes {len(slots)} token(s)", lineno)
            _check_slots(f"{current['kind']} entry {tokens[0]}", slots,
                         tokens[1:], lineno)
            if current["kind"] == "operad" and tokens[0] == "element":
                bound = current["params"][0]
                if not (tokens[1].isdecimal() and int(tokens[1]) <= int(bound)):
                    raise CatspecError(f"operad element arity {tokens[1]!r} "
                                       f"is not an integer in 0..{bound}", lineno)
            current["entries"].append(tuple(tokens))
    if current is not None:
        raise CatspecError(f"unterminated block {current['kind']} "
                           f"{current['name']}", current["line"])
    return CatspecDocument(tuple(blocks))


def emit(doc: CatspecDocument) -> str:
    """Canonical text: sorted blocks, sorted entries, LF, single spaces."""
    out: list[str] = []
    for b in sorted(doc.blocks, key=lambda b: (b.kind, b.name)):
        out.append(" ".join((b.kind, b.name) + b.params))
        for entry in b.canonical_entries():
            out.append(" ".join(entry))
        out.append("end")
    return "\n".join(out) + "\n" if out else ""


# ---------------------------------------------------------------------------
# loading (resolution + validation)


@dataclass
class LoadedDocument:
    document: CatspecDocument
    categories: dict[str, FiniteCategory] = field(default_factory=dict)
    functors: dict[str, CatFunctor] = field(default_factory=dict)
    groups: dict[str, FiniteGroup] = field(default_factory=dict)
    actions: dict[str, semidirect.GroupAction] = field(default_factory=dict)
    involutions: dict[str, invcat.InvolutiveCategory] = field(default_factory=dict)
    diagrams: dict[str, setval.SetDiagram] = field(default_factory=dict)
    dmaps: dict[str, setval.DiagramMap] = field(default_factory=dict)
    ssets: dict[str, nabla.TruncatedSimplicialSet] = field(default_factory=dict)
    rssets: dict[str, nabla.TruncatedRealSimplicialSet] = field(default_factory=dict)
    operads: dict[str, cycops.TruncatedOperad] = field(default_factory=dict)
    cyclic_operads: dict[str, cycops.TruncatedCyclicOperad] = field(default_factory=dict)
    complexes: dict[str, chaincx.FiniteComplex] = field(default_factory=dict)


def _entries(block: Block, keyword: str) -> list[tuple[str, ...]]:
    return [e[1:] for e in block.entries if e and e[0] == keyword]


def _build_category(block: Block) -> FiniteCategory:
    objects = [e[0] for e in _entries(block, "object")]
    morphisms, source, target = [], {}, {}
    for e in _entries(block, "morphism"):
        morphisms.append(e[0])
        source[e[0]], target[e[0]] = e[1], e[2]
    identity = {e[0]: e[1] for e in _entries(block, "identity")}
    compose = {(e[0], e[1]): e[2] for e in _entries(block, "compose")}
    C = FiniteCategory.build(objects, morphisms, source, target,
                             identity, compose)
    errs = fincat.validate_category(C)
    if errs:
        raise CatspecError(f"category {block.name}: {errs[0]}", block.line)
    return C


def _build_group(block: Block) -> FiniteGroup:
    elements = [e[0] for e in _entries(block, "element")]
    idents = _entries(block, "identity")
    if len(idents) != 1:
        raise CatspecError(f"group {block.name}: exactly one identity",
                           block.line)
    mult = {(e[0], e[1]): e[2] for e in _entries(block, "mult")}
    inverse = {e[0]: e[1] for e in _entries(block, "inverse")}
    G = FiniteGroup(tuple(sorted(elements)), mult, idents[0][0], inverse)
    errs = validate_group(G)
    if errs:
        raise CatspecError(f"group {block.name}: {errs[0]}", block.line)
    return G


def load(text: str) -> LoadedDocument:
    """Parse, resolve every cross-reference, and run every validator."""
    doc = parse(text)
    out = LoadedDocument(doc)

    def need(table: dict, name: str, what: str, line: int):
        if name not in table:
            raise CatspecError(f"reference to undefined {what} {name!r}", line)
        return table[name]

    for b in (x for x in doc.blocks if x.kind == "category"):
        out.categories[b.name] = _build_category(b)
    for b in (x for x in doc.blocks if x.kind == "group"):
        out.groups[b.name] = _build_group(b)

    for b in (x for x in doc.blocks if x.kind == "functor"):
        dom = need(out.categories, b.params[0], "category", b.line)
        cod = need(out.categories, b.params[1], "category", b.line)
        F = CatFunctor(dom, cod,
                       {e[0]: e[1] for e in _entries(b, "object")},
                       {e[0]: e[1] for e in _entries(b, "morphism")})
        errs = fincat.validate_functor(F)
        if errs:
            raise CatspecError(f"functor {b.name}: {errs[0]}", b.line)
        out.functors[b.name] = F

    for b in (x for x in doc.blocks if x.kind == "action"):
        G = need(out.groups, b.params[0], "group", b.line)
        C = need(out.categories, b.params[1], "category", b.line)
        rho = {}
        for e in _entries(b, "map"):
            rho[e[0]] = need(out.functors, e[1], "functor", b.line)
        act = semidirect.GroupAction(G, C, rho)
        errs = semidirect.validate_action(act)
        if errs:
            raise CatspecError(f"action {b.name}: {errs[0]}", b.line)
        out.actions[b.name] = act

    for b in (x for x in doc.blocks if x.kind == "involution"):
        C = need(out.categories, b.params[0], "category", b.line)
        tau = CatFunctor(fincat.opposite(C), C,
                         {e[0]: e[1] for e in _entries(b, "object")},
                         {e[0]: e[1] for e in _entries(b, "morphism")})
        X = invcat.InvolutiveCategory(C, tau)
        errs = invcat.validate_involutive(X)
        if errs:
            raise CatspecError(f"involution {b.name}: {errs[0]}", b.line)
        out.involutions[b.name] = X

    for b in (x for x in doc.blocks if x.kind == "diagram"):
        C = need(out.categories, b.params[0], "category", b.line)
        values: dict[str, list[str]] = {o: [] for o in C.objects}
        for e in _entries(b, "element"):
            if e[0] not in values:
                raise CatspecError(
                    f"diagram {b.name}: unknown object {e[0]!r}", b.line)
            values[e[0]].append(e[1])
        action: dict[str, dict[str, str]] = {m: {} for m in C.morphisms}
        for e in _entries(b, "map"):
            if e[0] not in action:
                raise CatspecError(
                    f"diagram {b.name}: unknown morphism {e[0]!r}", b.line)
            action[e[0]][e[1]] = e[2]
        X = setval.SetDiagram.build(C, values, action)
        errs = setval.validate_diagram(X)
        if errs:
            raise CatspecError(f"diagram {b.name}: {errs[0]}", b.line)
        out.diagrams[b.name] = X

    for b in (x for x in doc.blocks if x.kind == "dmap"):
        src = need(out.diagrams, b.params[0], "diagram", b.line)
        tgt = need(out.diagrams, b.params[1], "diagram", b.line)
        comps: dict[str, dict[str, str]] = {o: {} for o in src.shape.objects}
        for e in _entries(b, "at"):
            comps.setdefault(e[0], {})[e[1]] = e[2]
        h = setval.DiagramMap(src, tgt, comps)
        errs = setval.validate_diagram_map(h)
        if errs:
            raise CatspecError(f"dmap {b.name}: {errs[0]}", b.line)
        out.dmaps[b.name] = h

    for b in (x for x in doc.blocks if x.kind in ("sset", "rsset")):
        level = int(b.params[0])
        try:
            if b.kind == "sset":
                shape = fincat.opposite(nabla.delta_leq(level))
            else:
                shape = fincat.opposite(nabla.nabla_category(level).category)
        except ValueError as exc:
            raise CatspecError(f"{b.kind} {b.name}: {exc}", b.line) from None
        values = {f"[{n}]": [] for n in range(level + 1)}
        for e in _entries(b, "simplex"):
            key = f"[{e[0]}]"
            if key not in values:
                raise CatspecError(f"{b.kind} {b.name}: bad level {e[0]}", b.line)
            values[key].append(e[1])
        action: dict[str, dict[str, str]] = {m: {} for m in shape.morphisms}
        for e in _entries(b, "act"):
            if e[0] not in action:
                raise CatspecError(
                    f"{b.kind} {b.name}: unknown operator {e[0]!r}", b.line)
            action[e[0]][e[1]] = e[2]
        X = setval.SetDiagram.build(shape, values, action)
        if b.kind == "sset":
            S = nabla.TruncatedSimplicialSet(level, X)
            errs = nabla.validate_sset(S)
            if errs:
                raise CatspecError(f"sset {b.name}: {errs[0]}", b.line)
            out.ssets[b.name] = S
        else:
            S = nabla.TruncatedRealSimplicialSet(level, X)
            errs = nabla.validate_rsset(S)
            if errs:
                raise CatspecError(f"rsset {b.name}: {errs[0]}", b.line)
            out.rssets[b.name] = S

    for b in (x for x in doc.blocks if x.kind == "operad"):
        bound = int(b.params[0])
        elements: dict[int, list[str]] = {n: [] for n in range(bound + 1)}
        for e in _entries(b, "element"):
            elements[int(e[0])].append(e[1])
        units = _entries(b, "unit")
        if len(units) != 1:
            raise CatspecError(f"operad {b.name}: exactly one unit", b.line)
        comp = {(int(e[0]), e[1], e[2]): e[3]
                for e in _entries(b, "compose")}
        action = {(int(e[0]), tuple(map(int, e[1][1:])), e[2]): e[3]
                  for e in _entries(b, "act")}
        P = cycops.TruncatedOperad(
            bound, {n: tuple(sorted(v)) for n, v in elements.items()},
            units[0][0], comp, action)
        errs = cycops.validate_operad(P)
        if errs:
            raise CatspecError(f"operad {b.name}: {errs[0]}", b.line)
        out.operads[b.name] = P
        cyc = _entries(b, "cycact")
        if cyc:
            extended = {(int(e[0]), tuple(map(int, e[1][1:])), e[2]): e[3]
                        for e in cyc}
            Q = cycops.TruncatedCyclicOperad(P, extended)
            errs = cycops.validate_cyclic(Q)
            if errs:
                raise CatspecError(f"operad {b.name}: {errs[0]}", b.line)
            out.cyclic_operads[b.name] = Q

    for b in (x for x in doc.blocks if x.kind == "complex"):
        p, lo, hi = (int(t) for t in b.params)
        dims = {int(e[0]): int(e[1]) for e in _entries(b, "dim")}
        if (p - 1) ** 2 * max([1, *dims.values()]) >= 2 ** 63:
            raise CatspecError(f"complex {b.name}: p = {p} overflows int64 "
                               f"matrix products at these dimensions", b.line)
        # one matrix per degree of the window, so its degrees are held to
        # the same cap as its entries, before any loop walks the window
        if hi - lo + 1 > MAX_DIFFERENTIAL_ENTRIES:
            raise CatspecError(f"complex {b.name}: window {lo}..{hi} has "
                               f"{hi - lo + 1} degrees, more than "
                               f"{MAX_DIFFERENTIAL_ENTRIES}", b.line)
        import numpy as np
        from . import chaincx
        if not chaincx.is_prime(p):
            raise CatspecError(f"complex {b.name}: p = {p} is not a prime",
                               b.line)
        for k in range(lo, hi + 1):
            dims.setdefault(k, 0)
        entries = sum(dims.get(k + 1, 0) * dims[k] for k in range(lo, hi + 1))
        if entries > MAX_DIFFERENTIAL_ENTRIES:
            raise CatspecError(f"complex {b.name}: differentials would have "
                               f"{entries} entries, more than "
                               f"{MAX_DIFFERENTIAL_ENTRIES}", b.line)
        mats = {k: np.zeros((dims.get(k + 1, 0), dims[k]), dtype=np.int64)
                for k in range(lo, hi + 1)}
        for e in _entries(b, "d"):
            k, row, col, val = int(e[0]), int(e[1]), int(e[2]), int(e[3])
            if k not in mats or row >= mats[k].shape[0] or col >= mats[k].shape[1]:
                raise CatspecError(
                    f"complex {b.name}: entry out of range at degree {k}", b.line)
            mats[k][row, col] = val % p
        C = chaincx.FiniteComplex(p, lo, hi, dims, mats)
        errs = chaincx.validate_complex(C)
        if errs:
            raise CatspecError(f"complex {b.name}: {errs[0]}", b.line)
        out.complexes[b.name] = C

    return out


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
    entries = []
    for n in range(X.level + 1):
        entries += [("simplex", str(n), e) for e in X.simplices(n)]
    entries += [("act", m, e, v) for m, f in X.diagram.action.items()
                for e, v in f.items()]
    return Block("rsset", name, (str(X.level),), tuple(entries))


def sset_block(name: str, X: nabla.TruncatedSimplicialSet) -> Block:
    entries = []
    for n in range(X.level + 1):
        entries += [("simplex", str(n), e) for e in X.simplices(n)]
    entries += [("act", m, e, v) for m, f in X.diagram.action.items()
                for e, v in f.items()]
    return Block("sset", name, (str(X.level),), tuple(entries))


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
        m = C.d(k)
        for r in range(m.shape[0]):
            for c in range(m.shape[1]):
                if m[r, c] % C.p:
                    entries.append(("d", str(k), str(r), str(c),
                                    str(int(m[r, c] % C.p))))
    return Block("complex", name, (str(C.p), str(C.lo), str(C.hi)),
                 tuple(entries))


def dmap_block(name: str, h: setval.DiagramMap, src: str, tgt: str) -> Block:
    entries = [("at", o, e, v) for o, comp in h.components.items()
               for e, v in comp.items()]
    return Block("dmap", name, (src, tgt), tuple(entries))
