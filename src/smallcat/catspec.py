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
  with ``(P-1)^2 * max(1, max D) < 2^63`` (an error that says the block
  "overflows int64"), and the differentials may hold at most
  ``MAX_DIFFERENTIAL_ENTRIES`` (2^24) entries in all, over a window
  ``LO..HI`` of at most as many degrees.  ``load`` checks the block,
  ``d.d = 0`` included, on its sparse entries, whose products it sums in
  64-bit fields that the bound on ``P`` keeps from carrying; the complex,
  built on first read from ``LoadedDocument.complexes``, holds
  :class:`chaincx.Matrix` differentials.

An entry line whose keyword is not one of its block kind's, or whose token
count differs from the forms above, is rejected by :func:`parse`, as is a
non-integer ``N``, ``A``, ``I``, ``P``, ``LO``, ``HI``, ``K``, ``D``,
``ROW``, ``COL`` or ``VAL``, a negative ``D``, ``ROW`` or ``COL``, a
permutation that is not ``p`` then digits, and an operad whose bound ``A``
or element arity ``N`` is not an integer with ``0 <= N <= A``.  Every block
is validated by its module validator on load (an ``sset``/``rsset`` level
outside ``0..9`` among them), and every cross-reference must resolve;
violations raise :class:`CatspecError` with the offending line.  A failed
validator reports ``line N: KIND NAME: E``, with ``N`` the block's header
line and ``E`` the validator's first error.
"""
from __future__ import annotations

import sys
from collections.abc import Mapping
from typing import TYPE_CHECKING

# Each module a block kind needs is imported by that block's path in
# ``load``, so a document loads only what its blocks use: semidirect for an
# action, invcat (and catmodel through it) for an involution, setval for a
# diagram, dmap or sset, nabla for an sset, cycops for an operad.  A
# complex block is checked without chaincx, which loads when a complex is
# first read from ``LoadedDocument.complexes``.  Timed functions
# are called through their module: see the package docstring.
from . import fincat
from .fincat import (
    CatFunctor,
    FiniteCategory,
    FiniteGroup,
    field,
    is_prime,
    record,
    validate_group,
)

if TYPE_CHECKING:
    from . import chaincx, cycops, invcat, nabla, semidirect, setval

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

# A complex block's differentials are dense matrices; ``load`` rejects a
# block whose matrices would hold more entries than this in all.
MAX_DIFFERENTIAL_ENTRIES = 2 ** 24


class CatspecError(ValueError):
    """A parse, reference, or validation failure, with its line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@record(frozen=True)
class Block:
    kind: str
    name: str
    params: tuple[str, ...]
    entries: tuple[tuple[str, ...], ...]
    line: int = 0

    def canonical_entries(self) -> list[tuple[str, ...]]:
        return sorted(self.entries)


@record(frozen=True)
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
        return _canonical(self) == _canonical(other)

    def __hash__(self):
        return hash(frozenset(_canonical(self).items()))


def _canonical(doc: CatspecDocument) -> dict:
    """The blocks of ``doc`` by kind and name, entries sorted: what ``==``
    and ``hash`` see, so that neither block nor entry order counts."""
    return {(b.kind, b.name): (b.params, tuple(b.canonical_entries()))
            for b in doc.blocks}


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


class Complexes(Mapping):
    """The complex blocks of a loaded document, by name, read-only.

    ``load`` has checked each block on its sparse ``d`` entries; the first
    read of ``[name]`` builds the :class:`chaincx.FiniteComplex` and keeps
    it.
    """

    def __init__(self, blocks: dict[str, tuple] | None = None):
        self._blocks = blocks or {}  # name -> _build_complex arguments
        self._built: dict[str, chaincx.FiniteComplex] = {}

    def __getitem__(self, name: str) -> chaincx.FiniteComplex:
        if name not in self._built:
            self._built[name] = _build_complex(*self._blocks[name])
        return self._built[name]

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)


@record
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
    complexes: Complexes = field(default_factory=Complexes)


def _entries(block: Block, keyword: str) -> list[tuple[str, ...]]:
    return [e[1:] for e in block.entries if e and e[0] == keyword]


def _checked(block: Block, value, errors: list[str]):
    """``value``, if its validator found no ``errors``; otherwise the first
    error, named by the block and located at its header line."""
    if errors:
        raise CatspecError(f"{block.kind} {block.name}: {errors[0]}", block.line)
    return value


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
    return _checked(block, C, fincat.validate_category(C))


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


def _check_complex(block: Block) -> tuple:
    """Check a complex block on its sparse entries and return the
    arguments of :func:`_build_complex`: ``dims`` as the ``dim`` lines give
    them, and ``diff[k]`` as ``{(row, col): value mod p}`` (the last entry
    per position) for each degree ``k`` that has entries."""
    p, lo, hi = (int(t) for t in block.params)
    dims = {int(e[0]): int(e[1]) for e in _entries(block, "dim")}
    if (p - 1) ** 2 * max([1, *dims.values()]) >= 2 ** 63:
        raise CatspecError(f"complex {block.name}: p = {p} overflows int64 "
                           f"matrix products at these dimensions", block.line)
    # the built complex has one matrix per degree of the window, so its
    # degrees are held to the same cap as its entries
    if hi - lo + 1 > MAX_DIFFERENTIAL_ENTRIES:
        raise CatspecError(f"complex {block.name}: window {lo}..{hi} has "
                           f"{hi - lo + 1} degrees, more than "
                           f"{MAX_DIFFERENTIAL_ENTRIES}", block.line)
    if not is_prime(p):
        raise CatspecError(f"complex {block.name}: p = {p} is not a prime",
                           block.line)
    # summed over the dim lines, not the window: a degree without one adds 0
    entries = sum(dims.get(k + 1, 0) * n for k, n in dims.items()
                  if lo <= k <= hi)
    if entries > MAX_DIFFERENTIAL_ENTRIES:
        raise CatspecError(f"complex {block.name}: differentials would have "
                           f"{entries} entries, more than "
                           f"{MAX_DIFFERENTIAL_ENTRIES}", block.line)
    diff: dict[int, dict[tuple[int, int], int]] = {}
    for e in _entries(block, "d"):
        k, row, col, val = int(e[0]), int(e[1]), int(e[2]), int(e[3])
        if not (lo <= k <= hi and row < dims.get(k + 1, 0)
                and col < dims.get(k, 0)):
            raise CatspecError(f"complex {block.name}: entry out of range at "
                               f"degree {k}", block.line)
        diff.setdefault(k, {})[row, col] = val % p
    for k in sorted(diff):
        if k + 1 in diff and _product_nonzero(diff[k + 1], diff[k], p):
            raise CatspecError(f"complex {block.name}: d.d nonzero at "
                               f"degree {k}", block.line)
    return p, lo, hi, dims, diff


def _product_nonzero(a: dict, b: dict, p: int) -> bool:
    """Whether the product ``a b`` of two sparse ``{(row, col): value}``
    matrices with entries in ``0..p-1`` is nonzero mod ``p``.

    Each row of ``b`` is packed into one integer, 64 bits per column, so a
    row of the product is a sum of multiples of packed rows.  The bound on
    ``p`` that ``load`` checks keeps each column's sum below 2^63: no
    column carries into the next.
    """
    shift = {col: 64 * i for i, col in enumerate({col for _, col in b})}
    packed: dict[int, int] = {}
    for (j, col), v in b.items():
        packed[j] = packed.get(j, 0) + (v << shift[col])
    a_rows: dict[int, list[tuple[int, int]]] = {}
    for (row, j), w in a.items():
        a_rows.setdefault(row, []).append((j, w))
    size = 8 * len(shift)
    for terms in a_rows.values():
        acc = sum(w * packed.get(j, 0) for j, w in terms)
        if acc and any(x % p for x in memoryview(
                acc.to_bytes(size, sys.byteorder)).cast("Q")):
            return True
    return False


def _build_complex(p: int, lo: int, hi: int, dims: dict[int, int],
                   diff: dict) -> chaincx.FiniteComplex:
    """The complex a checked block stands for: every degree of the window
    in ``dims`` (after the ``dim`` lines) and a matrix for each."""
    from . import chaincx
    dims = dict(dims)
    for k in range(lo, hi + 1):
        dims.setdefault(k, 0)
    mats = {}
    for k in range(lo, hi + 1):
        ncols = dims[k]
        rows = [(0,) * ncols] * dims.get(k + 1, 0)
        grid: dict[int, list[int]] = {}
        for (row, col), val in diff.get(k, {}).items():
            grid.setdefault(row, [0] * ncols)[col] = val
        for row, entries in grid.items():
            rows[row] = tuple(entries)
        mats[k] = chaincx.Matrix(tuple(rows), ncols)
    return chaincx.FiniteComplex(p, lo, hi, dims, mats)


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
        out.functors[b.name] = _checked(b, F, fincat.validate_functor(F))

    for b in (x for x in doc.blocks if x.kind == "action"):
        from . import semidirect
        G = need(out.groups, b.params[0], "group", b.line)
        C = need(out.categories, b.params[1], "category", b.line)
        rho = {}
        for e in _entries(b, "map"):
            rho[e[0]] = need(out.functors, e[1], "functor", b.line)
        act = semidirect.GroupAction(G, C, rho)
        out.actions[b.name] = _checked(b, act, semidirect.validate_action(act))

    for b in (x for x in doc.blocks if x.kind == "involution"):
        from . import invcat
        C = need(out.categories, b.params[0], "category", b.line)
        tau = CatFunctor(fincat.opposite(C), C,
                         {e[0]: e[1] for e in _entries(b, "object")},
                         {e[0]: e[1] for e in _entries(b, "morphism")})
        X = invcat.InvolutiveCategory(C, tau)
        out.involutions[b.name] = _checked(b, X, invcat.validate_involutive(X))

    for b in (x for x in doc.blocks if x.kind == "diagram"):
        from . import setval
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
        out.diagrams[b.name] = _checked(b, X, setval.validate_diagram(X))

    for b in (x for x in doc.blocks if x.kind == "dmap"):
        from . import setval
        src = need(out.diagrams, b.params[0], "diagram", b.line)
        tgt = need(out.diagrams, b.params[1], "diagram", b.line)
        comps: dict[str, dict[str, str]] = {o: {} for o in src.shape.objects}
        for e in _entries(b, "at"):
            comps.setdefault(e[0], {})[e[1]] = e[2]
        h = setval.DiagramMap(src, tgt, comps)
        out.dmaps[b.name] = _checked(b, h, setval.validate_diagram_map(h))

    for b in (x for x in doc.blocks if x.kind in ("sset", "rsset")):
        from . import nabla, setval
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
            out.ssets[b.name] = _checked(b, S, nabla.validate_sset(S))
        else:
            S = nabla.TruncatedRealSimplicialSet(level, X)
            out.rssets[b.name] = _checked(b, S, nabla.validate_rsset(S))

    for b in (x for x in doc.blocks if x.kind == "operad"):
        from . import cycops
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
        out.operads[b.name] = _checked(b, P, cycops.validate_operad(P))
        cyc = _entries(b, "cycact")
        if cyc:
            extended = {(int(e[0]), tuple(map(int, e[1][1:])), e[2]): e[3]
                        for e in cyc}
            Q = cycops.TruncatedCyclicOperad(P, extended)
            out.cyclic_operads[b.name] = _checked(b, Q,
                                                  cycops.validate_cyclic(Q))

    out.complexes = Complexes({b.name: _check_complex(b)
                               for b in doc.blocks if b.kind == "complex"})

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
