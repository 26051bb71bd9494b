"""Finite categories presented by explicit composition tables.

Objects and morphisms are opaque strings, equality is string equality, and a
category carries its whole composition table.  Every categorical question in
this package therefore reduces to finite enumeration over these tables.  All
values are immutable after construction and every operation is a pure
function, so concurrent use is safe.

Enumerations are deterministic: objects and morphisms are kept sorted, and
searches branch in lexicographic order.  A constructor that computes its
composites fills the table with :func:`tabulate`, which visits only the
composable pairs, in an order fixed by the list of morphisms.
:func:`backtrack` is the one search loop and :func:`least_members` the one
union-find.

Derived names are rendered from their parts: pairs ``(a,b)`` (products,
semidirect products, group products), tuples ``(x0,...,xn)`` of the
cyclic right adjoint, families ``(o=v,...)`` of limits, colimit tags
``(o,e)``, comma objects, comma morphisms and left Kan items, closure
words, and the thin-category arrows ``le_x_y`` and ``to_y_from_x``.  Each
constructor checks its names with :func:`distinct`, so two different parts
that render alike raise ``ValueError`` instead of merging.

Products, functor searches, naturality checks and the equivalence tests
live in ``search``, the word closure in ``closure``, and the named
categories and groups in ``standard``; their old names here
(``fincat.product``, ...) still work through the module ``__getattr__``.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from . import moved

# Each name is read from its home module on first access.
__getattr__ = moved(globals(), search="""
    product coproduct core is_groupoid _iter_functors enumerate_functors
    enumerate_naturals validate_natural is_natural_iso is_full is_faithful
    is_essentially_surjective is_fully_faithful is_equivalence
    find_isomorphism""", closure="""
    _reduce_words bounded_closure category_from_generators""", standard="""
    identity_functor empty_category terminal_category discrete_category
    indiscrete_category walking_arrow walking_iso parallel_pair
    chain_category poset_category _thin_category symmetric_group
    group_product opposite_group group_category validate_group""")


class BudgetError(RuntimeError):
    """An exhaustive search exceeded its configured budget: ``kind`` names
    the budget, ``limit`` is its value and ``reached`` the count that went
    past it.  ``str`` of the error is its message alone."""

    def __init__(self, message: str, kind: str | None = None,
                 limit: int | None = None, reached: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.limit = limit
        self.reached = reached


def pair_name(a: str, b: str) -> str:
    """The canonical identifier for an ordered pair."""
    return f"({a},{b})"


def distinct(names: Collection[str], message: str) -> None:
    """Raise ``ValueError(message.format(n))`` for the first name ``n`` that
    occurs twice in ``names``: two different parts rendered alike."""
    if len(set(names)) != len(names):
        seen: set[str] = set()
        for n in names:
            if n in seen:
                raise ValueError(message.format(n))
            seen.add(n)


def is_prime(p: int) -> bool:
    """Whether ``p`` is prime: inverses are taken by Fermat's little theorem,
    which holds only modulo a prime."""
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


# ---------------------------------------------------------------------------
# record classes
#
# ``@record`` stands in for the standard library's ``@dataclass``, whose
# module imports ``inspect``, ``ast``, ``dis`` and ``tokenize``, and which
# runs one ``exec`` per generated method, every time a process starts.
# ``@record`` runs one ``exec`` per class and imports nothing.


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


class _Factory:
    """The default of a field made by :func:`field`."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"


def field(*, default_factory):
    """A record field whose default is a fresh ``default_factory()`` for
    each instance."""
    return _Factory(default_factory)


_REQUIRED = object()  # the default of a field that has none


def _record_repr(self) -> str:
    return (f"{type(self).__qualname__}("
            + ", ".join(f"{name}={getattr(self, name)!r}"
                        for name in self.__record_fields__) + ")")


def _record_hash(self) -> int:
    return hash(tuple([getattr(self, name) for name in self.__record_fields__]))


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen: bool = False, slots: bool = False):
    """Make ``cls`` a record class of its annotated fields, as the standard
    library's ``@dataclass(frozen=frozen, slots=slots)`` would.

    * The fields are the base records' fields, then the class's own
      annotations, in order; a class attribute is a field's default, and
      ``field(default_factory=f)`` gives a fresh ``f()`` per instance.
    * ``__init__`` and ``__eq__`` are generated in one ``exec``, in the code
      shape ``@dataclass`` generates: ``__init__`` takes the fields in
      order, with their defaults, assigns them (through
      ``object.__setattr__`` when frozen) and then calls ``__post_init__``
      if the class has one; ``__eq__`` returns ``NotImplemented`` unless
      both sides are of the same class, and then compares field tuples.
    * ``__repr__`` is shared and prints ``Name(field=value!r, ...)``.
    * A frozen record hashes its field tuple, and assigning or deleting
      any attribute raises :class:`FrozenRecordError`, an
      ``AttributeError``.  A non-frozen record is unhashable.
    * A class's own ``__eq__``, ``__repr__`` or ``__hash__`` is kept.
    * ``slots=True`` rebuilds the class with ``__slots__`` of its fields.

    No ``fields``, ``asdict`` or ``replace`` is provided.
    """
    if cls is None:
        return lambda cls: _make_record(cls, frozen, slots)
    return _make_record(cls, frozen, slots)


def _make_record(cls, frozen: bool, slots: bool):
    fields: dict = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update(vars(base).get("__record_fields__", {}))
    for name in vars(cls).get("__annotations__", {}):
        fields[name] = default = vars(cls).get(name, _REQUIRED)
        if isinstance(default, _Factory):
            delattr(cls, name)
    params, body = ["self"], []
    env = {"__name__": cls.__module__, "_setattr": object.__setattr__}
    for name, default in fields.items():
        value = name
        if default is _REQUIRED:
            params.append(name)
        else:
            env[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
            if isinstance(default, _Factory):
                env[f"_make_{name}"] = default.make
                value = f"_make_{name}() if {name} is _dflt_{name} else {name}"
        body.append(f"_setattr(self, {name!r}, {value})" if frozen
                    else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in fields)
    theirs = "".join(f"other.{name}," for name in fields)
    made: dict = {}
    exec(f"def __init__({', '.join(params)}):\n"
         + "".join(f"    {line}\n" for line in body)
         + "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n", env, made)
    made["__repr__"] = _record_repr
    for name, method in made.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    # a class that defines __eq__ but not __hash__ holds __hash__ = None
    if vars(cls).get("__hash__") is None:
        cls.__hash__ = _record_hash if frozen else None
    if frozen:
        cls.__setattr__ = _frozen_setattr
        cls.__delattr__ = _frozen_delattr
    cls.__record_fields__ = fields
    if slots:
        namespace = {key: value for key, value in vars(cls).items()
                     if key not in fields
                     and key not in ("__dict__", "__weakref__")}
        namespace["__slots__"] = tuple(fields)
        namespace["__qualname__"] = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    return cls


# ---------------------------------------------------------------------------
# core data types


@record(frozen=True)
class FiniteCategory:
    """A category with finitely many objects and morphisms.

    ``compose[(f, g)]`` is the composite "f after g" and is defined exactly
    when ``source[f] == target[g]``.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    source: dict[str, str]
    target: dict[str, str]
    identity: dict[str, str]
    compose: dict[tuple[str, str], str]

    @classmethod
    def build(cls, objects, morphisms, source, target, identity, compose) -> "FiniteCategory":
        """The category of these tables, each copied: the caller keeps its
        own."""
        return cls._taking(objects, morphisms, source, target, identity,
                           {(f, g): h for (f, g), h in compose.items()})

    @classmethod
    def _taking(cls, objects, morphisms, source, target, identity,
                compose: dict) -> "FiniteCategory":
        """:meth:`build` for a ``compose`` table the caller has just made and
        hands over: it is kept, not copied pair by pair."""
        return cls(
            objects=tuple(sorted(set(objects))),
            morphisms=tuple(sorted(set(morphisms))),
            source=dict(source),
            target=dict(target),
            identity=dict(identity),
            compose=compose,
        )

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return tuple(m for m in self.morphisms
                     if self.source[m] == x and self.target[m] == y)

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.source[m]) == m

    def composable(self, f: str, g: str) -> bool:
        return self.source[f] == self.target[g]

    def inverse(self, m: str) -> str | None:
        x, y = self.source[m], self.target[m]
        for n in self.hom(y, x):
            if (self.compose[(n, m)] == self.identity[x]
                    and self.compose[(m, n)] == self.identity[y]):
                return n
        return None

    def is_iso(self, m: str) -> bool:
        return self.inverse(m) is not None


def hom_index(C: FiniteCategory) -> dict[tuple[str, str], list[str]]:
    """The nonempty hom-sets of ``C`` keyed by ``(source, target)``, each in
    the order :meth:`FiniteCategory.hom` gives."""
    homs: dict[tuple[str, str], list[str]] = {}
    for m in C.morphisms:
        homs.setdefault((C.source[m], C.target[m]), []).append(m)
    return homs


def isomorphisms(C: FiniteCategory) -> list[str]:
    """The invertible morphisms of ``C`` in ``morphisms`` order, each inverse
    looked for in one :func:`hom_index`."""
    homs = hom_index(C)
    return [m for m in C.morphisms if any(
        C.compose[n, m] == C.identity[C.source[m]]
        and C.compose[m, n] == C.identity[C.target[m]]
        for n in homs.get((C.target[m], C.source[m]), ()))]


def generators(C: FiniteCategory) -> tuple[str, ...]:
    """Non-identity morphisms of which every non-identity morphism of ``C``
    is a composite: in increasing number of factorisations into two
    non-identities (ties in ``morphisms`` order), each that the earlier
    ones do not yet generate.

    A check of functoriality needs only these: if a map ``t`` of tables
    sends identities to identities and ``t(s.g) = t(s).t(g)`` for every
    generator ``s`` and every ``g`` composable with it, then ``t(f.g) =
    t(f).t(g)`` for all composable ``f`` and ``g``.  Write ``f = s.f2``
    with ``s`` a generator and ``f2`` a shorter composite or an identity;
    then ``t(f.g) = t(s.(f2.g)) = t(s).t(f2.g) = t(s).t(f2).t(g) =
    t(f).t(g)``, by associativity and induction on the length of ``f``.
    For the same reason the left Kan chase joins along generators only: a
    join along ``s.f2`` is one along ``f2`` followed by one along ``s``.

    Computed once per category and kept on it, outside its fields, so a
    category's tables must not change after the first call.
    """
    # getattr, not C.__dict__: reading __dict__ would give C a dict of its
    # own, and every attribute read on C would then take the slow path
    found = getattr(C, "_generators", None)
    if found is not None:
        return found
    identities = set(C.identity.values())
    factorisations = dict.fromkeys(C.morphisms, 0)
    for (f, g), h in C.compose.items():
        if f not in identities and g not in identities:
            factorisations[h] += 1
    gens: list[str] = []
    # made holds the composites of gens: it is closed under composition
    # once each member has been composed with every earlier one both ways.
    # The indecomposables, with no factorisation, come first: each is taken.
    made: set[str] = set()
    leaving: dict[str, list[str]] = {}    # members of made by source
    arriving: dict[str, list[str]] = {}   # and by target
    for m in sorted(C.morphisms, key=factorisations.__getitem__):
        if m in made or m in identities:
            continue
        gens.append(m)
        todo = [m]
        while todo:
            x = todo.pop()
            if x not in made:
                made.add(x)
                leaving.setdefault(C.source[x], []).append(x)
                arriving.setdefault(C.target[x], []).append(x)
                todo += [C.compose[x, y] for y in arriving.get(C.source[x], ())]
                todo += [C.compose[y, x] for y in leaving.get(C.target[x], ())]
    found = tuple(gens)
    object.__setattr__(C, "_generators", found)
    return found


def tabulate(objects, morphisms, source, target, identity,
             composite: Callable[[str, str], str]) -> FiniteCategory:
    """The category whose table holds ``composite(f, g)`` at each composable
    pair ``(f, g)`` and nowhere else.

    ``g`` runs over ``morphisms`` in the order given and ``f`` over the
    morphisms leaving ``target[g]``, also in that order; this fixes the
    insertion order of ``compose``.
    """
    leaving: dict[str, list[str]] = {}
    for m in morphisms:
        leaving.setdefault(source[m], []).append(m)
    compose = {(f, g): composite(f, g)
               for g in morphisms for f in leaving.get(target[g], ())}
    return FiniteCategory._taking(objects, morphisms, source, target,
                                  identity, compose)


@record(frozen=True)
class CatFunctor:
    """A functor between two finite categories, given by its raw maps."""

    domain: FiniteCategory
    codomain: FiniteCategory
    ob_map: dict[str, str]
    mor_map: dict[str, str]

    def key(self) -> tuple:
        """Hashable identity of the raw maps, for set-level comparisons."""
        return (tuple(sorted(self.ob_map.items())),
                tuple(sorted(self.mor_map.items())))


@record(frozen=True)
class NaturalTransformation:
    """A natural transformation, one component morphism per domain object."""

    source: CatFunctor
    target: CatFunctor
    components: dict[str, str]


@record(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    elements: tuple[str, ...]
    mult: dict[tuple[str, str], str]
    identity: str
    inverse: dict[str, str]


# ---------------------------------------------------------------------------
# validation


def validate_category(C: FiniteCategory) -> list[str]:
    """Check every category axiom on the full tables.

    Returns an empty list iff ``C`` is a category; otherwise one message per
    violated pair or triple.
    """
    errors = []
    obset, morset = set(C.objects), set(C.morphisms)
    for m in C.morphisms:
        if C.source.get(m) not in obset:
            errors.append(f"morphism {m}: bad source")
        if C.target.get(m) not in obset:
            errors.append(f"morphism {m}: bad target")
    for x in C.objects:
        i = C.identity.get(x)
        if i not in morset:
            errors.append(f"object {x}: missing identity")
            continue
        if C.source[i] != x or C.target[i] != x:
            errors.append(f"identity {i} of {x}: endpoints differ from {x}")
    if errors:
        return errors

    for f in C.morphisms:
        for g in C.morphisms:
            defined = (f, g) in C.compose
            if C.composable(f, g) != defined:
                errors.append(f"composition table wrong domain at ({f},{g})")
                continue
            if not defined:
                continue
            h = C.compose[(f, g)]
            if h not in morset:
                errors.append(f"composite {f}.{g} not a morphism")
            elif C.source[h] != C.source[g] or C.target[h] != C.target[f]:
                errors.append(f"composite {f}.{g} has wrong endpoints")
    if errors:
        return errors

    for x in C.objects:
        i = C.identity[x]
        for m in C.morphisms:
            if C.source[m] == x and C.compose[(m, i)] != m:
                errors.append(f"right unit fails at ({m},{i})")
            if C.target[m] == x and C.compose[(i, m)] != m:
                errors.append(f"left unit fails at ({i},{m})")

    for f in C.morphisms:
        for g in C.morphisms:
            if not C.composable(f, g):
                continue
            fg = C.compose[(f, g)]
            for h in C.morphisms:
                if not C.composable(g, h):
                    continue
                if C.compose[(fg, h)] != C.compose[(f, C.compose[(g, h)])]:
                    errors.append(f"associativity fails at ({f},{g},{h})")
    return errors


def validate_functor(F: CatFunctor) -> list[str]:
    """Check that the raw maps of ``F`` preserve all structure."""
    C, D = F.domain, F.codomain
    objects, morphisms = set(D.objects), set(D.morphisms)
    errors = []
    for x in C.objects:
        if F.ob_map.get(x) not in objects:
            errors.append(f"object {x}: image missing")
    for m in C.morphisms:
        n = F.mor_map.get(m)
        if n not in morphisms:
            errors.append(f"morphism {m}: image missing")
            continue
        # .get: an object without an image is reported above, not raised
        if D.source[n] != F.ob_map.get(C.source[m]):
            errors.append(f"morphism {m}: source not preserved")
        if D.target[n] != F.ob_map.get(C.target[m]):
            errors.append(f"morphism {m}: target not preserved")
    if errors:
        return errors
    for x in C.objects:
        if F.mor_map[C.identity[x]] != D.identity[F.ob_map[x]]:
            errors.append(f"identity of {x} not preserved")
    for (f, g), h in C.compose.items():
        if D.compose[(F.mor_map[f], F.mor_map[g])] != F.mor_map[h]:
            errors.append(f"composition not preserved at ({f},{g})")
    return errors


# ---------------------------------------------------------------------------
# elementary constructions


def opposite(C: FiniteCategory) -> FiniteCategory:
    """Reverse all morphisms; identifiers are kept, so this is an involution."""
    return FiniteCategory._taking(
        C.objects, C.morphisms, source=C.target, target=C.source,
        identity=C.identity,
        compose={(g, f): h for (f, g), h in C.compose.items()},
    )


def opposite_functor(F: CatFunctor) -> CatFunctor:
    """The induced functor between the opposite categories (same raw maps)."""
    return CatFunctor(opposite(F.domain), opposite(F.codomain),
                      dict(F.ob_map), dict(F.mor_map))


def compose_functors(F: CatFunctor, G: CatFunctor) -> CatFunctor:
    """``F`` after ``G``."""
    if G.codomain != F.domain:
        raise ValueError("functors not composable")
    return CatFunctor(G.domain, F.codomain,
                      {x: F.ob_map[G.ob_map[x]] for x in G.domain.objects},
                      {m: F.mor_map[G.mor_map[m]] for m in G.domain.morphisms})


# ---------------------------------------------------------------------------
# cyclic groups


def cyclic_group(n: int, prefix: str = "g") -> FiniteGroup:
    els = [f"{prefix}{i}" for i in range(n)]
    mult = {(f"{prefix}{i}", f"{prefix}{j}"): f"{prefix}{(i + j) % n}"
            for i in range(n) for j in range(n)}
    inverse = {f"{prefix}{i}": f"{prefix}{(-i) % n}" for i in range(n)}
    return FiniteGroup(tuple(sorted(els)), mult, f"{prefix}0", inverse)


# ---------------------------------------------------------------------------
# partitions


def least_members(items: Sequence, links: Iterable[tuple[int, int]]) -> list:
    """For each of ``items``, the minimal item of its class in the partition
    joining ``items[i]`` with ``items[j]`` for each ``(i, j)`` in ``links``.

    The one union-find of the package (Tarjan 1975), run on positions: the
    items need only be mutually comparable.  Paths are halved, and the
    larger root is linked under the smaller, so a parent never comes after
    its child; one pass in position order then reads each root from its
    parent's and keeps the minimal item of each class.
    """
    parent = list(range(len(items)))
    for i, j in links:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]   # i skips to its grandparent
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    least = list(items)
    for k, x in enumerate(items):
        parent[k] = r = parent[parent[k]]
        if x < least[r]:
            least[r] = x
    return list(map(least.__getitem__, parent))


# ---------------------------------------------------------------------------
# the backtracking core of the exhaustive searches


class NodeBudget:
    """How many candidates a search may still try (``limit=None``: no
    limit); trying one more raises :class:`BudgetError` with ``message``,
    the search's ``kind`` and ``limit``, and ``reached`` one past it."""

    __slots__ = ("left", "limit", "message", "kind")

    def __init__(self, limit: int | None, message: str,
                 kind: str | None = None):
        self.left = math.inf if limit is None else limit
        self.limit = limit
        self.message = message
        self.kind = kind


def constraint_lists(n: int, constraints: Iterable[tuple]) -> list[list[tuple]]:
    """File constraints for :func:`backtrack` over ``n`` variables.

    Each constraint ``(table, key_slots, value_slot)`` requires
    ``table[key] == a[value_slot]``, where ``key`` is ``a[s]`` for a single
    key slot ``s`` and the tuple of ``a[s]`` for several.  Slots ``0..n-1``
    are the variables and slot ``-1 - j`` is constant ``j``.  A constraint
    is filed under its highest variable slot, so that it is checked exactly
    once, when its last variable is assigned; one on constants alone is
    dropped.
    """
    lists: list[list[tuple]] = [[] for _ in range(n)]
    for table, keys, value in constraints:
        last = max(value, *keys)
        if last >= 0:
            lists[last].append((table, itemgetter(*keys), value))
    return lists


def backtrack(candidates: list, constraints: list[list[tuple]],
              budget: NodeBudget, constants=()) -> Iterator[list]:
    """Yield every assignment that meets all constraints, in lexicographic
    order.

    Variable ``k`` takes its values from ``candidates[k]``, in order.  An
    assignment is a list holding the variables, then ``constants`` in
    reverse, so that slot ``-1 - j`` reads constant ``j``.
    ``constraints[k]`` comes from :func:`constraint_lists`.  Each candidate
    tried is one node of ``budget``.  The yielded list is reused, so copy
    what you keep.
    """
    n = len(candidates)
    a = [None] * n + list(reversed(constants))
    if not n:
        yield a
        return
    # A stack of candidate iterators rather than recursion, so that the
    # number of variables is not bounded by Python's recursion limit.
    left = budget.left
    pending = [iter(candidates[0])] + [None] * (n - 1)
    k = 0
    try:
        while k >= 0:
            for c in pending[k]:
                left -= 1
                if left < 0:
                    raise BudgetError(budget.message, budget.kind,
                                      budget.limit, budget.limit + 1)
                a[k] = c
                for table, key, value in constraints[k]:
                    if table[key(a)] != a[value]:
                        break
                else:
                    if k + 1 == n:
                        yield a
                    else:
                        k += 1
                        pending[k] = iter(candidates[k])
                        break
            else:
                k -= 1
    finally:
        budget.left = left


def _forced(pairs) -> dict | None:
    """The map sending each key to its value, or None if some key is sent
    to two values: the pinned candidates of a lifting search, None when the
    square's top contradicts itself along its left map."""
    out: dict = {}
    for key, value in pairs:
        if out.setdefault(key, value) != value:
            return None
    return out
