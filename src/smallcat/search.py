"""Searches over finite categories, and the constructions only they use.

Functor enumeration runs on :func:`smallcat.fincat.backtrack`: the
non-identity morphisms are the variables, and every composite of the
domain is a constraint.  On top of it sit natural-transformation
enumeration and checking, the fullness, faithfulness and equivalence
tests, the isomorphism search, and the bounded word closure that
completes a category from generators and relations.  Products, coproducts
and cores are here too.  Coproduct copies are suffixed ``#0`` / ``#1``
when the two identifier sets meet.

Every name here is also reachable as an attribute of
:mod:`smallcat.fincat`, where it lived before; only the commands that
search (``lift``, ``rlp``, ``soa``, the paper suite) and documents with an
``involution`` block load this module.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from .fincat import (
    BudgetError,
    CatFunctor,
    FiniteCategory,
    NaturalTransformation,
    NodeBudget,
    backtrack,
    constraint_lists,
    hom_index,
    pair_name,
)


# ---------------------------------------------------------------------------
# products, coproducts and cores


def product(C: FiniteCategory, D: FiniteCategory) -> FiniteCategory:
    """The product category, with pairwise identifiers ``(c,d)``."""
    objects = [pair_name(x, y) for x in C.objects for y in D.objects]
    morphisms, source, target, identity, compose = [], {}, {}, {}, {}
    for f in C.morphisms:
        for g in D.morphisms:
            m = pair_name(f, g)
            morphisms.append(m)
            source[m] = pair_name(C.source[f], D.source[g])
            target[m] = pair_name(C.target[f], D.target[g])
    for x in C.objects:
        for y in D.objects:
            identity[pair_name(x, y)] = pair_name(C.identity[x], D.identity[y])
    for (f1, f2), f3 in C.compose.items():
        for (g1, g2), g3 in D.compose.items():
            compose[(pair_name(f1, g1), pair_name(f2, g2))] = pair_name(f3, g3)
    for names in (objects, morphisms):
        seen: set[str] = set()
        for n in names:
            if n in seen:
                raise ValueError(f"product identifier {n} names two pairs")
            seen.add(n)
    return FiniteCategory.build(objects, morphisms, source, target, identity, compose)


def coproduct(C: FiniteCategory, D: FiniteCategory) -> FiniteCategory:
    """The disjoint union.

    If the identifier sets already are disjoint they are kept; otherwise
    every identifier is renamed with the suffixes ``#0`` (left) and ``#1``
    (right).
    """
    disjoint = (not set(C.objects) & set(D.objects)
                and not set(C.morphisms) & set(D.morphisms))
    lo, lm = ((lambda s: s), (lambda s: s)) if disjoint else \
        ((lambda s: s + "#0"), (lambda s: s + "#0"))
    ro, rm = ((lambda s: s), (lambda s: s)) if disjoint else \
        ((lambda s: s + "#1"), (lambda s: s + "#1"))
    objects = [lo(x) for x in C.objects] + [ro(x) for x in D.objects]
    morphisms = [lm(m) for m in C.morphisms] + [rm(m) for m in D.morphisms]
    source = {lm(m): lo(C.source[m]) for m in C.morphisms}
    source.update({rm(m): ro(D.source[m]) for m in D.morphisms})
    target = {lm(m): lo(C.target[m]) for m in C.morphisms}
    target.update({rm(m): ro(D.target[m]) for m in D.morphisms})
    identity = {lo(x): lm(C.identity[x]) for x in C.objects}
    identity.update({ro(x): rm(D.identity[x]) for x in D.objects})
    compose = {(lm(f), lm(g)): lm(h) for (f, g), h in C.compose.items()}
    compose.update({(rm(f), rm(g)): rm(h) for (f, g), h in D.compose.items()})
    return FiniteCategory.build(objects, morphisms, source, target, identity, compose)


def core(C: FiniteCategory) -> FiniteCategory:
    """The wide subcategory on exactly the invertible morphisms."""
    keep = [m for m in C.morphisms if C.is_iso(m)]
    keepset = set(keep)
    return FiniteCategory.build(
        C.objects, keep,
        {m: C.source[m] for m in keep},
        {m: C.target[m] for m in keep},
        dict(C.identity),
        {(f, g): h for (f, g), h in C.compose.items()
         if f in keepset and g in keepset},
    )


def is_groupoid(C: FiniteCategory) -> bool:
    return all(C.is_iso(m) for m in C.morphisms)


# ---------------------------------------------------------------------------
# functor enumeration


def _iter_functors(C: FiniteCategory, D: FiniteCategory,
                   ob_choices: dict[str, Sequence[str]] | None = None,
                   mor_filter: Callable[[str, str], bool] | None = None,
                   node_budget: int | None = 2_000_000) -> Iterator[CatFunctor]:
    """Yield every functor ``C -> D`` in lexicographic order.

    ``ob_choices[x]``, where given, lists the candidate images of object
    ``x`` in order (all of ``D.objects`` otherwise); ``mor_filter(m, n)``
    restricts morphism images.  For each choice of object images,
    :func:`backtrack` assigns the non-identity morphisms; every composite
    ``f g = h`` of ``C`` is a constraint ``D.compose[(F f, F g)] == F h``,
    with identity images as constants.  One node budget covers every
    choice.
    """
    obs = list(C.objects)
    nonid = [m for m in C.morphisms if not C.is_identity(m)]
    n = len(nonid)
    slot = {m: k for k, m in enumerate(nonid)}
    slot.update((C.identity[x], -1 - j) for j, x in enumerate(obs))
    constraints = constraint_lists(n, (
        (D.compose, (slot[f], slot[g]), slot[h])
        for (f, g), h in C.compose.items()))
    hom = hom_index(D)
    budget = NodeBudget(node_budget, "functor search exceeded node budget")
    ob_choices = ob_choices or {}
    for ob_imgs in itertools.product(*(ob_choices.get(x, D.objects)
                                       for x in obs)):
        ob_map = dict(zip(obs, ob_imgs))
        ids = [D.identity[y] for y in ob_imgs]
        if mor_filter and not all(mor_filter(C.identity[x], i)
                                  for x, i in zip(obs, ids)):
            continue
        candidates = [hom.get((ob_map[C.source[m]], ob_map[C.target[m]]), ())
                      for m in nonid]
        if mor_filter:
            candidates = [[c for c in cs if mor_filter(m, c)]
                          for m, cs in zip(nonid, candidates)]
        for a in backtrack(candidates, constraints, budget, ids):
            mor_map = {C.identity[x]: i for x, i in zip(obs, ids)}
            mor_map.update(zip(nonid, a))
            yield CatFunctor(C, D, dict(ob_map), mor_map)


def enumerate_functors(C: FiniteCategory, D: FiniteCategory,
                       max_results: int = 100_000,
                       node_budget: int | None = 2_000_000) -> list[CatFunctor]:
    """All functors ``C -> D``, duplicate-free, in lexicographic order."""
    out = []
    for F in _iter_functors(C, D, node_budget=node_budget):
        out.append(F)
        if len(out) > max_results:
            raise BudgetError("too many functors")
    return out


def enumerate_naturals(F: CatFunctor, G: CatFunctor,
                       budget: int = 1_000_000) -> list[NaturalTransformation]:
    """All natural transformations ``F => G``, in lexicographic order."""
    if F.domain != G.domain or F.codomain != G.codomain:
        raise ValueError("parallel functors required")
    C, D = F.domain, F.codomain
    obs = list(C.objects)
    choices = [D.hom(F.ob_map[x], G.ob_map[x]) for x in obs]
    total = 1
    for ch in choices:
        total *= max(len(ch), 1)
        if total > budget:
            raise BudgetError("too many candidate transformations")
    out = []
    for combo in itertools.product(*choices):
        comp = dict(zip(obs, combo))
        if all(D.compose[(comp[C.target[m]], F.mor_map[m])]
               == D.compose[(G.mor_map[m], comp[C.source[m]])]
               for m in C.morphisms):
            out.append(NaturalTransformation(F, G, comp))
    return out


def validate_natural(nt: NaturalTransformation) -> list[str]:
    """Check endpoint typing and every naturality square."""
    F, G = nt.source, nt.target
    C, D = F.domain, F.codomain
    morphisms = set(D.morphisms)
    errors = []
    for x in C.objects:
        c = nt.components.get(x)
        if c is None or c not in morphisms:
            errors.append(f"component at {x}: missing")
            continue
        if D.source[c] != F.ob_map[x] or D.target[c] != G.ob_map[x]:
            errors.append(f"component at {x}: wrong endpoints")
    if errors:
        return errors
    for m in C.morphisms:
        x, y = C.source[m], C.target[m]
        left = D.compose[(nt.components[y], F.mor_map[m])]
        right = D.compose[(G.mor_map[m], nt.components[x])]
        if left != right:
            errors.append(f"naturality fails at {m}")
    return errors


def is_natural_iso(nt: NaturalTransformation) -> bool:
    return not validate_natural(nt) and all(
        nt.source.codomain.is_iso(c) for c in nt.components.values())


# ---------------------------------------------------------------------------
# equivalence testing


def is_full(F: CatFunctor) -> bool:
    C, D = F.domain, F.codomain
    for x in C.objects:
        for y in C.objects:
            images = {F.mor_map[m] for m in C.hom(x, y)}
            if not set(D.hom(F.ob_map[x], F.ob_map[y])) <= images:
                return False
    return True


def is_faithful(F: CatFunctor) -> bool:
    C = F.domain
    for x in C.objects:
        for y in C.objects:
            h = C.hom(x, y)
            if len({F.mor_map[m] for m in h}) != len(h):
                return False
    return True


def is_essentially_surjective(F: CatFunctor) -> bool:
    D = F.codomain
    hit = {F.ob_map[x] for x in F.domain.objects}
    for d in D.objects:
        if d in hit:
            continue
        if not any(any(D.is_iso(m) for m in D.hom(h, d)) for h in hit):
            return False
    return True


def is_fully_faithful(F: CatFunctor) -> bool:
    return is_full(F) and is_faithful(F)


def is_equivalence(F: CatFunctor) -> bool:
    """Brute-force equivalence verdict: full, faithful, essentially surjective."""
    return is_full(F) and is_faithful(F) and is_essentially_surjective(F)


def find_isomorphism(C: FiniteCategory, D: FiniteCategory,
                     node_budget: int | None = 2_000_000) -> CatFunctor | None:
    """An isomorphism of categories ``C -> D``, if one exists."""
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None
    for F in _iter_functors(C, D, node_budget=node_budget):
        if (len(set(F.ob_map.values())) == len(C.objects)
                and len(set(F.mor_map.values())) == len(C.morphisms)):
            return F
    return None


# ---------------------------------------------------------------------------
# bounded word closure (generators -> total table)


def _reduce_words(word: tuple[str, ...],
                  identity_letters: set[str],
                  rules: dict[tuple[str, str], set[str]],
                  max_word_len: int) -> set[tuple[str, ...]]:
    """All irreducible forms of ``word`` under identity removal and pair rules.

    A pair rule replaces two adjacent letters (application order: the right
    letter acts first) by a single letter; several outcomes per pair are
    allowed, and every reachable irreducible form is returned.
    """
    if len(word) > max_word_len:
        raise BudgetError("word length exceeded closure budget")
    seen = {word}
    frontier = [word]
    irreducible = set()
    while frontier:
        w = frontier.pop()
        reduced_any = False
        for i, letter in enumerate(w):
            if letter in identity_letters and len(w) > 1:
                nw = w[:i] + w[i + 1:]
                reduced_any = True
                if nw not in seen:
                    seen.add(nw)
                    frontier.append(nw)
        for i in range(len(w) - 1):
            outs = rules.get((w[i], w[i + 1]))
            if outs:
                reduced_any = True
                for r in outs:
                    nw = w[:i] + (r,) + w[i + 2:]
                    if nw not in seen:
                        seen.add(nw)
                        frontier.append(nw)
        if not reduced_any:
            irreducible.add(w)
    return irreducible


def bounded_closure(objects: list[str],
                    letters: dict[str, tuple[str, str]],
                    rules: dict[tuple[str, str], set[str]],
                    identity_letters: set[str] | None = None,
                    max_morphisms: int = 400,
                    max_word_len: int = 10) -> tuple[FiniteCategory, dict[str, str]]:
    """Complete a category from generating letters and pair relations.

    ``letters`` maps a letter to its ``(source, target)``; ``rules`` sends an
    adjacent pair (left after right) to its possible one-letter contractions.
    Words are closed under composition until the table is total; identified
    irreducible forms are merged.  Raises :class:`BudgetError` when the
    morphism count or word length exceeds its bound.

    Returns the completed category and a map from letter to morphism name.
    Identity morphisms are named ``1@obj``, composite words join their
    letters with ``*`` (leftmost letter applied last).  Raises
    :class:`ValueError` when a letter named ``1@obj`` is not an identity
    letter at ``obj``, or when two morphisms get one name.
    """
    identity_letters = identity_letters or set()
    unit_of = {f"1@{o}": o for o in objects}
    for letter, ends in letters.items():
        o = unit_of.get(letter)
        if o is not None and (letter not in identity_letters or ends != (o, o)):
            raise ValueError(f"letter {letter} is named as the identity at {o}"
                             " but is not one")

    # a morphism class: frozenset of irreducible words, plus endpoints
    class_of: dict[tuple[str, ...], int] = {}
    classes: list[dict] = []   # {"words": set, "src": , "tgt": }
    changed = False            # set on every write to class_of

    def endpoints(word):
        if word[0] in unit_of:
            return unit_of[word[0]], unit_of[word[0]]
        return letters[word[-1]][0], letters[word[0]][1]

    def merge(keep, other):
        nonlocal changed
        classes[keep]["words"] |= classes[other]["words"]
        for f in classes[other]["words"]:
            class_of[f] = keep
        classes[other]["words"] = set()
        changed = True

    def get_class(word) -> int:
        nonlocal changed
        forms = _reduce_words(word, identity_letters, rules, max_word_len)
        hits = sorted({class_of[f] for f in forms if f in class_of})
        if not hits:
            src, tgt = endpoints(min(forms))
            hits = [len(classes)]
            classes.append({"words": set(), "src": src, "tgt": tgt})
            if len(classes) > max_morphisms:
                raise BudgetError("closure exceeded morphism budget")
        keep = hits[0]
        for other in hits[1:]:
            merge(keep, other)
        for f in forms:
            if class_of.get(f) != keep:
                classes[keep]["words"].add(f)
                class_of[f] = keep
                changed = True
        return keep

    def composite(i, j) -> int:
        wi = min(classes[i]["words"])
        wj = min(classes[j]["words"])
        return get_class(tuple(x for x in wi + wj if x not in unit_of)
                         or wj[:1])

    for o in objects:
        get_class((f"1@{o}",))
    for letter in sorted(letters):
        if letter in identity_letters:
            continue
        get_class((letter,))

    # identity letters behave like the identity of their endpoints
    for letter in sorted(identity_letters):
        cls = get_class((letter,))
        idc = get_class((f"1@{letters[letter][0]}",))
        if cls != idc:
            merge(idc, cls)

    # close under composition; the last round changes nothing, so its
    # composites are the table
    changed = True
    while changed:
        changed = False
        live = [i for i, c in enumerate(classes) if c["words"]]
        table = [(i, j, composite(i, j)) for i in live for j in live
                 if classes[i]["words"] and classes[j]["words"]
                 and classes[i]["src"] == classes[j]["tgt"]]

    # build the category
    names: dict[int, str] = {}
    taken: set[str] = set()
    for i in live:
        w = min(classes[i]["words"], key=lambda t: (len(t), t))
        names[i] = w[0] if len(w) == 1 else "*".join(w)
        if names[i] in taken:
            raise ValueError(f"closure identifier {names[i]} names two morphisms")
        taken.add(names[i])
    morphisms = [names[i] for i in live]
    source = {names[i]: classes[i]["src"] for i in live}
    target = {names[i]: classes[i]["tgt"] for i in live}
    identity = {o: names[class_of[(f"1@{o}",)]] for o in objects}
    compose = {(names[i], names[j]): names[k] for i, j, k in table}
    cat = FiniteCategory.build(objects, morphisms, source, target, identity, compose)
    letter_map = {letter: names[get_class((letter,))] for letter in letters}
    return cat, letter_map


def category_from_generators(objects: list[str],
                             arrows: dict[str, tuple[str, str]],
                             relations: dict[tuple[str, str], str] | None = None,
                             max_morphisms: int = 400,
                             max_word_len: int = 10) -> tuple[FiniteCategory, dict[str, str]]:
    """Freely compose generating arrows, subject to pair relations.

    ``relations[(f, g)] = h`` declares the composite "f after g" equal to the
    arrow ``h``; the empty string declares it an identity.  Fails loudly with
    :class:`BudgetError` when the closure does not stay within budget.
    """
    rules: dict[tuple[str, str], set[str]] = {}
    identity_letters: set[str] = set()
    aug = dict(arrows)
    for (f, g), h in (relations or {}).items():
        if h == "":
            src = arrows[g][0]
            h = f"1@{src}"
            if h in arrows:
                raise ValueError(f"arrow {h} is named as the identity at {src}")
            aug[h] = (src, src)
            identity_letters.add(h)
        rules.setdefault((f, g), set()).add(h)
    return bounded_closure(objects, aug, rules, identity_letters,
                           max_morphisms, max_word_len)
