"""The bounded word closure: a finite category from generators and relations.

:func:`bounded_closure` completes a category from generating letters and
pair rules by reducing words and closing the classes of irreducible forms
under composition; :func:`category_from_generators` builds those rules
from pair relations between arrows.  Both fail loudly with
:class:`~smallcat.fincat.BudgetError` past their budgets, since the
category they complete can be infinite.

Only the code that completes a category from words (category pushouts,
presentations) loads this module.
"""
from __future__ import annotations

from .fincat import BudgetError, FiniteCategory, distinct


# ---------------------------------------------------------------------------
# bounded word closure (generators -> total table)

# Forms one word reduction may visit.  Rules with several outcomes per pair
# can reach a number of forms exponential in the word length; the closures
# of the test suite visit at most six per word.
_REDUCTION_BUDGET = 20_000


def _reduce_words(word: tuple[str, ...],
                  identity_letters: set[str],
                  rules: dict[tuple[str, str], set[str]],
                  max_word_len: int) -> set[tuple[str, ...]]:
    """All irreducible forms of ``word`` under identity removal and pair rules.

    A pair rule replaces two adjacent letters (application order: the right
    letter acts first) by a single letter; several outcomes per pair are
    allowed, and every reachable irreducible form is returned.  Raises
    :class:`BudgetError` for a word longer than ``max_word_len`` or one
    whose reduction visits more than ``_REDUCTION_BUDGET`` forms.
    """
    if len(word) > max_word_len:
        raise BudgetError("word length exceeded closure budget",
                          "word_length", max_word_len, len(word))
    left = _REDUCTION_BUDGET
    seen = {word}
    frontier = [word]
    irreducible = set()
    while frontier:
        left -= 1
        if left < 0:
            raise BudgetError("word reduction exceeded closure budget",
                              "word_reduction", _REDUCTION_BUDGET,
                              _REDUCTION_BUDGET + 1)
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
                raise BudgetError("closure exceeded morphism budget",
                                  "closure_morphisms", max_morphisms,
                                  len(classes))
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
    for i in live:
        w = min(classes[i]["words"], key=lambda t: (len(t), t))
        names[i] = w[0] if len(w) == 1 else "*".join(w)
    morphisms = [names[i] for i in live]
    distinct(morphisms, "closure identifier {} names two morphisms")
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
