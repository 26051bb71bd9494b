"""``closure.bounded_closure`` as it was before identity words were read from
a ``1@obj`` table and the closure loop was simplified.

Kept verbatim as the reference that ``test_closure`` compares the current
code against, by ``repr`` and by ``BudgetError`` message.
"""
from smallcat.closure import _reduce_words
from smallcat.fincat import BudgetError, FiniteCategory


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
    letters with ``*`` (leftmost letter applied last).
    """
    identity_letters = identity_letters or set()

    # a morphism class: frozenset of irreducible words, plus endpoints
    class_of: dict[tuple[str, ...], int] = {}
    classes: list[dict] = []   # {"words": set, "src": , "tgt": }

    def endpoints(word):
        if word[0].startswith("1@"):
            o = word[0][2:]
            return o, o
        return letters[word[-1]][0], letters[word[0]][1]

    def get_class(word) -> int:
        forms = _reduce_words(word, identity_letters, rules, max_word_len)
        hits = sorted({class_of[f] for f in forms if f in class_of})
        if not hits:
            idx = len(classes)
            src, tgt = endpoints(min(forms))
            classes.append({"words": set(forms), "src": src, "tgt": tgt})
            if len(classes) > max_morphisms:
                raise BudgetError("closure exceeded morphism budget")
            for f in forms:
                class_of[f] = idx
            return idx
        keep = hits[0]
        for other in hits[1:]:
            classes[keep]["words"] |= classes[other]["words"]
            for f in classes[other]["words"]:
                class_of[f] = keep
            classes[other]["words"] = set()
        for f in forms:
            if class_of.get(f) != keep:
                classes[keep]["words"].add(f)
                class_of[f] = keep
        return keep

    for o in objects:
        get_class((f"1@{o}",))
    for letter in sorted(letters):
        if letter in identity_letters:
            continue
        get_class((letter,))

    # identity letters behave like the identity of their endpoints
    for letter in sorted(identity_letters):
        o = letters[letter][0]
        cls = get_class((letter,))
        idc = get_class((f"1@{o}",))
        if cls != idc:
            classes[idc]["words"] |= classes[cls]["words"]
            for f in classes[cls]["words"]:
                class_of[f] = idc
            classes[cls]["words"] = set()

    stable = False
    while not stable:
        stable = True
        live = [i for i, c in enumerate(classes) if c["words"]]
        snapshot_classes = len(classes)
        snapshot_map = dict(class_of)
        for i in live:
            for j in live:
                if not classes[i]["words"] or not classes[j]["words"]:
                    continue
                if classes[i]["src"] != classes[j]["tgt"]:
                    continue
                wi = min(classes[i]["words"])
                wj = min(classes[j]["words"])
                word = tuple(x for x in wi + wj if not x.startswith("1@")) or wj[:1]
                get_class(word)
        if len(classes) != snapshot_classes or class_of != snapshot_map:
            stable = False

    # build the category
    live = [i for i, c in enumerate(classes) if c["words"]]
    names = {}
    for i in live:
        w = min(classes[i]["words"], key=lambda t: (len(t), t))
        names[i] = w[0] if len(w) == 1 else "*".join(w)
    morphisms = [names[i] for i in live]
    source = {names[i]: classes[i]["src"] for i in live}
    target = {names[i]: classes[i]["tgt"] for i in live}
    identity = {o: names[class_of[(f"1@{o}",)]] for o in objects}
    compose = {}
    for i in live:
        for j in live:
            if classes[i]["src"] != classes[j]["tgt"]:
                continue
            wi = min(classes[i]["words"])
            wj = min(classes[j]["words"])
            word = tuple(x for x in wi + wj if not x.startswith("1@")) or wj[:1]
            compose[(names[i], names[j])] = names[get_class(word)]
    cat = FiniteCategory.build(objects, morphisms, source, target, identity, compose)
    letter_map = {}
    for letter in letters:
        letter_map[letter] = names[class_of[min(_reduce_words(
            (letter,), identity_letters, rules, max_word_len))]]
    return cat, letter_map
