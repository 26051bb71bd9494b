"""The partition code as it was before the union-find (``fincat.Partition``,
since replaced by :func:`smallcat.searchcore.least_members`).

Each function names its classes by iterating a minimum-label relabelling
over a dictionary of labels.  They are kept, unchanged, as the reference
that ``test_partition`` compares the union-find versions against, and
``kan_oracle`` takes its colimits from here.
"""
from smallcat.closure import bounded_closure
from smallcat.fincat import CatFunctor, FiniteCategory, pair_name
from smallcat.setval import ColimitResult, DiagramMap, SetDiagram
from smallcat.soa import PushoutResult


def colimit(X: SetDiagram) -> ColimitResult:
    """Quotient of the tagged disjoint union by the action-generated relation.

    Classes are found by iterating a minimum-label relabelling to a fixed
    point and named by their lexicographically minimal member tag.
    """
    C = X.shape
    tags = [pair_name(o, e) for o in C.objects for e in X.values[o]]
    label = {t: t for t in tags}
    edges = []
    for m in C.morphisms:
        o, o2 = C.source[m], C.target[m]
        for e in X.values[o]:
            edges.append((pair_name(o, e), pair_name(o2, X.action[m][e])))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            lu, lv = label[u], label[v]
            if lu != lv:
                low = min(lu, lv)
                for t in tags:
                    if label[t] in (lu, lv):
                        label[t] = low
                changed = True
    classes = tuple(sorted(set(label.values())))
    injections = {o: {e: label[pair_name(o, e)] for e in X.values[o]}
                  for o in C.objects}
    return ColimitResult(classes, injections)


def quotient_diagram(X: SetDiagram, pairs: list[tuple[str, str, str]]
                     ) -> tuple[SetDiagram, DiagramMap]:
    """Quotient ``X`` by the congruence generated by ``(object, e, e')`` pairs.

    The relation is closed under every structure map, so the result is again
    a valid diagram; classes are named by minimal representative.
    """
    C = X.shape
    label = {(o, e): e for o in C.objects for e in X.values[o]}

    def merge(o, a, b) -> bool:
        la, lb = label[(o, a)], label[(o, b)]
        if la == lb:
            return False
        low = min(la, lb)
        for e in X.values[o]:
            if label[(o, e)] in (la, lb):
                label[(o, e)] = low
        return True

    for o, a, b in pairs:
        merge(o, a, b)
    changed = True
    while changed:
        changed = False
        for m in C.morphisms:
            src, tgt = C.source[m], C.target[m]
            by_label: dict[str, str] = {}
            for e in X.values[src]:
                lab = label[(src, e)]
                img = X.action[m][e]
                if lab in by_label:
                    if merge(tgt, by_label[lab], img):
                        changed = True
                else:
                    by_label[lab] = img
    values = {o: sorted({label[(o, e)] for e in X.values[o]})
              for o in C.objects}
    action = {}
    for m in C.morphisms:
        src, tgt = C.source[m], C.target[m]
        action[m] = {label[(src, e)]: label[(tgt, X.action[m][e])]
                     for e in X.values[src]}
    Q = SetDiagram.build(C, values, action)
    proj = DiagramMap(X, Q, {o: {e: label[(o, e)] for e in X.values[o]}
                             for o in C.objects})
    return Q, proj


def connected_components(C: FiniteCategory) -> list[set[str]]:
    """Partition of the objects by zig-zags of morphisms."""
    label = {o: o for o in C.objects}

    def merge(a, b):
        la, lb = label[a], label[b]
        if la != lb:
            low = min(la, lb)
            for o in C.objects:
                if label[o] in (la, lb):
                    label[o] = low

    for m in C.morphisms:
        merge(C.source[m], C.target[m])
    comps: dict[str, set[str]] = {}
    for o in C.objects:
        comps.setdefault(label[o], set()).add(o)
    return [comps[k] for k in sorted(comps)]


def pushout_category(i: CatFunctor, f: CatFunctor,
                     max_morphisms: int = 400,
                     max_word_len: int = 10) -> PushoutResult:
    """The pushout of ``cod(i) <-i- A -f-> cod(f)`` by bounded word closure.

    Raises :class:`BudgetError` if the closure exceeds its budget (pushouts
    in the category of categories can be infinite).
    """
    if i.domain != f.domain:
        raise ValueError("pushout legs must share their domain")
    A, B, C = i.domain, i.codomain, f.codomain

    # glue objects
    ob_label: dict[str, str] = {}
    for x in B.objects:
        ob_label[("B", x)] = f"B:{x}"
    for x in C.objects:
        ob_label[("C", x)] = f"C:{x}"

    def ob_merge(a, b):
        la, lb = ob_label[a], ob_label[b]
        if la != lb:
            low = min(la, lb)
            for k in ob_label:
                if ob_label[k] in (la, lb):
                    ob_label[k] = low

    for a in A.objects:
        ob_merge(("B", i.ob_map[a]), ("C", f.ob_map[a]))
    objects = sorted(set(ob_label.values()))

    # glue letters
    letter_label: dict[tuple[str, str], str] = {}
    for m in B.morphisms:
        letter_label[("B", m)] = f"B:{m}"
    for m in C.morphisms:
        letter_label[("C", m)] = f"C:{m}"

    def letter_merge(a, b):
        la, lb = letter_label[a], letter_label[b]
        if la != lb:
            low = min(la, lb)
            for k in letter_label:
                if letter_label[k] in (la, lb):
                    letter_label[k] = low

    for m in A.morphisms:
        letter_merge(("B", i.mor_map[m]), ("C", f.mor_map[m]))

    members: dict[str, list[tuple[str, str]]] = {}
    for key, lab in letter_label.items():
        members.setdefault(lab, []).append(key)

    letters: dict[str, tuple[str, str]] = {}
    identity_letters: set[str] = set()
    sides = {"B": B, "C": C}
    for lab, mem in members.items():
        side, m = mem[0]
        S = sides[side]
        letters[lab] = (ob_label[(side, S.source[m])],
                        ob_label[(side, S.target[m])])
        if any(sides[s].is_identity(mm) for s, mm in mem):
            identity_letters.add(lab)

    rules: dict[tuple[str, str], set[str]] = {}
    for side, S in sides.items():
        for (m1, m2), m3 in S.compose.items():
            key = (letter_label[(side, m1)], letter_label[(side, m2)])
            rules.setdefault(key, set()).add(letter_label[(side, m3)])

    cat, letter_map = bounded_closure(objects, letters, rules,
                                      identity_letters,
                                      max_morphisms, max_word_len)
    from_left = CatFunctor(B, cat,
                           {x: ob_label[("B", x)] for x in B.objects},
                           {m: letter_map[letter_label[("B", m)]]
                            for m in B.morphisms})
    from_right = CatFunctor(C, cat,
                            {x: ob_label[("C", x)] for x in C.objects},
                            {m: letter_map[letter_label[("C", m)]]
                             for m in C.morphisms})
    return PushoutResult(cat, from_left, from_right)
