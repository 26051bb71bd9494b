"""The diagram validator as it was before it built each value set once, and
the coded functoriality check as it was before it tried a generating set.

They are kept, unchanged, as the references that ``test_setval`` compares
:func:`smallcat.setval.validate_diagram`, and ``test_generators``
:func:`smallcat.coded._coded_error`, against on seeded corruptions.
"""
from smallcat.coded import CodedDiagram
from smallcat.setval import SetDiagram


def validate_diagram(X: SetDiagram) -> list[str]:
    """Check functoriality of ``X`` on the full composition table."""
    C = X.shape
    errors = []
    for o in C.objects:
        if o not in X.values:
            errors.append(f"object {o}: missing value set")
    for m in C.morphisms:
        f = X.action.get(m)
        if f is None:
            errors.append(f"morphism {m}: missing function")
            continue
        src, tgt = C.source[m], C.target[m]
        if set(f.keys()) != set(X.values.get(src, ())):
            errors.append(f"morphism {m}: domain mismatch")
        elif not set(f.values()) <= set(X.values.get(tgt, ())):
            errors.append(f"morphism {m}: values escape target set")
    if errors:
        return errors
    for o in C.objects:
        i = C.identity[o]
        if any(X.action[i][e] != e for e in X.values[o]):
            errors.append(f"identity of {o} does not act as identity")
    for (f, g), h in C.compose.items():
        for e in X.values[C.source[g]]:
            if X.action[f][X.action[g][e]] != X.action[h][e]:
                errors.append(f"functoriality fails at ({f},{g}) on {e}")
                break
    return errors


def coded_error(X: CodedDiagram) -> str | None:
    """:func:`smallcat.coded._coded_error` as it was before it checked the
    pairs whose left factor is a generator first: the identities, then
    every composable pair of non-identities, in table order."""
    C = X.shape
    for o in C.objects:
        t = X.action[C.identity[o]]
        if t != tuple(range(len(t))):
            return f"identity of {o} does not act as identity"
    identities = set(C.identity.values())
    for (f, g), h in C.compose.items():
        if f in identities or g in identities:
            continue
        tf, tg, th = X.action[f], X.action[g], X.action[h]
        if tuple(map(tf.__getitem__, tg)) != th:
            e = next(i for i, j in enumerate(tg) if tf[j] != th[i])
            return f"functoriality fails at ({f},{g}) on " \
                   f"{X.values[C.source[g]][e]}"
    return None
