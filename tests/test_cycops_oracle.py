"""The generator-based cycops validators against the exhaustive oracle.

``cycops_oracle`` holds the validators and the right adjoint as they were
when every action axiom was checked on every permutation.  The generator
checks must give the same error lists, entry for entry and in order, on
valid operads and on seeded single-entry corruptions of every table.
"""
import random

import pytest

import cycops_oracle as oracle
from test_cycops import positive_terminal_cyclic, sign_operad

from smallcat import cycadj, cycops
from smallcat.cycops import (
    TruncatedCyclicOperad,
    TruncatedOperad,
    associative_operad,
    monoid_operad,
    right_adjoint_R,
    terminal_cyclic_operad,
    terminal_operad,
    truncate_operad,
)

BUILDERS = {"terminal": terminal_operad, "associative": associative_operad,
            "sign": sign_operad}


def nilpotent_operad(A):
    """The monoid operad of ``{1, a, z}`` with ``a a = z`` and ``z`` a
    zero: three elements in each positive arity, and not a group."""
    return monoid_operad(A, ("1", "a", "z"), {
        (x, y): y if x == "1" else x if y == "1" else "z"
        for x in "1az" for y in "1az"}, "1")


def truncate_cyclic(Q: TruncatedCyclicOperad, bound: int) -> TruncatedCyclicOperad:
    return TruncatedCyclicOperad(
        truncate_operad(Q.operad, bound),
        {k: v for k, v in Q.extended.items() if k[0] <= bound})


def valid_operads():
    """Terminal, associative and sign at bounds 2 and 3, and their
    truncations down to bound 1 (at bound 0 the unit has no arity)."""
    out = []
    for name, build in BUILDERS.items():
        for bound in (2, 3):
            P = build(bound)
            out += [(f"{name}({bound})|{b}", truncate_operad(P, b))
                    for b in range(1, bound + 1)]
    return out


def valid_cyclic_operads():
    """``R`` of the valid operads (but ``R`` of associative(3), checked
    once on its own), the terminal cyclic operad, and truncations."""
    out = []
    for name, build in BUILDERS.items():
        for bound in (2, 3):
            if (name, bound) == ("associative", 3):
                continue
            RQ = right_adjoint_R(build(bound))
            out += [(f"R {name}({bound})|{b}", truncate_cyclic(RQ, b))
                    for b in range(1, bound + 1)]
    out += [("terminal cyclic(3)", terminal_cyclic_operad(3)),
            ("positive terminal(3)", positive_terminal_cyclic(3))]
    return out


@pytest.mark.parametrize("name,P", valid_operads(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_valid_operads_agree(name, P):
    assert cycops.validate_operad(P) == oracle.validate_operad(P) == []


@pytest.mark.parametrize("name,Q", valid_cyclic_operads(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_valid_cyclic_operads_agree(name, Q):
    assert cycops.validate_operad(Q.operad) == oracle.validate_operad(Q.operad)
    assert cycops.validate_cyclic(Q) == oracle.validate_cyclic(Q) == []
    assert cycops.restricted_action_matches(Q) == \
        oracle.restricted_action_matches(Q) == []


def test_R_of_associative_3_agrees():
    P = associative_operad(3)
    RQ, RQ_old = right_adjoint_R(P), oracle.right_adjoint_R(P)
    assert RQ == RQ_old and repr(RQ) == repr(RQ_old)
    assert cycops.validate_cyclic(RQ) == oracle.validate_cyclic(RQ) == []


@pytest.mark.parametrize("build", [terminal_operad, associative_operad,
                                   sign_operad, nilpotent_operad])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_right_adjoint_R_tables_agree(build, bound):
    # right_adjoint_R renders the coded core
    P = build(bound)
    RQ, RQ_old = right_adjoint_R(P), oracle.right_adjoint_R(P)
    assert RQ == RQ_old
    assert repr(RQ) == repr(RQ_old)
    sizes, errors = cycadj.check_right_adjoint(P)
    assert sizes == {n: len(xs) for n, xs in RQ_old.operad.elements.items()}
    assert errors == oracle.validate_cyclic(RQ_old) == []


def test_sigma_i_computed_once_per_sigma_and_index(monkeypatch):
    calls = []
    sigma_i = cycadj._sigma_i

    def counted(*args):
        calls.append(args)
        return sigma_i(*args)

    monkeypatch.setattr(cycadj, "_sigma_i", counted)
    right_adjoint_R(associative_operad(3))
    # sum over n = 1..3 of (n+1)! permutations times n+1 indices
    assert len(calls) == 2 * 2 + 6 * 3 + 24 * 4 == 118
    assert len(set(calls)) == len(calls)


def test_tuple_name_rendered_once_per_element(monkeypatch):
    calls = []
    tuple_name = cycadj._tuple_name

    def counted(parts):
        calls.append(parts)
        return tuple_name(parts)

    monkeypatch.setattr(cycadj, "_tuple_name", counted)
    RQ = right_adjoint_R(associative_operad(3))
    # 1 + 1 + 2**3 + 6**4 elements, and the unit
    assert sum(map(len, RQ.operad.elements.values())) == 1306
    assert len(calls) == 1306 + 1


def test_block_and_shift_perms_agree():
    for m in range(1, 6):
        for n in range(5):
            for i in range(1, m + 1):
                for s in cycops.all_perms(m):
                    assert cycops.block_perm(s, i, n) == oracle.block_perm(s, i, n)
                for t in cycops.all_perms(n):
                    assert cycops.shift_perm(t, i, m) == oracle.shift_perm(t, i, m)


# ---------------------------------------------------------------------------
# seeded single-entry corruptions

MUTATION_OPERADS = {
    "associative(3)": lambda: associative_operad(3),
    "sign(3)": lambda: sign_operad(3),
    "R associative(2)": lambda: right_adjoint_R(associative_operad(2)).operad,
}
MUTATION_CYCLIC = {
    "R associative(2)": lambda: right_adjoint_R(associative_operad(2)),
    "R sign(2)": lambda: right_adjoint_R(sign_operad(2)),
    "terminal cyclic(3)": lambda: terminal_cyclic_operad(3),
}
PER_TABLE = 210


def _mutate(table: dict, P: TruncatedOperad, rng: random.Random) -> dict:
    """One entry changed: mostly to another element of its arity, else to
    an element of another arity, or dropped."""
    arity = P.arity_of()
    key = rng.choice(sorted(table, key=repr))
    out = dict(table)
    roll = rng.random()
    if roll < 0.1:
        del out[key]
        return out
    pool = [x for x in arity if x != table[key]] if roll < 0.2 else \
        [x for x in P.elements[arity[table[key]]] if x != table[key]]
    out[key] = rng.choice(pool or sorted(arity))
    return out


def _operad_with(P: TruncatedOperad, **tables) -> TruncatedOperad:
    return TruncatedOperad(P.arity_bound, P.elements, P.unit,
                           tables.get("comp", P.comp),
                           tables.get("action", P.action))


def _mutants(table_name: str, seed: int):
    rng = random.Random(seed)
    sources = MUTATION_CYCLIC if table_name == "extended" else MUTATION_OPERADS
    bases = {name: build() for name, build in sources.items()}
    names = sorted(bases)
    for k in range(PER_TABLE):
        base = bases[names[k % len(names)]]
        if table_name == "extended":
            yield TruncatedCyclicOperad(
                base.operad, _mutate(base.extended, base.operad, rng))
        else:
            yield _operad_with(base, **{
                table_name: _mutate(getattr(base, table_name), base, rng)})


@pytest.mark.parametrize("table_name,seed", [("comp", 11), ("action", 12)])
def test_operad_mutations_agree(table_name, seed):
    failing = 0
    for P in _mutants(table_name, seed):
        errors = cycops.validate_operad(P)
        assert errors == oracle.validate_operad(P)
        failing += bool(errors)
    assert failing >= PER_TABLE // 2


@pytest.mark.parametrize("table_name,seed", [("comp", 21), ("action", 22)])
def test_cyclic_operad_mutations_agree(table_name, seed):
    """Corrupt the underlying operad of a cyclic operad; its extended
    action is left as it was."""
    rng = random.Random(seed)
    bases = [build() for build in MUTATION_CYCLIC.values()]
    failing = 0
    for k in range(PER_TABLE):
        Q = bases[k % len(bases)]
        P = _operad_with(Q.operad, **{
            table_name: _mutate(getattr(Q.operad, table_name), Q.operad, rng)})
        M = TruncatedCyclicOperad(P, Q.extended)
        errors = cycops.validate_cyclic(M)
        assert errors == oracle.validate_cyclic(M)
        failing += bool(errors)
    assert failing >= PER_TABLE // 2


def test_extended_mutations_agree():
    failing = 0
    for Q in _mutants("extended", 31):
        errors = cycops.validate_cyclic(Q)
        assert errors == oracle.validate_cyclic(Q)
        failing += bool(errors)
    assert failing >= PER_TABLE // 2


@pytest.mark.parametrize("table_name,seed", [("comp", 51), ("action", 52),
                                             ("extended", 53)])
def test_R_associative_3_mutations_agree(table_name, seed):
    """Two single-entry corruptions of one table of the largest operad the
    suite checks; the oracle needs about a second for each."""
    rng = random.Random(seed)
    Q = right_adjoint_R(associative_operad(3))
    for _ in range(2):
        if table_name == "extended":
            M = TruncatedCyclicOperad(Q.operad, _mutate(Q.extended, Q.operad, rng))
        else:
            M = TruncatedCyclicOperad(_operad_with(Q.operad, **{
                table_name: _mutate(getattr(Q.operad, table_name), Q.operad, rng)}),
                Q.extended)
        errors = cycops.validate_cyclic(M)
        assert errors and errors == oracle.validate_cyclic(M)


def test_unit_mutations_agree():
    checked = 0
    for build in list(MUTATION_OPERADS.values()) + [lambda: terminal_operad(2)]:
        P = build()
        for unit in sorted(P.arity_of()) + ["nowhere"]:
            M = TruncatedOperad(P.arity_bound, P.elements, unit, P.comp, P.action)
            assert cycops.validate_operad(M) == oracle.validate_operad(M)
            checked += 1
    for Q in (build() for build in MUTATION_CYCLIC.values()):
        for unit in sorted(Q.operad.arity_of()):
            P = Q.operad
            M = TruncatedCyclicOperad(
                TruncatedOperad(P.arity_bound, P.elements, unit, P.comp,
                                P.action), Q.extended)
            assert cycops.validate_cyclic(M) == oracle.validate_cyclic(M)
            checked += 1
    assert checked > 20


def test_map_validators_agree_on_R_associative_3_identity():
    """The identity map of ``R(associative_operad(3))`` and one seeded
    single-entry corruption of it: the arity table read once per call
    gives the errors that one rebuilt per composition entry gave."""
    RQ = right_adjoint_R(associative_operad(3))
    elements = RQ.operad.elements
    ident = cycops.CyclicOperadMap(
        RQ, RQ, {n: {x: x for x in xs} for n, xs in elements.items()})
    assert cycops.validate_cyclic_map(ident) == \
        oracle.validate_cyclic_map(ident) == []
    rng = random.Random(41)
    n = rng.choice([k for k, xs in elements.items() if len(xs) > 1])
    x = rng.choice(elements[n])
    maps = {k: dict(v) for k, v in ident.maps.items()}
    maps[n][x] = rng.choice([y for y in elements[n] if y != x])
    bad = cycops.CyclicOperadMap(RQ, RQ, maps)
    errors = cycops.validate_cyclic_map(bad)
    assert errors and errors == oracle.validate_cyclic_map(bad)
    plain = cycops.forget_cyclic_map(bad)
    assert cycops.validate_operad_map(plain) == \
        oracle.validate_operad_map(plain) == errors


# ---------------------------------------------------------------------------
# the coded checker on the right adjoint's core

CORE_BASES = {
    "associative(2)": lambda: associative_operad(2),
    "sign(2)": lambda: sign_operad(2),
    "nilpotent(2)": lambda: nilpotent_operad(2),
    "terminal(3)": lambda: terminal_operad(3),
}


def _copy_core(core):
    elements, unit, comp, rows, ext = core
    return (elements, unit, {k: list(t[0]) for k, t in comp.items()},
            {n: {s: list(r) for s, r in rs.items()} for n, rs in rows.items()},
            {n: {s: list(r) for s, r in rs.items()} for n, rs in ext.items()})


def _table(flat, height, width):
    rows = [flat[k * width:(k + 1) * width] for k in range(height)]
    return flat, rows, cycops._columns(rows, width)


def _corrupt(P, table_name, rng):
    """One entry of one table of ``R(P)`` changed to another element of its
    arity, in the coded core and in the rendered record alike."""
    RQ = right_adjoint_R(P)
    R = RQ.operad
    elements, unit, flats, rows, ext = _copy_core(cycadj._right_adjoint_core(P))
    arity = R.arity_of()
    tables = {"comp": R.comp, "action": R.action, "extended": RQ.extended}
    key = rng.choice(sorted(tables[table_name], key=repr))
    target = arity[tables[table_name][key]]
    if len(elements[target]) < 2:
        return None
    name = rng.choice([x for x in elements[target]
                       if x != tables[table_name][key]])
    new = elements[target].index(name)
    if table_name == "comp":
        i, a, b = key
        m, n = arity[a], arity[b]
        flats[i, m, n][elements[m].index(a) * len(elements[n])
                       + elements[n].index(b)] = new
    else:
        n, s, x = key
        (rows if table_name == "action" else ext)[n][s][elements[n].index(x)] = new
    comp = {(i, m, n): _table(flat, len(elements[m]), len(elements[n]))
            for (i, m, n), flat in flats.items()}
    changed = dict(tables[table_name])
    changed[key] = name
    if table_name == "extended":
        M = TruncatedCyclicOperad(R, changed)
    else:
        M = TruncatedCyclicOperad(TruncatedOperad(
            R.arity_bound, R.elements, R.unit,
            changed if table_name == "comp" else R.comp,
            changed if table_name == "action" else R.action), RQ.extended)
    return (elements, unit, comp, rows, ext), M


@pytest.mark.parametrize("table_name,seed", [("comp", 61), ("action", 62),
                                             ("extended", 63)])
def test_coded_checker_matches_the_oracle_on_corrupted_cores(table_name, seed):
    rng = random.Random(seed)
    bases = [build() for build in CORE_BASES.values()]
    checked = failing = 0
    for k in range(120):
        corrupted = _corrupt(bases[k % len(bases)], table_name, rng)
        if corrupted is None:
            continue
        core, M = corrupted
        errors = cycops._check_coded(*core)
        assert errors == oracle.validate_cyclic(M) == cycops.validate_cyclic(M)
        checked += 1
        failing += bool(errors)
    assert checked >= 60 and failing >= checked // 2


def test_coded_checker_on_the_uncorrupted_cores():
    for build in CORE_BASES.values():
        core = cycadj._right_adjoint_core(build())
        assert cycops._check_coded(*core) == []
        # without the extended action, the operad axioms only
        assert cycops._check_coded(*core[:4]) == []
        assert cycops.validate_operad(right_adjoint_R(build()).operad) == []
