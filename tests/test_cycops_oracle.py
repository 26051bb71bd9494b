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

from smallcat import cycops
from smallcat.cycops import (
    TruncatedCyclicOperad,
    TruncatedOperad,
    associative_operad,
    right_adjoint_R,
    terminal_cyclic_operad,
    terminal_operad,
    truncate_operad,
)

BUILDERS = {"terminal": terminal_operad, "associative": associative_operad,
            "sign": sign_operad}


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
                                   sign_operad])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_right_adjoint_R_tables_agree(build, bound):
    P = build(bound)
    RQ, RQ_old = right_adjoint_R(P), oracle.right_adjoint_R(P)
    assert RQ == RQ_old
    assert repr(RQ) == repr(RQ_old)


def test_sigma_i_computed_once_per_sigma_and_index(monkeypatch):
    calls = []
    sigma_i = cycops._sigma_i

    def counted(*args):
        calls.append(args)
        return sigma_i(*args)

    monkeypatch.setattr(cycops, "_sigma_i", counted)
    right_adjoint_R(associative_operad(3))
    # sum over n = 1..3 of (n+1)! permutations times n+1 indices
    assert len(calls) == 2 * 2 + 6 * 3 + 24 * 4 == 118
    assert len(set(calls)) == len(calls)


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
