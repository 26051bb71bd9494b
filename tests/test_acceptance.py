"""Acceptance suite: one test per criterion, one pass/fail line each.

Random corpora are seeded, so every run checks the same instances; size
caps follow the stated budgets (morphism counts, element counts, object
counts, arity bounds, truncation levels).
"""
import json
import random
import subprocess
import sys
import time


from smallcat import (
    catmodel,
    catspec,
    chaincx,
    chainmaps,
    cycmaps,
    cycops,
    equivalence,
    fincat,
    invcat,
    nabla,
    presentations,
    rings,
    sdcheck,
    soa,
    standard,
    universal,
)
from smallcat import semidirect as sdp
from smallcat import setval
from smallcat.fincat import (
    CatFunctor,
    chain_category,
    cyclic_group,
    discrete_category,
    enumerate_functors,
    parallel_pair,
    poset_category,
    walking_arrow,
    walking_iso,
)
from smallcat.kan import lan_unit, ran_counit
from smallcat.setval import (
    SetDiagram,
    certify_kan_adjunctions,
    corepresentable,
    coproduct_diagrams,
    quotient_diagram,
    validate_diagram,
)
from smallcat.standard import (
    group_product,
    indiscrete_category,
    symmetric_group,
    terminal_category,
)
from smallcat.universal import is_iso_diagram_map, validate_diagram_map


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# random corpora


def random_poset(rng: random.Random) -> fincat.FiniteCategory:
    n = rng.randint(2, 4)
    names = [f"n{i}" for i in range(n)]
    closure = {(a, a) for a in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                closure.add((names[i], names[j]))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (b2, c) in list(closure):
                if b2 == b and (a, c) not in closure:
                    closure.add((a, c))
                    changed = True
    return poset_category(names, lambda x, y: (x, y) in closure)


def random_category(rng: random.Random) -> fincat.FiniteCategory:
    roll = rng.random()
    if roll < 0.55:
        C = random_poset(rng)
    elif roll < 0.7:
        C = discrete_category([f"d{i}" for i in range(rng.randint(1, 3))])
    elif roll < 0.8:
        C = walking_iso()
    elif roll < 0.9:
        C = parallel_pair()
    else:
        C = fincat.group_category(cyclic_group(2))
    if len(C.morphisms) > 12:
        return random_category(rng)
    return C


def random_functor(rng: random.Random, C, D) -> CatFunctor:
    fs = enumerate_functors(C, D, max_results=100_000)
    return fs[rng.randrange(len(fs))]


def constant_diagram(C, elems) -> SetDiagram:
    return SetDiagram.build(
        C, {o: tuple(elems) for o in C.objects},
        {m: {e: e for e in elems} for m in C.morphisms})


def random_diagram(rng: random.Random, C) -> SetDiagram:
    if not C.objects:
        return SetDiagram.build(C, {}, {})
    pieces = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.7:
            pieces.append(corepresentable(C, rng.choice(sorted(C.objects))))
        else:
            pieces.append(constant_diagram(C, [f"c{rng.randrange(2)}"]))
    X, _ = coproduct_diagrams(pieces)
    pairs = []
    for _ in range(rng.randint(0, 2)):
        o = rng.choice(sorted(C.objects))
        if len(X.values[o]) >= 2:
            a, b = rng.sample(sorted(X.values[o]), 2)
            pairs.append((o, a, b))
    X, _ = quotient_diagram(X, pairs)
    if X.total_elements() > 20:
        return random_diagram(rng, C)
    return X


def _enum_cost(X, Y) -> int:
    cost = 1
    for o in X.shape.objects:
        cost *= max(1, len(Y.values[o])) ** len(X.values[o])
        if cost > 10 ** 9:
            return cost
    return cost


def tractable_instance(rng: random.Random):
    """A functor plus one diagram on each side, sized for exhaustive
    hom-set enumeration."""
    while True:
        C = random_category(rng)
        D = random_category(rng)
        iota = random_functor(rng, C, D)
        X = random_diagram(rng, C)
        Y = random_diagram(rng, D)
        LX = setval.lan(iota, X)
        RX = setval.ran(iota, X)
        rY = setval.restrict(iota, Y)
        cap = 40_000
        if max(_enum_cost(LX, Y), _enum_cost(X, rY),
               _enum_cost(rY, X), _enum_cost(Y, RX)) <= cap:
            return iota, X, Y


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_kan_adjunction_random_corpus():
    rng = random.Random(20260809)
    started = time.monotonic()
    instances = 0
    ff_pool = []
    while instances < 100:
        iota, X, Y = tractable_instance(rng)
        rep = certify_kan_adjunctions(iota, [X], [Y], naturality_budget=2)
        assert rep.ok, (rep.failures, iota.ob_map)
        instances += 1
        if equivalence.is_fully_faithful(iota):
            ff_pool.append((iota, X))
    elapsed = time.monotonic() - started
    report(1, instances >= 100 and elapsed < 60.0,
           f"{instances} random functors certified in {elapsed:.1f}s")
    # stash fully faithful instances for criterion 2
    test_criterion_01_kan_adjunction_random_corpus.ff_pool = ff_pool


def test_criterion_02_fully_faithful_corollary():
    pool = list(getattr(test_criterion_01_kan_adjunction_random_corpus,
                        "ff_pool", []))
    # guaranteed fully faithful instances on top of the random ones
    arrow = walking_arrow()
    chain = chain_category(2)
    incl = CatFunctor(arrow, chain, {"a": "0", "b": "1"},
                      {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = SetDiagram.build(
        arrow, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    pool.append((incl, X))
    rng = random.Random(77)
    pt = terminal_category()
    for D in (chain, walking_iso(), discrete_category("pq")):
        j = CatFunctor(pt, D, {"pt": sorted(D.objects)[0]},
                       {"id_pt": D.identity[sorted(D.objects)[0]]})
        pool.append((j, random_diagram(rng, pt)))
    checked = 0
    for iota, X in pool:
        if not equivalence.is_fully_faithful(iota) or not iota.domain.objects:
            continue
        unit = lan_unit(iota, X)
        counit = ran_counit(iota, X)
        assert validate_diagram_map(unit) == []
        assert validate_diagram_map(counit) == []
        assert is_iso_diagram_map(unit)
        assert is_iso_diagram_map(counit)
        checked += 1
    report(2, checked >= 4,
           f"{checked} fully faithful instances, unit and counit are isos")


def _criterion3_actions():
    rng = random.Random(5)
    out = []
    # C2: swap on two points, arrow flip on the parallel pair, trivial
    disc2 = discrete_category("ab")
    out.append(sdcheck.permutation_action(
        cyclic_group(2), disc2,
        {"g0": {"a": "a", "b": "b"}, "g1": {"a": "b", "b": "a"}}))
    pp = parallel_pair()
    flip = CatFunctor(pp, pp, {"a": "a", "b": "b"},
                      {"id_a": "id_a", "id_b": "id_b", "f": "g", "g": "f"})
    out.append(sdp.GroupAction(cyclic_group(2), pp,
                               {"g0": fincat.identity_functor(pp),
                                "g1": flip}))
    out.append(sdcheck.trivial_action(cyclic_group(2), walking_arrow()))
    # C3 rotating three points, and acting trivially
    disc3 = discrete_category(["p0", "p1", "p2"])
    rot = {f"g{k}": {f"p{i}": f"p{(i + k) % 3}" for i in range(3)}
           for k in range(3)}
    out.append(sdcheck.permutation_action(cyclic_group(3), disc3, rot))
    out.append(sdcheck.trivial_action(cyclic_group(3), chain_category(1)))
    # C2 x C2 acting on four points by the regular action
    disc4 = discrete_category(["q00", "q01", "q10", "q11"])
    v4 = group_product(cyclic_group(2), cyclic_group(2))

    def bit(g):   # "(gi,gj)" -> (i, j)
        return int(g[2]), int(g[5])

    perms = {}
    for g in v4.elements:
        i, j = bit(g)
        perms[g] = {f"q{a}{b}": f"q{(a + i) % 2}{(b + j) % 2}"
                    for a in range(2) for b in range(2)}
    out.append(sdcheck.permutation_action(v4, disc4, perms))
    # S3 permuting three points
    s3 = symmetric_group(3)
    perms3 = {name: {f"p{i}": f"p{int(name[i])}" for i in range(3)}
              for name in s3.elements}
    out.append(sdcheck.permutation_action(s3, disc3, perms3))
    return out


def test_criterion_03_semidirect_lan_lemma():
    rng = random.Random(99)
    checked = 0
    for action in _criterion3_actions():
        assert sdcheck.validate_action(action) == []
        assert len(action.target.morphisms) <= 12
        for _ in range(2):
            F = random_diagram(rng, action.target)
            rep = sdcheck.verify_lan_formula(action, F)
            assert rep.ok, rep.failures
            assert rep.natural_iso
            assert rep.comma_components_indexed_by_group
            checked += 1
    report(3, checked >= 14,
           f"{checked} action/diagram pairs, comparison map is a natural iso")


def test_criterion_04_nabla_consistency():
    for N in range(0, 5):
        pres = presentations.build_nabla(N)
        assert pres.isomorphic
        delta = nabla.delta_leq(N)
        assert len(pres.semidirect.category.hom("[0]", "[0]")) == 2
        for m in range(N + 1):
            for n in range(N + 1):
                expected = 2 * len(delta.hom(f"[{m}]", f"[{n}]"))
                assert len(pres.semidirect.category.hom(f"[{m}]", f"[{n}]")) \
                    == expected
                assert len(pres.pairs.hom(f"[{m}]", f"[{n}]")) == expected
    report(4, True, "presentations isomorphic and hom sizes doubled, N <= 4")


def random_rsset3(rng: random.Random) -> nabla.TruncatedRealSimplicialSet:
    if rng.random() < 0.4:
        pieces = [nabla.representable_rsset(3, 1).diagram]
    else:
        pieces = [nabla.representable_rsset(3, 0).diagram
                  for _ in range(rng.randint(1, 3))]
    total, _ = coproduct_diagrams(pieces)
    pairs = []
    for _ in range(rng.randint(0, 2)):
        o = rng.choice(sorted(total.values))
        if len(total.values[o]) >= 2:
            a, b = rng.sample(sorted(total.values[o]), 2)
            pairs.append((o, a, b))
    Q, _ = quotient_diagram(total, pairs)
    X = nabla.TruncatedRealSimplicialSet(3, Q)
    assert X.diagram.total_elements() <= 30
    return X


def test_criterion_05_isset_equivalence():
    rng = random.Random(31)
    for k in range(50):
        X = random_rsset3(rng)
        A, sigma = nabla.to_involutive(X)
        back = nabla.from_involutive(A, sigma)
        assert back.diagram == X.diagram, f"roundtrip failed on sample {k}"
        assert nabla.conjugation_squares_hold(X), f"square failed on sample {k}"
    report(5, True, "50 random real simplicial sets roundtrip exactly")


def test_criterion_06_dagger_counterexample_cli():
    cmd = [sys.executable, "-m", "smallcat.cli", "paper-suite",
           "--case", "dagger"]
    proc = subprocess.run(cmd, capture_output=True)
    payload = json.loads(proc.stdout)
    ok = (proc.returncode == 0 and payload["p_isofib"] is True
          and payload["Rp_isofib"] is False)
    report(6, ok, f"paper-suite --case dagger -> {payload}")


def test_criterion_07_icat_homs_and_exercise():
    # hom(L X, (Y,tau)) = hom(X, Y), exhaustively on <= 3-object categories
    plain = [standard.empty_category(), terminal_category(), walking_arrow(),
             discrete_category("pq"), fincat.group_category(cyclic_group(2))]
    targets = [invcat.L_inv(walking_arrow()), invcat.L_inv(terminal_category()),
               invcat.R_inv(terminal_category()),
               invcat.trivial_involution(terminal_category()),
               invcat.trivial_involution(discrete_category("uv"))]
    for Ytau in targets:
        rep = invcat.check_inv_adjunctions(plain, Ytau)
        assert rep.ok, rep.failures

    corpus = [
        invcat.trivial_involution(terminal_category()),
        invcat.L_inv(terminal_category()),
        invcat._indiscrete_involutive(["x", "xp", "y"],
                                      {"x": "xp", "xp": "x", "y": "y"}),
        invcat._indiscrete_involutive(["z", "y"], {"z": "z", "y": "y"}),
    ]
    tests = invcat.acyclic_fibration_tests(corpus)
    assert tests
    empty = invcat.L_inv(standard.empty_category())
    candidates = []
    for A in [empty] + corpus:
        for B in corpus:
            candidates.extend(invcat.enumerate_equivariant(A, B)[:6])
    disagreements = [
        (f.functor.ob_map, invcat.is_inv_cofibration(f))
        for f in candidates
        if invcat.is_inv_cofibration(f) != invcat.inv_has_llp(f, tests)]
    report(7, not disagreements,
           f"{len(candidates)} candidates against {len(tests)} acyclic "
           f"fibrations, disagreements: {disagreements}")


def test_criterion_08_model_structure_oracle():
    J = catmodel.default_generating_acyclic_cofibrations()
    corpus = [terminal_category(), walking_arrow(), walking_iso(),
              discrete_category("pq"), parallel_pair(), chain_category(2),
              indiscrete_category(["x", "xp", "y"]),
              fincat.group_category(cyclic_group(2))]
    checked = 0
    for C in corpus:
        for D in corpus:
            if len(C.objects) > 4 or len(D.objects) > 4:
                continue
            for F in enumerate_functors(C, D)[:10]:
                assert catmodel.has_rlp(J, F) == catmodel.is_isofibration(F), \
                    (C.objects, D.objects, F.ob_map)
                checked += 1

    # bounded factorizations recompose and carry valid cell records
    from soa_helpers import build_soa_instance
    gens, f = build_soa_instance()
    res = soa.bounded_soa(gens, f, max_stages=3)
    recomposed = universal.compose_diagram_maps(res.right, res.left)
    assert recomposed.key() == f.key()
    assert res.saturated
    assert res.cells, "expected at least one nontrivial stage"
    stage_diagram = f.source
    for k, stage_cells in enumerate(res.cells):
        assert stage_cells
        attach_targets = {id(cell.attach.target) for cell in stage_cells}
        assert len(attach_targets) == 1
        if k == 0:
            assert stage_cells[0].attach.target == f.source
        else:
            assert stage_cells[0].attach.target != stage_diagram
        stage_diagram = stage_cells[0].attach.target
        for cell in stage_cells:
            gen = gens[cell.generator]
            assert cell.attach.source == gen.source
            assert validate_diagram_map(cell.attach) == []
            assert cell.against.source == gen.target
            assert cell.against.target == f.target
            assert validate_diagram_map(cell.against) == []
    report(8, checked >= 150,
           f"{checked} functors agree with the lifting oracle; "
           f"factorization recomposes with {res.stages} stage(s)")


def test_criterion_09_cyclic_operads():
    rng = random.Random(12)
    tables = [
        {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
        {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "t"},
    ]
    table = rng.choice(tables)
    random_two = cycmaps.monoid_operad(3, ("e", "t"), table, "e")
    candidates = {
        "terminal": cycops.terminal_operad(3),
        "associative": cycmaps.associative_operad(3),
        "random-two-element": random_two,
    }
    for name, P in candidates.items():
        assert cycops.validate_operad(P) == [], name
        RQ = cycops.right_adjoint_R(P)
        assert cycops.validate_cyclic(RQ) == [], name
        for n in range(4):
            assert len(RQ.operad.elements[n]) == len(P.elements[n]) ** (n + 1)

    instances = [
        (cycmaps.terminal_cyclic_operad(3), cycops.terminal_operad(3)),
        (cycmaps.terminal_cyclic_operad(2), cycmaps.associative_operad(2)),
    ]
    # a positive-arity terminal cyclic operad against the two-element operad
    A = 3
    elements = {0: ()}
    elements.update({n: (f"e{n}",) for n in range(1, A + 1)})
    comp = {(i, f"e{m}", f"e{n}"): f"e{m + n - 1}"
            for m in range(1, A + 1) for n in range(1, A + 1)
            if m + n - 1 <= A for i in range(1, m + 1)}
    action = {(n, s, f"e{n}"): f"e{n}"
              for n in range(1, A + 1) for s in cycops.all_perms(n)}
    extended = {(n, s, f"e{n}"): f"e{n}"
                for n in range(1, A + 1) for s in cycops.all_ext_perms(n)}
    pos_terminal = cycops.TruncatedCyclicOperad(
        cycops.TruncatedOperad(A, elements, "e1", comp, action), extended)
    assert cycops.validate_cyclic(pos_terminal) == []
    instances.append((pos_terminal, random_two))
    verdicts = []
    for Q, P in instances:
        rep = cycmaps.check_adjunction_count(Q, P)
        assert rep.ok, rep.failures
        verdicts.append((rep.operad_map_count, rep.projection_is_bijection))
    report(9, True, f"R valid on all three operads; hom counts {verdicts}")


def test_criterion_10_chain_cochain():
    for p in (2, 5):
        rep = chainmaps.reproduce_truncation_counterexample(p)
        assert rep["acyclic_fib"] and not rep["FR_acyclic_fib"]
    p = 2
    f = rings.unit_inclusion(rings.dual_numbers(p))
    k = rings.field_algebra(p)
    D = rings.dual_numbers(p)
    mods_k = [rings.regular_module(k), rings.free_module(k, 2),
              rings.free_module(k, 3)]
    mods_D = [rings.regular_module(D),
              rings.trivial_module(D, rings.augmentation_dual_numbers(p))]
    for M in mods_k:
        for N in mods_D:
            assert rings.hom_dim(rings.induce(f, M).module, N) == \
                rings.hom_dim(M, rings.restrict_scalars(f, N))
            assert rings.hom_dim(rings.restrict_scalars(f, N), M) == \
                rings.hom_dim(N, rings.coinduce(f, M).module)
    # preservation when the pulled-back algebra is free
    assert rings.module_is_free(rings.pulled_back_target(f))
    C = chaincx.two_term_identity_complex(p)
    modC = {-1: rings.regular_module(k), 0: rings.regular_module(k)}
    collapse = chainmaps.zero_map(C, chaincx.zero_complex(p))
    g = rings.coinduce_complex_map(f, collapse, modC, {})
    ok = (chainmaps.is_degreewise_epi(g) and chainmaps.is_quasi_iso(g))
    report(10, ok, "counterexample at p=2,5; adjunction counts; "
                   "free case preserves epi and quasi-iso")


def test_criterion_11_cli_determinism(tmp_path):
    doc = catspec.CatspecDocument((
        catspec.category_block("arrow", walking_arrow()),
        catspec.category_block("chain", chain_category(2)),
        catspec.functor_block(
            "iota",
            CatFunctor(walking_arrow(), chain_category(2),
                       {"a": "0", "b": "1"},
                       {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"}),
            "arrow", "chain"),
        catspec.functor_block("ident",
                              fincat.identity_functor(walking_arrow()),
                              "arrow", "arrow"),
        catspec.diagram_block("X", SetDiagram.build(
            walking_arrow(), {"a": ("u", "v"), "b": ("p",)},
            {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
             "f": {"u": "p", "v": "p"}}), "arrow"),
        catspec.diagram_block("Y", SetDiagram.build(
            chain_category(2),
            {"0": ("e",), "1": ("h",), "2": ("w",)},
            {"id_0": {"e": "e"}, "id_1": {"h": "h"}, "id_2": {"w": "w"},
             "le_0_1": {"e": "h"}, "le_1_2": {"h": "w"},
             "le_0_2": {"e": "w"}}), "chain"),
        catspec.rsset_block("S", nabla.representable_rsset(1, 0)),
        catspec.operad_block("T", cycops.terminal_operad(2)),
        catspec.complex_block("C", chaincx.two_term_identity_complex(2)),
    ))
    path = tmp_path / "suite.catspec"
    path.write_text(catspec.emit(doc), encoding="utf-8")
    base = [sys.executable, "-m", "smallcat.cli"]
    invocations = [
        ["validate", str(path)],
        ["kan", str(path), "--functor", "iota", "--diagram", "X"],
        ["kan", str(path), "--functor", "iota", "--diagram", "X",
         "--side", "right"],
        ["adjoint", str(path), "--functor", "iota"],
        ["lift", str(path), "--left", "ident", "--right", "ident",
         "--top", "ident", "--bottom", "ident"],
        ["rlp", str(path), "--maps", "ident", "--against", "ident"],
        ["nabla", "--dim", "1", "--homcount", "1", "1"],
        ["nabla", "--dim", "2"],
        ["rsset", str(path), "--name", "S", "--roundtrip"],
        ["cyclic", str(path), "--operad", "T"],
        ["chain", str(path), "--complex", "C", "--truncate", "naive"],
        ["paper-suite", "--case", "dagger"],
        ["paper-suite", "--case", "truncation"],
    ]
    for argv in invocations:
        first = subprocess.run(base + argv, capture_output=True)
        second = subprocess.run(base + argv, capture_output=True)
        assert first.returncode == second.returncode, argv
        assert first.stdout == second.stdout, argv
        assert first.returncode in (0, 1), (argv, first.stdout)
    report(11, True, f"{len(invocations)} CLI invocations byte-reproducible")
