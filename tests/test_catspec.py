import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catspec_oracle
import chaincx_numpy
from chaincx_bridge import assert_same_matrix
from smallcat import catspec, fincat, invcat, nabla, setval
from smallcat.catspec import (
    Block,
    CatspecDocument,
    CatspecError,
    MAX_DIFFERENTIAL_ENTRIES,
    category_block,
    complex_block,
    diagram_block,
    dmap_block,
    emit,
    functor_block,
    group_block,
    involution_block,
    load,
    operad_block,
    parse,
    rsset_block,
    sset_block,
)
from smallcat.chaincx import two_term_identity_complex
from smallcat.cycops import terminal_operad
from smallcat.fincat import chain_category, cyclic_group, walking_arrow


def walking_arrow_doc() -> CatspecDocument:
    return CatspecDocument((category_block("arrow", walking_arrow()),))


def test_emit_parse_roundtrip_document():
    doc = walking_arrow_doc()
    text = emit(doc)
    assert parse(text) == doc
    assert emit(parse(text)) == text


def test_emit_is_canonical_idempotent():
    doc = walking_arrow_doc()
    text = emit(doc)
    assert emit(parse(emit(parse(text)))) == text
    # scrambled entry order parses to the same document
    lines = text.splitlines()
    body = lines[1:-1]
    scrambled = "\n".join([lines[0]] + sorted(body, reverse=True) + [lines[-1]]) + "\n"
    assert emit(parse(scrambled)) == text


def test_load_walking_arrow_validates():
    loaded = load(emit(walking_arrow_doc()))
    assert loaded.categories["arrow"] == walking_arrow()


def test_dangling_reference_names_line_and_identifier():
    text = "functor F nowhere alsonowhere\nend\n"
    with pytest.raises(CatspecError) as exc:
        load(text)
    assert "nowhere" in str(exc.value)
    assert "line 1" in str(exc.value)


def test_unknown_kind_and_unterminated_block():
    with pytest.raises(CatspecError):
        parse("frobnicate X\nend\n")
    with pytest.raises(CatspecError) as exc:
        parse("category C\nobject x\n")
    assert "unterminated" in str(exc.value)


def test_invalid_category_rejected_on_load():
    C = walking_arrow()
    bad = dict(C.compose)
    bad[("id_b", "f")] = "id_b"
    block = category_block("broken", fincat.FiniteCategory.build(
        C.objects, C.morphisms, C.source, C.target, C.identity, bad))
    with pytest.raises(CatspecError):
        load(emit(CatspecDocument((block,))))


# One document per block kind whose validator fails, with the message the
# kind's validator path gives: the block's header line, kind and name, and
# the first error.
_A = ("category A\nobject a\nmorphism i a a\nidentity a i\n"
      "compose i i i\nend\n")
_G = "group G\nelement e\nidentity e\nmult e e e\ninverse e e\nend\n"
_I = "functor I A A\nobject a a\nmorphism i i\nend\n"
_X = "diagram X A\nelement a u\nmap i u u\nend\n"
_T = ("operad T 1\nact 0 p t0 t0\nact 1 p1 t1 t1\ncompose 1 t1 t0 t0\n"
      "compose 1 t1 t1 t1\nelement 0 t0\nelement 1 t1\nunit t1\n")


@pytest.mark.parametrize("text, message", [
    ("category C\nobject a\nmorphism f a a\nidentity a f\nend\n",
     "line 1: category C: composition table wrong domain at (f,f)"),
    ("group G\nelement e\nelement x\nidentity e\nmult e e e\nend\n",
     "line 1: group G: product (e,x) missing"),
    (_A + "functor F A A\nobject a a\nend\n",
     "line 7: functor F: morphism i: image missing"),
    (_A + _G + _I + "action R G A\nend\n",
     "line 17: action R: rho[e] is not an endofunctor of the target"),
    (_A + "involution T A\nobject a a\nend\n",
     "line 7: involution T: morphism i: image missing"),
    (_A + "diagram X A\nelement a u\nend\n",
     "line 7: diagram X: morphism i: domain mismatch"),
    (_A + _X + "dmap h X X\nend\n",
     "line 11: dmap h: component at a: not a function into the target"),
    ("sset S 0\nsimplex 0 u\nend\n",
     "line 1: sset S: morphism 0:0: domain mismatch"),
    ("rsset S 0\nsimplex 0 u\nend\n",
     "line 1: rsset S: morphism (0:0,g0): domain mismatch"),
    ("operad T 1\nelement 1 x\nunit x\nend\n",
     "line 1: operad T: composition missing at (1,x,x)"),
    (_T + "cycact 0 p0 t0 t0\ncycact 1 p01 t1 t1\nend\n",
     "line 1: operad T: extended action missing at (1,(1, 0),t1)"),
], ids=["category", "group", "functor", "action", "involution", "diagram",
        "dmap", "sset", "rsset", "operad", "cyclic-operad"])
def test_failed_validator_names_block_line_and_first_error(text, message):
    with pytest.raises(CatspecError) as exc:
        load(text)
    assert str(exc.value) == message


def full_document():
    arrow = walking_arrow()
    chain = chain_category(2)
    iota = fincat.CatFunctor(arrow, chain, {"a": "0", "b": "1"},
                             {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = setval.SetDiagram.build(
        arrow, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    Y = setval.SetDiagram.build(
        arrow, {"a": ("s",), "b": ("t",)},
        {"id_a": {"s": "s"}, "id_b": {"t": "t"}, "f": {"s": "t"}})
    h = setval.DiagramMap(Y, X, {"a": {"s": "u"}, "b": {"t": "p"}})
    G = cyclic_group(2)
    ident = fincat.identity_functor(arrow)
    LX = invcat.L_inv(walking_arrow())
    rs = nabla.representable_rsset(1, 0)
    ss = nabla.representable_sset(1, 1)
    blocks = (
        category_block("arrow", arrow),
        category_block("chain", chain),
        category_block("product", LX.base),
        functor_block("iota", iota, "arrow", "chain"),
        functor_block("ident", ident, "arrow", "arrow"),
        group_block("c2", G),
        Block("action", "trivial", ("c2", "arrow"),
              (("map", "g0", "ident"), ("map", "g1", "ident"))),
        involution_block("swap", LX, "product"),
        diagram_block("X", X, "arrow"),
        diagram_block("Y", Y, "arrow"),
        dmap_block("h", h, "Y", "X"),
        sset_block("simplex1", ss),
        rsset_block("signed0", rs),
        operad_block("terminal", terminal_operad(2)),
        complex_block("twoterm", two_term_identity_complex(3)),
    )
    return CatspecDocument(blocks)


def test_full_document_roundtrip_and_load():
    doc = full_document()
    text = emit(doc)
    assert parse(text) == doc
    assert emit(parse(text)) == text
    loaded = load(text)
    assert set(loaded.categories) == {"arrow", "chain", "product"}
    assert set(loaded.functors) == {"iota", "ident"}
    assert set(loaded.groups) == {"c2"}
    assert set(loaded.actions) == {"trivial"}
    assert set(loaded.involutions) == {"swap"}
    assert set(loaded.diagrams) == {"X", "Y"}
    assert set(loaded.dmaps) == {"h"}
    assert set(loaded.ssets) == {"simplex1"}
    assert set(loaded.rssets) == {"signed0"}
    assert set(loaded.operads) == {"terminal"}
    assert set(loaded.complexes) == {"twoterm"}
    assert loaded.complexes["twoterm"].dims == {-1: 1, 0: 1}


def test_duplicate_block_rejected():
    text = emit(walking_arrow_doc()) + emit(walking_arrow_doc())
    with pytest.raises(CatspecError) as exc:
        parse(text)
    assert "duplicate" in str(exc.value)


def test_cyclic_operad_block_roundtrip():
    from smallcat.cycops import terminal_cyclic_operad
    Q = terminal_cyclic_operad(2)
    block = operad_block("tcyc", Q.operad, Q.extended)
    loaded = load(emit(CatspecDocument((block,))))
    assert "tcyc" in loaded.cyclic_operads
    assert loaded.cyclic_operads["tcyc"].extended == Q.extended


@pytest.mark.parametrize("text, line", [
    ("category C\nobject\nend\n", 2),
    ("category C\nobject a\nidentity a\nend\n", 3),
    ("group G\nelement e\nidentity e\nmult e e\nend\n", 4),
    ("complex K 2 0 0\ndim 0 1\nd 0 0 0\nend\n", 3),
    ("category C\nobjet a\nend\n", 2),
    ("operad T 2\nelement 1 x\nunit x\ncompose a x x x\nend\n", 4),
    ("operad T 2\nelement 1 x\nunit x\nact N p1 x x\nend\n", 4),
    ("operad T 2\nelement 1 x\nunit x\nact 1 pab x x\nend\n", 4),
    ("operad T 2\nelement 1 x\nunit x\ncycact N p1 x x\nend\n", 4),
    ("complex K 2 0 0\ndim 0 q\nend\n", 2),
    ("complex K 2 0 0\ndim 0 1\nd 0 0 z 1\nend\n", 3),
    ("complex K 2 lo 0\nend\n", 1),
    ("sset S one\nend\n", 1),
    ("complex K 2 0 1\ndim 0 1\ndim 1 2\nd 0 -1 0 1\nend\n", 4),
    ("complex K 2 0 1\ndim 0 1\ndim 1 2\nd 0 0 -1 1\nend\n", 4),
    ("complex K 2 0 0\ndim 0 -1\nend\n", 2),
    ("sset S 12\nend\n", 1),
    ("sset S -1\nend\n", 1),
    ("rsset S 12\nend\n", 1),
])
def test_malformed_entry_names_its_line(text, line):
    with pytest.raises(CatspecError) as exc:
        load(text)
    assert f"line {line}:" in str(exc.value)


@pytest.mark.parametrize("header, arity", [
    ("operad T 1", "5"), ("operad T 1", "-1"), ("operad T 1", "one"),
    ("operad T 1", "\u00b2"), ("operad T x", "1"), ("operad T -1", "1"),
])
def test_operad_element_arity_outside_bound_names_its_line(header, arity):
    text = f"{header}\nelement {arity} x\nunit x\nend\n"
    with pytest.raises(CatspecError) as exc:
        load(text)
    line = 2 if header == "operad T 1" else 1
    assert f"line {line}:" in str(exc.value)


@pytest.mark.parametrize("p", ["4", "1", "0", "-3", "9"])
def test_complex_with_non_prime_p_rejected(p):
    with pytest.raises(CatspecError) as exc:
        load(f"complex K {p} 0 0\nend\n")
    assert "not a prime" in str(exc.value)
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("text, message", [
    # trial division on this p took over 10 s; int64 products overflow
    ("complex K 4611686018427387847 0 0\nend\n", "overflows int64"),
    ("complex K 3037000501 0 0\nend\n", "overflows int64"),
    ("complex K 2147483659 0 0\ndim 0 3\nend\n", "overflows int64"),
    ("complex K 2 0 1\ndim 0 10000000000\ndim 1 10000000000\nend\n",
     "more than 16777216"),
    ("complex K 2 0 1\ndim 0 4097\ndim 1 4096\nend\n", "more than 16777216"),
])
def test_complex_past_int64_or_size_cap_names_its_line(text, message):
    with pytest.raises(CatspecError) as exc:
        load(text)
    assert "line 1:" in str(exc.value)
    assert message in str(exc.value)


def test_complex_at_int64_and_size_limits_loads():
    # (p-1)^2 just below 2^63, and exactly MAX_DIFFERENTIAL_ENTRIES entries
    C = load("complex K 3037000493 0 0\ndim 0 1\nend\n").complexes["K"]
    assert C.p == 3037000493
    C = load("complex K 2 0 1\ndim 0 4096\ndim 1 4096\nend\n").complexes["K"]
    assert C.d(0).shape == (4096, 4096)
    assert 4096 * 4096 == MAX_DIFFERENTIAL_ENTRIES


# Integer-token mutations of a complex and an sset document.  The drawn
# values stay small: sset levels 4..9 are valid but take seconds each to
# build, and a large dim allocates its differential matrices.
_MUTABLE_DOCS = (
    "complex K 2 -1 1\ndim -1 1\ndim 0 2\ndim 1 1\n"
    "d -1 0 0 1\nd -1 1 0 1\nd 0 0 0 1\nd 0 0 1 1\nend\n",
    emit(CatspecDocument((sset_block("S", nabla.representable_sset(1, 1)),))),
)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _assert_entries_where_stated(text: str, loaded) -> None:
    """Every complex's differentials hold exactly the document's ``d``
    entries (the last one per position), each at its stated row and column."""
    for block in parse(text).blocks:
        if block.kind != "complex":
            continue
        p = int(block.params[0])
        C = loaded.complexes[block.name]
        want = {k: np.zeros(C.d(k).shape, dtype=np.int64)
                for k in range(C.lo, C.hi + 1)}
        for _, k, row, col, val in (e for e in block.entries if e[0] == "d"):
            k, row, col = int(k), int(row), int(col)
            rows, cols = want[k].shape
            assert 0 <= row < rows and 0 <= col < cols
            want[k][row, col] = int(val) % p
        for k, m in want.items():
            assert_same_matrix(C.d(k), m)


@settings(derandomize=True, database=None, deadline=None)
@given(st.data())
def test_load_under_integer_token_mutations(data):
    lines = data.draw(st.sampled_from(_MUTABLE_DOCS)).splitlines()
    slots = [(i, j) for i, line in enumerate(lines)
             for j, token in enumerate(line.split()) if _is_int(token)]
    values = st.one_of(st.integers(-3, 3), st.integers(10, 12))
    for i, j in data.draw(st.lists(st.sampled_from(slots), min_size=1,
                                   max_size=3)):
        tokens = lines[i].split()
        tokens[j] = str(data.draw(values))
        lines[i] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    try:
        loaded = load(text)
    except CatspecError:
        return
    _assert_entries_where_stated(text, loaded)


# The complex-block check on sparse entries against the old eager path,
# kept in ``catspec_oracle``: random complexes with d.d = 0, and single-entry
# corruptions of them.


def _random_complex(rng: random.Random, p: int) -> tuple[tuple, list]:
    """A random complex block over GF(p) with d.d = 0: its header
    ``(p, lo, hi, dims, dim lines)`` and its ``d`` lines.

    Dimensions run one degree past each end of the window, so the top
    differential may be nonzero and some ``dim`` lines lie outside the
    window; a zero dimension's line is sometimes left out.  Each entry is
    written as some representative mod ``p``, some positions first get a
    decoy value that the last line overrides, and the lines are shuffled.
    """
    lo = rng.randint(-3, 1)
    hi = lo + rng.randint(0, 3)
    dims = {k: rng.randint(0, 3) or rng.randint(0, 3)
            for k in range(lo - 1, hi + 2)}
    diff = {}
    for k in range(hi, lo - 1, -1):
        if k == hi:
            basis = np.eye(dims[k + 1], dtype=np.int64)
        else:
            basis = chaincx_numpy.nullspace_mod(diff[k + 1], p)
        coeffs = np.array([[rng.randrange(p) for _ in range(dims[k])]
                           for _ in range(basis.shape[1])],
                          dtype=np.int64).reshape(basis.shape[1], dims[k])
        diff[k] = (basis @ coeffs) % p
    positions = []
    for k, m in diff.items():
        for (r, c), v in np.ndenumerate(m):
            if v or rng.random() < 0.2:
                lines = [("d", k, r, c, int(v) + p * rng.randint(-2, 2))]
                if rng.random() < 0.2:
                    lines.insert(0, ("d", k, r, c, rng.randrange(p)))
                positions.append(lines)
    rng.shuffle(positions)
    d_lines = [line for lines in positions for line in lines]
    dim_lines = [("dim", k, n) for k, n in dims.items()
                 if n or rng.random() < 0.5]
    rng.shuffle(dim_lines)
    return (p, lo, hi, dims, dim_lines), d_lines


def _complex_text(header, d_lines) -> str:
    p, lo, hi, _, dim_lines = header
    body = dim_lines + d_lines
    return (f"complex K {p} {lo} {hi}\n"
            + "".join(" ".join(map(str, e)) + "\n" for e in body) + "end\n")


def _corrupt(rng: random.Random, header, d_lines) -> list:
    """``d_lines`` with one entry changed: a line's value replaced, or a new
    line, mostly at a position in range."""
    p, lo, hi, dims, _ = header
    out = list(d_lines)
    if out and rng.random() < 0.4:
        i = rng.randrange(len(out))
        out[i] = out[i][:4] + (rng.randrange(p),)
        return out
    k = rng.randint(lo, hi) if rng.random() < 0.8 else rng.choice((lo - 1,
                                                                   hi + 1))
    rows, cols = dims.get(k + 1, 0), dims.get(k, 0)
    if lo <= k <= hi and rows and cols:
        row, col = rng.randrange(rows), rng.randrange(cols)
    else:
        row, col = rng.randrange(4), rng.randrange(4)
    out.insert(rng.randint(0, len(out)), ("d", k, row, col, rng.randrange(1, p)))
    return out


def _load_both(text: str):
    """The complex ``load`` builds on first read, and the old eager one; or
    the message of the ``CatspecError`` each raises."""
    try:
        want = catspec_oracle.load_complex(parse(text).blocks[0])
    except CatspecError as exc:
        want = str(exc)
    try:
        got = load(text).complexes["K"]
    except CatspecError as exc:
        got = str(exc)
    return got, want


def _assert_same_complex(got, want) -> None:
    assert (got.p, got.lo, got.hi) == (want.p, want.lo, want.hi)
    assert list(got.dims.items()) == list(want.dims.items())
    assert list(got.diff) == list(want.diff)
    for k, m in want.diff.items():
        assert m.dtype == np.int64
        assert_same_matrix(got.diff[k], m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_complex_check_matches_the_eager_oracle(p):
    rng = random.Random(9000 + p)
    outcomes = {"built": 0, "d.d": 0, "range": 0}
    dd_degrees = set()
    for _ in range(60):
        header, d_lines = _random_complex(rng, p)
        variants = [d_lines] + [_corrupt(rng, header, d_lines)
                                for _ in range(3)]
        for i, lines in enumerate(variants):
            got, want = _load_both(_complex_text(header, lines))
            if isinstance(want, str):
                assert got == want
                assert want.startswith("line 1: complex K: ")
                if "d.d nonzero at degree " in want:
                    outcomes["d.d"] += 1
                    dd_degrees.add(want.rsplit(" ", 1)[1])
                else:
                    outcomes["range"] += 1
            else:
                assert not isinstance(got, str), got
                _assert_same_complex(got, want)
                outcomes["built"] += 1
            if i == 0:
                assert not isinstance(want, str)
    # every outcome is reached, and d.d fails at more than one degree
    assert all(n > 10 for n in outcomes.values()), outcomes
    assert len(dd_degrees) > 1


@pytest.mark.parametrize("d0, closed", [("p-1 1 p-1 1", True),
                                        ("p-1 1 p-1 2", False)])
def test_sparse_check_near_the_int64_bound_matches_the_oracle(d0, closed):
    # p = 2^31 - 1 and a dimension of 2 are just inside the int64 bound:
    # each entry of d.d sums to about 2^62 before it is reduced mod p
    p = 2 ** 31 - 1
    vals = [str(p - 1) if t == "p-1" else t for t in d0.split()]
    text = (f"complex K {p} 0 1\ndim 0 2\ndim 1 2\ndim 2 1\n"
            f"d 1 0 0 1\nd 1 0 1 {p - 1}\n"
            + "".join(f"d 0 {i // 2} {i % 2} {v}\n" for i, v in enumerate(vals))
            + "end\n")
    got, want = _load_both(text)
    if closed:
        _assert_same_complex(got, want)
    else:
        assert got == want == "line 1: complex K: d.d nonzero at degree 0"


def test_complexes_are_built_on_first_read_and_kept():
    loaded = load(emit(CatspecDocument((
        complex_block("C", two_term_identity_complex(3)),))))
    assert list(loaded.complexes) == ["C"] and len(loaded.complexes) == 1
    assert loaded.complexes._built == {}
    C = loaded.complexes["C"]
    assert loaded.complexes["C"] is C
    with pytest.raises(TypeError):
        loaded.complexes["D"] = C
    with pytest.raises(KeyError):
        loaded.complexes["D"]
