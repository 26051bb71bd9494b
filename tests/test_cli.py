import ast
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time
from types import ModuleType

import pytest

import smallcat
from smallcat import catspec, fincat, nabla, setval
from smallcat.catspec import Block, CatspecDocument, emit
from smallcat.cli import main
from smallcat.fincat import chain_category, walking_arrow, walking_iso


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write_doc(tmp_path, doc, name="doc.catspec"):
    path = tmp_path / name
    path.write_text(emit(doc), encoding="utf-8")
    return str(path)


def arrow_doc():
    return CatspecDocument((catspec.category_block("arrow", walking_arrow()),))


def kan_doc():
    arrow = walking_arrow()
    chain = chain_category(2)
    iota = fincat.CatFunctor(arrow, chain, {"a": "0", "b": "1"},
                             {"id_a": "id_0", "id_b": "id_1", "f": "le_0_1"})
    X = setval.SetDiagram.build(
        arrow, {"a": ("u", "v"), "b": ("p",)},
        {"id_a": {"u": "u", "v": "v"}, "id_b": {"p": "p"},
         "f": {"u": "p", "v": "p"}})
    Y = setval.SetDiagram.build(
        chain, {"0": ("e",), "1": ("h", "k"), "2": ("w",)},
        {"id_0": {"e": "e"}, "id_1": {"h": "h", "k": "k"},
         "id_2": {"w": "w"}, "le_0_1": {"e": "k"},
         "le_1_2": {"h": "w", "k": "w"}, "le_0_2": {"e": "w"}})
    return CatspecDocument((
        catspec.category_block("arrow", arrow),
        catspec.category_block("chain", chain),
        catspec.functor_block("iota", iota, "arrow", "chain"),
        catspec.diagram_block("X", X, "arrow"),
        catspec.diagram_block("Y", Y, "chain"),
    ))


def test_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, arrow_doc())
    code, out = run_cli(["validate", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["blocks"] == {"category arrow": "ok"}


def test_validate_bad_reference_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.catspec"
    path.write_text("functor F nowhere nowhere\nend\n", encoding="utf-8")
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "error" in json.loads(out)


def test_kan_and_adjoint(tmp_path, capsys):
    path = write_doc(tmp_path, kan_doc())
    code, out = run_cli(["kan", path, "--functor", "iota",
                         "--diagram", "X", "--side", "left"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["sizes"]["0"] == 2

    code, out = run_cli(["adjoint", path, "--functor", "iota"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_lift_and_rlp(tmp_path, capsys):
    pt = fincat.terminal_category()
    E = walking_iso()
    j = fincat.CatFunctor(pt, E, {"pt": "a"}, {"id_pt": "id_a"})
    ident = fincat.identity_functor(E)
    doc = CatspecDocument((
        catspec.category_block("pt", pt),
        catspec.category_block("E", E),
        catspec.functor_block("j", j, "pt", "E"),
        catspec.functor_block("idE", ident, "E", "E"),
        catspec.functor_block("top", j, "pt", "E"),
    ))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["lift", path, "--left", "j", "--right", "idE",
                         "--top", "top", "--bottom", "idE"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True

    code, out = run_cli(["rlp", path, "--maps", "j", "--against", "idE"],
                        capsys)
    assert code == 0
    assert json.loads(out)["has_rlp"] is True



def test_bad_budget_variable_exits_2_where_it_is_read(tmp_path, capsys,
                                                       monkeypatch):
    # the parser used to read SMALLCAT_MAX_MORPHISMS for its defaults, so a
    # bad value killed every command, --help included, with a traceback
    path = write_doc(tmp_path, suite_doc())
    lift = ["lift", path, "--left", "ident", "--right", "ident",
            "--top", "ident", "--bottom", "ident"]
    rlp = ["rlp", path, "--maps", "ident", "--against", "ident"]
    for value in ("abc", "0", "-3", "1.5"):
        monkeypatch.setenv("SMALLCAT_MAX_MORPHISMS", value)
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        capsys.readouterr()
        assert run_cli(["nabla", "--dim", "1", "--homcount", "0", "0"],
                       capsys) == (0, "2\n")
        for argv in (lift, rlp):
            code, out = run_cli(argv, capsys)
            assert code == 2, (value, argv)
            assert json.loads(out) == {"error": (
                f"SMALLCAT_MAX_MORPHISMS={value!r} is not an integer "
                f"of at least 1")}
        # the flag wins, and the variable is not read
        assert run_cli(rlp + ["--max-morphisms", "5"], capsys) == (
            0, '{"has_rlp":true}\n')
    monkeypatch.setenv("SMALLCAT_MAX_MORPHISMS", "7")
    assert run_cli(rlp, capsys) == (0, '{"has_rlp":true}\n')


def test_budget_flag_below_1_exits_2_naming_the_flag(tmp_path, capsys):
    # it used to reach the search and blame it: "functor search exceeded
    # node budget"
    path = write_doc(tmp_path, suite_doc())
    soa_path = write_doc(tmp_path, soa_doc(), "soa.catspec")
    lift = ["lift", path, "--left", "ident", "--right", "ident",
            "--top", "ident", "--bottom", "ident"]
    rlp = ["rlp", path, "--maps", "ident", "--against", "ident"]
    soa = ["soa", soa_path, *SOA]
    for argv in (lift, rlp, soa):
        for value in ("0", "-1"):
            code, out = run_cli(argv + ["--max-morphisms", value], capsys)
            assert (code, json.loads(out)) == (2, {"error": (
                f"--max-morphisms {value} is not an integer of at least 1")})
        code, _ = run_cli(argv + ["--max-morphisms", "1"], capsys)
        assert code == 0

def soa_doc() -> CatspecDocument:
    """The collapse ``f`` of a two-point discrete diagram onto a point, and
    the generator ``gen`` from the empty diagram."""
    C = fincat.terminal_category()
    two = setval.SetDiagram.build(C, {"pt": ("x", "y")},
                                  {"id_pt": {"x": "x", "y": "y"}})
    one = setval.SetDiagram.build(C, {"pt": ("z",)}, {"id_pt": {"z": "z"}})
    empty = setval.SetDiagram.build(C, {"pt": ()}, {"id_pt": {}})
    gen = setval.DiagramMap(empty, one, {"pt": {}})
    f = setval.DiagramMap(two, one, {"pt": {"x": "z", "y": "z"}})
    doc = CatspecDocument((
        catspec.category_block("pt", C),
        catspec.diagram_block("two", two, "pt"),
        catspec.diagram_block("one", one, "pt"),
        catspec.diagram_block("none", empty, "pt"),
        catspec.dmap_block("gen", gen, "none", "one"),
        catspec.dmap_block("f", f, "two", "one"),
    ))
    return doc


SOA = ["--generators", "gen", "--map", "f", "--max-stages", "2"]


def test_negative_max_stages_exits_2(tmp_path, capsys):
    # it used to print "stages":0 and exit 0
    path = write_doc(tmp_path, soa_doc())
    argv = ["soa", path, "--generators", "gen", "--map", "f", "--max-stages"]
    for value in ("-1", "-3"):
        code, out = run_cli(argv + [value], capsys)
        assert (code, json.loads(out)) == (2, {"error": (
            f"max_stages {value} is not an integer of at least 0")})
    code, out = run_cli(argv + ["0"], capsys)
    assert code == 0 and json.loads(out)["stages"] == 0


def test_soa_subcommand(tmp_path, capsys):
    # factor the collapse of a two-point discrete diagram onto a point
    path = write_doc(tmp_path, soa_doc())
    code, out = run_cli(["soa", path, *SOA], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["recomposes"] is True
    assert payload["saturated"] is True


def test_semidirect_subcommand(tmp_path, capsys):
    C = fincat.discrete_category("ab")
    G = fincat.cyclic_group(2)
    ident = fincat.identity_functor(C)
    swap = fincat.CatFunctor(C, C, {"a": "b", "b": "a"},
                             {"id_a": "id_b", "id_b": "id_a"})
    F = setval.SetDiagram.build(
        C, {"a": ("u",), "b": ("v", "w")},
        {"id_a": {"u": "u"}, "id_b": {"v": "v", "w": "w"}})
    doc = CatspecDocument((
        catspec.category_block("disc", C),
        catspec.group_block("c2", G),
        catspec.functor_block("ident", ident, "disc", "disc"),
        catspec.functor_block("swap", swap, "disc", "disc"),
        Block("action", "flip", ("c2", "disc"),
              (("map", "g0", "ident"), ("map", "g1", "swap"))),
        catspec.diagram_block("F", F, "disc"),
    ))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["semidirect", path, "--action", "flip",
                         "--diagram", "F"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["morphisms"] == 4
    assert payload["lan_formula"]["natural_iso"] is True


COLLIDING_ACTION_DOC = """\
category C
object x
morphism a x x
morphism a,b x x
identity x a
compose a a a
compose a a,b a,b
compose a,b a a,b
compose a,b a,b a,b
end
group G
element c
element b,c
identity c
mult c c c
mult c b,c b,c
mult b,c c b,c
mult b,c b,c c
inverse c c
inverse b,c b,c
end
functor I C C
object x x
morphism a a
morphism a,b a,b
end
action A G C
map c I
map b,c I
end
"""


def test_semidirect_identifier_collision_exits_2(tmp_path, capsys):
    # (a,b,c) names both (a, "b,c") and ("a,b", c): four pairs, three names
    path = tmp_path / "collide.catspec"
    path.write_text(COLLIDING_ACTION_DOC, encoding="utf-8")
    code, out = run_cli(["semidirect", str(path), "--action", "A"], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": "semidirect identifier (a,b,c) names two pairs"}


# A value line given twice: the diagram loaded as valid with the element
# twice in its value tuple, and kan then failed on a name collision.
@pytest.mark.parametrize("line,header,argv,error", [
    ("element a u", "diagram X arrow", ["validate"],
     "diagram X: object a: element u listed twice"),
    ("simplex 0 (0:0,g0)", "rsset S 1", ["rsset", "--name", "S"],
     "rsset S: object [0]: element (0:0,g0) listed twice")])
def test_repeated_value_line_exits_2_at_the_block_header(
        tmp_path, capsys, line, header, argv, error):
    text = emit(suite_doc())
    path = tmp_path / "twice.catspec"
    path.write_text(text.replace(f"\n{line}\n", f"\n{line}\n{line}\n", 1),
                    encoding="utf-8")
    code, out = run_cli([argv[0], str(path), *argv[1:]], capsys)
    at = text.splitlines().index(header) + 1
    assert (code, json.loads(out)) == (2, {"error": f"line {at}: {error}"})


def test_nabla_homcount_is_bare_number(capsys):
    code, out = run_cli(["nabla", "--dim", "1", "--homcount", "1", "1"],
                        capsys)
    assert code == 0
    assert json.loads(out) == 6
    assert out.strip() == "6"



def test_nabla_homcount_outside_the_level_exits_2(capsys):
    # [5] is no object at level 1: the count used to read 0, exit 0
    for m, n, missing in ((5, 5, 5), (-1, 0, -1), (0, 2, 2)):
        code, out = run_cli(["nabla", "--dim", "1", "--homcount", str(m),
                             str(n)], capsys)
        assert code == 2
        assert json.loads(out) == {"error": f"no object [{missing}] at level 1"}


# A morphism mapped with no ``object`` line: the loader raised KeyError (a
# traceback, exit 1) on functor and involution blocks.
MISSING_OBJECT_IMAGE = ("category pt\ncompose id_x id_x id_x\n"
                        "identity x id_x\nmorphism id_x x x\nobject x\nend\n"
                        "{kind} F {params}\nmorphism id_x id_x\nend\n")


@pytest.mark.parametrize("kind,params", [("functor", "pt pt"),
                                         ("involution", "pt")])
def test_missing_object_image_exits_2(tmp_path, capsys, kind, params):
    path = tmp_path / "bad.catspec"
    path.write_text(MISSING_OBJECT_IMAGE.format(kind=kind, params=params),
                    encoding="utf-8")
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": f"line 7: {kind} F: object x: image missing"}


# The --homcount output for every dim in 0..3 (row m, column n).
HOMCOUNTS = {
    0: [[2]],
    1: [[2, 4], [2, 6]],
    2: [[2, 4, 6], [2, 6, 12], [2, 8, 20]],
    3: [[2, 4, 6, 8], [2, 6, 12, 20], [2, 8, 20, 40], [2, 10, 30, 70]],
}


def test_nabla_homcount_builds_only_the_semidirect_presentation(
        monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("--homcount built what it does not print")
    monkeypatch.setattr(nabla, "build_nabla", refuse)
    monkeypatch.setattr(nabla, "monotone_pair_category", refuse)
    for dim, rows in HOMCOUNTS.items():
        for m, row in enumerate(rows):
            for n, count in enumerate(row):
                code, out = run_cli(["nabla", "--dim", str(dim), "--homcount",
                                     str(m), str(n)], capsys)
                assert (code, out) == (0, f"{count}\n"), (dim, m, n)


def test_nabla_summary(capsys):
    code, out = run_cli(["nabla", "--dim", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["hom_doubling"] is True
    assert payload["presentations_isomorphic"] is True


def test_failed_presentation_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(fincat, "validate_functor",
                        lambda F: ["forced mismatch"])
    code, out = run_cli(["nabla", "--dim", "2"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["presentations_isomorphic"] is False
    assert payload["hom_doubling"] is True
    code, out = run_cli(["paper-suite", "--case", "nabla"], capsys)
    assert code == 1
    assert json.loads(out) == {"hom_0_0": 2, "hom_doubling": True,
                               "presentations_isomorphic": False}


def test_rsset_subcommand(tmp_path, capsys):
    rs = nabla.representable_rsset(1, 1)
    doc = CatspecDocument((catspec.rsset_block("Y", rs),))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["rsset", path, "--name", "Y", "--roundtrip"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["roundtrip_identity"] is True
    assert payload["conjugation_squares"] is True
    assert payload["sizes"]["1"] == 6


def test_rsset_verdict_is_computed(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, suite_doc())
    argv = ["rsset", path, "--name", "S", "--roundtrip"]
    assert run_cli(argv, capsys) == (
        0, '{"conjugation_squares":true,"level":1,"roundtrip_identity":true,'
           '"sizes":{"0":2,"1":2},"valid":true}\n')
    # the first call is load's, which must pass for the command to run;
    # without --roundtrip no other code calls the validator
    real, calls = nabla.validate_rsset, []

    def failing_after_load(X):
        calls.append(X)
        return real(X) if len(calls) == 1 else ["forced error"]
    monkeypatch.setattr(nabla, "validate_rsset", failing_after_load)
    code, out = run_cli(argv[:-1], capsys)
    assert len(calls) == 2
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_cyclic_subcommand(tmp_path, capsys):
    from smallcat.cycops import terminal_operad
    doc = CatspecDocument((catspec.operad_block("T", terminal_operad(2)),))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["cyclic", path, "--operad", "T"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["R_cyclic_valid"] is True
    assert payload["R_sizes_are_powers"] is True



def test_cyclic_arity_bound_below_1_exits_2(tmp_path, capsys):
    # a bound below 1 used to reach the verdict as "R_cyclic_valid": false
    from smallcat.cycops import terminal_operad
    doc = CatspecDocument((catspec.operad_block("T", terminal_operad(2)),))
    path = write_doc(tmp_path, doc)
    for bound in (0, -3):
        code, out = run_cli(["cyclic", path, "--operad", "T",
                             "--arity-bound", str(bound)], capsys)
        assert code == 2
        assert json.loads(out) == {"error": (
            f"arity bound {bound} is below 1: an operad needs its unit "
            f"in arity 1")}
    code, out = run_cli(["cyclic", path, "--operad", "T", "--arity-bound",
                         "1"], capsys)
    assert code == 0 and json.loads(out)["R_cyclic_valid"] is True

def test_cyclic_subcommand_rejects_two_tuples_with_one_name(tmp_path, capsys):
    from test_cycops import colliding_operad
    doc = CatspecDocument((catspec.operad_block("P", colliding_operad()),))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["cyclic", path, "--operad", "P"], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": "tuple identifier (a,b,c) names two tuples"}


def test_cyclic_subcommand_rejects_one_tuple_name_in_two_arities(tmp_path, capsys):
    # R(P) is always cyclic: this collision used to print
    # "R_cyclic_valid": false and exit 1
    from test_cycops import arity_crossing_operad
    doc = CatspecDocument((catspec.operad_block("P", arity_crossing_operad()),))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["cyclic", path, "--operad", "P"], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": "tuple identifier (x,y) names two tuples"}


def renamed_associative_operad(A):
    """``associative_operad(A)`` with each name prefixed by ``w``, so that
    arity 0 has a name a document can hold."""
    from smallcat.cycops import TruncatedOperad, associative_operad
    P = associative_operad(A)

    def w(x):
        return "w" + x
    return TruncatedOperad(
        A, {n: tuple(map(w, xs)) for n, xs in P.elements.items()}, w(P.unit),
        {(i, w(a), w(b)): w(c) for (i, a, b), c in P.comp.items()},
        {(n, s, w(x)): w(y) for (n, s, x), y in P.action.items()})


def test_cyclic_commands_check_the_core_without_rendering_it(
        tmp_path, capsys, monkeypatch):
    # R(P) is rendered only for an operad with one element per arity (the
    # paper suite's product check on R of the terminal operad), and no
    # record is validated: both commands check the coded core
    from test_cycops import sign_operad

    from smallcat import cycadj, cycops
    render = cycadj.right_adjoint_R

    def small_only(P):
        assert all(len(xs) <= 1 for xs in P.elements.values()), "rendered"
        return render(P)

    def never(Q):
        raise AssertionError("validated a record")
    for module in (cycadj, cycops):
        monkeypatch.setattr(module, "right_adjoint_R", small_only)
    monkeypatch.setattr(cycops, "validate_cyclic", never)
    doc = CatspecDocument((
        catspec.operad_block("A", renamed_associative_operad(3)),
        catspec.operad_block("S", sign_operad(3))))
    path = write_doc(tmp_path, doc)
    assert run_cli(["cyclic", path, "--operad", "A"], capsys) == (0, (
        '{"R_cyclic_valid":true,"R_sizes":{"0":1,"1":1,"2":8,"3":1296},'
        '"R_sizes_are_powers":true,"arity_bound":3,'
        '"sizes":{"0":1,"1":1,"2":2,"3":6}}\n'))
    assert run_cli(["cyclic", path, "--operad", "S", "--arity-bound", "2"],
                   capsys) == (0, (
        '{"R_cyclic_valid":true,"R_sizes":{"0":0,"1":4,"2":8},'
        '"R_sizes_are_powers":true,"arity_bound":2,'
        '"sizes":{"0":0,"1":2,"2":2}}\n'))
    assert run_cli(["paper-suite", "--case", "cyclic"], capsys) == (0, (
        '{"FR_products":true,"R_assoc_cyclic":true,'
        '"R_sizes_are_powers":true}\n'))


def test_chain_subcommand(tmp_path, capsys):
    from smallcat.chaincx import two_term_identity_complex
    doc = CatspecDocument((
        catspec.complex_block("C", two_term_identity_complex(2)),))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["chain", path, "--complex", "C"], capsys)
    assert code == 0
    assert json.loads(out)["homology"] == {"-1": 0, "0": 0}
    code, out = run_cli(["chain", path, "--complex", "C",
                         "--truncate", "naive"], capsys)
    assert json.loads(out)["homology"] == {"0": 1}


def test_paper_suite_dagger(capsys):
    code, out = run_cli(["paper-suite", "--case", "dagger"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"Rp_isofib": False, "p_isofib": True}


def test_paper_suite_all(capsys):
    code, out = run_cli(["paper-suite"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert set(payload["cases"]) == {
        "dagger", "truncation", "nabla", "icat", "fully-faithful",
        "semidirect-lan", "boundary-preservation", "joyal-generators",
        "cyclic", "isofibration"}


def test_cli_determinism_via_subprocess(tmp_path):
    path = write_doc(tmp_path, kan_doc())
    cmds = [
        [sys.executable, "-m", "smallcat.cli", "validate", path],
        [sys.executable, "-m", "smallcat.cli", "kan", path,
         "--functor", "iota", "--diagram", "X"],
        [sys.executable, "-m", "smallcat.cli", "nabla", "--dim", "1",
         "--homcount", "0", "0"],
        [sys.executable, "-m", "smallcat.cli", "paper-suite",
         "--case", "dagger"],
    ]
    for cmd in cmds:
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.endswith(b"\n")


def test_malformed_entry_exits_2(tmp_path, capsys):
    for text in ("category C\nobject\nend\n",
                 "category C\nobject a\nidentity a\nend\n",
                 "complex K 4 0 0\nend\n",
                 "operad T 1\nelement 5 x\nunit x\nend\n",
                 "operad T 1\nelement -1 x\nunit x\nend\n",
                 "operad T 1\nelement one x\nunit x\nend\n",
                 "operad T 2\nelement 1 x\nunit x\ncompose a x x x\nend\n",
                 "operad T 2\nelement 1 x\nunit x\nact 1 pab x x\nend\n",
                 "complex K 2 0 0\ndim 0 q\nend\n",
                 "complex K 2 0 0\ndim 0 1\nd 0 0 z 1\nend\n",
                 "complex K 2 0 1\ndim 0 1\ndim 1 2\nd 0 -1 0 1\nend\n",
                 "complex K 2 0 1\ndim 0 1\ndim 1 2\nd 0 0 -1 1\nend\n",
                 "complex K 2 0 0\ndim 0 -1\nend\n",
                 "sset S 12\nend\n",
                 "sset S -1\nend\n"):
        path = tmp_path / "bad.catspec"
        path.write_text(text, encoding="utf-8")
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["error"].startswith("line ")


def test_oversized_complex_exits_2(tmp_path, capsys):
    # a p this large used to run trial division for over 10 s, and these
    # dimensions used to reach numpy's "array is too big" with no line
    for text, message in (
            ("complex K 4611686018427387847 0 0\nend\n", "overflows int64"),
            ("complex K 2 0 1\ndim 0 10000000000\ndim 1 10000000000\nend\n",
             "more than 16777216")):
        path = tmp_path / "big.catspec"
        path.write_text(text, encoding="utf-8")
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error.startswith("line 1: complex K: ") and message in error


def test_unbounded_complex_window_exits_2_at_once(tmp_path, capsys):
    # the window LO..HI used to be walked, one matrix per degree, before
    # any check: a window of 10^9 degrees asked for 10^9 arrays
    path = tmp_path / "wide.catspec"
    path.write_text("complex K 2 0 1000000000\nend\n", encoding="utf-8")
    start = time.perf_counter()
    code, out = run_cli(["validate", str(path)], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("line 1: complex K: window 0..1000000000 ")
    assert "more than 16777216" in error


def loaded_after(code: str) -> set[str]:
    """The ``smallcat.*``, numpy, ``dataclasses``, ``inspect`` and ``json``
    modules a fresh interpreter holds after running ``code`` with its
    standard output discarded."""
    probe = ("import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             + "".join(f"    {line}\n" for line in code.splitlines())
             + "print(' '.join(m for m in sys.modules\n"
             "               if m.startswith('smallcat.')\n"
             "               or m.split('.')[0] == 'numpy'\n"
             "               or m in ('dataclasses', 'inspect', 'json')))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_help_and_usage_errors_load_only_the_cli():
    # json too is imported only to print a command's result
    for argv in (["--help"], ["nabla", "--dim", "x"], ["no-such-command"]):
        loaded = loaded_after(
            "import smallcat.cli\n"
            "try:\n"
            f"    smallcat.cli.main({argv!r})\n"
            "except SystemExit:\n"
            "    pass")
        assert loaded == {"smallcat.cli"}, argv


def test_nabla_loads_neither_numpy_nor_chaincx():
    loaded = loaded_after("from smallcat import cli\n"
                          "cli.main(['nabla', '--dim', '1'])")
    assert "smallcat.nabla" in loaded
    assert "numpy" not in loaded and "smallcat.chaincx" not in loaded


def test_chain_alone_loads_chaincx_for_a_complex(tmp_path):
    # load checks a complex block without chaincx; the first read of
    # ``complexes[name]``, which only ``chain`` makes, builds its matrices.
    # The window of 2^20 degrees took one numpy array per degree on load
    # (3.2 s and 350 MB); only degrees with entries are stored now.  No
    # command loads numpy.
    plain = write_doc(tmp_path, arrow_doc(), "plain.catspec")
    small = tmp_path / "small.catspec"
    small.write_text("complex K 2 0 0\ndim 0 1\nend\n", encoding="utf-8")
    wide = tmp_path / "wide.catspec"
    wide.write_text("complex K 2 0 1048575\nend\n", encoding="utf-8")
    for argv, chaincx_loaded in (
            (["validate", plain], False),
            (["validate", str(small)], False),
            (["validate", str(wide)], False),
            (["chain", str(small), "--complex", "K"], True)):
        loaded = loaded_after("from smallcat import cli\n"
                              f"assert cli.main({argv!r}) == 0")
        assert "smallcat.catspec" in loaded
        assert "numpy" not in loaded, argv
        assert ("smallcat.chaincx" in loaded) is chaincx_loaded, argv


def test_chaincx_and_the_paper_suite_run_without_numpy():
    loaded = loaded_after("import smallcat.chaincx\n"
                          "from smallcat import cli\n"
                          "assert cli.main(['paper-suite']) == 0")
    assert "smallcat.chaincx" in loaded and "smallcat.nabla" in loaded
    assert "numpy" not in loaded


def test_kan_loads_neither_invcat_nor_catmodel(tmp_path):
    # kan_doc has category, functor and diagram blocks only, so loading it
    # needs no module for actions, involutions, ssets or operads
    path = write_doc(tmp_path, kan_doc())
    loaded = loaded_after(
        "from smallcat import cli\n"
        f"assert cli.main(['kan', {path!r}, '--functor', 'iota',\n"
        "                 '--diagram', 'X']) == 0")
    assert "smallcat.catspec" in loaded and "smallcat.setval" in loaded
    for module in ("invcat", "catmodel", "cycops", "nabla", "semidirect"):
        assert f"smallcat.{module}" not in loaded, module


def test_soa_loads_neither_catmodel_nor_search(tmp_path):
    # the small object argument runs no functor search
    path = write_doc(tmp_path, soa_doc())
    loaded = loaded_after("from smallcat import cli\n"
                          f"assert cli.main(['soa', {path!r}, *{SOA!r}]) == 0")
    assert loaded == {"json"} | {f"smallcat.{m}" for m in (
        "catspec cli coded fincat setval soa universal".split())}


def suite_doc() -> CatspecDocument:
    """kan_doc's blocks, an identity functor, an rsset, an operad and a
    complex: every block the cli-suite command lines read."""
    from smallcat import chaincx, cycops
    return CatspecDocument((
        *kan_doc().blocks,
        catspec.functor_block("ident", fincat.identity_functor(walking_arrow()),
                              "arrow", "arrow"),
        catspec.rsset_block("S", nabla.representable_rsset(1, 0)),
        catspec.operad_block("T", cycops.terminal_operad(2)),
        catspec.complex_block("C", chaincx.two_term_identity_complex(2)),
    ))


# The command lines of the cli-suite benchmark workload, and those of them
# that compute with a chain complex.  None loads numpy.
CLI_SUITE = [
    ["validate", "{doc}"],
    ["kan", "{doc}", "--functor", "iota", "--diagram", "X"],
    ["kan", "{doc}", "--functor", "iota", "--diagram", "X",
     "--side", "right"],
    ["adjoint", "{doc}", "--functor", "iota"],
    ["lift", "{doc}", "--left", "ident", "--right", "ident",
     "--top", "ident", "--bottom", "ident"],
    ["rlp", "{doc}", "--maps", "ident", "--against", "ident"],
    ["nabla", "--dim", "1", "--homcount", "1", "1"],
    ["nabla", "--dim", "2"],
    ["rsset", "{doc}", "--name", "S", "--roundtrip"],
    ["cyclic", "{doc}", "--operad", "T"],
    ["chain", "{doc}", "--complex", "C", "--truncate", "naive"],
    ["paper-suite", "--case", "dagger"],
    ["paper-suite", "--case", "truncation"],
    ["paper-suite"],
]
COMPLEX_LINES = {"chain {doc} --complex C --truncate naive",
                 "paper-suite --case truncation", "paper-suite"}

# The smallcat modules each cli-suite line loads.  Loading the suite
# document takes the first seven; only the commands that run them load the
# Kan half of setval (kan), the adjunction certificates (certify), the
# cyclic right adjoint (cycadj), the functor searches (search) and the
# paper cases (paper).  No line but the paper cases loads the other cold
# halves: the named categories (standard), the universal constructions
# (universal), the semidirect checks (sdcheck), the simplicial sets beside
# nabla (simplicial) and the catspec writer (catwrite).  No line loads the
# word closure (closure), the small object argument (soa) or change of
# rings (rings).
DOC_MODULES = "catspec cli cycops fincat nabla semidirect setval"
LOADS = {
    "validate {doc}": DOC_MODULES,
    "kan {doc} --functor iota --diagram X": DOC_MODULES + " coded kan",
    "kan {doc} --functor iota --diagram X --side right":
        DOC_MODULES + " coded kan",
    "adjoint {doc} --functor iota": DOC_MODULES + " certify coded kan",
    "lift {doc} --left ident --right ident --top ident --bottom ident":
        DOC_MODULES + " catmodel search",
    "rlp {doc} --maps ident --against ident": DOC_MODULES + " catmodel search",
    "nabla --dim 1 --homcount 1 1": "cli fincat nabla semidirect",
    "nabla --dim 2": "cli fincat nabla semidirect",
    "rsset {doc} --name S --roundtrip": DOC_MODULES,
    "cyclic {doc} --operad T": DOC_MODULES + " cycadj",
    "chain {doc} --complex C --truncate naive": DOC_MODULES + " chaincx",
    "paper-suite --case dagger":
        "catmodel cli fincat invcat paper search standard",
    "paper-suite --case truncation": "chaincx cli fincat paper",
    "paper-suite": "catmodel chaincx cli coded cycadj cycops fincat invcat kan "
                   "nabla paper sdcheck search semidirect setval simplicial "
                   "standard universal",
}


@pytest.mark.parametrize("template", CLI_SUITE, ids=" ".join)
def test_only_complex_commands_load_numpy(tmp_path, template):
    path = write_doc(tmp_path, suite_doc())
    argv = [path if a == "{doc}" else a for a in template]
    loaded = loaded_after("from smallcat import cli\n"
                          f"assert cli.main({argv!r}) == 0")
    assert "numpy" not in loaded
    assert ("smallcat.chaincx" in loaded) is (" ".join(template) in COMPLEX_LINES)
    # records are made by fincat.record, which imports nothing
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert loaded == {"json"} | {f"smallcat.{m}"
                                 for m in LOADS[" ".join(template)].split()}


def loaded_source_bytes(code: str) -> int:
    """The bytes of the smallcat source files, package ``__init__``
    included, of every smallcat module a fresh interpreter holds after
    running ``code`` with its standard output discarded."""
    probe = ("import contextlib, io, os, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             + "".join(f"    {line}\n" for line in code.splitlines())
             + "print(sum(os.path.getsize(m.__file__)\n"
             "          for name, m in list(sys.modules.items())\n"
             "          if name.split('.')[0] == 'smallcat'))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return int(done.stdout)


# The most smallcat source each cli-suite line, and --help, may load: every
# command compiles what it imports when bytecode is not cached, as in the
# benchmark.  A change that raises a ceiling edits it here and says why.
SOURCE_CEILINGS = {
    "validate {doc}": 110487,
    "kan {doc} --functor iota --diagram X": 135256,
    "kan {doc} --functor iota --diagram X --side right": 135256,
    "adjoint {doc} --functor iota": 145152,
    "lift {doc} --left ident --right ident --top ident --bottom ident": 129542,
    "rlp {doc} --maps ident --against ident": 129542,
    "nabla --dim 1 --homcount 1 1": 61025,
    "nabla --dim 2": 61025,
    "rsset {doc} --name S --roundtrip": 110487,
    "cyclic {doc} --operad T": 131280,
    "chain {doc} --complex C --truncate naive": 128045,
    "paper-suite --case dagger": 93054,
    "paper-suite --case truncation": 68878,
    "paper-suite": 224715,
    "--help": 17934,
}


@pytest.mark.parametrize("template", CLI_SUITE + [["--help"]], ids=" ".join)
def test_each_command_loads_at_most_its_ceiling_of_source(tmp_path, template):
    path = write_doc(tmp_path, suite_doc())
    argv = [path if a == "{doc}" else a for a in template]
    loaded = loaded_source_bytes("from smallcat import cli\n"
                                 "try:\n"
                                 f"    assert cli.main({argv!r}) == 0\n"
                                 "except SystemExit as exc:\n"
                                 "    assert exc.code == 0")
    assert loaded <= SOURCE_CEILINGS[" ".join(template)]


def test_package_attribute_loads_that_module_only():
    loaded = loaded_after("import smallcat\n"
                          "smallcat.fincat.cyclic_group(2)\n"
                          "try:\n"
                          "    smallcat.no_such_module\n"
                          "except AttributeError:\n"
                          "    pass\n"
                          "else:\n"
                          "    raise SystemExit('no AttributeError')")
    assert loaded == {"smallcat.fincat"}


def test_an_old_module_loads_the_new_one_only_for_a_moved_name():
    loaded = loaded_after("import smallcat.setval\n"
                          "assert not hasattr(smallcat.setval, 'no_such_name')")
    assert loaded == {"smallcat.fincat", "smallcat.setval"}
    loaded = loaded_after("import smallcat.setval\n"
                          "lan = smallcat.setval.lan\n"
                          "assert vars(smallcat.setval)['lan'] is lan")
    assert loaded == {"smallcat.coded", "smallcat.fincat", "smallcat.kan",
                      "smallcat.setval"}


# (old module, a name moved out of it, the modules reading that name loads)
COLD = [("chaincx", "induce", "rings"),
        ("catmodel", "bounded_soa", "setval soa"),
        ("search", "bounded_closure", "closure"),
        ("fincat", "category_from_generators", "closure"),
        ("kan", "certify_kan_adjunctions", "certify"),
        ("setval", "certify_adjunction", "certify coded kan")]


@pytest.mark.parametrize("old,name,loads", COLD)
def test_an_old_module_loads_a_cold_module_only_for_its_name(old, name,
                                                              loads):
    imported = loaded_after(f"import smallcat.{old}")
    assert not {"smallcat.rings", "smallcat.soa", "smallcat.closure",
                "smallcat.certify"} & imported
    loaded = loaded_after(f"import smallcat.{old}\n"
                          f"value = smallcat.{old}.{name}\n"
                          f"assert vars(smallcat.{old})[{name!r}] is value")
    assert loaded - imported == {f"smallcat.{m}" for m in loads.split()}


def test_the_package_lists_every_module():
    # smallcat.<name> reads _MODULES: a module left out of it would raise
    # AttributeError only when read
    package = pathlib.Path(smallcat.__file__).parent
    assert sorted(smallcat._MODULES) == sorted(
        path.stem for path in package.glob("*.py") if path.stem != "__init__")


# (old module, a module that part of its cold half moved to)
MOVED = [("setval", "coded"), ("setval", "kan"), ("setval", "universal"),
         ("cycops", "cycadj"), ("fincat", "search"), ("fincat", "standard"),
         ("cli", "paper"), ("semidirect", "sdcheck"), ("nabla", "simplicial"),
         ("catspec", "catwrite"), ("chaincx", "rings"), ("catmodel", "soa"),
         ("search", "closure"), ("fincat", "closure"), ("kan", "certify"),
         ("setval", "certify")]


def defined_in(module: ModuleType, private: bool = False) -> list[str]:
    """The public names, and the private ones too when ``private``, that
    ``module``'s own top-level statements bind: its functions, classes and
    assignments, not its imports."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if private or not n.startswith("_")]


def moved_tables(module: ModuleType) -> dict[str, list[str]]:
    """The names listed for each home in the ``moved(globals(), ...)``
    table of ``module``, read from its source."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    tables = {}
    for stmt in tree.body:
        call = stmt.value if isinstance(stmt, ast.Assign) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "moved"):
            for kw in call.keywords:
                tables[kw.arg] = ast.literal_eval(kw.value).split()
    return tables


@pytest.mark.parametrize("old,new", MOVED)
def test_moved_names_keep_their_old_paths(old, new):
    old_module = importlib.import_module(f"smallcat.{old}")
    new_module = importlib.import_module(f"smallcat.{new}")
    names = defined_in(new_module)
    assert names
    for name in names:
        assert getattr(old_module, name) is getattr(new_module, name), name


@pytest.mark.parametrize("old", sorted({old for old, _ in MOVED}))
def test_every_moved_name_is_bound_at_its_home(old):
    # the reverse of the test above: a name left in a table after its home
    # stopped defining it would raise AttributeError only when read
    tables = moved_tables(importlib.import_module(f"smallcat.{old}"))
    assert set(tables) == {new for o, new in MOVED if o == old}
    for home, names in tables.items():
        bound = defined_in(importlib.import_module(f"smallcat.{home}"),
                           private=True)
        assert sorted(set(names) - set(bound)) == [], home


def test_every_traced_function_resolves_where_the_tracer_looks():
    # Tracer.install reads each SPANNED and COUNTED name on the module it
    # names; a moved one is read through its old module's __getattr__
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.SPANNED + spans.COUNTED:
        owner = importlib.import_module(f"smallcat.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_cli_suite_outputs_match_the_recorded_digests(tmp_path):
    # the exit code and stdout SHA-256 of each benchmark command line on the
    # benchmark's own document, as perfbench/expected.json records them
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", root / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    doc = tmp_path / "cli-suite.catspec"
    doc.write_text(corpus.cli_suite_document(), encoding="utf-8")
    expected = json.loads((root / "perfbench" / "expected.json").read_text())
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    assert len(expected["cli"]) == 14
    for line, want in expected["cli"].items():
        args = [str(doc) if a == "{doc}" else a for a in line.split(" ")]
        done = subprocess.run([sys.executable, "-m", "smallcat.cli", *args],
                              capture_output=True, env=env, cwd=root)
        got = {"exit": done.returncode,
               "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}
        assert got == want, (line, done.stderr[-500:])


@pytest.mark.parametrize("side,arrows,src,tgt,name", [
    ("left", ["x,y", "y"], "p", "q", "(a,x,y)"),
    ("right", ["x", "x,y"], "q", "p", "(x,y,z)")])
def test_kan_comma_object_collision_exits_2(tmp_path, capsys, side, arrows,
                                            src, tgt, name):
    # left printed "q":3 for an extension with four elements at q, and
    # right merged two of the four comma objects under q
    from test_setval import kan_collision_instance
    cobjs = ["a", "a,x"] if side == "left" else ["z", "y,z"]
    iota, X = kan_collision_instance(cobjs, arrows, src, tgt)
    doc = CatspecDocument((
        catspec.category_block("C", iota.domain),
        catspec.category_block("D", iota.codomain),
        catspec.functor_block("iota", iota, "C", "D"),
        catspec.diagram_block("X", X, "C")))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["kan", path, "--functor", "iota", "--diagram", "X",
                         "--side", side], capsys)
    assert code == 2
    assert json.loads(out) == {
        "error": f"comma object identifier {name} names two comma objects"}
