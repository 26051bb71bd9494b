import json
import subprocess
import sys
import time


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


def test_soa_subcommand(tmp_path, capsys):
    # factor the collapse of a two-point discrete diagram onto a point
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
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["soa", path, "--generators", "gen", "--map", "f",
                         "--max-stages", "2"], capsys)
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


def test_nabla_homcount_is_bare_number(capsys):
    code, out = run_cli(["nabla", "--dim", "1", "--homcount", "1", "1"],
                        capsys)
    assert code == 0
    assert json.loads(out) == 6
    assert out.strip() == "6"


def test_nabla_summary(capsys):
    code, out = run_cli(["nabla", "--dim", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["hom_doubling"] is True
    assert payload["presentations_isomorphic"] is True


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


def test_cyclic_subcommand(tmp_path, capsys):
    from smallcat.cycops import terminal_operad
    doc = CatspecDocument((catspec.operad_block("T", terminal_operad(2)),))
    path = write_doc(tmp_path, doc)
    code, out = run_cli(["cyclic", path, "--operad", "T"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["R_cyclic_valid"] is True
    assert payload["R_sizes_are_powers"] is True


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
    """The ``smallcat.*`` and numpy modules a fresh interpreter holds after
    running ``code`` with its standard output discarded."""
    probe = ("import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             + "".join(f"    {line}\n" for line in code.splitlines())
             + "print(' '.join(m for m in sys.modules\n"
             "               if m.startswith('smallcat.')\n"
             "               or m.split('.')[0] == 'numpy'))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_help_and_usage_errors_load_only_the_cli():
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


def test_validate_loads_numpy_only_for_a_complex(tmp_path):
    plain = write_doc(tmp_path, arrow_doc(), "plain.catspec")
    with_complex = tmp_path / "complex.catspec"
    with_complex.write_text("complex K 2 0 0\ndim 0 1\nend\n",
                            encoding="utf-8")
    for path, numpy_loaded in ((plain, False), (str(with_complex), True)):
        loaded = loaded_after("from smallcat import cli\n"
                              f"assert cli.main(['validate', {path!r}]) == 0")
        assert "smallcat.catspec" in loaded
        assert ("numpy" in loaded) is numpy_loaded, path


def test_package_attribute_loads_that_module_only():
    loaded = loaded_after("import smallcat\n"
                          "smallcat.fincat.walking_arrow()\n"
                          "try:\n"
                          "    smallcat.no_such_module\n"
                          "except AttributeError:\n"
                          "    pass\n"
                          "else:\n"
                          "    raise SystemExit('no AttributeError')")
    assert loaded == {"smallcat.fincat"}
