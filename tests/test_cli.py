import argparse
import itertools
import json
import sys
from types import SimpleNamespace

import pytest

from quantalg.cli import main

MP_THEORY = "sum(sum(bary, exc{1}), contr{next, 1/2})"


@pytest.fixture
def files(tmp_path):
    (tmp_path / "S.space").write_text(
        "space S { points: x, y; d(x,y) = 1; }\n")
    (tmp_path / "t.term").write_text("conv(1/2, x, y)\n")
    (tmp_path / "s.term").write_text("y\n")
    (tmp_path / "mealy.coalg").write_text(
        "mealy M { c = 1/2; inputs: i;\n"
        "  state p on i -> (p, 1);\n"
        "  state q on i -> (q, 2);\n"
        "}\n")
    return tmp_path


def test_dist_verb(files, capsys):
    code = main(["dist", "--theory", "bary", "--space", str(files / "S.space"),
                 str(files / "t.term"), str(files / "s.term")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_dist_inline_and_record(files, capsys):
    code = main(["dist", "--theory", "bary", "--space", str(files / "S.space"),
                 "--inline", "--format", "record",
                 "conv(1/2, x, y)", "y"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["distance"] == "1/2"


def test_dist_inf_output(files, capsys):
    code = main(["dist", "--theory", MP_THEORY, "--inline",
                 "raise(*)", "next(raise(*))"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_normalize_verb(capsys):
    code = main(["normalize", "--theory", "writer{q}", "--inline",
                 "wr(2, wr(3, x))"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Pair(5, x)"


def test_bisim_verb(files, capsys):
    code = main(["bisim", "--tol", "1/1000", str(files / "mealy.coalg")])
    assert code == 0
    out = capsys.readouterr().out
    # cyclic: policy iteration reaches the fixed point d = 1 + d/2 exactly
    assert "d(p,q) = 2\n" in out
    assert "exact=yes" in out


def test_extended_bisim_answers_inf_pairs(tmp_path, capsys):
    # bot beside a state that never terminates: every pair is INF, and the
    # answer is Psi's fixed point, not an error
    coalg = tmp_path / "P.coalg"
    coalg.write_text("mp P { c = 1/2; state u: 1/2 -> u, 1/2 -> bot;"
                     " state v: 1 -> v; state w: 1 -> bot; }")
    assert main(["bisim", "--mode", "extended", str(coalg)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("system P:\n  d(u,v) = inf\n  d(u,w) = inf\n  d(v,w) = inf\n"
                            "  certificate: iterations=2 a_priori_bound=0 residual=0 exact=yes\n")
    assert captured.err == ""
    assert main(["bisim", "--mode", "bounded", str(coalg)]) == 0
    assert "d(u,v) = 2/3\n  d(u,w) = 1/2\n  d(v,w) = 1\n" in capsys.readouterr().out


def test_extended_bisim_puts_two_loops_at_zero(tmp_path, capsys):
    # INF also solves d = c * d; the answer is the least fixed point
    coalg = tmp_path / "L.coalg"
    coalg.write_text("mp L { c = 1/2; state v: 1 -> v; state w: 1 -> w; }")
    assert main(["bisim", "--mode", "extended", str(coalg)]) == 0
    assert "  d(v,w) = 0\n" in capsys.readouterr().out


def test_unfold_round_trip(files, tmp_path, capsys):
    code = main(["unfold", "--theory", MP_THEORY, "--inline",
                 "next(conv(1/2, raise(*), next(raise(*))))"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# root = s0")
    coalg = tmp_path / "out.coalg"
    coalg.write_text("".join(line + "\n" for line in out.splitlines()
                             if not line.startswith("#")))
    code = main(["bisim", "--tol", "1/8", str(coalg)])
    assert code == 0
    assert "exact=yes" in capsys.readouterr().out


def test_deterministic_output(files, capsys):
    args = ["bisim", "--tol", "1/100", "--format", "record", str(files / "mealy.coalg")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)[0]["certificate"] == {
        "iterations": 3, "c": "1/2", "mode": "bounded",
        "a_priori_bound": "0", "residual": "0", "exact": True}


def test_check_model_verb(tmp_path, capsys):
    (tmp_path / "S.space").write_text("space S { points: p, q; d(p,q) = 1; }\n")
    (tmp_path / "A.alg").write_text(
        "algebra A {\n"
        "  carrier: S;\n"
        "  op union: (p, p) -> p; (p, q) -> q; (q, p) -> q; (q, q) -> q;\n"
        "  op empty: -> p;\n"
        "}\n")
    code = main(["check-model", "--theory", "semi",
                 "--space", str(tmp_path / "S.space"),
                 "--epsilons", "1", str(tmp_path / "A.alg")])
    assert code == 0
    assert "RESULT: pass" in capsys.readouterr().out


# A writer algebra over {z,o} x {x,y} whose unit write moves zx to zy: its
# Diff[z,o] instances fail at one assignment with different details, the
# given threshold for some and the tight one for others.
_WRITER_MUTANT_REPORT = """\
algebra A:
FAIL  -  nonexpansive wr(z) (checked 3, skipped 0)
      at {'args': ('zx',), "args'": ('ox',)}: d(zy,ox) = 2 > 1
pass  -  nonexpansive wr(o) (checked 16, skipped 0)
FAIL  -  Zero (checked 1, skipped 0)
      at {'x': 'zx'}: d(lhs, rhs) = 1 > 0
pass  -  Mult[z,z] (checked 4, skipped 0)
pass  -  Mult[z,o] (checked 4, skipped 0)
FAIL  -  Mult[o,z] (checked 1, skipped 0)
      at {'x': 'zx'}: d(lhs, rhs) = 1 > 0
pass  -  Mult[o,o] (checked 4, skipped 0)
FAIL  -  Diff[z,z] (checked 3, skipped 0)
      at {'x1': 'zx', 'y1': 'ox'}: premises hold at ['1'] but d = 2 > 1
FAIL  -  Diff[z,z] (checked 3, skipped 0)
      at {'x1': 'zx', 'y1': 'ox'}: premises hold at ['1'] but d = 2 > 1
FAIL  -  Diff[z,z] (checked 3, skipped 0)
      at {'x1': 'zx', 'y1': 'ox'}: premises hold at ['1'] but d = 2 > 1
FAIL  -  Diff[z,z] (checked 3, skipped 0)
      at {'x1': 'zx', 'y1': 'ox'}: premises hold at ['1'] but d = 2 > 1
FAIL  -  Diff[z,o] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['0'] but d = 2 > 1
FAIL  -  Diff[z,o] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['1/2'] but d = 2 > 3/2
FAIL  -  Diff[z,o] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['0'] but d = 2 > 1
FAIL  -  Diff[z,o] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['0'] but d = 2 > 1
FAIL  -  Diff[o,z] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['0'] but d = 2 > 1
FAIL  -  Diff[o,z] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['1/2'] but d = 2 > 3/2
FAIL  -  Diff[o,z] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['0'] but d = 2 > 1
FAIL  -  Diff[o,z] (checked 1, skipped 0)
      at {'x1': 'zx', 'y1': 'zx'}: premises hold at ['0'] but d = 2 > 1
pass  -  Diff[o,o] (checked 16, skipped 0)
pass  -  Diff[o,o] (checked 16, skipped 0)
pass  -  Diff[o,o] (checked 16, skipped 0)
pass  -  Diff[o,o] (checked 16, skipped 0)
note: continuity rule not checked: distances on a finite carrier are attained
RESULT: FAIL
"""


def _writer_mutant_files(tmp_path):
    (tmp_path / "W.space").write_text(
        "space W { points: zx, zy, ox, oy;\n"
        "  d(zx,zy) = 1; d(zx,ox) = 1; d(zx,oy) = 2; d(zy,ox) = 2; d(zy,oy) = 1;"
        " d(ox,oy) = 1; }\n")
    (tmp_path / "M.monoid").write_text(
        "monoid M { elements: z, o; unit = z; mult(z,z) = z; mult(z,o) = o;\n"
        "  mult(o,z) = o; mult(o,o) = o; d(z,o) = 1; }\n")
    (tmp_path / "A.alg").write_text(
        "algebra A {\n"
        "  carrier: W;\n"
        "  op wr(z): (zx) -> zy; (zy) -> zy; (ox) -> ox; (oy) -> oy;\n"
        "  op wr(o): (zx) -> ox; (zy) -> oy; (ox) -> ox; (oy) -> oy;\n"
        "}\n")
    return ["check-model", "--theory", "writer{M}", "--space", str(tmp_path / "W.space"),
            "--monoid", str(tmp_path / "M.monoid"), "--epsilons", "0,1/2,1,2",
            "--verbose", str(tmp_path / "A.alg")]


def test_check_model_verbose_pins_each_instance_failure(tmp_path, capsys):
    code = main(_writer_mutant_files(tmp_path))
    assert code == 1
    assert capsys.readouterr().out == _WRITER_MUTANT_REPORT


def test_repeated_elems_list_each_writer_instance_once(tmp_path, capsys):
    argv = _writer_mutant_files(tmp_path)
    reports = []
    for elems in ("z", "z,z", "z,z,z"):
        assert main(argv + ["--elems", elems]) == 1
        reports.append(capsys.readouterr().out)
    assert reports[1] == reports[2] == reports[0]
    lines = reports[0].splitlines()
    # one Mult instance per element pair, one Diff instance per pair and threshold
    assert sum("Mult[z,z]" in line for line in lines) == 1
    assert sum("Diff[z,z]" in line for line in lines) == 4


@pytest.mark.parametrize("theory, pools", [
    ("bary", ["--weights", "1/2,1/2", "--epsilons", "1,1"]),
    ("bary", ["--weights", "1/2,2/4", "--epsilons", "1,2/2"]),
    ("semi", ["--weights", "1/2", "--epsilons", "1,1"]),
])
def test_repeated_pool_entries_list_each_instance_once(theory, pools, tmp_path, capsys):
    (tmp_path / "S.space").write_text("space S { points: p, q; d(p,q) = 1; }\n")
    (tmp_path / "A.alg").write_text(
        "algebra A {\n  carrier: S;\n"
        "  op conv(1/2): (p, p) -> p; (p, q) -> q; (q, p) -> p; (q, q) -> q;\n"
        "  op union: (p, p) -> p; (p, q) -> q; (q, p) -> q; (q, q) -> q;\n"
        "  op empty: -> p;\n}\n")
    argv = ["check-model", "--theory", theory, "--space", str(tmp_path / "S.space"),
            "--verbose", str(tmp_path / "A.alg")]
    reports = []
    for args in (pools, ["--weights", "1/2", "--epsilons", "1"]):
        reports.append((main(argv + args), capsys.readouterr().out))
    assert reports[0] == reports[1]
    lines = reports[0][1].splitlines()
    for label in ("IB[1/2]", "SA[1/2,1/2]", "SC[1/2]") if theory == "bary" else ("S4",):
        assert sum(line.endswith(f"  {label}") or f"  {label} (" in line
                   for line in lines) == 1, label


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.term"
    bad.write_text("conv(1/2, x")
    code = main(["dist", "--theory", "bary", str(bad), str(bad)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.coalg"
    bad.write_text("mp B { c = 1/2; state u: 1/2 -> u; }")
    code = main(["bisim", str(bad)])
    assert code == 1
    assert "mass" in capsys.readouterr().err


_MONOID = ("monoid M { elements: z, a; unit = z;\n"
           "  mult(z,z) = z; mult(z,a) = a; mult(a,z) = a; mult(a,a) = a;\n"
           "  d(z,a) = %s; }\n")
_ALGEBRA = "algebra A { carrier: S; op %s; }\n"


# (argv with {d} for the directory of the written files, file texts, exit code)
_HOSTILE = {
    "coalgebra 1/0": (["bisim", "{d}/C.coalg"],
                      {"C.coalg": "mp P { c = 1/0; state u: 1 -> u; }"}, 2),
    "coalgebra state twice": (["bisim", "{d}/C.coalg"], {"C.coalg": (
        "mp P { c = 1/2; state u: 1 -> u; state v: 1 -> bot; state u: 1 -> bot; }")}, 2),
    "coalgebra row twice": (["bisim", "{d}/C.coalg"], {"C.coalg": (
        "lmp L { c = 1/2; actions: a; state u on a: 1 -> u; state u on a: 1 -> bot; }")}, 2),
    "coalgebra mealy output zz": (["bisim", "{d}/C.coalg"], {"C.coalg": (
        "mealy M { c = 1/2; inputs: i; state p on i -> (p, zz); }")}, 1),
    "coalgebra mealy output 3": (["bisim", "--monoid", "{d}/M.monoid", "{d}/C.coalg"], {
        "M.monoid": _MONOID % "1",
        "C.coalg": "mealy M { c = 1/2; inputs: i; monoid: M; state p on i -> (p, 3); }"}, 1),
    "coalgebra mdp reward zz": (["bisim", "{d}/C.coalg"], {"C.coalg": (
        "mdp D { c = 1/2; actions: a; state u on a: 1 -> (u, zz); }")}, 1),
    "term 1/0": (["dist", "--theory", "bary", "--inline", "conv(1/0, x, y)", "x"], {}, 2),
    # a zero denominator in another digit script: Arabic-Indic ٠ and ٣
    "term ٣/٠": (["dist", "--theory", "bary", "--inline", "conv(٣/٠, x, y)", "x"], {}, 2),
    "term 1/٠": (["dist", "--theory", "bary", "--inline", "conv(1/٠, x, y)", "x"], {}, 2),
    "theory 1/0": (["dist", "--theory", "contr{next, 1/0}", "--inline", "x", "x"], {}, 2),
    "space 1/0": (["dist", "--theory", "bary", "--space", "{d}/B.space", "--inline", "p", "q"],
                  {"B.space": "space B { points: p, q; d(p,q) = 1/0; }"}, 2),
    "space 1/٠": (["dist", "--theory", "bary", "--space", "{d}/B.space", "--inline", "p", "q"],
                  {"B.space": "space B { points: p, q; d(p,q) = 1/٠; }"}, 2),
    "monoid 1/0": (["normalize", "--theory", "writer{M}", "--monoid", "{d}/M.monoid",
                    "--inline", "x"], {"M.monoid": _MONOID % "1/0"}, 2),
    "monoid zz": (["normalize", "--theory", "writer{M}", "--monoid", "{d}/M.monoid",
                   "--inline", "x"], {"M.monoid": _MONOID % "zz"}, 2),
    "--tol abc": (["bisim", "--tol", "abc", "{d}/C.coalg"],
                  {"C.coalg": "mp P { c = 1/2; state u: 1 -> u; }"}, 2),
    "--tol 1/0": (["bisim", "--tol", "1/0", "{d}/C.coalg"],
                  {"C.coalg": "mp P { c = 1/2; state u: 1 -> u; }"}, 2),
    "--decimal -3": (["dist", "--theory", "bary", "--decimal", "-3", "--inline", "x", "x"],
                     {}, 2),
    "--decimal 4001": (["dist", "--theory", "bary", "--decimal", "4001", "--inline", "x", "x"],
                       {}, 2),
    "--decimal 5000": (["dist", "--theory", MP_THEORY, "--mode", "bounded", "--decimal", "5000",
                        "--inline", "conv(1/3, raise(*), next(raise(*)))", "raise(*)"], {}, 2),
    "term numeral of 5001 digits": (["dist", "--theory", MP_THEORY, "--inline",
                                     f"conv(1/1{'0' * 5000}, raise(*), next(raise(*)))",
                                     "raise(*)"], {}, 2),
    "--weights 2": (["check-model", "--theory", "bary", "--space", "{d}/S.space",
                     "--weights", "2", "{d}/A.alg"],
                    {"A.alg": _ALGEBRA % "conv(1/2): (p, p) -> p"}, 1),
    "--weights 1/0": (["check-model", "--theory", "bary", "--space", "{d}/S.space",
                       "--weights", "1/0", "{d}/A.alg"],
                      {"A.alg": _ALGEBRA % "conv(1/2): (p, p) -> p"}, 1),
    "--epsilons -1": (["check-model", "--theory", "bary", "--space", "{d}/S.space",
                       "--weights", "1/2", "--epsilons", "-1", "{d}/A.alg"],
                      {"A.alg": _ALGEBRA % "conv(1/2): (p, p) -> p"}, 1),
    "--elems abc": (["check-model", "--theory", "writer{q}", "--space", "{d}/S.space",
                     "--elems", "abc", "--epsilons", "1", "{d}/A.alg"],
                    {"A.alg": _ALGEBRA % "wr(1): (p) -> p"}, 1),
    **{f"op {header}": (["check-model", "--theory", "bary", "--space", "{d}/S.space",
                         "--weights", "1/2", "{d}/A.alg"],
                        {"A.alg": _ALGEBRA % f"{header}: {entry}"}, 2)
       for header, entry in [("rd(1/2)", "(p) -> p"), ("rd(0)", "-> p"),
                             ("conv(3)", "(p, p) -> p"), ("raise(,)", "-> p"),
                             ("wr(()", "(p) -> p"), ("next(n, 2)", "(p) -> p")]},
    "theory contr n twice": (["dist", "--theory",
                              "sum(sum(sum(bary, exc{1}), contr{n, 1/2}), contr{n, 1/3})",
                              "--space", "{d}/S.space", "--inline", "p", "q"], {}, 1),
    "term wr(m, empty)": (["normalize", "--theory", "tensor(reader{a,b}, tensor(semi, writer{q}))",
                           "--inline", "wr(m, empty)"], {}, 1),
    "term rd(x) under reader{a,b}": (["dist", "--theory", "tensor(bary, reader{a,b})",
                                      "--inline", "rd(x)", "x"], {}, 1),
    "theory exc{a,}": (["dist", "--theory", "sum(bary, exc{a,})", "--inline", "x", "x"], {}, 2),
    "space d(p,p) = 1": (["dist", "--theory", "bary", "--space", "{d}/B.space",
                          "--inline", "p", "q"],
                         {"B.space": "space B { points: p, q; d(p,q) = 1; d(p,p) = 1; }"}, 1),
    "space S twice": (["dist", "--theory", "bary", "--space", "{d}/B.space", "--inline", "p", "q"],
                      {"B.space": "space S { points: p, q; d(p,q) = 1; }\n"
                                  "space S { points: r; }"}, 2),
    "monoid M twice": (["normalize", "--theory", "writer{M}", "--monoid", "{d}/M.monoid",
                        "--inline", "x"], {"M.monoid": 2 * (_MONOID % "1")}, 2),
    "monoid unit outside": (["normalize", "--theory", "writer{M}", "--monoid", "{d}/M.monoid",
                             "--inline", "x"],
                            {"M.monoid": (_MONOID % "1").replace("unit = z", "unit = y")}, 1),
    "algebra A twice": (["check-model", "--theory", "bary", "--space", "{d}/S.space",
                         "--weights", "1/2", "{d}/A.alg"],
                        {"A.alg": 2 * (_ALGEBRA % "conv(1/2): (p, p) -> p")}, 2),
    "coalgebra P twice": (["bisim", "{d}/C.coalg"], {"C.coalg": (
        "mp P { c = 1/2; state u: 1 -> u; }\nlmp P { c = 1/2; actions: a; state u on a: 1 -> u; }")},
        2),
    "missing coalgebra file": (["bisim", "{d}/none.coalg"], {}, 1),
    "missing term file": (["dist", "--theory", "bary", "{d}/none.term", "{d}/none.term"], {}, 1),
    "missing space file": (["dist", "--theory", "bary", "--space", "{d}/none.space",
                            "--inline", "x", "x"], {}, 1),
    "missing monoid file": (["normalize", "--theory", "writer{M}", "--monoid", "{d}/none.monoid",
                             "--inline", "x"], {}, 1),
    "missing algebra file": (["check-model", "--theory", "bary", "{d}/none.alg"], {}, 1),
    "coalgebra file a directory": (["bisim", "{d}"], {}, 1),
    "coalgebra file not UTF-8": (["bisim", "{d}/C.coalg"],
                                 {"C.coalg": b"mp P { c = 1/2; state u: 1 -> \xff; }"}, 2),
    "term file not UTF-8": (["dist", "--theory", "bary", "{d}/T.term", "x"],
                            {"T.term": b"conv(1/2, x, \xe9)"}, 2),
    # a verb has only the options its handler reads: any other is unknown
    **{f"normalize {opt}": (["normalize", "--theory", "bary", opt, value, "--inline", "x"], {}, 2)
       for opt, value in [("--mode", "bounded"), ("--decimal", "2")]},
    **{f"unfold {opt}": (["unfold", "--theory", MP_THEORY, opt, value, "--inline",
                          "next(raise(*))"], {}, 2)
       for opt, value in [("--mode", "bounded"), ("--format", "record"), ("--decimal", "2")]},
    **{f"check-model {opt}": (["check-model", "--theory", "bary", "--space", "{d}/S.space",
                               "--weights", "1/2", opt, value, "{d}/A.alg"],
                              {"A.alg": _ALGEBRA % "conv(1/2): (p, p) -> p"}, 2)
       for opt, value in [("--mode", "bounded"), ("--decimal", "2")]},
}


@pytest.mark.parametrize("case", sorted(_HOSTILE))
def test_hostile_input_exits_cleanly(case, tmp_path):
    argv, files, code = _HOSTILE[case]
    files = {"S.space": "space S { points: p, q; d(p,q) = 1; }\n", **files}
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    argv = [a.replace("{d}", str(tmp_path)) for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the option value
        got = exc.code
    assert got == code


def test_normalize_prints_weights_longer_than_the_int_text_limit(capsys):
    # 1/10^2999 twice: the inner weights have 5999-digit denominators,
    # written out here without converting an int to text
    limit = sys.get_int_max_str_digits()
    w = "1/1" + "0" * 2999
    code = main(["normalize", "--theory", "bary", "--inline", f"conv({w}, x, conv({w}, y, z))"])
    assert code == 0
    den = "1" + "0" * 5998
    assert capsys.readouterr().out == (
        f"Dist{{x: {w}, y: {'9' * 2999}/{den}, "
        f"z: {'9' * 2998}8{'0' * 2998}1/{den}}}\n")
    assert sys.get_int_max_str_digits() == limit


def test_ill_formed_term_rejected(capsys):
    code = main(["dist", "--theory", "bary", "--inline",
                 "union(x, y)", "x"])
    assert code == 1
    assert "operation union is not in the theory" in capsys.readouterr().err


def test_unfold_round_trip_agrees_with_term_dist(tmp_path, capsys):
    from fractions import Fraction

    from quantalg import BOUNDED, parse_coalgebras, solve_bisim, term_dist
    from quantalg.bisim import disjoint_union
    from quantalg.terms import parse_term
    from quantalg.theories import markov_process_theory

    th = markov_process_theory(Fraction(1, 2))
    t = parse_term("next(conv(1/2, raise(*), next(raise(*))))", th)
    s = parse_term("next(raise(*))", th)
    texts = []
    for term_text in ("next(conv(1/2, raise(*), next(raise(*))))",
                      "next(raise(*))"):
        assert main(["unfold", "--theory", MP_THEORY, "--inline", term_text]) == 0
        out = capsys.readouterr().out
        root = out.splitlines()[0].split("=")[1].strip()
        texts.append(("".join(l + "\n" for l in out.splitlines()[1:]), root))
    A = parse_coalgebras(texts[0][0].replace("unfolded", "A"))["A"]
    B = parse_coalgebras(texts[1][0].replace("unfolded", "B"))["B"]
    U = disjoint_union(A, B)
    d, cert = solve_bisim(U, BOUNDED)
    assert cert.exact
    assert d.d(f"a.{texts[0][1]}", f"b.{texts[1][1]}") == \
        term_dist(t, s, th, None, BOUNDED)


def test_decimal_rendering_flag(files, capsys):
    code = main(["dist", "--theory", "bary", "--space", str(files / "S.space"),
                 "--inline", "--decimal", "3", "conv(1/2, x, y)", "y"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/2 (0.500)"


def test_monoid_domain_error_names_the_monoid(tmp_path, capsys):
    (tmp_path / "M.monoid").write_text((_MONOID % "1").replace("unit = z", "unit = y"))
    assert main(["normalize", "--theory", "writer{M}", "--monoid", str(tmp_path / "M.monoid"),
                 "--inline", "x"]) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'M.monoid'}: monoid M: monoid unit outside the carrier\n"


@pytest.mark.parametrize("distance, digits, shown", [
    ("5/2", "0", "2"),
    ("1/8", "2", "0.12"),  # an exact tie goes to the even digit
    ("2/3", "30", "0." + 29 * "6" + "7"),
    (str(10 ** 400), "3", f"{10 ** 400}.000"),
], ids=["5/2", "1/8", "2/3", "10^400"])
def test_decimal_rendering_is_exact(distance, digits, shown, tmp_path, capsys):
    (tmp_path / "S.space").write_text(f"space S {{ points: p, q; d(p,q) = {distance}; }}\n")
    assert main(["dist", "--theory", "bary", "--space", str(tmp_path / "S.space"),
                 "--decimal", digits, "--inline", "p", "q"]) == 0
    assert capsys.readouterr().out == f"{distance} ({shown})\n"


def test_console_script_installed():
    # The installed script if it is on PATH; otherwise the `module:function`
    # target that pyproject.toml declares for it, run the way the script
    # would run it.
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    args = ["normalize", "--theory", "writer{q}", "--inline", "wr(2, wr(3, x))"]
    env = None
    exe = shutil.which("quantalg")
    if exe is not None:
        argv = [exe]
    else:
        tomllib = pytest.importorskip("tomllib")
        project = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(project.read_text())["project"]["scripts"]["quantalg"]
        module, function = target.split(":")
        argv = [sys.executable, "-c",
                f"import sys; from {module} import {function}; sys.exit({function}())"]
        env = _source_env()
    out = subprocess.run(argv + args, capture_output=True, text=True, env=env, timeout=20)
    assert out.returncode == 0
    assert out.stdout.strip() == "Pair(5, x)"


def test_unfold_is_deterministic(capsys):
    term = "next(conv(1/3, raise(*), next(conv(1/2, raise(*), next(raise(*))))))"
    outs = []
    for _ in range(2):
        assert main(["unfold", "--theory", MP_THEORY, "--inline", term]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_mdp_unfold_and_bisim_end_to_end(tmp_path, capsys):
    theory = "sum(tensor(tensor(bary, writer{q}), reader{a}), contr{next, 1/2})"
    (tmp_path / "S.space").write_text("space S { points: x, y; d(x,y) = 1; }\n")
    term = "rd(conv(1/2, wr(3, next(rd(wr(0, x)))), wr(0, y)))"
    code = main(["unfold", "--theory", theory, "--space", str(tmp_path / "S.space"),
                 "--inline", term])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("mdp ")
    coalg = tmp_path / "m.coalg"
    coalg.write_text("".join(l + "\n" for l in out.splitlines()[1:]))
    code = main(["bisim", "--tol", "1/1000", "--space", str(tmp_path / "S.space"),
                 str(coalg)])
    assert code == 0
    assert "certificate" in capsys.readouterr().out


def _source_env():
    """The environment with quantalg's source root first on PYTHONPATH, for
    a fresh interpreter."""
    import os
    from pathlib import Path

    import quantalg

    env = dict(os.environ)
    src = str(Path(quantalg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _bisim_subprocess(*args):
    """`quantalg bisim --tol 1/1000 ARGS` in a fresh interpreter, 20 s at most."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "quantalg.cli", "bisim", "--tol", "1/1000", *map(str, args)],
        capture_output=True, text=True, env=_source_env(), timeout=20)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _absorbing_output_mealy(tmp_path, c):
    """A Mealy system whose output `a` is absorbing and infinitely far from
    `e` and `b`, so ||Psi(0)|| is infinite in bounded mode: p and q loop on
    e and a, r and s swap outputs e and b.  Returns its monoid file and its
    system file."""
    (tmp_path / "M.monoid").write_text(
        "monoid M { elements: e, a, b; unit = e;\n"
        "  mult(e,e) = e; mult(e,a) = a; mult(e,b) = b;\n"
        "  mult(a,e) = a; mult(a,a) = a; mult(a,b) = a;\n"
        "  mult(b,e) = b; mult(b,a) = a; mult(b,b) = b; d(e,b) = 1; }\n")
    (tmp_path / "h.coalg").write_text(
        f"mealy H {{ c = {c}; inputs: i; monoid: M;\n"
        "  state p on i -> (p, e); state q on i -> (q, a);\n"
        "  state r on i -> (s, e); state s on i -> (r, b); }\n")
    return tmp_path / "M.monoid", tmp_path / "h.coalg"


def test_bisim_with_infinite_output_distance_terminates(tmp_path):
    monoid, system = _absorbing_output_mealy(tmp_path, "1/2")
    out = _bisim_subprocess("--monoid", monoid, system)
    assert "d(p,q) = inf\n" in out
    assert "d(r,s) = 2\n" in out
    assert "exact=yes" in out


def test_bisim_infinite_output_distance_near_one_is_exact(tmp_path):
    # c = 999/1000: the infinite pairs are fixed after a few Kleene steps,
    # and policy iteration solves the rest exactly: d(r,s) = 1/(1 - c) and
    # d(p,r) = c/(1 - c^2).  Kleene iteration alone would print a rational
    # of over 4300 digits.
    monoid, system = _absorbing_output_mealy(tmp_path, "999/1000")
    out = _bisim_subprocess("--monoid", monoid, system)
    assert "d(p,q) = inf\n" in out
    assert "d(r,s) = 1000\n" in out
    assert "d(p,r) = 999000/1999\n" in out
    assert "exact=yes" in out


def test_bisim_discount_near_one_is_exact(tmp_path):
    # c = 999/1000: Kleene iteration would need thousands of steps and print
    # a rational of over 4300 digits; the fixed point 1/(4 - c) is exact.
    (tmp_path / "p.coalg").write_text(
        "mp P { c = 999/1000; state u: 1/2 -> u, 1/2 -> bot;"
        " state v: 1/4 -> v, 3/4 -> bot; }\n")
    out = _bisim_subprocess(tmp_path / "p.coalg")
    assert "d(u,v) = 1000/3001\n" in out
    assert "exact=yes" in out


def test_parser_is_built_once_and_reused_across_calls(files, capsys):
    from quantalg import cli

    space = ["--space", str(files / "S.space")]
    calls = [
        ["dist", "--theory", "bary", *space, "--inline", "conv(1/2, x, y)", "y"],
        ["dist", "--theory", "bary", "--mode", "sideways", "--inline", "x", "y"],
        ["normalize", "--theory", "writer{q}", "--inline", "wr(2, wr(3, x))"],
        ["dist", "--theory", "bary", *space, "--decimal", "2", "--inline", "x", "y"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [run(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert shared[0][1] == "1/2\n" and shared[3][1] == "1 (1.00)\n"


class _ReadRecorder(argparse.Namespace):
    """Parsed options that record each public name a reader looks up."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return object.__getattribute__(self, name)


def test_each_verb_reads_every_option_it_defines(files, monkeypatch, capsys):
    from quantalg import cli

    parser = cli._build_parser()
    verbs = next(a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    seen = {}

    def parse_args(argv):
        seen[argv[0]] = args = _ReadRecorder(**vars(parser.parse_args(argv)))
        return args

    monkeypatch.setattr(cli, "_build_parser", lambda: SimpleNamespace(parse_args=parse_args))
    (files / "A.alg").write_text(
        "algebra A { carrier: S;\n"
        "  op union: (x, x) -> x; (x, y) -> y; (y, x) -> y; (y, y) -> y;\n"
        "  op empty: -> x; }\n")
    calls = [
        ["dist", "--theory", "bary", "--space", str(files / "S.space"),
         str(files / "t.term"), str(files / "s.term")],
        ["normalize", "--theory", "writer{q}", "--inline", "wr(2, x)"],
        ["bisim", str(files / "mealy.coalg")],
        ["unfold", "--theory", MP_THEORY, "--inline", "next(raise(*))"],
        ["check-model", "--theory", "semi", "--space", str(files / "S.space"),
         "--epsilons", "1", str(files / "A.alg")],
    ]
    for argv in calls:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert sorted(seen) == sorted(verbs)
    for verb, sp in verbs.items():
        defined = {a.dest for a in sp._actions if a.dest != "help"}
        # --tol is read by no handler (every answer is exact), and it stays:
        # every `bisim` request of perfbench/workloads.py passes it (ROADMAP item 8)
        assert defined - {"tol"} <= seen[verb]._reads, verb


TWO_CONTRACTIONS = "sum(sum(sum(bary, exc{1}), contr{a, 1/2}), contr{b, 1/3})"


@pytest.mark.parametrize("mode", ["extended", "bounded"])
def test_two_contractions_are_written_by_name(mode, capsys):
    from quantalg import parse_theory, term_dist
    from quantalg.terms import app, conv, next_op, raise_

    th = parse_theory(TWO_CONTRACTIONS)
    star = app(raise_("*"))
    a, b = next_op("a", "1/2"), next_op("b", "1/3")
    cases = [("a(raise(*))", "raise(*)", app(a, star), star),
             ("b(a(raise(*)))", "a(b(raise(*)))", app(b, app(a, star)), app(a, app(b, star))),
             ("conv(1/2, a(raise(*)), b(raise(*)))", "b(raise(*))",
              app(conv("1/2"), app(a, star), app(b, star)), app(b, star))]
    for left, right, t, s in cases:
        assert main(["dist", "--theory", TWO_CONTRACTIONS, "--mode", mode,
                     "--inline", left, right]) == 0
        assert capsys.readouterr().out == f"{term_dist(t, s, th, None, mode)}\n"


def test_next_is_ambiguous_under_two_contractions(capsys):
    code = main(["dist", "--theory", TWO_CONTRACTIONS, "--inline", "next(raise(*))",
                 "raise(*)"])
    assert code == 1
    assert "next is ambiguous among the contractive operators a, b" in capsys.readouterr().err
    # one contraction: `next` and its name are the same operation
    one = "sum(sum(bary, exc{1}), contr{step, 1/2})"
    assert main(["dist", "--theory", one, "--inline", "next(raise(*))",
                 "step(raise(*))"]) == 0
    assert capsys.readouterr().out == "0\n"


def _huge_space_files(tmp_path):
    """Five points at distance 1 + 1/q apart for ten distinct primes q of
    151 digits, and a sixth point infinitely far from them; the tables are
    drawn at random over the six points."""
    import random

    from sympy import nextprime

    rng = random.Random(5)
    pts = ["a", "b", "c", "d", "e", "f"]
    q = 10 ** 150
    lines = []
    for i, p in enumerate(pts[:5]):
        for r in pts[i + 1:5]:
            q = nextprime(q)
            lines.append(f"d({p},{r}) = {q + 1}/{q};")
    (tmp_path / "H.space").write_text(
        "space H { points: " + ", ".join(pts) + ";\n  " + "\n  ".join(lines) + "\n}\n")
    entries = []
    for spec, arity in (("union", 2), ("empty", 0), ("next(f, 1/2)", 1)):
        entries.append(f"  op {spec}:")
        for args in itertools.product(pts, repeat=arity):
            lhs = "(" + ", ".join(args) + ") " if args else ""
            entries.append(f"    {lhs}-> {rng.choice(pts)};")
    (tmp_path / "A.alg").write_text(
        "algebra A {\n  carrier: H;\n" + "\n".join(entries) + "\n}\n")


def test_check_model_on_huge_coprime_denominators_matches_the_oracles(tmp_path, capsys):
    from quantalg import ParamPool, format_report, parse_algebras, parse_spaces, parse_theory
    from oracles import check_theory_reference

    _huge_space_files(tmp_path)
    theory = "sum(semi, contr{f, 1/2})"
    code = main(["check-model", "--verbose", "--theory", theory, "--space",
                 str(tmp_path / "H.space"), "--epsilons", "0,1,2", str(tmp_path / "A.alg")])
    out = capsys.readouterr().out
    spaces = parse_spaces((tmp_path / "H.space").read_text())
    assert spaces["H"].scaled.scale > 10 ** 1500
    alg = parse_algebras((tmp_path / "A.alg").read_text(), spaces)["A"]
    report = check_theory_reference(alg, parse_theory(theory), ParamPool.make(epsilons=[0, 1, 2]))
    assert out == "algebra A:\n" + format_report(report, verbose=True)
    assert code == (0 if report.passed else 1)
    assert "FAIL" in out and "inf" in out


@pytest.mark.parametrize("distances, message", [
    ("d(p,q) = 0;", "zero distance between distinct points p, q"),
    ("d(p,q) = 1; d(q,r) = 1; d(p,r) = 3;", "triangle inequality fails at (p, q, r)"),
    # d(p,r) = inf: the sum of the two largest finite distances stays below it
    ("d(p,q) = 2; d(q,r) = 2;", "triangle inequality fails at (p, q, r)"),
    ("d(p,q) = 1; d(q,p) = 2;", "asymmetric distance at (p, q)"),
])
def test_malformed_metric_exits_1_with_its_message(distances, message, tmp_path, capsys):
    (tmp_path / "S.space").write_text(f"space S {{ points: p, q, r; {distances} }}\n")
    assert main(["dist", "--theory", "bary", "--space", str(tmp_path / "S.space"),
                 "--inline", "p", "q"]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'S.space'}: space S: {message}\n"


SET_THEORY = "sum(sum(semi, exc{1}), contr{next, 1/2})"


def test_normalize_prints_set_and_function_values(capsys):
    term = "union(next(raise(*)), empty)"
    assert main(["normalize", "--theory", SET_THEORY, "--inline", term]) == 0
    assert capsys.readouterr().out == "Set{Guard(Set{*})}\n"
    assert main(["normalize", "--theory", SET_THEORY, "--format", "record", "--inline", term]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": "Set{Guard(Set{*})}",
                                                   "verb": "normalize"}
    assert main(["normalize", "--theory", "sum(tensor(bary, reader{i, j}), contr{next, 1/2})",
                 "--inline", "rd(x, y)"]) == 0
    assert capsys.readouterr().out == "Func{i -> Dist{x: 1}, j -> Dist{y: 1}}\n"


def test_check_model_record_lists_the_failures(tmp_path, capsys):
    # A is the semilattice {p < q}; B's union projects to its first argument,
    # which breaks commutativity (S2)
    (tmp_path / "S.space").write_text("space S { points: p, q; d(p,q) = 1; }\n")
    for name, pq in (("A", "q"), ("B", "p")):
        (tmp_path / f"{name}.alg").write_text(
            f"algebra {name} {{\n  carrier: S;\n"
            f"  op union: (p, p) -> p; (p, q) -> {pq}; (q, p) -> q; (q, q) -> q;\n"
            "  op empty: -> p;\n}\n")
    argv = ["check-model", "--theory", "semi", "--space", str(tmp_path / "S.space"),
            "--epsilons", "1", "--format", "record"]
    assert main(argv + [str(tmp_path / "A.alg")]) == 0
    assert json.loads(capsys.readouterr().out) == {"algebra": "A", "failures": [],
                                                   "passed": True}
    assert main(argv + [str(tmp_path / "B.alg")]) == 1
    assert json.loads(capsys.readouterr().out) == {"algebra": "B", "failures": ["S2"],
                                                   "passed": False}


@pytest.mark.parametrize("theory, term, shape", [
    ("sum(semi, contr{next, 1/2})", "union(next(x), y)", "set"),
    ("sum(sum(bary, exc{a,b}), contr{next, 1/2})", "conv(1/2, raise(a), next(raise(b)))",
     "dist"),
    ("sum(tensor(tensor(bary, writer{M}), reader{a}), contr{next, 1/2})", "rd(wr(a, next(x)))",
     "func/dist/pair"),
    ("sum(sum(tensor(reader{i}, writer{q}), exc{1}), contr{next, 1/2})", "rd(next(raise(*)))",
     "func/pair"),
    ("sum(writer{q}, contr{next, 1/2})", "wr(1, next(x))", "pair"),
], ids=["set", "exc{a,b} over dist", "writer{M} in an mdp", "exc{1} in a mealy",
        "writer alone"])
def test_unfold_rejects_a_shape_with_no_coalgebra_kind(theory, term, shape, tmp_path, capsys):
    (tmp_path / "M.monoid").write_text(_MONOID % "1")
    code = main(["unfold", "--theory", theory, "--monoid", str(tmp_path / "M.monoid"),
                 "--inline", term])
    assert code == 1
    assert capsys.readouterr().err == f"error: no coalgebra kind for layer shape {shape}\n"


def test_dist_with_a_variable_outside_the_space_exits_1(files, capsys):
    code = main(["dist", "--theory", "bary", "--space", str(files / "S.space"),
                 "--inline", "z", "x"])
    assert code == 1
    assert capsys.readouterr().err == "error: point pair (z, x) outside the space\n"


@pytest.mark.parametrize("argv, out", [
    (["dist", "--theory", MP_THEORY, "--mode", "bounded", "--space", "{d}/S.space", "--inline",
      "conv(1/3, next(conv(1/2, x, raise(*))), next(y))",
      "conv(1/4, next(x), conv(1/2, y, next(next(x))))"], "5/8"),
    (["bisim", "{d}/mealy.coalg"], None)])
def test_a_request_keeps_no_value_past_its_call(argv, out, files, monkeypatch, capsys):
    # the intern table holds its values weakly: once a request returns, no
    # value it built is left, and the same request again interns as many
    import weakref

    from quantalg import semantics

    made = []  # a weak reference to each value interned

    class Recording(semantics._Ref):
        __slots__ = ()

        def __new__(cls, value, callback):
            made.append(weakref.ref(value))
            return super().__new__(cls, value, callback)

    monkeypatch.setattr(semantics, "_Ref", Recording)
    argv = [a.replace("{d}", str(files)) for a in argv]
    counts, table, outputs = [], len(semantics._interned), []
    for _ in range(2):
        made.clear()
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert made and all(value() is None for value in made)
        assert len(semantics._interned) == table
        counts.append(len(made))
    assert counts[0] == counts[1] and outputs[0] == outputs[1]
    assert out is None or outputs[0].strip() == out


def test_the_intern_table_shrinks_once_its_last_value_dies(files, monkeypatch):
    # a dict keeps the size it reached; the table is replaced by a fresh one
    # when its last value dies, so a dist and a bisim request leave it small
    from quantalg import semantics

    grown = []  # the table's size as each value is interned

    class Recording(semantics._Ref):
        __slots__ = ()

        def __init__(self, value, callback):
            grown.append(len(semantics._interned))

    monkeypatch.setattr(semantics, "_interned", {})  # values of other tests stay out of it
    monkeypatch.setattr(semantics, "_Ref", Recording)
    assert main(["dist", "--theory", MP_THEORY, "--mode", "bounded", "--space",
                 str(files / "S.space"), "--inline", "conv(1/3, next(conv(1/2, x, raise(*))), "
                 "next(y))", "conv(1/4, next(x), conv(1/2, y, next(next(x))))"]) == 0
    assert main(["bisim", str(files / "mealy.coalg")]) == 0
    assert max(grown) > 5 and semantics._interned == {}
    assert sys.getsizeof(semantics._interned) == sys.getsizeof({})


def test_a_deep_narrow_pair_answers_with_its_closed_form(capsys):
    # next^n(raise(*)) and next^(n+2)(raise(*)) are c^n apart in bounded mode;
    # walking a distribution's pairs adds no frame per level, so n = 180, the
    # depth of the benchmark's deepest pairs, answers
    n = 180
    t, s = ("next(" * k + "raise(*)" + ")" * k for k in (n, n + 2))
    assert main(["dist", "--theory", MP_THEORY, "--mode", "bounded", "--inline", t, s]) == 0
    assert capsys.readouterr().out.strip() == f"1/{2 ** n}"


# a system the reader or the Coalgebra constructor rejects: (text, exit code,
# stderr after the file's path); a domain error names its system
@pytest.mark.parametrize("text, code, err", [
    ("mealy M { c = 1/2; inputs: i; monoid: N; state p on i -> (p, 1); }",
     2, ":1: unknown monoid 'N'"),
    ("mealy M { c = 1/2; inputs: i; state p on i -> (bot, 1); }",
     1, ": system M: transitions of this kind cannot use bot"),
    ("mp P { c = 1/2; state u: 1 -> leaf(r); }",
     1, ": system P: leaf point 'r' outside the space"),
    ("lmp L { c = 1/2; actions: a, b; state u on a: 1 -> u; }",
     1, ": system L: missing transition row for ('u', 'b')"),
    ("mp P { c = 1/2; state u: 1/2 -> u, 1/2 -> zz; }",
     1, ": system P: transition to unknown state 'zz'"),
    ("mdp D { c = 1/2; actions: a; state u on a: 1 -> (zz, 1); }",
     1, ": system D: transition to unknown state 'zz'"),
])
def test_a_rejected_system_exits_with_its_message(text, code, err, files, capsys):
    coalg = files / "C.coalg"
    coalg.write_text(text)
    assert main(["bisim", "--space", str(files / "S.space"), str(coalg)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{'parse error' if code == 2 else 'error'}: {coalg}{err}\n"


@pytest.mark.parametrize("argv", [
    ["dist", "--theory", MP_THEORY, "--inline",
     "next(" * 300 + "raise(*)" + ")" * 300, "next(" * 302 + "raise(*)" + ")" * 302],
    ["normalize", "--theory", MP_THEORY, "--inline", "next(" * 1000 + "raise(*)" + ")" * 1000],
    ["normalize", "--theory", "sum(" * 1000 + "bary, exc{1})" + ", bary)" * 999,
     "--inline", "x"],
], ids=["dist next^300", "normalize next^1000", "theory sum^1000"])
def test_input_nested_past_the_recursion_limit_exits_1_with_one_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: input nested too deeply\n"


def test_a_term_nested_220_deep_is_answered(capsys):
    # a depth some way under the recursion limit is answered: a reader that
    # spent more than one frame per nesting level would reject it
    n = 220
    assert main(["dist", "--theory", MP_THEORY, "--mode", "bounded", "--inline",
                 "next(" * n + "raise(*)" + ")" * n,
                 "next(" * (n + 2) + "raise(*)" + ")" * (n + 2)]) == 0
    assert capsys.readouterr() == (f"1/{2 ** n}\n", "")
