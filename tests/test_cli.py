import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dualforget import cli, fo
from dualforget.cli import main
from dualforget.outcome import Status
from dualforget.parser import parse_formula, parse_theory
from dualforget.syntax import contains_so_quantifier_and_fixpoint

ROOT = Path(__file__).parent.parent


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_forget_weak_maintain(capsys, theories_dir):
    code, out, err = run(capsys, "forget", "--mode", "weak", "--vars", "lt",
                         str(theories_dir / "maintain.th"))
    assert code == 0
    assert out.strip() == "lp"


def test_forget_strong_pressure(capsys, theories_dir):
    code, out, _ = run(capsys, "forget", "--mode", "strong", "--vars", "mt,ht",
                       str(theories_dir / "pressure_rules.th"))
    assert code == 0
    assert out.strip() == "T"


def test_forget_fixpoint_emit(capsys, theories_dir):
    code, out, _ = run(capsys, "forget", "--mode", "strong", "--vars", "r",
                       "--emit", "fixpoint", str(theories_dir / "network.th"))
    assert code == 0
    assert "lfp r(" in out


def test_emit_fo_on_fixpoint_outcome_fails(capsys, theories_dir):
    code, out, err = run(capsys, "forget", "--mode", "strong", "--vars", "r",
                         "--emit", "fo", str(theories_dir / "network.th"))
    assert code == 2
    assert out == ""
    assert "no fo equivalent" in err


def test_wsc_denial(capsys, theories_dir):
    code, out, _ = run(capsys, "wsc", "--query", "(fdd -> (~ld | pa)) -> pa",
                       "--keep", "ld,fdd")
    assert code == 0
    assert out.strip() == "fdd & ld"


def test_wsc_trivial(capsys):
    code, out, _ = run(capsys, "wsc", "--query", "T")
    assert code == 0
    assert out.strip() == "T"


def test_snc_matches_forget(capsys, theories_dir):
    code, out, _ = run(capsys, "snc", "--theory", str(theories_dir / "pressure_rules.th"),
                       "--query", "T", "--keep", "lp,mp")
    assert code == 0
    code2, out2, _ = run(capsys, "forget", "--mode", "strong", "--vars", "mt,ht",
                         str(theories_dir / "pressure_rules.th"))
    assert out.strip() == out2.strip()


def test_check_equiv(capsys, theories_dir):
    assert run(capsys, "check-equiv", "p | ~p", "T")[0] == 0
    code, out, _ = run(capsys, "check-equiv", "p", "q")
    assert code == 4
    assert "counterexample" in out


def test_check_equiv_rejects_a_name_used_as_both_kinds(capsys):
    # ill-formed input, like a parse error: not an internal invariant breach
    code, out, err = run(capsys, "check-equiv", "p", "p(a)")
    assert code == 1
    assert out == ""
    assert err == "error: symbol p used with arities 0 and 1\n"


def test_check_equiv_past_an_oracle_guard_exits_5(capsys):
    code, out, err = run(capsys, "check-equiv", "all x. a(x)", "T", "--domain-size", "4")
    assert code == 5
    assert out == ""
    assert err == "error: domain size 4 exceeds the guard of 3\n"
    many = " & ".join(f"v{i}" for i in range(23))
    code, _, err = run(capsys, "check-equiv", many, "T")
    assert code == 5
    assert err.startswith("error: ") and "guard" in err


def test_check_equiv_fo(capsys):
    code, _, _ = run(capsys, "check-equiv", "all x. (a(x) -> a(x))", "T", "--domain-size", "2")
    assert code == 0


@pytest.mark.parametrize(
    "formula,column",
    [("lfp r(x). ~r(x) @(a)", 1), ("p & gfp r(x). (r(x) <-> q(x)) @(a)", 5)],
)
def test_fixpoint_body_not_positive_is_a_parse_error(capsys, tmp_path, formula, column):
    # bad input, exit 1: not the node constructor's internal invariant breach
    message = "fixpoint body must be positive in 'r'\n"
    code, out, err = run(capsys, "check-equiv", formula, "T")
    assert (code, out, err) == (1, "", f"parse error: 1:{column}: {message}")
    path = tmp_path / "fixpoint.th"
    path.write_text(f"p\n{formula}\n", encoding="utf-8")
    code, out, err = run(capsys, "forget", "--mode", "strong", "--vars", "p", str(path))
    assert (code, out, err) == (1, "", f"parse error: 2:{column}: {message}")


def test_weak_forgetting_failure_prints_the_residual(capsys, tmp_path):
    path = tmp_path / "mixed.th"
    path.write_text("(ex y. a(y)) -> all y. a(y)\n", encoding="utf-8")
    code, out, err = run(capsys, "forget", "--mode", "weak", "--vars", "a", str(path))
    assert (code, out) == (2, "(all y. ~a(y)) | all y. a(y)\n")
    assert err == (
        "elimination failed: conjunct 1 ((all y. ~a(y)) | all y. a(y)): "
        "mixed-polarity occurrences of a not separable\n"
    )


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("p &&& q\n")
    code, _, err = run(capsys, "forget", "--mode", "strong", "--vars", "p", str(bad))
    assert code == 1
    assert "parse error" in err


def test_a_free_variable_used_as_a_symbol_exits_1(capsys, tmp_path):
    # the closure would turn p & q(p) into all p. (p & q(p)), which does not
    # parse back
    path = tmp_path / "free.th"
    path.write_text("#closure auto\np & q(p)\n", encoding="utf-8")
    code, out, err = run(capsys, "forget", "--mode", "strong", "--vars", "q", str(path))
    assert (code, out, err) == (1, "", "parse error: 2:7: 'p' is not a term\n")


@pytest.mark.parametrize(
    "argv,path",
    [
        (["forget", "--mode", "strong", "--vars", "p", "{missing}"], "{missing}"),
        (["snc", "--theory", "{missing}", "--query", "p", "--keep", "q"], "{missing}"),
        (["forget", "--mode", "weak", "--vars", "lt", "-o", "{missing}/out", "{theory}"],
         "{missing}/out"),
        (["check-equiv", "@{dir}", "p"], "{dir}"),
        (["forget", "--mode", "strong", "--vars", "p", "{latin1}"], "{latin1}"),
    ],
    ids=["forget-missing", "snc-missing", "output-dir-missing", "check-equiv-dir", "not-utf8"],
)
def test_unusable_file_exits_1(capsys, theories_dir, tmp_path, argv, path):
    latin1 = tmp_path / "latin1.th"
    latin1.write_bytes("p & caf\xe9\n".encode("latin-1"))
    names = {"missing": tmp_path / "missing", "dir": tmp_path, "latin1": latin1,
             "theory": theories_dir / "maintain.th"}
    code, out, err = run(capsys, *(a.format(**names) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path.format(**names)}: ")
    assert "Traceback" not in err


def test_theory_file_may_start_with_a_byte_order_mark(capsys, theories_dir, tmp_path):
    path = tmp_path / "bom.th"
    path.write_bytes(b"\xef\xbb\xbf" + (theories_dir / "maintain.th").read_bytes())
    code, out, _ = run(capsys, "forget", "--mode", "weak", "--vars", "lt", str(path))
    assert (code, out) == (0, "lp\n")
    path.write_bytes(b"\xef\xbb\xbfp | q\n")
    code, out, _ = run(capsys, "forget", "--mode", "strong", "--vars", "p", str(path))
    assert (code, out) == (0, "T\n")
    code, _, _ = run(capsys, "check-equiv", "@" + str(path), "q | p")
    assert code == 0
    # the offset of a bad byte counts the mark's three bytes
    path.write_bytes(b"\xef\xbb\xbfab\xff")
    code, out, err = run(capsys, "forget", "--mode", "strong", "--vars", "p", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not valid UTF-8 (invalid start byte at byte 5)\n"


def test_verify_flag(capsys, theories_dir):
    code, out, err = run(capsys, "forget", "--mode", "weak", "--vars", "lt",
                         "--verify", str(theories_dir / "maintain.th"))
    assert code == 0
    assert "verify: PASS" in err


def test_verify_fo(capsys, theories_dir):
    code, out, err = run(capsys, "forget", "--mode", "strong", "--vars", "t",
                         "--verify", "--domain-size", "2",
                         str(theories_dir / "symptoms.th"))
    assert code == 0
    assert "verify: PASS" in err


@pytest.mark.parametrize(
    "theory,argv,oracle",
    [
        ("pressure_rules.th", ["snc", "--query", "lp", "--keep", "mt,lp"], "equiv_prop"),
        ("pressure_rules.th", ["wsc", "--query", "lp", "--keep", "mt,ht"], "equiv_prop"),
        ("symptoms.th", ["snc", "--query", "ms(a)", "--keep", "h,t,ich"], "counterexample"),
        ("symptoms.th", ["wsc", "--query", "ich(a)", "--keep", "ms,ss"], "counterexample"),
    ],
)
def test_verify_picks_the_oracle_from_the_spec(capsys, theories_dir, monkeypatch, theory, argv, oracle):
    # --verify checks a propositional spec with equiv_prop and a first-order
    # one with counterexample; without --verify no oracle runs and the
    # problem is not classified at all
    calls = {"equiv_prop": 0, "counterexample": 0, "is_propositional": 0}

    def counting(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    argv = argv + ["--theory", str(theories_dir / theory)]
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls == {"equiv_prop": 0, "counterexample": 0, "is_propositional": 0}
    code, out, err = run(capsys, *argv, "--verify")
    assert (code, out, err) == (0, plain, "verify: PASS\n")
    other = "counterexample" if oracle == "equiv_prop" else "equiv_prop"
    assert (calls[oracle], calls[other]) == (1, 0)


def test_output_file(capsys, theories_dir, tmp_path):
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "forget", "--mode", "weak", "--vars", "lt",
                       "--output", str(target), str(theories_dir / "maintain.th"))
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "lp"


@pytest.mark.parametrize(
    "theory,mode,vars",
    [
        ("maintain.th", "strong", "lt"),
        ("maintain.th", "weak", "lt"),
        ("pressure_rules.th", "strong", "mt,ht"),
        ("pressure_rules.th", "weak", "mt,ht"),
        ("outdoor_complex.th", "strong", "loan"),
        ("outdoor_complex.th", "weak", "loan"),
        ("consultant.th", "strong", "loan"),
        ("consultant.th", "weak", "loan"),
        ("symptoms.th", "strong", "t"),
        ("symptoms.th", "weak", "t"),
        ("network.th", "strong", "r"),
        ("network.th", "weak", "r"),
    ],
)
def test_verify_gate_on_shipped_theories(capsys, theories_dir, theory, mode, vars):
    # --verify failures are impossible for the shipped worked examples
    code, _, err = run(capsys, "forget", "--mode", mode, "--vars", vars,
                       "--verify", str(theories_dir / theory))
    assert code == 0
    assert "verify: PASS" in err


def test_check_equiv_accepts_theory_files(capsys, theories_dir):
    code, _, _ = run(capsys, "check-equiv", "@" + str(theories_dir / "maintain.th"),
                     "lt | lp")
    assert code == 0


def test_check_equiv_reads_a_file_only_when_marked(capsys, tmp_path, monkeypatch):
    # a file named p that holds q: the operand p is the formula p, and only
    # @p names the file
    (tmp_path / "p").write_text("q\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "check-equiv", "p", "q")
    assert code == 4
    assert out.startswith("counterexample: ")
    code, _, _ = run(capsys, "check-equiv", "@p", "q")
    assert code == 0


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["forget", "--vars", "p", "{theory}"], "--mode"),
        (["forget", "--mode", "strong", "{theory}"], "--vars"),
        (["forget", "--mode", "strong", "--vars", "p", "--bogus", "{theory}"], "--bogus"),
        (["check-equiv", "p"], "right"),
        (["check-equiv", "p", "q", "--domain-size", "0"], "--domain-size"),
        (["check-equiv", "all x. a(x)", "T", "--domain-size", "-1"], "--domain-size"),
        (["check-equiv", "p", "q", "--domain-size", "two"], "--domain-size"),
        (["forget", "--mode", "strong", "--vars", "p", "--verify",
          "--domain-size", "0", "{theory}"], "--domain-size"),
        (["snc", "--query", "p", "--domain-size", "0"], "--domain-size"),
        # an item that cannot name a symbol would be silently never forgotten
        (["forget", "--mode", "strong", "--vars", "lt,ALL", "{theory}"],
         "--vars: not a symbol name: 'ALL'"),
        (["forget", "--mode", "weak", "--vars", "r(x)", "{theory}"],
         "--vars: not a symbol name: 'r(x)'"),
        (["forget", "--mode", "weak", "--vars", "lt, p q", "{theory}"],
         "--vars: not a symbol name: 'p q'"),
        (["wsc", "--theory", "{theory}", "--query", "lp", "--keep", "lp,Lt"],
         "--keep: not a symbol name: 'Lt'"),
        (["snc", "--query", "p", "--keep", "T"], "--keep: not a symbol name: 'T'"),
    ],
    ids=["no-mode", "no-vars", "unknown-option", "one-operand", "domain-0",
         "domain-negative-fo", "domain-not-int", "forget-domain-0", "snc-domain-0",
         "vars-upper", "vars-atom", "vars-space", "keep-upper", "keep-constant"],
)
def test_usage_error_exits_1(capsys, theories_dir, argv, flag):
    # exit code 2 means only that elimination failed
    argv = [a.format(theory=theories_dir / "maintain.th") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert "error: " in captured.err and flag in captured.err
    assert "Traceback" not in captured.err


def test_symbol_lists_skip_empty_items_and_accept_every_name(capsys, theories_dir):
    # all and ex are relation names to the parser, so they name symbols here
    code, out, _ = run(capsys, "forget", "--mode", "weak", "--vars", ",lt,,",
                       str(theories_dir / "maintain.th"))
    assert (code, out.strip()) == (0, "lp")
    code, out, _ = run(capsys, "snc", "--query", "all(a) & ex(a) & q", "--keep", " all , ex ")
    assert (code, out.strip()) == (0, "all(a) & ex(a)")


def test_main_builds_its_parser_once(capsys, theories_dir, monkeypatch):
    # main reuses one parser across calls: a usage error, --help and flags
    # given to one call leave nothing behind for the next
    build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        theory = str(theories_dir / "maintain.th")
        with pytest.raises(SystemExit) as exc:
            main(["forget", "--vars", "lt", theory])
        assert exc.value.code == 1
        assert "required: --mode" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["forget", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dualforget forget ")
        code3, out3, err3 = run(capsys, "forget", "--mode", "strong", "--vars", "lt",
                                "--verify", "--trace", theory)
        assert code3 == 0 and "verify: PASS" in err3 and "[  1]" in err3
        code4, out4, err4 = run(capsys, "forget", "--mode", "strong", "--vars", "lt", theory)
        assert (code4, out4, err4) == (0, out3, "")
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    assert build_parser() is not build_parser()


def test_domain_size_one_is_accepted(capsys):
    code, _, _ = run(capsys, "check-equiv", "all x. (a(x) -> a(x))", "T", "--domain-size", "1")
    assert code == 0


@pytest.mark.parametrize(
    "operand,expected",
    [
        # longer than a file name may be: formula text all the same
        (" | ".join(["p"] * 200), 0),
        # nested deeper than the parser allows
        (" -> ".join(["p"] * 1000), 1),
    ],
)
def test_check_equiv_long_operands(capsys, operand, expected):
    code, _, err = run(capsys, "check-equiv", operand, "p")
    assert code == expected
    assert "Traceback" not in err


def _readme_claims(pattern: str) -> list[tuple[str, ...]]:
    # a code span wrapped across lines reads with a space, as Markdown renders it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [tuple(" ".join(g.split()) if g else g for g in m.groups())
            for m in re.finditer(pattern, text, re.MULTILINE)]


def test_readme_command_claims(capsys, monkeypatch):
    # README's command outputs and exit codes, read from README itself, so an
    # output change that leaves README stale fails here
    monkeypatch.chdir(ROOT)
    usage = _readme_claims(r"^dualforget (.+?)\s+# -> (.+)$")
    prints = _readme_claims(r"`dualforget ([^`]+)`\s+prints\s+`([^`]+)`")
    exits = _readme_claims(r"`dualforget ([^`]+)`\s+exits (\d)(?: with\s+`([^`]+)`)?")
    assert (len(usage), len(prints), len(exits)) == (3, 2, 2)
    for command, output in usage + prints:
        code, out, err = run(capsys, *shlex.split(command))
        assert (code, out, err) == (0, output + "\n", ""), command
    for command, expected, message in exits:
        code, out, err = run(capsys, *shlex.split(command))
        assert code == int(expected), command
        if message:
            assert err == message + "\n", command


@pytest.mark.parametrize(
    "header",
    ["#sig prop p\n#sig rel p/1", "#sig const p\n#sig prop p", "#sig const p\n#sig rel p/1"],
)
def test_name_declared_as_two_kinds_exits_1(capsys, tmp_path, header):
    path = tmp_path / "two_kinds.th"
    path.write_text(f"{header}\np\n", encoding="utf-8")
    code, out, err = run(capsys, "forget", "--mode", "strong", "--vars", "p", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("parse error: 2:1: 'p' declared as both ")


def test_byte_identical_runs(theories_dir):
    cmd = [
        sys.executable, "-m", "dualforget.cli",
        "forget", "--mode", "weak", "--vars", "loan",
        str(theories_dir / "consultant.th"),
    ]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_golden_outputs():
    # every shipped theory, each single symbol and pair, both modes, and the
    # README commands, byte for byte; see tests/golden.py to regenerate
    import golden

    assert golden.render() == golden.GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "old_line,verdict,code",
    [
        ("ld & fdd", "equivalent", 0),
        ("fdd", "NOT equivalent, exit 4 counterexample: domain = {0..0}; fdd = True; ld = False", 1),
    ],
)
def test_golden_check_compares_a_changed_wsc_formula(capsys, monkeypatch, tmp_path, old_line, verdict, code):
    # a golden copy whose README wsc block printed another formula: --check
    # runs check-equiv on it, as on a changed forget block
    import golden

    head = '$ dualforget wsc --query "(fdd -> (~ld | pa)) -> pa" --keep ld,fdd\nexit 0\n'
    text = golden.GOLDEN.read_text(encoding="utf-8")
    assert head + "fdd & ld\n" in text
    altered = tmp_path / "golden_cli.txt"
    altered.write_text(text.replace(head + "fdd & ld\n", head + old_line + "\n"), encoding="utf-8")
    monkeypatch.setattr(golden, "GOLDEN", altered)
    assert golden.check() == code
    out = capsys.readouterr().out
    assert f"  old: exit 0 / {old_line}\n  new: exit 0 / fdd & ld\n  check-equiv: {verdict}\n" in out
    assert out.endswith(f"1 blocks changed, {1 - code} checked equivalent\n")


def test_second_order_quantifier_in_input_fails_with_residual(capsys, tmp_path):
    # the parser accepts Ex2/All2, but no rule eliminates one the input
    # holds: each operator reports FAILED with the result as residual, and
    # the CLI exits 2, not 3 (internal invariant breach)
    path = tmp_path / "so.th"
    path.write_text("Ex2 q. (q | r)\np | s\n", encoding="utf-8")
    _, th = parse_theory(path.read_text(encoding="utf-8"), name="so")
    query = parse_formula("s")
    outcomes = [
        fo.forget_strong(th, ["p"]),
        fo.forget_weak(th, ["p"]),
        fo.snc(th, query, ["s", "r"]),
        fo.wsc(th, query, ["s", "r"]),
    ]
    for out in outcomes:
        assert out.status is Status.FAILED
        assert out.failure_reason.startswith("second-order quantifier left in result")
        assert contains_so_quantifier_and_fixpoint(out.residual)[0]
    for argv in (
        ["forget", "--mode", "strong", "--vars", "p", str(path)],
        ["forget", "--mode", "weak", "--vars", "p", str(path)],
        ["snc", "--theory", str(path), "--query", "s", "--keep", "s,r"],
        ["wsc", "--theory", str(path), "--query", "s", "--keep", "s,r"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, err
        assert "second-order quantifier left in result" in err
        assert contains_so_quantifier_and_fixpoint(parse_formula(out.strip()))[0]

    # a forgotten symbol that the input also rebinds: only its free
    # occurrences are substituted, and the quantifier stays
    rebound = tmp_path / "rebound.th"
    rebound.write_text("p | q\n~p | (Ex2 p. (p & r))\n", encoding="utf-8")
    _, th = parse_theory(rebound.read_text(encoding="utf-8"), name="rebound")
    for out in (fo.forget_strong(th, ["p"]), fo.forget_weak(th, ["p"])):
        assert out.status is Status.FAILED
        assert out.failure_reason.startswith("second-order quantifier left in result")
        assert contains_so_quantifier_and_fixpoint(out.residual)[0]
    for mode in ("strong", "weak"):
        code, out, err = run(capsys, "forget", "--mode", mode, "--vars", "p", str(rebound))
        assert code == 2, err
        assert "second-order quantifier left in result" in err
        assert contains_so_quantifier_and_fixpoint(parse_formula(out.strip()))[0]
