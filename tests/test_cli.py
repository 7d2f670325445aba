import subprocess
import sys
from pathlib import Path

import pytest

from dualforget import fo
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


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("p &&& q\n")
    code, _, err = run(capsys, "forget", "--mode", "strong", "--vars", "p", str(bad))
    assert code == 1
    assert "parse error" in err


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


def test_trace_env_var(capsys, theories_dir, monkeypatch):
    monkeypatch.setenv("DF_TRACE", "1")
    code, out, err = run(capsys, "forget", "--mode", "weak", "--vars", "mt,ht",
                         str(theories_dir / "pressure_rules.th"))
    assert code == 0
    assert "ClauseRule" in err


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
    ],
    ids=["no-mode", "no-vars", "unknown-option", "one-operand", "domain-0",
         "domain-negative-fo", "domain-not-int", "forget-domain-0", "snc-domain-0"],
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


def test_byte_identical_runs(theories_dir):
    cmd = [
        sys.executable, "-m", "dualforget.cli",
        "forget", "--mode", "weak", "--vars", "loan",
        str(theories_dir / "consultant.th"),
    ]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_golden_outputs():
    # every shipped theory, each single symbol and pair, both modes, and the
    # README commands, byte for byte; see tests/golden.py to regenerate
    import golden

    assert golden.render() == golden.GOLDEN.read_text(encoding="utf-8")


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
