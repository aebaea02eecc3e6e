import hashlib
import json
import os
import subprocess
import sys

import pytest

import cli_grammar
from flopcalc import homalg, verify
from flopcalc.cli import main
from test_cli_corpus import CORPUS


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBott:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "bott", "--n", "2", "--weight", "1,0|-1", "--json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "dims": {"0": 8}}

    def test_text(self, capsys):
        code, out, _ = run(capsys, "bott", "--n", "2", "--weight", "1,0|-1")
        assert code == 0
        assert "h^0 = 8" in out

    def test_empty_table(self, capsys):
        code, out, _ = run(capsys, "bott", "--n", "2", "--weight", "0,0|1")
        assert code == 0
        assert "zero in every degree" in out

    def test_length_mismatch_names_the_token(self, capsys):
        code, _, err = run(capsys, "bott", "--n", "3", "--weight", "1,0|-1")
        assert code == 2
        assert "1,0|-1" in err

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "bott", "--n", "2", "--weight", "1,x|-1")
        assert code == 2
        assert "1,x|-1" in err

    @needs_digit_limit
    def test_overlong_entry_is_not_echoed(self, capsys):
        code, out, err = run(capsys, "bott", "--n", "2", "--weight", "1" + "0" * 5000 + ",0|0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err) <= 200
        assert "non-integer" not in err
        assert "too long" in err


# phi's image has j + k = -(10^4300 - 1) - (10^4300 - 2), a number of 4301 digits
FUNCTOR_PAST_THE_LIMIT = [
    "functor", "phi", "--n", "9" * 4300, "--j", "-" + "9" * 4300, "--k", "-" + "9" * 4299 + "8",
]


class TestCohomology:
    def test_acyclic_class(self, capsys):
        code, out, _ = run(
            capsys, "cohomology", "--n", "2", "--j", "-1", "--k", "7", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "j": -1, "k": 7, "dims": {}}

    def test_cross_class_on_the_flopped_side(self, capsys):
        code, out, _ = run(
            capsys, "cohomology", "--n", "2", "--side", "xplus", "--j", "1",
            "--k", "-1", "--json",
        )
        assert code == 0
        assert json.loads(out)["dims"] == {"0": 3}

    def test_degenerate_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "cohomology", "--n", "1", "--j", "0", "--k", "0")
        assert code == 2
        assert "n >= 2" in err

    @needs_digit_limit
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["cohomology", "--n", "3", "--j", "1" + "0" * 1000, "--k", "0"], "--j/--k"),
            (["cohomology", "--n", "3", "--j", "1" + "0" * 1000, "--k", "0", "--json"],
             "--j/--k"),
            (["bott", "--n", "2", "--weight", "1" + "0" * 2500 + ",0|0"], "--weight"),
            (FUNCTOR_PAST_THE_LIMIT, "--j/--k"),
            (FUNCTOR_PAST_THE_LIMIT + ["--json"], "--j/--k"),
        ],
        ids=["cohomology-text", "cohomology-json", "bott-text", "functor-text", "functor-json"],
    )
    def test_dimension_past_the_digit_limit_is_usage_error(self, capsys, argv, flag):
        # the result is computed, but a number in it has over 4300 digits
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err) <= 200
        assert flag in err

    @needs_digit_limit
    def test_overlong_literal_is_not_echoed(self, capsys):
        j = "1" + "0" * 5000
        code, out, err = run(capsys, "cohomology", "--n", "3", "--j", j, "--k", "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err) <= 200
        assert "--j" in err
        assert "too long" in err
        assert "invalid int value" not in err


class TestFunctor:
    def test_phi_ideal_twist(self, capsys):
        code, out, _ = run(
            capsys, "functor", "phi", "--n", "2", "--j", "0", "--k", "1", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"tag": "ideal_twist", "j": 1, "k": -1}

    def test_phi_line(self, capsys):
        code, out, _ = run(
            capsys, "functor", "phi", "--n", "2", "--j", "-1", "--k", "-1", "--json"
        )
        assert json.loads(out) == {"tag": "line", "j": -2, "k": 1}

    def test_phiprime(self, capsys):
        code, out, _ = run(
            capsys, "functor", "phiprime", "--n", "2", "--j", "-2", "--k", "1", "--json"
        )
        assert json.loads(out) == {"tag": "line", "j": -1, "k": -1}

    def test_psi_boundary(self, capsys):
        code, out, _ = run(
            capsys, "functor", "psi", "--n", "3", "--j", "0", "--k", "-3", "--json"
        )
        assert json.loads(out) == {"tag": "line", "j": -3, "k": 3}

    def test_out_of_range_is_exit_2(self, capsys):
        code, _, err = run(capsys, "functor", "phi", "--n", "2", "--j", "5", "--k", "0")
        assert code == 2
        assert "(5, 0)" in err


class TestFlopAndKoszul:
    def test_picard_json(self, capsys):
        code, out, _ = run(capsys, "flop", "picard", "--n", "2", "--json")
        assert code == 0
        assert json.loads(out) == {
            "n": 2, "matrix": [[1, 1], [0, -1]], "involution": True
        }

    def test_koszul_json(self, capsys):
        code, out, _ = run(capsys, "koszul", "--n", "2", "--json")
        payload = json.loads(out)
        assert payload["alternating_rank_sum"] == 1
        assert payload["terms"][0] == {
            "p": 2, "j": -2, "theta_wedge": "1,1|-2", "rank": 1
        }

    def test_koszul_text(self, capsys):
        code, out, _ = run(capsys, "koszul", "--n", "3")
        assert code == 0
        assert "p=3" in out and "rank 3" in out


class TestExt:
    def test_oy_oy(self, capsys):
        code, out, _ = run(capsys, "ext", "oy-oy", "--n", "3", "--json")
        assert code == 0
        assert json.loads(out)["dims"] == {"0": 1, "2": 1, "4": 1, "6": 1}

    def test_ideal_self(self, capsys):
        code, out, _ = run(capsys, "ext", "ideal-self", "--n", "2")
        assert code == 0
        assert "Ext^2(I, I) = 1" in out

    def test_ideal_self_trace(self, capsys):
        code, out, _ = run(capsys, "ext", "ideal-self", "--n", "2", "--trace")
        assert code == 0
        assert "[ext-ideal-self-n2] Ext^2(I,I): alternating-sum -> 1" in out

    def test_ideal_self_trace_solves_each_system_once(self, capsys, monkeypatch):
        solved = []
        chase_solve = homalg.chase_solve

        def counting(system):
            solved.append(system.name)
            return chase_solve(system)

        monkeypatch.setattr(homalg, "chase_solve", counting)
        code, _, _ = run(capsys, "ext", "ideal-self", "--n", "2", "--trace")
        assert code == 0
        assert len(solved) == len(set(solved)) == 3

    def test_oy_oy_rejects_trace(self, capsys):
        code, out, err = run(capsys, "ext", "oy-oy", "--n", "3", "--trace")
        assert code == 2
        assert out == ""
        assert "--trace" in err and err.count("\n") == 1

    def test_ideal_self_needs_n2(self, capsys):
        code, _, err = run(capsys, "ext", "ideal-self", "--n", "3")
        assert code == 2
        assert "--n 2" in err


class TestVerifyCommand:
    def test_all_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "2")
        assert code == 0
        assert "lemma-3-4 n=2: PASS" in out

    def test_single_check_json(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-2-3", "--n", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["status"] == "PASS"
        assert payload[0]["check_id"] == "lemma-2-3"

    def test_markdown_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        code, out, _ = run(
            capsys, "verify", "all", "--max-n", "2", "--markdown", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("# Verification report")
        assert "## prop-3-5 (n=2): PASS" in text

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["lemma-2-1", "--n", "5"], "--n"),
            (["cor-2-2", "--n", "3"], "--n"),
            (["all", "--n", "5"], "--n"),
            (["prop-3-5", "--max-n", "7"], "--max-n"),
        ],
        ids=["lemma-2-1-n5", "cor-2-2-n3", "all-n5", "prop-3-5-max-n7"],
    )
    def test_inapplicable_flag_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert flag in err and err.count("\n") == 1

    def test_json_with_markdown_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "lemma-1-3", "--json", "--markdown")
        assert code == 2
        assert out == ""
        assert "--json" in err and "--markdown" in err and err.count("\n") == 1

    def test_pinned_check_accepts_its_own_n(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-2-1", "--n", "2")
        assert code == 0
        assert out.startswith("lemma-2-1 n=2: PASS")

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "verify", "lemma-7-7")
        assert code == 2
        assert "lemma-7-7" in err


@pytest.mark.parametrize(
    "value, shown",
    [
        ("-" + "9" * 3000, "got -9999999999999999999... (3001"),
        pytest.param("9" * 5000, "of 5000 characters, too long to read", marks=needs_digit_limit),
    ],
    ids=["small", "digits"],
)
def test_overlong_max_n_is_not_echoed(capsys, value, shown):
    code, out, err = run(capsys, "verify", "all", "--max-n", value)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert shown in err


@pytest.mark.parametrize("argv, named", [
    (["--foo", "3", "bott", "--n", "2", "--weight", "0,0|0"], "--foo"),
    (["bott", "--n", "2", "--weight", "0,0|0", "--foo", "3"], "--foo 3"),
    (["--config", "x", "verify", "all"], "--config"),
    (["verify", "all", "--config", "x"], "--config x"),
    (["--foo"], "--foo"),
    (["-x" + "y" * 60, "bott"], "-xyyyyyyyyyyyyyyyyyy... (62 characters)"),
    (["bott", "--foo"], "--foo"),
    (["bott", "-x"], "-x"),
    (["bott", "--foo=1", "--n", "2"], "--foo=1"),
    (["bott", "--wei", "0,0|0", "--foo"], "--wei 0,0|0 --foo"),
    (["cohomology", "--j", "-3", "--bogus", "--k", "-1000000"], "--bogus"),
    (["functor", "-z" * 40], "-z-z-z-z-z-z-z-z-z-z... (80 characters)"),
], ids=["before", "after", "config-before", "config-after", "alone", "overlong",
        "missing-flags", "short-missing-flags", "with-value-missing-flag",
        "after-abbreviation-missing-flag", "after-negative-missing-flag",
        "overlong-missing-flags"])
def test_unknown_option_is_named(capsys, argv, named):
    # before the subcommand the first token is named; after it every
    # unrecognized token is, ahead of the required flags that are missing
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"flopcalc: error: unrecognized arguments: {named}\n"


REQUIRED = "the following arguments are required: "


@pytest.mark.parametrize("argv, message", [
    (["bott", "--n", "2"], REQUIRED + "--weight"),
    (["bott", "--wei", "0,0|0"], "unrecognized arguments: --wei 0,0|0"),
    (["bott", "--weight=-1,0|0"], REQUIRED + "--n"),
    (["bott", "--weight", "-1, 0|0"], REQUIRED + "--n"),
    (["cohomology", "--n=2", "--j", "-3"], REQUIRED + "--k"),
    (["cohomology", "--j", "-3", "--k", "-1000000"], REQUIRED + "--n"),
    (["functor", "--n", "2", "--j", "0", "--", "phi", "-x"], "unrecognized arguments: -- -x"),
], ids=["plain", "abbreviation", "equals", "space", "n-equals", "negatives", "after-dashes"])
def test_missing_flag_without_unknown_option(capsys, argv, message):
    # a value flag's value is the next token as written (a negative number, a
    # token with a space) or its "=" part; a prefix of a flag and "--" are
    # unrecognized tokens, named ahead of the missing flag
    assert run(capsys, *argv) == (2, "", f"flopcalc: error: {message}\n")


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_config_flag_is_refused(capsys, tmp_path, before):
    # each setting has one way in, its flag: a file that names a valid
    # format is still no input
    cfg = tmp_path / "flopcalc.cfg"
    cfg.write_text("format = json\n")
    config = ["--config", str(cfg)]
    argv = config + ["verify", "all"] if before else ["verify", "all"] + config
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1


class TestOutputStability:
    def test_json_is_byte_identical_across_invocations(self, capsys):
        argv = ["verify", "all", "--max-n", "3", "--json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_verify_all_json_digest(self, capsys):
        # sha256 of the stdout bytes of `verify all --max-n 12 --json`,
        # recorded before the verify suites looked tables up by (j, k)
        code, out, _ = run(capsys, "verify", "all", "--max-n", "12", "--json")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "1bd7cb7070f5451234f59835028d5f616b6a4b2973e5f9613316d901e9b51619"

    def test_every_subcommand_supports_json(self, capsys):
        invocations = [
            ["bott", "--n", "2", "--weight", "0,0|0", "--json"],
            ["cohomology", "--n", "2", "--j", "0", "--k", "0", "--json"],
            ["functor", "psi", "--n", "2", "--j", "0", "--k", "0", "--json"],
            ["flop", "picard", "--n", "2", "--json"],
            ["koszul", "--n", "2", "--json"],
            ["ext", "oy-oy", "--n", "2", "--json"],
            ["verify", "lemma-1-3", "--json"],
        ]
        for argv in invocations:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            json.loads(out)


NINES = "9" * 4300   # int() still reads it


@pytest.mark.parametrize(
    "argv",
    [
        ["functor", "phi", "--n", "2", "--j", NINES, "--k", "0"],
        ["functor", "phiprime", "--n", "2", "--j", NINES, "--k", "0"],
        ["functor", "psi", "--n", "2", "--j", "0", "--k", NINES],
        ["functor", "psi", "--n", NINES, "--j", "1", "--k", "0"],
        ["bott", "--n", "3", "--weight", NINES + ",0|0"],
        ["verify", "lemma-2-1", "--n", NINES],
        ["verify", "x" * 4300],
        ["functor", "x" * 4300, "--n", "2", "--j", "0", "--k", "0"],
        ["ext", "x" * 4300, "--n", "2"],
        ["cohomology", "--n", "2", "--side", "x" * 4300, "--j", "0", "--k", "0"],
    ],
    ids=["phi", "phiprime", "psi", "psi-n", "bott-length", "verify-pinned", "verify-unknown",
         "functor-choice", "ext-choice", "cohomology-side-choice"],
)
def test_overlong_input_is_not_echoed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and len(err) <= 200
    assert "... (43" in err


SMALL_N = "-" + "9" * 3000


@pytest.mark.parametrize(
    "argv, tail",
    [
        (["koszul", "--n", SMALL_N], "(3001 characters)"),
        (["verify", "lemma-3-4", "--n", SMALL_N], "(3001 characters)"),
        (["flop", "picard", "--n", SMALL_N], "(3001 characters)"),
        (["ext", "oy-oy", "--n", SMALL_N], "(3001 characters)"),
        (["cohomology", "--n", SMALL_N, "--j", "0", "--k", "0"], "(3001 characters)"),
        (["bott", "--n", "2002", "--weight", "0,1" + ",0" * 2000 + "|0"],
         "(6006 characters) is not non-increasing"),
    ],
    ids=["koszul", "verify", "flop", "ext", "cohomology", "bott-order"],
)
def test_overlong_value_in_an_engine_diagnostic_is_shortened(capsys, argv, tail):
    # the value passes the parser, and the engine's own check names it
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 120
    assert err.endswith(tail + "\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cohomology", "--n", "3", "--j", "1_0", "--k", "0"], "invalid int value: '1_0'"),
        (["cohomology", "--n", "\uff13", "--j", "1", "--k", "0"], "invalid int value"),
        (["cohomology", "--n", "\u0663", "--j", "1", "--k", "0"], "invalid int value"),
        (["bott", "--n", "2", "--weight", "1_0,0|0"], "'1_0,0|0' has a non-integer token"),
    ],
    ids=["underscore", "full-width", "arabic-indic", "weight-underscore"],
)
def test_only_ascii_decimal_literals_are_read(capsys, argv, message):
    # int() also reads "1_0" as 10 and non-ASCII digits such as "\uff13" as 3
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert message in err


def test_short_invalid_choice_keeps_the_argparse_message(capsys):
    code, out, err = run(capsys, "functor", "xyz", "--n", "2", "--j", "0", "--k", "0")
    assert code == 2
    assert out == ""
    assert "argument name: invalid choice: 'xyz'" in err


# argparse's texts where the grammar kept them; the ids name each argv as
# argparse read it, and the grammar refuses a prefix, "--" and "-hx"
DIAGNOSTICS = [
    ([], "the following arguments are required: command"),
    (["x"], "argument command: invalid choice: 'x' (choose from 'bott', 'cohomology', "
            "'functor', 'flop', 'koszul', 'ext', 'verify')"),
    (["bott"], "the following arguments are required: --n, --weight"),
    (["verify"], "the following arguments are required: check"),
    (["functor", "--n", "2", "--j", "0", "--k", "0"], "the following arguments are required: name"),
    (["cohomology", "--n", "2", "--j", "x", "--k", "0"], "argument --j: invalid int value: 'x'"),
    (["koszul", "--n"], "argument --n: expected one argument"),
    (["koszul", "--n", "--", "2"], "argument --n: invalid int value: '--'"),
    (["verify", "all", "--m", "3"], "unrecognized arguments: --m 3"),
    (["verify", "all", "--json=1"], "argument --json: ignored explicit argument '1'"),
    (["bott", "-hx"], "unrecognized arguments: -hx"),
    (["functor", "xyz", "--n", "2", "--j", "0", "--k", "0"],
     "argument name: invalid choice: 'xyz' (choose from 'phi', 'phiprime', 'psi')"),
    (["koszul", "--n", "2", "--", "x"], "unrecognized arguments: -- x"),
    (["verify", "x", "y", "--", "z"], "unrecognized arguments: y -- z"),
    (["verify", "--", "--json"], "unrecognized arguments: --"),
    (["--he"], "unrecognized arguments: --he"),
    (["koszul", "--n", "--json"], "argument --n: expected one argument"),
]


@pytest.mark.parametrize("argv, message", DIAGNOSTICS, ids=[
        "no-command", "bad-command", "required-flags", "required-check", "required-name",
        "invalid-int", "expected-one", "expected-one-before-dashes", "ambiguous",
        "ignored-explicit", "ignored-after-h", "invalid-choice", "dashes-extra",
        "extras-around-dashes", "option-after-dashes-is-a-value", "help-prefix",
        "expected-one-before-flag"])
def test_parse_diagnostics(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"flopcalc: error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["koszul", "--n=--"], "argument --n: invalid int value: '--'"),
    (["bott", "--n", "2", "--weight=--"], "weight literal '--' is missing the '|t' part"),
], ids=["int", "str"])
def test_explicit_double_dash_is_a_value(capsys, argv, message):
    # argparse 3.11 read --flag=-- as an empty list, which crashed the handlers
    assert run(capsys, *argv) == (2, "", f"flopcalc: error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (["koszul", "--n", "9", "--n=2"], "--n"),
    (["koszul", "--n", "2", "--json", "--json"], "--json"),
    (["verify", "all", "--max-n=2", "--out", "a.md", "--out=b.md"], "--out"),
], ids=["value", "bool", "str"])
def test_repeated_flag_is_refused(capsys, argv, flag):
    # no flag is silently ignored, so a second value does not replace the first
    message = f"argument {flag}: given more than once"
    assert run(capsys, *argv) == (2, "", f"flopcalc: error: {message}\n")


@pytest.mark.parametrize("argv", [["--out="], ["--out", ""]], ids=["equals", "separate"])
def test_empty_out_path_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", "lemma-1-3", *argv)
    assert code == 2
    assert out == ""
    assert "--out" in err and err.count("\n") == 1


def suite_that_must_not_run(*args):
    raise AssertionError("a check ran though --out cannot be written")


def test_unwritable_out_path_is_usage_error(capsys, monkeypatch, tmp_path):
    # reported before any check runs
    monkeypatch.setattr(verify, "run_all", suite_that_must_not_run)
    monkeypatch.setattr(verify, "run_check", suite_that_must_not_run)
    path = tmp_path / "absent" / "report.md"
    for argv in (["lemma-1-3", "--markdown"], ["all", "--max-n", "64", "--json"]):
        code, out, err = run(capsys, "verify", *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("flopcalc: error: cannot write --out ") and err.count("\n") == 1
        assert err.endswith(": No such file or directory\n")


def huge_result(check_id, n):
    return verify.CheckResult(check_id, n, verify.Status.PASS, {"x": 10 ** 5000})


@pytest.mark.parametrize("existing", [b"kept\n", None], ids=["existing", "new"])
@pytest.mark.parametrize("fails_in", ["handler", "render"])
def test_failed_run_leaves_out_path_as_it_was(capsys, monkeypatch, tmp_path, existing, fails_in):
    # README: nothing is written when a command fails
    path = tmp_path / "report.md"
    if existing is not None:
        path.write_bytes(existing)
    if fails_in == "handler":
        argv = ["lemma-2-1", "--n", "5"]
    else:
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str digit limit")
        monkeypatch.setattr(verify, "run_check", huge_result)
        argv = ["lemma-1-3", "--json"]
    code, out, err = run(capsys, "verify", *argv, "--out", str(path))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert (path.read_bytes() if path.exists() else None) == existing


def test_shared_parser_keeps_no_state(capsys):
    # a run of calls in one process must print what each call prints in a
    # process of its own
    calls = [
        ["cohomology", "--n", "x", "--j", "0", "--k", "0"],
        ["verify", "all", "--n", "3"],
        ["verify", "all", "--max-n", "3", "--json"],
        ["verify", "all"],
        ["verify", "lemma-3-4", "--n", "3", "--markdown"],
        ["verify", "lemma-3-4", "--n", "3"],
    ]
    alone = []
    for argv in calls:
        proc = run_module(*argv)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    together = [run(capsys, *argv) for argv in calls]
    assert together == alone
    assert [code for code, _, _ in alone] == [2, 2, 0, 0, 0, 0]
    assert alone[2][1] != alone[3][1] and alone[4][1] != alone[5][1]


def run_module(*argv, timeout=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "flopcalc", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_module_entry_point():
    proc = run_module("bott", "--n", "2", "--weight", "1,0|-1", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 2, "dims": {"0": 8}}


def test_help_is_written_to_stdout(capsys):
    # help bytes are not pinned: each call exits 0 with help on stdout alone
    for argv in [["--help"], ["-h"]] + [[cmd, flag] for cmd in SUBCOMMANDS
                                        for flag in ("--help", "-h")]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: flopcalc"), argv
    proc = run_module("--help", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: flopcalc")


def test_huge_twist_finishes():
    proc = run_module("cohomology", "--n", "3", "--j", "1000000000", "--k", "-1000000000",
                      "--json", timeout=10)
    assert proc.returncode == 0
    assert sorted(json.loads(proc.stdout)["dims"]) == ["0", "2", "3"]


# argvs pinned against the argparse parser the command line was built on; the
# grammar refuses the prefixes (--he, --js) and the "--" of some of them
SUBCOMMANDS = ["bott", "cohomology", "functor", "flop", "koszul", "ext", "verify"]
ROUTE_ARGVS = [case["argv"] for case in CORPUS] + [
    [cmd, flag] for cmd in SUBCOMMANDS for flag in ("--help", "-h")
] + [
    ["verify", "--he"],
    ["verify", "lemma-1-3", "--he"],
    ["bott", "--n", "2", "--weight", "1,0|-1", "--js"],
    ["verify", "lemma-1-6", "--n", "3", "--js"],
    ["koszul", "--n=3"],
    ["verify", "lemma-3-4", "--n=3", "--json"],
    ["verify", "--", "lemma-1-6"],
    ["verify", "--n", "3", "--", "lemma-3-4"],
    ["functor", "--n", "2", "--j", "0", "--k", "0", "--", "phi"],
    ["flop", "--n", "2", "--", "picard"],
    ["verify", "--", "--json"],
    ["cohomology", "--n", "3", "--j", "-5", "--k", "-2"],
    ["functor", "psi", "--n", "3", "--j", "-2", "--k", "-3", "--json"],
    ["functor", "--n", "-3", "phi", "--j", "0", "--k", "0"],
    ["koszul", "--n", "-2"],
    ["functor", "--n", "2", "--j", "0", "--k", "0"],
    ["flop", "--n", "2"],
    ["ext", "--n", "2"],
    ["verify"],
    ["bott"],
    ["koszul", "--n"],
    ["koszul", "--n", "2", "extra"],
    ["koszul", "--n", "2", "extra", "--bogus", "-1"],
    ["verify", "lemma-1-6", "--n", "2", "more", "tokens"],
    ["functor", "phi", "psi", "--n", "2", "--j", "0", "--k", "0"],
]


@pytest.mark.parametrize("argv", ROUTE_ARGVS, ids=[" ".join(a) for a in ROUTE_ARGVS])
def test_subcommand_route_matches_top_level_parser(argv):
    # each pinned argv, read by the subcommand's loop in cli, gives the bytes
    # of the grammar as tests/cli_grammar.py writes it out from the top level
    cli_grammar.assert_same_outcome(argv)
