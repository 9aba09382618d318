"""Command-line interface: exit codes, JSON payload shape, and
round-tripping of printed elements."""

import json
import time
from collections import Counter

import pytest

from jacklaurent import cli, verify
from jacklaurent.cli import main, EXIT_OK, EXIT_VERIFY, EXIT_USAGE, \
    EXIT_SINGULAR, MAX_OP_ORDER
from jacklaurent.laurent import from_json_terms, parse_element
from jacklaurent.jack import construct


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_text_mode_parses_back(self, capsys):
        code, out, _ = run(capsys, "compute", "--lambda", "1", "--mu", "1")
        assert code == EXIT_OK
        handle, expr = out.split(" = ", 1)
        assert handle.strip() == "P[1; 1]"
        assert parse_element(expr.strip()) == construct(((1,), (1,))).f

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "compute", "--lambda", "1", "--mu", "1",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["alpha"] == [[1], [1]]
        assert payload["mode"] == "symbolic"
        assert payload["eigenvalues"]["1"] == "0"
        assert from_json_terms(payload["terms"]) == construct(((1,), (1,))).f
        # canonical serialization: reserializing is the identity
        assert out.strip() == json.dumps(payload, indent=2, sort_keys=True)

    def test_rational_mode(self, capsys):
        code, out, _ = run(capsys, "compute", "--lambda", "1", "--mu", "1",
                           "--k", "-1", "--p0", "5", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["mode"] == "rational"
        assert payload["k"] == "-1"
        assert from_json_terms(payload["terms"]) == \
            parse_element("p1*p-1 - 1")

    def test_rational_mode_negative_value_with_equals(self, capsys):
        code, out, _ = run(capsys, "compute", "--lambda", "1", "--mu", "1",
                           "--k=-1/2", "--p0=7/3", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["k"] == "-1/2"

    def test_rational_mode_output_bytes(self, capsys):
        argv = ("compute", "--lambda", "2,1", "--mu", "1",
                "--k=-1/2", "--p0=7/3")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == ("-(1/2)*p-1*p3 + (1/4)*p-1*p1^3 + (1/4)*p-1*p1*p2"
                       " - (19/224)*p2 - (237/224)*p1^2\n")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        terms = [("(-1)/(2)", {"-1": 1, "3": 1}),
                 ("(1)/(4)", {"-1": 1, "1": 3}),
                 ("(1)/(4)", {"-1": 1, "1": 1, "2": 1}),
                 ("(-19)/(224)", {"2": 1}),
                 ("(-237)/(224)", {"1": 2})]
        payload = {"alpha": [[2, 1], [1]], "k": "-1/2", "mode": "rational",
                   "p0": "7/3",
                   "terms": [{"coeff": c, "exponents": e} for c, e in terms]}
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_rational_mode_needs_both_parameters(self, capsys):
        code, _, err = run(capsys, "compute", "--lambda", "1", "--k", "-1")
        assert code == EXIT_USAGE
        assert "both --k and --p0" in err

    def test_exponent_notation_refused(self, capsys):
        # Fraction would expand a large exponent into a huge int first
        code, out, err = run(capsys, "compute", "--lambda", "1", "--k=1e5",
                             "--p0=1")
        assert code == EXIT_USAGE and out == ""
        assert err == "usage error: --k wants an exact rational: an " \
                      "integer, p/q or a decimal, with no exponent; got " \
                      "'1e5'\n"

    def test_singular_parameter_exit(self, capsys):
        code, _, err = run(capsys, "compute", "--lambda", "2",
                           "--k", "1", "--p0", "5")
        assert code == EXIT_SINGULAR
        assert "singular" in err

    def test_bad_partition(self, capsys):
        code, _, err = run(capsys, "compute", "--lambda", "1,x")
        assert code == EXIT_USAGE


class TestFiniteN:
    def test_symbolic(self, capsys):
        code, out, _ = run(capsys, "finite-n", "--chi", "1,-1", "--N", "2",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["chi"] == [1, -1]
        assert payload["k"] is None
        assert any(row["exponents"] == [1, -1] and row["coeff"] == "1"
                   for row in payload["terms"])

    def test_length_mismatch(self, capsys):
        code, _, err = run(capsys, "finite-n", "--chi", "1,-1", "--N", "3")
        assert code == EXIT_USAGE

    def test_singular_parameter_exit(self, capsys):
        code, out, err = run(capsys, "finite-n", "--chi", "2,0,0", "--N", "3",
                             "--k=1")
        assert code == EXIT_SINGULAR and out == ""
        assert err == "singular parameter: eigenvalue collision at k=1: " \
                      "(2,) vs (1, 1)\n"

    def test_decreasing_required(self, capsys):
        code, _, err = run(capsys, "finite-n", "--chi=-1,1", "--N", "2")
        assert code == EXIT_USAGE
        assert "non-increasing" in err


class TestFormulaAndPieri:
    def test_formula_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "formula", "--name", "eigenvalue",
                           "--lambda", "1", "--mu", "1")
        assert code == EXIT_OK
        assert out.strip() == "2 + 2*k - 2*k*p0"

    @pytest.mark.parametrize("argv,value", [
        (("evaluation", "--lambda", "1", "--mu", "1"),
         "(-1*p0 + p0^2 + k*p0^2 - k*p0^3)/(1 + k - k*p0)"),
        (("duality", "--lambda", "1"), "(1)/(k)"),
        (("phi-infinity", "--lambda", "2,1", "--mu", "1"),
         "(-2 + k)/(k^3 - 2*k^4)")])
    def test_formula_values(self, capsys, argv, value):
        code, out, _ = run(capsys, "formula", "--name", *argv)
        assert code == EXIT_OK
        assert out == value + "\n"

    def test_pieri_json(self, capsys):
        code, out, _ = run(capsys, "pieri", "--lambda", "1", "--mu", "1",
                           "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        boxes = [row["box"] for row in payload["V"]]
        assert [1, 2] in boxes and [2, 1] in boxes
        assert payload["U"][0]["box"] == [1, 1]


class TestLongArguments:
    # a usage error quotes at most laurent._EXCERPT characters of an
    # argument, as the expression parser does
    LONG = "x" * 5000

    @pytest.mark.parametrize("argv", [
        ("compute", "--lambda", "1", "--k=1/" + LONG, "--p0=1"),
        ("compute", "--lambda", "1," + LONG),
        ("finite-n", "--chi", "1," + LONG, "--N", "2"),
        ("apply-op", "--op", "L" + LONG, "--expr", "p1")])
    def test_error_quotes_an_excerpt(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert len(err.encode()) < 200 and err.count("\n") == 1


class TestApplyOp:
    def test_euler(self, capsys):
        code, out, _ = run(capsys, "apply-op", "--op", "L1",
                           "--expr", "p2*p-1")
        assert code == EXIT_OK
        assert parse_element(out.strip()) == parse_element("p2*p-1")

    def test_zero_power_input(self, capsys):
        code, out, _ = run(capsys, "apply-op", "--op", "L1",
                           "--expr", "p1^0 + p2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["input"] == "p2 + 1"
        assert from_json_terms(payload["terms"]) == parse_element("2*p2")

    def test_stable_outside_domain(self, capsys):
        code, _, err = run(capsys, "apply-op", "--op", "H2",
                           "--expr", "p-1")
        assert code == EXIT_USAGE

    def test_bad_op_name(self, capsys):
        code, _, err = run(capsys, "apply-op", "--op", "Q2", "--expr", "p1")
        assert code == EXIT_USAGE

    def test_non_ascii_op_order(self, capsys):
        code, out, err = run(capsys, "apply-op", "--op", "L\u0662",
                             "--expr", "p1")
        assert code == EXIT_USAGE and out == ""
        assert "--op wants L<r> or H<r>" in err

    def test_large_exponent_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "apply-op", "--op", "L2",
                             "--expr", "p1*(1+k)^99")
        assert time.perf_counter() - t0 < 1
        assert code == EXIT_USAGE and out == ""
        assert "exponent 99 exceeds 32" in err

    def test_nested_exponent_fails_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "apply-op", "--op", "L2",
                             "--expr", "p1*((1+k+p0)^8)^16")
        assert time.perf_counter() - t0 < 1
        assert code == EXIT_USAGE and out == ""
        assert "power of total degree 128 exceeds 32" in err

    def test_deep_parentheses(self, capsys):
        code, out, err = run(capsys, "apply-op", "--op", "L1",
                             "--expr", "(" * 1000 + "p1" + ")" * 1000)
        assert code == EXIT_USAGE and out == ""
        assert "parentheses nest deeper than 100" in err
        # the error quotes an excerpt of the input, not all of it
        assert len(err.encode()) < 200 and err.count("\n") == 1

    @pytest.mark.parametrize("expr,message", [
        ("(1+k+p0)^32*(1+k+p0)^32*(1+k+p0)^32", "product of total degree 64"),
        ("p1*(1+k+p0)^32*(1+k+p0)^32", "product of total degree 64"),
        ("1/(1+k+p0)^32+1/(2+k+p0)^32+1/(3+k+p0)^32+1/(4+k+p0)^32",
         "sum of total degree 64")])
    def test_large_degree_fails_fast(self, capsys, expr, message):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "apply-op", "--op", "L2", "--expr", expr)
        assert time.perf_counter() - t0 < 1
        assert code == EXIT_USAGE and out == ""
        assert message + " exceeds 32" in err

    @pytest.mark.parametrize("op", ["L200", "H17", "L%d" % (MAX_OP_ORDER + 1)])
    def test_operator_order_bound(self, capsys, op):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "apply-op", "--op", op,
                             "--expr", "p1*p-1 + p2")
        assert time.perf_counter() - t0 < 1
        assert code == EXIT_USAGE and out == ""
        assert err == "usage error: operator order %s exceeds %d\n" \
            % (op[1:], MAX_OP_ORDER)

    def test_highest_operator_order_runs(self, capsys):
        code, out, _ = run(capsys, "apply-op", "--op", "L%d" % MAX_OP_ORDER,
                           "--expr", "p2")
        assert code == EXIT_OK and "p2" in out

    @pytest.mark.parametrize("expr", ["1/0", "1/(k-k)", "p1/(p0 - p0)"])
    def test_division_by_zero(self, capsys, expr):
        code, out, err = run(capsys, "apply-op", "--op", "L1",
                             "--expr", expr)
        assert code == EXIT_USAGE and out == ""
        assert err == "usage error: cannot parse expression: division by " \
                      "zero ParamRat\n"


class TestCheckedCommands:
    def test_eval_check_passes(self, capsys):
        code, out, _ = run(capsys, "eval", "--lambda", "1", "--mu", "1",
                           "--check")
        assert code == EXIT_OK
        assert "[check: pass]" in out

    def test_norm_check_passes(self, capsys):
        code, out, _ = run(capsys, "norm", "--lambda", "1", "--check")
        assert code == EXIT_OK
        assert "[check: pass]" in out

    def test_norm_check_on_five_rows(self, capsys):
        # the torus form runs at N = 5 here, past the pole of the norm
        # at N = 4
        code, out, _ = run(capsys, "norm", "--lambda", "1,1,1", "--mu",
                           "1,1", "--check")
        assert code == EXIT_OK
        assert "[check: pass]" in out

    def test_schur_check_passes(self, capsys):
        code, out, _ = run(capsys, "schur", "--lambda", "1", "--mu", "1",
                           "--check")
        assert code == EXIT_OK
        assert "[check: pass]" in out


def _failing_check(alpha):
    return False, {}


CHECKED = [("eval", "check_evaluation", ["--lambda", "1", "--mu", "1"]),
           ("norm", "check_norm_torus", ["--lambda", "1"]),
           ("schur", "check_schur", ["--lambda", "1", "--mu", "1"])]


class TestCheckFailure:
    @pytest.mark.parametrize("command,check,argv", CHECKED)
    def test_text(self, capsys, monkeypatch, command, check, argv):
        monkeypatch.setattr(cli, check, _failing_check)
        code, out, _ = run(capsys, command, *argv, "--check")
        assert code == EXIT_VERIFY
        assert "[check: fail]" in out

    @pytest.mark.parametrize("command,check,argv", CHECKED)
    def test_json(self, capsys, monkeypatch, command, check, argv):
        monkeypatch.setattr(cli, check, _failing_check)
        code, out, _ = run(capsys, command, *argv, "--check",
                           "--format", "json")
        assert code == EXIT_VERIFY
        assert json.loads(out)["check"] == "fail"

    def test_verify_suite(self, capsys, monkeypatch):
        real = verify.check_eigen

        def fail_one(alpha):
            return (False, {}) if alpha == ((1,), ()) else real(alpha)

        monkeypatch.setattr(verify, "check_eigen", fail_one)
        code, out, _ = run(capsys, "verify", "--suite", "eigen",
                           "--max-size", "1", "--format", "json")
        assert code == EXIT_VERIFY
        report = json.loads(out)
        assert report["status"] == "fail"
        assert [r["id"] for r in report["checks"]
                if r["status"] == "fail"] == ["eigen/1|-"]


class TestReports:
    def test_conjectures_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "conjectures", "--max-size", "2",
                           "--out", str(out_path))
        assert code == EXIT_OK
        report = json.loads(out_path.read_text())
        assert report["p0_infinity_limit"]["verdict"] == "holds"

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "eigen",
                           "--max-size", "2", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["status"] == "pass"
        assert all(row["status"] == "pass" for row in report["checks"])

    def test_conjectures_unwritable_out(self, capsys, tmp_path):
        code, out, err = run(capsys, "conjectures", "--max-size", "0",
                             "--out", str(tmp_path / "missing" / "x.json"))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error: cannot write --out: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "conjectures"])
    def test_negative_max_size(self, capsys, command):
        code, out, err = run(capsys, command, "--max-size", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--max-size" in err

    def test_verify_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "schur",
                           "--max-size", "2")
        assert code == EXIT_OK
        assert "suite schur: pass" in out


# (command, argv, the check patched to fail or None, exit code): every
# code each subcommand can return
EXIT_CODES = [
    ("compute", ["--lambda", "1"], None, EXIT_OK),
    ("compute", ["--lambda", "1,x"], None, EXIT_USAGE),
    ("compute", ["--lambda", "1", "--k=1e5", "--p0=1"], None, EXIT_USAGE),
    ("compute", ["--lambda", "2", "--k", "1", "--p0", "5"], None,
     EXIT_SINGULAR),
    ("finite-n", ["--chi", "1,-1", "--N", "2"], None, EXIT_OK),
    ("finite-n", ["--chi", "1,-1", "--N", "3"], None, EXIT_USAGE),
    ("finite-n", ["--chi", "2,0,0", "--N", "3", "--k=1"], None,
     EXIT_SINGULAR),
    ("formula", ["--name", "norm", "--mu", "1"], None, EXIT_OK),
    ("formula", ["--name", "norm", "--mu", "x"], None, EXIT_USAGE),
    ("apply-op", ["--op", "L2", "--expr", "p1*p-1 - 2"], None, EXIT_OK),
    ("apply-op", ["--op", "L2", "--expr", "p1/p2"], None, EXIT_USAGE),
    ("apply-op", ["--op", "L200", "--expr", "p1*p-1 + p2"], None, EXIT_USAGE),
    ("pieri", ["--lambda", "1", "--mu", "1"], None, EXIT_OK),
    ("pieri", ["--lambda", "x"], None, EXIT_USAGE),
    ("conjectures", ["--max-size", "1"], None, EXIT_OK),
    ("conjectures", ["--max-size", "-1"], None, EXIT_USAGE),
    ("conjectures", ["--max-size", "8"], None, EXIT_USAGE),
    ("verify", ["--suite", "eigen", "--max-size", "1"], None, EXIT_OK),
    ("verify", ["--suite", "eigen", "--max-size", "1"],
     (verify, "check_eigen"), EXIT_VERIFY),
    ("verify", ["--max-size", "-1"], None, EXIT_USAGE),
    ("verify", ["--max-size", "8"], None, EXIT_USAGE),
]
for command, check, argv in CHECKED:
    EXIT_CODES += [(command, argv + ["--check"], None, EXIT_OK),
                   (command, argv + ["--check"], (cli, check), EXIT_VERIFY),
                   (command, ["--lambda", "x", "--check"], None, EXIT_USAGE)]


def _exit_ids(rows):
    """Test ids command-code, with -2, -3, ... added on repeats."""
    seen = Counter()
    ids = []
    for command, _, _, code in rows:
        name = "%s-%d" % (command, code)
        seen[name] += 1
        ids.append(name if seen[name] == 1 else "%s-%d" % (name, seen[name]))
    return ids


@pytest.mark.parametrize("command,argv,failing,code", EXIT_CODES,
                         ids=_exit_ids(EXIT_CODES))
def test_exit_code(capsys, monkeypatch, command, argv, failing, code):
    if failing:
        monkeypatch.setattr(*failing, _failing_check)
    assert run(capsys, command, *argv)[0] == code
