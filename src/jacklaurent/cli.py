"""Command-line front end.

Subcommands: compute, finite-n, formula, apply-op, pieri, eval, norm,
schur, conjectures, verify.  Partitions are comma-separated part lists
(omit the flag for the empty partition); k and p0 take exact rationals.
A negative value needs the `=` form, --k=-1/2, or it is read as a flag.
Exit codes: 0 success, 1 verification failure, 2 usage error,
3 singular parameter."""

import argparse
import json
import sys
from fractions import Fraction

from .rational import rat, as_rat, SingularParameter, \
    PoleAtSpecialization, IdenticallySingular, DivisionByZero
from .laurent import parse_element, _EXCERPT
from .partitions import normalize_partition, size, \
    add_box_candidates, remove_box_candidates, label_str, alpha_json
from .operators import cms_L, stable_H, NotPositivePart
from .closed_forms import eigenvalue_e, evaluation_value, norm_value, \
    duality_constant, phi_infinity, pieri_V, pieri_U
from .jack import construct, rational_mode_construct
from .finite_n import jack_laurent_poly_N
from .schur import jacobi_trudy_S
from .conjectures import run_all
from .verify import run_suite, SUITES, TORUS_N, TORUS_K, \
    check_evaluation, check_norm_torus, check_schur

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3

# Highest integral order apply-op runs: L16 and H16 take under a second
# on small inputs, L32 several.
MAX_OP_ORDER = 16
# Largest --max-size verify and conjectures accept: all suites take
# about 0.9 s at 6 and 2.3 s at 7, and conjectures 0.6 s and 1.2 s.
MAX_SIZE = 7


class UsageError(Exception):
    pass


def _excerpt(text):
    """An argument cut after _EXCERPT characters."""
    return text if len(text) <= _EXCERPT else text[:_EXCERPT] + "..."


def _quoted(text):
    """The repr of an argument, cut after _EXCERPT characters, as the
    expression parser quotes its input."""
    if len(text) <= _EXCERPT:
        return repr(text)
    return repr(text[:_EXCERPT]) + "..."


# argparse quotes a bad value in full; these types stand in for its int
# and choices checks and quote at most _EXCERPT characters

def _int(text):
    """An int option; one of more than _EXCERPT digits is refused too,
    as no option takes one."""
    if len(text) <= _EXCERPT:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError("invalid int value: %s" % _quoted(text))


def _one_of(choices):
    def check(text):
        if text not in choices:
            raise argparse.ArgumentTypeError(
                "invalid choice: %s (choose from %s)"
                % (_quoted(text), ", ".join(map(repr, choices))))
        return text
    return check


def _partition(text):
    if not text:
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("bad partition %s: not comma-separated integers"
                         % _quoted(text))
    try:
        return normalize_partition(parts)
    except ValueError:
        raise UsageError("bad partition %s: the parts must be nonnegative "
                         "and weakly decreasing" % _quoted(text))


def _sequence(text):
    try:
        chi = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("bad integer sequence %s" % _quoted(text))
    if any(chi[i] < chi[i + 1] for i in range(len(chi) - 1)):
        raise UsageError("sequence %s is not non-increasing" % _quoted(text))
    return chi


def _fraction(text, flag):
    try:
        if "e" in text.lower():     # Fraction expands 1e10000000 in full
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s wants an exact rational: an integer, p/q or a "
                         "decimal, with no exponent; got %s"
                         % (flag, _quoted(text)))


def _alpha(args):
    return (_partition(args.lam), _partition(args.mu))


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return EXIT_OK


def _checked(args, payload, text, check):
    """Emit the result; with --check, first run the verify check on the
    label and report its status, exiting 1 when it fails."""
    if not args.check:
        return _emit(args, payload, text)
    ok, _ = check(_alpha(args))
    payload["check"] = "pass" if ok else "fail"
    _emit(args, payload, "%s  [check: %s]" % (text, payload["check"]))
    return EXIT_OK if ok else EXIT_VERIFY


# -- subcommand handlers ---------------------------------------------------------


def _cmd_compute(args):
    alpha = _alpha(args)
    if (args.k is None) != (args.p0 is None):
        raise UsageError("rational mode requires both --k and --p0")
    if args.k is not None:
        k0 = _fraction(args.k, "--k")
        p00 = _fraction(args.p0, "--p0")
        f = rational_mode_construct(alpha, k0, p00)
        payload = {"alpha": alpha_json(alpha), "mode": "rational",
                   "k": str(k0), "p0": str(p00),
                   "terms": f.to_json_terms()}
        return _emit(args, payload, str(f))
    jf = construct(alpha)
    e1 = rat(size(alpha[0]) - size(alpha[1]))
    payload = {"alpha": alpha_json(alpha), "mode": "symbolic",
               "terms": jf.f.to_json_terms(),
               "eigenvalues": {"1": str(e1), "2": str(jf.eigenvalue2)},
               "provenance": [list(b) for b in jf.provenance]}
    return _emit(args, payload, str(jf))


def _cmd_finite_n(args):
    chi = _sequence(args.chi)
    if len(chi) != args.N:
        raise UsageError("--chi needs exactly N=%d entries" % args.N)
    k0 = _fraction(args.k, "--k") if args.k is not None else None
    p = jack_laurent_poly_N(chi, args.N, k0)
    payload = {"chi": list(chi), "N": args.N,
               "k": str(k0) if k0 is not None else None,
               "terms": [{"exponents": list(key), "coeff": str(as_rat(c))}
                         for key, c in p.sorted_terms()]}
    return _emit(args, payload, str(p))


_FORMATS = ("text", "json")
_FORMULAS = ("eigenvalue", "evaluation", "norm", "duality", "phi-infinity")


def _cmd_formula(args):
    alpha = _alpha(args)
    if args.name == "eigenvalue":
        val = eigenvalue_e(alpha)
    elif args.name == "evaluation":
        val = evaluation_value(alpha)
    elif args.name == "norm":
        val = norm_value(alpha)
    elif args.name == "duality":
        val = duality_constant(alpha)
    else:
        val = phi_infinity(alpha[0]) * phi_infinity(alpha[1])
    payload = {"alpha": alpha_json(alpha), "name": args.name,
               "value": str(val)}
    return _emit(args, payload, str(val))


def _cmd_apply_op(args):
    op = args.op.upper()
    if not (op[1:].isascii() and op[1:].isdigit()) or op[0] not in "LH":
        raise UsageError("--op wants L<r> or H<r>, got %s" % _quoted(args.op))
    r = int(op[1:])
    if r < 1:
        raise UsageError("operator order must be positive")
    if r > MAX_OP_ORDER:
        raise UsageError("operator order %d exceeds %d" % (r, MAX_OP_ORDER))
    try:
        f = parse_element(args.expr)
    except (ValueError, DivisionByZero) as exc:
        raise UsageError("cannot parse expression: %s" % exc)
    try:
        out = cms_L(r, f) if op[0] == "L" else stable_H(r, f)
    except NotPositivePart as exc:
        raise UsageError(str(exc))
    payload = {"op": op, "input": str(f), "terms": out.to_json_terms()}
    return _emit(args, payload, str(out))


def _cmd_pieri(args):
    alpha = _alpha(args)
    lam, mu = alpha
    vrows = [(box, pieri_V(box, alpha)) for box in add_box_candidates(lam)]
    urows = [(box, pieri_U(box, alpha))
             for box in remove_box_candidates(mu)]
    payload = {"alpha": alpha_json(alpha),
               "V": [{"box": list(b), "coeff": str(v)} for b, v in vrows],
               "U": [{"box": list(b), "coeff": str(u)} for b, u in urows]}
    lines = ["p1 * P[%s]:" % label_str(alpha, "; ", "0")]
    for b, v in vrows:
        lines.append("  add box %s to lam:    %s" % (b, v))
    for b, u in urows:
        lines.append("  drop box %s from mu:  %s" % (b, u))
    return _emit(args, payload, "\n".join(lines))


def _cmd_eval(args):
    alpha = _alpha(args)
    val = evaluation_value(alpha)
    payload = {"alpha": alpha_json(alpha), "value": str(val)}
    return _checked(args, payload, str(val), check_evaluation)


def _cmd_norm(args):
    alpha = _alpha(args)
    val = norm_value(alpha)
    payload = {"alpha": alpha_json(alpha), "value": str(val)}
    return _checked(args, payload, str(val), check_norm_torus)


def _cmd_schur(args):
    alpha = _alpha(args)
    det = jacobi_trudy_S(*alpha)
    payload = {"alpha": alpha_json(alpha), "terms": det.to_json_terms()}
    return _checked(args, payload, str(det), check_schur)


def _max_size(args):
    if args.max_size < 0:
        raise UsageError("--max-size must be >= 0, got %d" % args.max_size)
    if args.max_size > MAX_SIZE:
        raise UsageError("--max-size %d exceeds %d"
                         % (args.max_size, MAX_SIZE))
    return args.max_size


def _cmd_conjectures(args):
    max_size = _max_size(args)
    try:
        # opened before the sweep runs, so that a bad path fails at once
        fh = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        raise UsageError("cannot write --out: %s: %s"
                         % (exc.strerror, _quoted(args.out)))
    fh.write(json.dumps(run_all(max_size), indent=2, sort_keys=True) + "\n")
    if args.out:
        fh.close()
        print("wrote %s" % args.out)
    return EXIT_OK


def _cmd_verify(args):
    report = run_suite(args.suite, _max_size(args))
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for row in report["checks"]:
            print("%-4s %s" % (row["status"], row["id"]))
        print("suite %s: %s (%d checks)"
              % (report["suite"], report["status"], len(report["checks"])))
    return EXIT_OK if report["status"] == "pass" else EXIT_VERIFY


# -- parser ------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="jacklaurent",
        description="Exact two-parameter symmetric-function calculator "
                    "with Laurent (negative) power sums.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=_FORMATS, type=_one_of(_FORMATS),
                       default="text")

    def add_common(p):
        p.add_argument("--lambda", dest="lam", default="",
                       help="comma-separated partition, e.g. 2,1")
        p.add_argument("--mu", dest="mu", default="",
                       help="comma-separated partition")
        add_format(p)

    p = sub.add_parser("compute", help="construct P_{lambda,mu}")
    add_common(p)
    p.add_argument("--k", help="exact rational; with --p0 for rational mode")
    p.add_argument("--p0", help="exact rational")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("finite-n", help="N-variable eigenpolynomial")
    p.add_argument("--chi", required=True,
                   help="non-increasing integers, e.g. 1,0,-1")
    p.add_argument("--N", type=_int, required=True)
    p.add_argument("--k", help="exact rational coupling (default symbolic)")
    add_format(p)
    p.set_defaults(fn=_cmd_finite_n)

    p = sub.add_parser("formula", help="closed-form scalar for a label")
    p.add_argument("--name", choices=_FORMULAS, type=_one_of(_FORMULAS),
                   required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_formula)

    p = sub.add_parser("apply-op", help="apply an integral of the "
                                        "hierarchy to an expression")
    p.add_argument("--op", required=True, help="L<r> or H<r>, e.g. L2")
    p.add_argument("--expr", required=True,
                   help="element, e.g. 'p1*p-1 - 2'")
    add_format(p)
    p.set_defaults(fn=_cmd_apply_op)

    p = sub.add_parser("pieri", help="transition coefficients for p1 * P")
    add_common(p)
    p.set_defaults(fn=_cmd_pieri)

    p = sub.add_parser("eval", help="evaluation homomorphism value")
    add_common(p)
    p.add_argument("--check", action="store_true",
                   help="recompute through the constructed function")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("norm", help="quadratic norm of P_{lambda,mu}")
    add_common(p)
    p.add_argument("--check", action="store_true",
                   help="cross-check against the torus integral at k=%s "
                        "in N=max(%d, len(lambda)+len(mu)) variables"
                        % (TORUS_K, TORUS_N))
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("schur", help="Schur-Laurent determinant")
    add_common(p)
    p.add_argument("--check", action="store_true",
                   help="compare with the k=-1 limit of P")
    p.set_defaults(fn=_cmd_schur)

    p = sub.add_parser("conjectures", help="report-only conjecture sweeps")
    p.add_argument("--max-size", type=_int, default=3)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=_cmd_conjectures)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=SUITES, type=_one_of(SUITES),
                   default="all")
    p.add_argument("--max-size", type=_int, default=3)
    add_format(p)
    p.set_defaults(fn=_cmd_verify)
    return top


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.error("unrecognized arguments: %s"
                     % " ".join(map(_excerpt, extra)))
    try:
        return args.fn(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (SingularParameter, PoleAtSpecialization, IdenticallySingular,
            DivisionByZero) as exc:
        print("singular parameter: %s" % exc, file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
