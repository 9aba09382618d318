"""Named verification sweeps over bipartition labels, assembled into a
deterministic JSON-ready report.

Each check is a closed computation returning pass/fail plus a witness
(eigenvalue tables, the first offending label, ...).  Checks run one
after another in one thread; the report lists them sorted by id."""

from fractions import Fraction

from .laurent import LaurentSymFunc
from .partitions import size, bipartitions_up_to, w_bipartition, chi_N, \
    add_box_candidates, remove_box_candidates
from .operators import cms_L, cms_L2_direct
from .closed_forms import evaluation_value, norm_value, separation_check, \
    bernoulli_b, pieri_V, pieri_U, pieri_V_diagram, pieri_U_diagram
from . import jack
from .jack import construct
from .finite_n import phi_N_map, jack_laurent_poly_N, torus_form, \
    finite_pieri_check, hc_eigen_check_N, involution_check_N
from .schur import jacobi_trudy_S, schur_limit

SUITES = ("eigen", "commute", "pieri", "evaluation", "norms",
          "involutions", "duality", "finite-n", "schur", "all")


def _alpha_label(alpha):
    lam, mu = alpha
    return "%s|%s" % (",".join(map(str, lam)) or "-",
                      ",".join(map(str, mu)) or "-")


def _labels(max_size):
    return sorted(bipartitions_up_to(max_size))


def _monomials(total_degree):
    """Coefficient-free p-monomials with positive degree a, negative
    degree b, a + b <= total_degree; a compact operator test bed."""
    out = []
    for lam, mu in sorted(bipartitions_up_to(total_degree)):
        f = LaurentSymFunc.one()
        for i in lam:
            f = f * LaurentSymFunc.gen(i)
        for j in mu:
            f = f * LaurentSymFunc.gen(-j)
        out.append((_alpha_label((lam, mu)), f))
    return out


# -- individual checks -----------------------------------------------------------


def _check_eigen(alpha):
    evs = dict(jack.eigen_check_all(alpha, r_max=3))
    wit = {"eigenvalues": {str(r): str(v) for r, v in sorted(evs.items())}}
    w_evs = dict(jack.eigen_check_all(w_bipartition(alpha), r_max=3))
    ok = w_evs[3] == -evs[3] and w_evs[2] == evs[2]
    return ok, wit


def _check_commute(label_f):
    label, f = label_f
    for r in (1, 2, 3):
        for s in range(r + 1, 4):
            lhs = cms_L(r, cms_L(s, f))
            rhs = cms_L(s, cms_L(r, f))
            if not (lhs - rhs).is_zero():
                return False, {"monomial": label, "orders": [r, s]}
    if cms_L2_direct(f) != cms_L(2, f):
        return False, {"monomial": label, "orders": [2], "route": "direct"}
    return True, {"monomial": label}


def _check_pieri(alpha):
    if not jack.pieri_identity_check(alpha):
        return False, {"identity": "failed"}
    lam, mu = alpha
    for box in add_box_candidates(lam):
        if pieri_V(box, alpha) != pieri_V_diagram(box, alpha):
            return False, {"diagram_mismatch": ["V", list(box)]}
    for box in remove_box_candidates(mu):
        u = pieri_U(box, alpha)
        if u != pieri_U_diagram(box, alpha):
            return False, {"diagram_mismatch": ["U", list(box)]}
        if u != pieri_U_diagram(box, alpha, L=len(lam) + 2,
                                M=len(mu) + 1):
            return False, {"rectangle_dependence": ["U", list(box)]}
    return True, {}


def _check_evaluation(alpha):
    got = construct(alpha).f.evaluate_eps()
    want = evaluation_value(alpha)
    ok = got == want
    return ok, {"value": str(got), "formula": str(want)}


def _check_norm_torus(alpha, N=4, k0=Fraction(-1)):
    f = phi_N_map(construct(alpha).f, N)
    val = torus_form(f, f, k0, N)
    want = norm_value(alpha).specialize(k0, N)
    return val == want, {"torus": str(val), "formula": str(want),
                         "N": N, "k": str(k0)}


def _check_involution(alpha):
    ok = jack.star_symmetry_check(alpha)
    return ok, {}


def _check_duality(alpha):
    ok = jack.theta_duality_check(alpha)
    return ok, {}


def _check_separation(pair):
    alpha, beta = pair
    if not separation_check(alpha, beta, l_max=8):
        return False, {"separated": False}
    first = next(l for l in range(1, 9)
                 if bernoulli_b(l, alpha) != bernoulli_b(l, beta))
    return True, {"first_separating_order": first}


def _check_finite_n(alpha, N=3, k0=Fraction(-1, 2)):
    lam, mu = alpha
    img = phi_N_map(construct(alpha).f, N).substitute_k(k0)
    if len(lam) + len(mu) > N:
        return img.is_zero(), {"N": N, "expected": "0"}
    chi = chi_N(alpha, N)
    want = jack_laurent_poly_N(chi, N, k0)
    if img != want:
        return False, {"N": N, "chi": list(chi)}
    if not finite_pieri_check(chi, N):
        return False, {"N": N, "finite_pieri": "failed"}
    hc_eigen_check_N(chi, N)
    if not involution_check_N(chi, N):
        return False, {"N": N, "involution": "failed"}
    return True, {"N": N, "chi": list(chi)}


def _check_schur(alpha):
    lam, mu = alpha
    lim = schur_limit(construct(alpha).f)
    det = jacobi_trudy_S(lam, mu)
    return lim == det, {}


# -- suite assembly ----------------------------------------------------------------


def _suite_checks(suite, max_size):
    labels = _labels(max_size)
    checks = []
    if suite in ("eigen", "all"):
        checks += [("eigen/%s" % _alpha_label(a),
                    lambda a=a: _check_eigen(a)) for a in labels]
    if suite in ("commute", "all"):
        checks += [("commute/%s" % label,
                    lambda lf=(label, f): _check_commute(lf))
                   for label, f in _monomials(min(max_size, 3))]
    if suite in ("pieri", "all"):
        checks += [("pieri/%s" % _alpha_label(a),
                    lambda a=a: _check_pieri(a))
                   for a in labels if size(a[0]) + size(a[1]) <= 3]
    if suite in ("evaluation", "all"):
        checks += [("evaluation/%s" % _alpha_label(a),
                    lambda a=a: _check_evaluation(a)) for a in labels]
    if suite in ("norms", "all"):
        checks += [("norms/%s" % _alpha_label(a),
                    lambda a=a: _check_norm_torus(a))
                   for a in labels if size(a[0]) + size(a[1]) <= 3]
    if suite in ("involutions", "all"):
        checks += [("involutions/%s" % _alpha_label(a),
                    lambda a=a: _check_involution(a)) for a in labels]
    if suite in ("duality", "all"):
        checks += [("duality/%s" % _alpha_label(a),
                    lambda a=a: _check_duality(a))
                   for a in labels if size(a[0]) + size(a[1]) <= 3]
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                 if size(a[0]) + size(a[1]) <= 3
                 and size(b[0]) + size(b[1]) <= 3]
        checks += [("separation/%s--%s" % (_alpha_label(a), _alpha_label(b)),
                    lambda p=(a, b): _check_separation(p))
                   for a, b in pairs]
    if suite in ("finite-n", "all"):
        checks += [("finite-n/%s" % _alpha_label(a),
                    lambda a=a: _check_finite_n(a))
                   for a in labels if size(a[0]) + size(a[1]) <= 3]
    if suite in ("schur", "all"):
        checks += [("schur/%s" % _alpha_label(a),
                    lambda a=a: _check_schur(a)) for a in labels]
    return checks


def run_suite(suite, max_size=3):
    """Run one named suite; returns the report dict (JSON-ready)."""
    if suite not in SUITES:
        raise ValueError("unknown suite %r; choose from %s"
                         % (suite, ", ".join(SUITES)))
    rows = []
    for cid, fn in _suite_checks(suite, max_size):
        try:
            ok, witness = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:                      # noqa: BLE001
            status = "fail"
            witness = {"error": "%s: %s" % (type(exc).__name__, exc)}
        rows.append({"id": cid, "status": status, "witness": witness})
    rows.sort(key=lambda row: row["id"])
    status = "pass" if all(r["status"] == "pass" for r in rows) else "fail"
    return {"suite": suite, "max_size": max_size, "status": status,
            "checks": rows}
