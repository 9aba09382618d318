"""Named verification sweeps over bipartition labels, assembled into a
deterministic JSON-ready report.

Each check is a closed computation returning pass/fail plus a witness
(eigenvalue tables, the first offending label, ...).  Checks run one
after another in one thread; the report lists them sorted by id."""

from collections import Counter
from fractions import Fraction
from functools import cache, partial

from .laurent import LaurentSymFunc, mono_from_dict
from .partitions import size, bipartitions_up_to, w_bipartition, chi_N, \
    add_box_candidates, remove_box_candidates, label_str
from .rational import ParamPoly, PoleAtSpecialization
from .operators import cms_L_doubled, cms_L2_direct
from .closed_forms import evaluation_value, norm_value, separation_check, \
    pieri_V, pieri_U, pieri_V_diagram, pieri_U_diagram
from . import jack
from .jack import construct
from .finite_n import phi_N_map, jack_laurent_poly_N, torus_form, \
    finite_pieri_check, hc_eigen_check_N, involution_check_N
from .schur import jacobi_trudy_S, schur_limit

SUITES = ("eigen", "commute", "pieri", "evaluation", "norms",
          "involutions", "duality", "finite-n", "schur", "all")

# The torus norm is compared at k = -1 and N = 4 variables, or
# len(lam) + len(mu) where that is more (P_alpha restricts to zero at
# fewer); restriction to finite N at N = 3 variables and k = -1/2.
TORUS_N, TORUS_K = 4, Fraction(-1)
FINITE_N, FINITE_K = 3, Fraction(-1, 2)
# k and p0 in Z[k, p0], where the integral checks run
_RING = (ParamPoly.var_k(), ParamPoly.var_p0())


def _alpha_label(alpha):
    return label_str(alpha, "|", "-")


# -- individual checks -----------------------------------------------------------


@cache
def _eigenvalues(alpha):
    """jack.eigen_check_all(alpha, r_max=3), once per label: check_eigen
    reads each label twice, as alpha and as w(alpha)."""
    return tuple(jack.eigen_check_all(alpha, r_max=3))


def check_eigen(alpha):
    evs = dict(_eigenvalues(alpha))
    wit = {"eigenvalues": {str(r): str(v) for r, v in sorted(evs.items())}}
    w_evs = dict(_eigenvalues(w_bipartition(alpha)))
    ok = w_evs[3] == -evs[3] and w_evs[2] == evs[2]
    return ok, wit


def check_commute(label, f):
    """The integrals L_1, L_2, L_3 commute on f, and cms_L2_direct is
    L_2.  f has ParamPoly coefficients, and every integral runs in
    Z[k, p0] doubled at each order: 2^r * L_r is cms_L_doubled, and
    4 * cms_L2_direct is compared with 2^2 * L_2.  Each 2^r * L_r(f)
    is computed once."""
    image = {r: cms_L_doubled(r, f, *_RING) for r in (1, 2, 3)}
    for r in (1, 2, 3):
        for s in range(r + 1, 4):
            lhs = cms_L_doubled(r, image[s], *_RING)
            rhs = cms_L_doubled(s, image[r], *_RING)
            if not (lhs - rhs).is_zero():
                return False, {"monomial": label, "orders": [r, s]}
    if cms_L2_direct(f, *_RING).scale(4) != image[2]:
        return False, {"monomial": label, "orders": [2], "route": "direct"}
    return True, {"monomial": label}


def check_pieri(alpha):
    """The Pieri identity in the ring, then V and U against their
    diagram forms, compared as Factored values."""
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
        if u != pieri_U_diagram(box, alpha, L=len(lam) + 2, M=len(mu) + 1):
            return False, {"rectangle_dependence": ["U", list(box)]}
    return True, {}


def check_evaluation(alpha):
    ok, got = jack.evaluation_check(alpha)
    want = got if ok else evaluation_value(alpha)
    return ok, {"value": str(got), "formula": str(want)}


def _restricted(alpha, k0, N):
    """phi_N(P_alpha) at k = k0, on Fractions: P_alpha is specialized to
    (k0, p0 = N) before the map.  None when a coefficient has a pole
    there, though the image may have none; the check then runs its
    symbolic route."""
    try:
        return phi_N_map(construct(alpha).f.specialize(k0, N), N)
    except PoleAtSpecialization:
        return None


def check_norm_torus(alpha):
    lam, mu = alpha
    N, k0 = max(TORUS_N, len(lam) + len(mu)), TORUS_K
    f = _restricted(alpha, k0, N)
    if f is None:
        f = phi_N_map(construct(alpha).f, N)
    val = torus_form(f, f, k0, N)
    want = norm_value(alpha).specialize(k0, N)
    return val == want, {"torus": str(val), "formula": str(want),
                         "N": N, "k": str(k0)}


def check_involution(alpha):
    ok = jack.star_symmetry_check(alpha)
    return ok, {}


def check_duality(alpha):
    ok = jack.theta_duality_check(alpha)
    return ok, {}


def check_separation(alpha, beta):
    first = separation_check(alpha, beta)
    if first is None:
        return False, {"separated": False}
    return True, {"first_separating_order": first}


def check_finite_n(alpha):
    N, k0 = FINITE_N, FINITE_K
    lam, mu = alpha
    img = _restricted(alpha, k0, N)
    if img is None:
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


def check_schur(alpha):
    lam, mu = alpha
    lim = schur_limit(construct(alpha).f)
    det = jacobi_trudy_S(lam, mu)
    return lim == det, {}


# -- suite assembly ----------------------------------------------------------------


def _p_monomial(alpha):
    """p_lam * p_{-mu} with the coefficient 1 of Z[k, p0], where
    check_commute runs."""
    lam, mu = alpha
    exps = Counter(lam) + Counter(-i for i in mu)
    return LaurentSymFunc({mono_from_dict(exps): ParamPoly.const(1)})


def _per_label(name, check, labels):
    return [("%s/%s" % (name, _alpha_label(a)), partial(check, a))
            for a in labels]


def _suite_checks(suite, max_size):
    labels = sorted(bipartitions_up_to(max_size))
    small = [a for a in labels if size(a[0]) + size(a[1]) <= 3]
    monomials = [(_alpha_label(a), _p_monomial(a)) for a in small]
    groups = {
        "eigen": _per_label("eigen", check_eigen, labels),
        "commute": [("commute/%s" % label, partial(check_commute, label, f))
                    for label, f in monomials],
        "pieri": _per_label("pieri", check_pieri, small),
        "evaluation": _per_label("evaluation", check_evaluation, labels),
        "norms": _per_label("norms", check_norm_torus, small),
        "involutions": _per_label("involutions", check_involution, labels),
        "duality": _per_label("duality", check_duality, small) + [
            ("separation/%s--%s" % (_alpha_label(a), _alpha_label(b)),
             partial(check_separation, a, b))
            for i, a in enumerate(small) for b in small[i + 1:]],
        "finite-n": _per_label("finite-n", check_finite_n, small),
        "schur": _per_label("schur", check_schur, labels),
    }
    return [check for name, group in groups.items()
            if suite in (name, "all") for check in group]


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
