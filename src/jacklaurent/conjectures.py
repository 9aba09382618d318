"""Experimental harness, report-only: the p0 -> infinity limit of the
two-parameter eigenfunctions, the limiting norm formula, the limiting
bilinear form on power-sum products, and the integrality products.

Nothing here gates a test run; every instance produces a verdict in
{holds, fails, indeterminate} together with the exact coefficients that
were examined, so any claim can be re-derived by hand."""

from math import factorial, prod

from .rational import ParamRat, RAT_ZERO, K, P0
from .laurent import LaurentSymFunc, mono_str
from .partitions import normalize_partition, size, \
    partitions_of, partitions_up_to, bipartitions_up_to, alpha_json
from .closed_forms import Factored, phi_infinity, norm_value, \
    stanley_denominators, phi_pair_factors
from .jack import construct


# -- the p0 -> infinity limit of a single rational ------------------------------

def p0_limit_coeff(c):
    """Limit of one element of Q(k, p0) as p0 -> infinity: compare p0
    degrees of numerator and denominator; returns (exists, limit)."""
    if c.is_zero():
        return True, RAT_ZERO
    dn, dd = c.num.degree_p0(), c.den.degree_p0()
    if dn < dd:
        return True, RAT_ZERO
    if dn == dd:
        return True, ParamRat(c.num.coeff_of_p0_power(dn),
                              c.den.coeff_of_p0_power(dd))
    return False, None


def p0_infinity_limit(alpha):
    """Coefficientwise limit of P_alpha; (verdict, limit or None,
    witnesses).  The witness lists every monomial whose coefficient was
    examined, with the coefficient and its limit (or 'diverges')."""
    jf = construct(alpha)
    witnesses = []
    terms = {}
    ok = True
    for m, c in jf.f.sorted_terms():
        exists, lim = p0_limit_coeff(c)
        witnesses.append({"monomial": mono_str(m), "coefficient": str(c),
                          "limit": str(lim) if exists else "diverges"})
        if not exists:
            ok = False
        elif not lim.is_zero():
            terms[m] = lim
    if not ok:
        return "fails", None, witnesses
    return "holds", LaurentSymFunc(terms), witnesses


def norm_infinity_check(alpha):
    """Limit of the quadratic norm against Phi(lam) Phi(mu)."""
    lam, mu = alpha
    nv = norm_value(alpha).to_rat()
    exists, lim = p0_limit_coeff(nv)
    target = phi_infinity(lam) * phi_infinity(mu)
    witness = {"norm": str(nv),
               "limit": str(lim) if exists else "diverges",
               "product_formula": str(target)}
    if not exists:
        return "fails", witness
    return ("holds" if lim == target else "fails"), witness


# -- integrality products --------------------------------------------------------

def a_lambda(lam):
    """The denominators of stanley_phi(lam, ., 0) as one Factored: prod
    over boxes (i,j) of lam_i - j + k(i - 1 - lam'_j)."""
    return prod(stanley_denominators(normalize_partition(lam), 0),
                start=Factored())


def a_pair(lam, mu):
    """The two-partition product tying the positive and negative halves,
    the denominators of phi_pair(lam, mu, p0, 0) as one Factored: prod
    over rows i of lam and columns j of mu of
    (j-1+k(i-1-p0)) (lam_i+j-1+k(i-1+mu'_j-p0))."""
    factors = phi_pair_factors(normalize_partition(lam),
                               normalize_partition(mu), P0, 0)
    return prod((den for _, dens in factors for den in dens),
                start=Factored())


def integrality_check(alpha):
    """Strong form: every coefficient of A(lam,mu) A(lam) A(mu) P_alpha is
    a polynomial (unit denominator).  Weak form: the denominators of
    A(lam,mu) P_alpha are free of p0.  Returns (strong, weak, witness).
    Both are divisions in the UFD Z[k, p0] by the lcm D of P_alpha's
    denominators, decided on the Factored forms, whose atoms are
    non-associate primes: the multiplier holds each atom of D to at
    least its power and D's content divides its scale, and A(lam,mu)
    holds each atom of D in p0 to at least its power.  Only a failing
    form multiplies out in Q(k, p0), to name its first counterexample."""
    lam, mu = alpha
    jf = construct(alpha)
    D = jf.cleared[1]
    pair = a_pair(lam, mu)
    mult = pair * a_lambda(lam) * a_lambda(mu)
    strong = mult.scale % D.scale == 0 and all(
        mult.atoms[a] >= e for a, e in D.atoms.items())
    weak = all(pair.atoms[a] >= e for a, e in D.atoms.items()
               if a.degree_p0())
    mult, pair = mult.to_rat(), pair.to_rat()
    bad = None if strong else next(
        (mono_str(m), str(c)) for m, c in (jf.f * mult).sorted_terms()
        if not c.has_unit_denominator())
    bad_weak = None if weak else next(
        (mono_str(m), str(c)) for m, c in (jf.f * pair).sorted_terms()
        if c.den.degree_p0() > 0)
    witness = {"multiplier": str(mult),
               "strong_counterexample": bad,
               "weak_counterexample": bad_weak}
    return ("fails" if bad else "holds"), \
        ("fails" if bad_weak else "holds"), witness


# -- the limiting bilinear form ---------------------------------------------------

def jack_basis_expansion(f):
    """Write f as a combination of eigenfunctions P_alpha by exact linear
    algebra in the monomial basis.  f must be homogeneous of one integer
    degree; candidate labels are read off from its bidegrees."""
    if f.is_zero():
        return {}
    bds = sorted(f.bidegree_components())
    degs = {a - b for (a, b) in bds}
    if len(degs) != 1:
        raise ValueError("element is not homogeneous of one integer degree")
    d = degs.pop()
    top = max(a for (a, b) in bds)
    labels = []
    for na in range(max(d, 0), top + 1):
        nb = na - d
        for lam in partitions_of(na):
            for mu in partitions_of(nb):
                labels.append((lam, mu))
    labels.sort()
    columns = [construct(alpha).f.terms for alpha in labels]
    monos = sorted({m for col in columns for m in col} | set(f.terms))
    ncols = len(labels)
    A = [[col.get(m, RAT_ZERO) for col in columns] + [f.terms.get(m, RAT_ZERO)]
         for m in monos]
    row = 0
    pivots = []
    for col in range(ncols):
        sel = next((r for r in range(row, len(A))
                    if not A[r][col].is_zero()), None)
        if sel is None:
            continue
        A[row], A[sel] = A[sel], A[row]
        inv = A[row][col].inverse()
        A[row] = [x * inv for x in A[row]]
        for r in range(len(A)):
            if r != row and not A[r][col].is_zero():
                g = A[r][col]
                A[r] = [x - g * y for x, y in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
    for r in range(row, len(A)):
        if not A[r][ncols].is_zero():
            raise ValueError("no expansion in the candidate labels")
    out = {}
    for r, col in enumerate(pivots):
        if not A[r][ncols].is_zero():
            out[labels[col]] = A[r][ncols]
    return out


def limiting_form(f, g):
    """(f, g) at p0 -> infinity: expand both sides in the eigenfunction
    basis, pair by orthogonality with the exact quadratic norms, then take
    the limit of the resulting rational; (exists, value)."""
    cf = jack_basis_expansion(f)
    cg = jack_basis_expansion(g)
    total = RAT_ZERO
    for alpha, c in cf.items():
        c2 = cg.get(alpha)
        if c2 is not None:
            total = total + c * c2 * norm_value(alpha).to_rat()
    return p0_limit_coeff(total)


def _p_product(lam, mu):
    return LaurentSymFunc.from_partition(lam) \
        * LaurentSymFunc.from_partition(mu, sign=-1)


def power_sum_form_check(max_deg=2):
    """On the positive half the limiting form reduces to the classical
    one: (p_lam, p_mu) -> (-k)^{-l(lam)} prod j^{m_j} m_j! delta.  Returns
    (verdict, instances)."""
    parts = [p for p in partitions_up_to(max_deg) if p]
    verdict = "holds"
    inst = []
    for lam in parts:
        for mu in parts:
            if size(lam) != size(mu):
                continue
            exists, val = limiting_form(_p_product(lam, ()),
                                        _p_product(mu, ()))
            if lam == mu:
                target = (-K) ** (-len(lam))
                mult = {}
                for j in lam:
                    mult[j] = mult.get(j, 0) + 1
                n = 1
                for j, mj in mult.items():
                    n *= j ** mj * factorial(mj)
                target = target * n
            else:
                target = RAT_ZERO
            ok = exists and val == target
            if not ok:
                verdict = "fails"
            inst.append({"lam": list(lam), "mu": list(mu),
                         "verdict": "holds" if ok else "fails",
                         "value": str(val) if exists else "diverges",
                         "target": str(target)})
    return verdict, inst


def non_orthogonality_data(max_deg=2):
    """Pairings of p_lam p*_mu products in the limit; records the values
    and whether some off-diagonal pairing is nonzero (it is)."""
    labels = sorted(bipartitions_up_to(max_deg))
    rows = []
    found = False
    for a in labels:
        for b in labels:
            if (size(a[0]) - size(a[1])) != (size(b[0]) - size(b[1])):
                continue
            exists, val = limiting_form(_p_product(*a), _p_product(*b))
            if a != b and exists and not val.is_zero():
                found = True
            rows.append({"left": alpha_json(a), "right": alpha_json(b),
                         "value": str(val) if exists else "diverges"})
    return found, rows


# -- the assembled report ----------------------------------------------------------

class ConjectureReport:
    """Named collection of per-instance verdicts with witnesses."""

    def __init__(self, name, instances):
        self.name = name
        self.instances = instances

    def verdict(self):
        vs = {i["verdict"] for i in self.instances if "verdict" in i}
        if "fails" in vs:
            return "fails"
        if "indeterminate" in vs:
            return "indeterminate"
        return "holds"

    def to_dict(self):
        return {"name": self.name, "verdict": self.verdict(),
                "instances": self.instances}


def run_all(max_size=3):
    """All conjecture sweeps at |lam|+|mu| <= max_size; deterministic."""
    labels = sorted(bipartitions_up_to(max_size))
    lim_inst = []
    norm_inst = []
    int_inst = []
    for alpha in labels:
        v, limit, wit = p0_infinity_limit(alpha)
        lim_inst.append({"alpha": alpha_json(alpha), "verdict": v,
                         "limit": str(limit) if limit is not None else None,
                         "witness": wit})
        v2, wit2 = norm_infinity_check(alpha)
        norm_inst.append({"alpha": alpha_json(alpha), "verdict": v2,
                          "witness": wit2})
        s, w, wit3 = integrality_check(alpha)
        int_inst.append({"alpha": alpha_json(alpha), "verdict": s,
                         "weak_verdict": w, "witness": wit3})
    for lam in sorted(partitions_up_to(4)):
        if size(lam) <= max_size or not lam:
            continue
        s, w, wit3 = integrality_check((lam, ()))
        int_inst.append({"alpha": alpha_json((lam, ())), "verdict": s,
                         "weak_verdict": w, "witness": wit3})
    _, ps_inst = power_sum_form_check(2)
    nonorth, rows = non_orthogonality_data(2)
    return {
        "p0_infinity_limit": ConjectureReport(
            "p0 limits exist", lim_inst).to_dict(),
        "norm_infinity": ConjectureReport(
            "limiting norms factor through Phi", norm_inst).to_dict(),
        "integrality": ConjectureReport(
            "integrality of the cleared product", int_inst).to_dict(),
        "power_sum_form": ConjectureReport(
            "limiting form restricted to the positive half",
            ps_inst).to_dict(),
        "non_orthogonality": {
            "name": "power products are not orthogonal in the limit",
            "observed_nonzero_off_diagonal": nonorth,
            "pairings": rows,
        },
    }
