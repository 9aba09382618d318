"""Schur-Laurent polynomials: the k = -1 specialization target.

S_{lam,mu} is defined by a Jacobi-Trudy style determinant in the complete
homogeneous generators h_i (Newton recursion from the p_i) and their
*-images; the main check elsewhere is that the two-parameter
eigenfunctions specialize to these determinants at k = -1 with every
coefficient finite and free of p0."""

from functools import cache

from .rational import RAT_ONE, IdenticallySingular, as_rat, rat
from .laurent import LaurentSymFunc
from .partitions import normalize_partition


class ResidualP0(ArithmeticError):
    """A k = -1 limit still depends on p0; the limit should not."""


def complete_h(i):
    """Complete homogeneous generator h_i in the p-basis, by the Newton
    recursion i h_i = sum_{m=1}^{i} p_m h_{i-m}; zero for i < 0."""
    if i < 0:
        return LaurentSymFunc.zero()
    return _complete_h(i)


@cache
def _complete_h(i):
    if i == 0:
        return LaurentSymFunc.one()
    acc = LaurentSymFunc.zero()
    for m in range(1, i + 1):
        acc = acc + LaurentSymFunc.gen(m) * complete_h(i - m)
    return acc * (RAT_ONE * i).inverse()


def _det(rows):
    """Determinant of a square matrix of algebra elements, by cofactor
    expansion along the first column."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = LaurentSymFunc.zero()
    for i in range(n):
        piv = rows[i][0]
        if piv.is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        cof = piv * _det(minor)
        total = total + cof if i % 2 == 0 else total - cof
    return total


def jacobi_trudy_S(lam, mu):
    """The Schur-Laurent polynomial S_{lam,mu} as an (r+s) x (r+s)
    determinant, r = len(lam), s = len(mu): the first s rows hold
    *-conjugated h's read from mu bottom-up, the rest h's read from lam."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    r, s = len(lam), len(mu)
    n = r + s
    if n == 0:
        return LaurentSymFunc.one()
    rows = []
    for u in range(1, s + 1):
        rows.append([complete_h(mu[s - u] + u - c).star()
                     for c in range(1, n + 1)])
    for v in range(1, r + 1):
        rows.append([complete_h(lam[v - 1] - s - v + c)
                     for c in range(1, n + 1)])
    return _det(rows)


def _at_minus_one(p):
    """The ParamPoly p at k = -1, a polynomial in p0, as the dict
    {degree: nonzero int coefficient}."""
    out = {}
    for (i, j), c in p.terms.items():
        out[j] = out.get(j, 0) + (-c if i & 1 else c)
    return {j: c for j, c in out.items() if c}


def schur_limit(f):
    """Evaluate a Laurent symmetric function at k = -1, insisting that the
    limit exists (no coefficient has a pole there) and is free of p0.
    Each coefficient num/den is read as num(-1, p0) / den(-1, p0), and
    it is the constant c/d of the leading coefficients in p0 exactly
    when num(-1, p0) * d == den(-1, p0) * c: no gcd is taken.  The
    reduced value in Q(p0) (substitute_k) is built only to name a
    residual p0."""
    out = {}
    for m, c in f.terms.items():
        c = as_rat(c)
        num, den = _at_minus_one(c.num), _at_minus_one(c.den)
        if not den:
            raise IdenticallySingular(
                "pole at k = -1: denominator %s vanishes identically at "
                "k=-1" % c.den)
        if not num:
            continue
        top, bottom = num[max(num)], den[max(den)]
        if num.keys() != den.keys() or \
                any(x * bottom != den[j] * top for j, x in num.items()):
            raise ResidualP0("coefficient of a term still involves p0: %s"
                             % c.substitute_k(-1))
        out[m] = rat(top, bottom)
    return f._like(out)
