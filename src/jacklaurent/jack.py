"""Two-parameter eigenfunctions P_{lam,mu} of the CMS integrals on the
Laurent symmetric-function algebra, built by spectral projection.

The construction grows the first diagram box by box, in one loop, _grow,
that runs at a point: either symbolic parameters or a rational (k, p0).
One step takes the function at alpha = (lam, mu), multiplies by p_1, and
isolates the P_{lam+box, mu} component by applying, for every other label
gamma that can appear in the product, the factor
(L2 - e(gamma))/(s - e(gamma)), where s is the eigenvalue of the target;
finally it divides by the Pieri coefficient V of the added box.  The
numerators L2 - e(gamma) run in a ring, on the function with its
denominators cleared, where the operator's coefficients and the gaps
s - e(gamma) already lie: symbolically Z[k, p0], and at a rational
point the integers, with the operator and the eigenvalues scaled by
the product of the denominators of k and p0.  The product of the gaps,
the cleared denominator and V are divided out once per step.  A step
raises SingularParameter when two of these eigenvalues coincide at the
point or the Pieri coefficient vanishes there.

P_{lam,0} is the classical one-parameter eigenfunction of the positive
part, free of p0, and the base case is P_{0,mu} = star(P_{mu,0}), with
star the involution p_i -> p_{-i}.  Everything is exact over Q(k, p0);
the numeric mode runs the same loop at (k, 0) for P_{mu,0} and at (k, p0)
for the rest, on ints, and returns Fraction coefficients.
"""

from fractions import Fraction
from functools import cache
from math import lcm

from .rational import ParamPoly, ParamRat, RAT_ZERO, rat, \
    SingularParameter, NotEigenvector, poly_divexact, _cancel
from .laurent import LaurentSymFunc
from .partitions import size, conjugate, add_box_candidates, \
    remove_box_candidates, add_box, remove_box, normalize_partition, \
    label_str
from .operators import cms_L_doubled, cms_L2_weighted
from .closed_forms import eigenvalue_e, pieri_V, pieri_V_pair, pieri_U, \
    duality_constant


class JackLaurentFunction:
    """A constructed eigenfunction together with its label and trace.

    fields: alpha (the bipartition), f (the element of the algebra),
    eigenvalue2 (the second integral's eigenvalue), provenance (the
    sequence of boxes added to the first diagram, in order).
    Instances are immutable; the memo table shares them freely.
    """

    __slots__ = ("alpha", "f", "eigenvalue2", "provenance")

    def __init__(self, alpha, f, eigenvalue2, provenance):
        self.alpha = alpha
        self.f = f
        self.eigenvalue2 = eigenvalue2
        self.provenance = provenance

    def __str__(self):
        return "P[%s] = %s" % (label_str(self.alpha, "; ", "0"), self.f)

    def __repr__(self):
        return "JackLaurentFunction(alpha=%r)" % (self.alpha,)


def _normalize_alpha(alpha):
    lam, mu = alpha
    return normalize_partition(lam), normalize_partition(mu)


def _deepest_removable(lam):
    return max(remove_box_candidates(lam))


def _canonical_order(lam):
    """Box-addition order used by construct: peel deepest removable boxes
    off `lam`, then reverse."""
    peeled = []
    while lam:
        box = _deepest_removable(lam)
        peeled.append(box)
        lam = remove_box(lam, box)
    peeled.reverse()
    return peeled


def _neighbors(alpha):
    """All labels that can appear in p_1 * P_alpha: a box added to the
    first diagram or removed from the second."""
    lam, mu = alpha
    out = [(add_box(lam, x), mu) for x in add_box_candidates(lam)]
    out.extend((lam, remove_box(mu, y)) for y in remove_box_candidates(mu))
    return out


# -- construction --------------------------------------------------------------

class _Point:
    """Where _grow runs: symbolic parameters, or the rational point
    `at` = (k0, p00) of Fractions.

    A step computes in a ring and divides once, in the field.
    Symbolically the ring is Z[k, p0] (ParamPoly) and the field Q(k, p0)
    (ParamRat).  The ring is Z at a rational point, and the field Q
    (Fraction): with k0 = kn/kd and p00 = pn/pd in lowest terms, the
    operator runs with the int weights (kd*pd, kn*pd, kd*pn, kn*pn),
    which is kd*pd*L2 at the point, and `shift` scales each eigenvalue
    by kd*pd alike.  Symbolically the weights are (1, k, p0, k*p0) and
    `shift` is the identity.  `k` and `p0` are the point where the
    closed forms are read: eigenvalue_e and pieri_V_pair take them as
    they are, so the singularity checks run on the values at the point.
    `clear` and `unclear` move a function between the ring and the
    field.
    """

    __slots__ = ("at", "k", "p0", "weights")

    def __init__(self, at=None):
        self.at = at
        if at is None:
            self.k, self.p0 = ParamPoly.var_k(), ParamPoly.var_p0()
            self.weights = (1, self.k, self.p0, self.k * self.p0)
        else:
            self.k, self.p0 = at
            kn, kd = self.k.numerator, self.k.denominator
            pn, pd = self.p0.numerator, self.p0.denominator
            self.weights = (kd * pd, kn * pd, kd * pn, kn * pn)

    def shift(self, e):
        """The eigenvalue e in the ring, scaled like the operator: e
        itself symbolically, and the int kd*pd*e at a rational point,
        exact because e has degree at most 1 in each of k and p0."""
        if self.at is None:
            return e
        n, r = divmod(e.numerator * self.weights[0], e.denominator)
        if r:
            raise ArithmeticError("eigenvalue %s times %d is not an integer"
                                  % (e, self.weights[0]))
        return n

    def clear(self, f):
        """(F, D) with F = D*f on ring coefficients and D in the ring, the
        lcm of the coefficient denominators.  At a rational point that is
        the int lcm of the Fraction denominators.  Symbolically it is an
        int lcm of their contents times the lcm of their primitive parts,
        pairwise through _cancel."""
        if self.at is not None:
            d = lcm(*(c.denominator for c in f.terms.values()))
            F = f.map_coeffs(lambda c: c.numerator * (d // c.denominator))
            return F, d
        dens = {c.den for c in f.terms.values()}
        n, d = 1, ParamPoly.const(1)
        for den in dens:
            cd, pd = den.content_primitive()
            n = lcm(n, cd)
            d = d * _cancel(d, pd)[1]
        d = d * n
        quot = {den: poly_divexact(d, den) for den in dens}
        return f.map_coeffs(lambda c: c.num * quot[c.den]), d

    def unclear(self, F, num, den):
        """F * num/den in the field, for F on ring coefficients: one
        division for the whole function, and at a rational point one
        Fraction per coefficient."""
        if self.at is not None:
            r = Fraction(num, den)
            rn, rd = r.numerator, r.denominator
            return F.map_coeffs(lambda c: Fraction(c * rn, rd))
        r = ParamRat(num, den)
        return F.map_coeffs(lambda c: ParamRat(c) * r)

    def __str__(self):
        return "" if self.at is None else " at k=%s, p0=%s" % self.at


_SYMBOLIC = _Point()


def _grow(f, alpha, box, point):
    """One projector step at `point`: from f = P_alpha to P_beta, where
    beta adds `box` to the first diagram of alpha.  The singularity
    checks run first, on the eigenvalues and V = vnum/vden read at the
    point; then p_1 and every L2 - e(gamma), both scaled into the ring
    by the point's weights and shift, act on F = D*f in the ring, and
    den = D * prod (s - e(gamma)), scaled alike, and V are divided out
    once."""
    lam, mu = alpha
    beta = (add_box(lam, box), mu)
    near = [(gamma, eigenvalue_e(gamma, point.k, point.p0))
            for gamma in _neighbors(alpha)]
    for i, (g1, e1) in enumerate(near):
        for g2, e2 in near[i + 1:]:
            if e1 == e2:
                raise SingularParameter("eigenvalue collision%s: %s vs %s"
                                        % (point, g1, g2))
    vnum, vden = pieri_V_pair(box, alpha, point.k)
    if not vden:
        raise SingularParameter("transition coefficient at box %s has a "
                                "pole%s" % (box, point))
    if not vnum:
        raise SingularParameter("vanishing transition coefficient at box "
                                "%s%s" % (box, point))
    s = point.shift(dict(near)[beta])
    out, den = point.clear(f)
    out = out.times(1)
    for gamma, e in near:
        if gamma != beta:
            e = point.shift(e)
            out = cms_L2_weighted(out, point.weights) - out * e
            den = den * (s - e)
    return point.unclear(out, vden, den * vnum)


def _extend(prev, box):
    """The symbolic step from prev = P_alpha, with its label and trace."""
    lam, mu = prev.alpha
    beta = (add_box(lam, box), mu)
    return JackLaurentFunction(beta, _grow(prev.f, prev.alpha, box, _SYMBOLIC),
                               eigenvalue_e(beta), prev.provenance + (box,))


def construct(alpha):
    """The function P_{lam,mu}, memoized; parameters stay symbolic."""
    return _construct(_normalize_alpha(alpha))


@cache
def _construct(key):
    lam, mu = key
    if lam:
        box = _deepest_removable(lam)
        return _extend(construct((remove_box(lam, box), mu)), box)
    f = construct((mu, ())).f.star() if mu else LaurentSymFunc.one()
    return JackLaurentFunction(key, f, eigenvalue_e(key), ())


def jack_positive(lam):
    """The classical monic eigenfunction P_lam of the positive part,
    free of p0: the function P_{lam,0}."""
    return construct((lam, ())).f


def construct_via_order(alpha, order):
    """Build P_alpha adding the first diagram's boxes in the given order
    (every prefix must be a partition), from P_{0,mu} read from the memo
    table; the steps themselves bypass it.  Used to confirm the result
    does not depend on the order."""
    lam, mu = _normalize_alpha(alpha)
    cur = construct(((), mu))
    for box in order:
        cur = _extend(cur, tuple(box))
    if cur.alpha != (lam, mu):
        raise ValueError("order %r does not build %r" % (order, lam))
    return cur


# -- identity checks -----------------------------------------------------------

def pieri_identity_check(alpha):
    """p_1 * P_{lam,mu} = sum_x V(x) P_{lam+x,mu} + sum_y U(y) P_{lam,mu-y},
    compared exactly."""
    lam, mu = _normalize_alpha(alpha)
    lhs = construct((lam, mu)).f.times(1)
    rhs = LaurentSymFunc.zero()
    for x in add_box_candidates(lam):
        v = pieri_V(x, (lam, mu))
        if not v.is_zero():
            rhs = rhs + construct((add_box(lam, x), mu)).f * v
    for y in remove_box_candidates(mu):
        u = pieri_U(y, (lam, mu))
        if not u.is_zero():
            rhs = rhs + construct((lam, remove_box(mu, y))).f * u
    return lhs == rhs


def star_symmetry_check(alpha):
    """star(P_{lam,mu}) = P_{mu,lam}, compared exactly."""
    lam, mu = _normalize_alpha(alpha)
    return construct((lam, mu)).f.star() == construct((mu, lam)).f


def theta_duality_check(alpha):
    """theta^{-1}(P_alpha) = d_alpha * P_{alpha'} with k -> 1/k, p0 -> k*p0
    substituted in the conjugate-label function; d_alpha from the
    evaluation formula."""
    lam, mu = _normalize_alpha(alpha)
    lhs = construct((lam, mu)).f.theta(inverse=True)
    dual = construct((conjugate(lam), conjugate(mu))).f.param_swap()
    return lhs == dual * duality_constant((lam, mu))


def _ring_eigenvalue(F, r, alpha):
    """The eigenvalue of the r-th integral on F, a function cleared of
    denominators (ParamPoly coefficients), read in the ring: with
    R = 2^r * L_r(F) from cms_L_doubled, F is an eigenfunction when R and
    F have the same support and R[m] * F[m0] == F[m] * R[m0] for every
    monomial m, m0 the leading one; the eigenvalue is then
    R[m0] / (2^r * F[m0]).  Raises NotEigenvector otherwise, naming
    the label alpha."""
    R = cms_L_doubled(r, F, _SYMBOLIC.k, _SYMBOLIC.p0)
    if R.is_zero():
        return RAT_ZERO
    if R.terms.keys() == F.terms.keys():
        m0 = F.sorted_terms()[0][0]
        f0, r0 = F.terms[m0], R.terms[m0]
        if all(R.terms[m] * f0 == c * r0 for m, c in F.terms.items()):
            return ParamRat(r0, f0 * 2 ** r)
    raise NotEigenvector("order-%d integral is not scalar on %s"
                         % (r, alpha))


def eigen_check_all(alpha, r_max=3):
    """Assert P_alpha is an exact eigenfunction of the first r_max
    integrals and return the list of (r, eigenvalue).  The first
    eigenvalue must be |lam| - |mu| and the second must match the
    closed form.  The integrals run in Z[k, p0], on P_alpha cleared of
    its denominators once (_ring_eigenvalue)."""
    jf = construct(alpha)
    lam, mu = jf.alpha
    F, _ = _SYMBOLIC.clear(jf.f)
    out = [(r, _ring_eigenvalue(F, r, (lam, mu)))
           for r in range(1, r_max + 1)]
    if r_max >= 1 and out[0][1] != rat(size(lam) - size(mu)):
        raise NotEigenvector("first eigenvalue of %s is not |lam|-|mu|"
                             % ((lam, mu),))
    if r_max >= 2 and out[1][1] != jf.eigenvalue2:
        raise NotEigenvector("second eigenvalue of %s is off the closed form"
                             % ((lam, mu),))
    return out


# -- numeric parameter modes ---------------------------------------------------

def _walk(f, lam, mu, point):
    """Grow f = P_{0,mu} to P_{lam,mu} along the canonical order at
    `point`."""
    shape = ()
    for box in _canonical_order(lam):
        f = _grow(f, (shape, mu), box, point)
        shape = add_box(shape, box)
    return f


def rational_mode_construct(alpha, k0, p00):
    """Run the construction with both parameters fixed to rationals; the
    result has Fraction coefficients.  Agrees with
    construct(alpha).f.specialize(k0, p00) whenever the latter is
    defined; raises SingularParameter when the chosen point hits an
    eigenvalue collision or kills a transition coefficient."""
    k0 = Fraction(k0)
    p00 = Fraction(p00)
    lam, mu = _normalize_alpha(alpha)
    positive = _walk(LaurentSymFunc.const(Fraction(1)), mu, (),
                     _Point((k0, Fraction(0))))
    return _walk(positive.star(), lam, mu, _Point((k0, p00)))
