"""Two-parameter eigenfunctions P_{lam,mu} of the CMS integrals on the
Laurent symmetric-function algebra, built by spectral projection.

The construction grows the first diagram box by box, in one loop, _grow,
that runs at a point: either symbolic parameters or a rational (k, p0).
One step takes the function at alpha = (lam, mu), multiplies by p_1, and
isolates the P_{lam+box, mu} component by applying, for every other label
gamma that can appear in the product, the factor
(L2 - e(gamma))/(s - e(gamma)), where s is the eigenvalue of the target;
finally it divides by the Pieri coefficient of the added box.  A step
raises SingularParameter when two of these eigenvalues coincide at the
point or the Pieri coefficient vanishes there.

P_{lam,0} is the classical one-parameter eigenfunction of the positive
part, free of p0, and the base case is P_{0,mu} = star(P_{mu,0}), with
star the involution p_i -> p_{-i}.  Everything is exact over Q(k, p0);
the numeric mode runs the same loop at (k, 0) for P_{mu,0} and at (k, p0)
for the rest.
"""

from fractions import Fraction

from .rational import ParamRat, K, P0, RAT_ZERO, rat, SingularParameter, \
    PoleAtSpecialization, NotEigenvector
from .laurent import LaurentSymFunc, mono_str
from .partitions import size, conjugate, add_box_candidates, \
    remove_box_candidates, add_box, remove_box
from .operators import cms_L, cms_L2_direct
from .closed_forms import eigenvalue_e, pieri_V, pieri_U, duality_constant


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
        lam, mu = self.alpha
        return "P[%s; %s] = %s" % (",".join(map(str, lam)) or "0",
                                   ",".join(map(str, mu)) or "0", self.f)

    def __repr__(self):
        return "JackLaurentFunction(alpha=%r)" % (self.alpha,)


def _partition(seq):
    t = tuple(int(x) for x in seq)
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)) or (t and t[-1] <= 0):
        raise ValueError("not a partition: %r" % (seq,))
    return t


def _normalize_alpha(alpha):
    lam, mu = alpha
    return _partition(lam), _partition(mu)


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
    `at` = (k0, p00).  `k` and `p0` are the parameters handed to
    cms_L2_direct; `value` reads a closed form at the point."""

    __slots__ = ("at", "k", "p0")

    def __init__(self, at=None):
        self.at = at
        if at is None:
            self.k, self.p0 = K, P0
        else:
            self.k, self.p0 = (ParamRat.from_fraction(x) for x in at)

    def value(self, x, what):
        if self.at is None:
            return x
        try:
            return ParamRat.from_fraction(x.specialize(*self.at))
        except PoleAtSpecialization:
            raise SingularParameter("%s has a pole%s" % (what, self))

    def __str__(self):
        return "" if self.at is None else " at k=%s, p0=%s" % self.at


_SYMBOLIC = _Point()


def _grow(f, alpha, box, point):
    """One projector step at `point`: from f = P_alpha to P_beta, where
    beta adds `box` to the first diagram of alpha."""
    lam, mu = alpha
    beta = (add_box(lam, box), mu)
    near = [(gamma, point.value(eigenvalue_e(gamma), "eigenvalue"))
            for gamma in _neighbors(alpha)]
    for i, (g1, e1) in enumerate(near):
        for g2, e2 in near[i + 1:]:
            if e1 == e2:
                raise SingularParameter("eigenvalue collision%s: %s vs %s"
                                        % (point, g1, g2))
    v = point.value(pieri_V(box, alpha),
                    "transition coefficient at box %s" % (box,))
    if v.is_zero():
        raise SingularParameter("vanishing transition coefficient at box "
                                "%s%s" % (box, point))
    s = dict(near)[beta]
    out = LaurentSymFunc.gen(1) * f
    for gamma, e in near:
        if gamma != beta:
            out = (cms_L2_direct(out, k=point.k, p0=point.p0) - out * e) \
                * (s - e).inverse()
    return out * v.inverse()


_CACHE = {}


def _extend(prev, box):
    """The symbolic step from prev = P_alpha, with its label and trace."""
    lam, mu = prev.alpha
    beta = (add_box(lam, box), mu)
    return JackLaurentFunction(beta, _grow(prev.f, prev.alpha, box, _SYMBOLIC),
                               eigenvalue_e(beta), prev.provenance + (box,))


def construct(alpha):
    """The function P_{lam,mu}, memoized; parameters stay symbolic."""
    key = _normalize_alpha(alpha)
    got = _CACHE.get(key)
    if got is not None:
        return got
    lam, mu = key
    if lam:
        box = _deepest_removable(lam)
        jf = _extend(construct((remove_box(lam, box), mu)), box)
    else:
        f = construct((mu, ())).f.star() if mu else LaurentSymFunc.one()
        jf = JackLaurentFunction(key, f, eigenvalue_e(key), ())
    _CACHE[key] = jf
    return jf


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


def clear_cache():
    _CACHE.clear()


# -- identity checks -----------------------------------------------------------

def pieri_identity_check(alpha):
    """p_1 * P_{lam,mu} = sum_x V(x) P_{lam+x,mu} + sum_y U(y) P_{lam,mu-y},
    compared exactly."""
    lam, mu = _normalize_alpha(alpha)
    lhs = LaurentSymFunc.gen(1) * construct((lam, mu)).f
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


def eigen_check_all(alpha, r_max=3):
    """Assert P_alpha is an exact eigenfunction of the first r_max
    integrals and return the list of (r, eigenvalue).  The first
    eigenvalue must be |lam| - |mu| and the second must match the
    closed form."""
    jf = construct(alpha)
    lam, mu = jf.alpha
    out = []
    for r in range(1, r_max + 1):
        res = cms_L(r, jf.f)
        if res.is_zero():
            scalar = RAT_ZERO
        else:
            m, c = jf.f.sorted_terms()[0]
            scalar = res.coeff(m) / c
        if res != jf.f * scalar:
            raise NotEigenvector(
                "order-%d integral is not scalar on %s" % (r, (lam, mu)))
        out.append((r, scalar))
    if r_max >= 1 and out[0][1] != rat(size(lam) - size(mu)):
        raise NotEigenvector("first eigenvalue of %s is not |lam|-|mu|"
                             % ((lam, mu),))
    if r_max >= 2 and out[1][1] != jf.eigenvalue2:
        raise NotEigenvector("second eigenvalue of %s is off the closed form"
                             % ((lam, mu),))
    return out


# -- numeric parameter modes ---------------------------------------------------

def specialize_function(jf, k0, p00):
    """P_alpha with coefficients evaluated at a rational point (k0, p00)."""
    k0 = Fraction(k0)
    p00 = Fraction(p00)
    t = {}
    for m, c in jf.f.terms.items():
        try:
            v = c.specialize(k0, p00)
        except PoleAtSpecialization:
            raise PoleAtSpecialization(
                "coefficient of %s has a pole at k=%s, p0=%s: %s"
                % (mono_str(m), k0, p00, c))
        if v:
            t[m] = ParamRat.from_fraction(v)
    out = LaurentSymFunc.__new__(LaurentSymFunc)
    out.terms = t
    return out


def _walk(f, lam, mu, point):
    """Grow f = P_{0,mu} to P_{lam,mu} along the canonical order at
    `point`."""
    shape = ()
    for box in _canonical_order(lam):
        f = _grow(f, (shape, mu), box, point)
        shape = add_box(shape, box)
    return f


def rational_mode_construct(alpha, k0, p00):
    """Run the construction with both parameters fixed to rationals.
    Agrees with specialize_function(construct(alpha), k0, p00) whenever
    the latter is defined; raises SingularParameter when the chosen point
    hits an eigenvalue collision or kills a transition coefficient."""
    k0 = Fraction(k0)
    p00 = Fraction(p00)
    lam, mu = _normalize_alpha(alpha)
    positive = _walk(LaurentSymFunc.one(), mu, (), _Point((k0, Fraction(0))))
    return _walk(positive.star(), lam, mu, _Point((k0, p00)))
