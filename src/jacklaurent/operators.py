"""Quantum Calogero-Moser-Sutherland integrals in infinite dimension.

The differential operators here act on the Laurent symmetric function
algebra extended by one auxiliary variable x together with its inverse.
An element of the extended algebra is stored as a map

    layer (int, the power of x)  ->  LaurentSymFunc.

Three families of commuting integrals are provided:

* cms_L(r, f)   -- built from the Dunkl-Heckman operator D = d - (k/2)*Delta;
                    cms_L_doubled(r, f) = 2^r * cms_L(r, f) is read from
                    the doubled operator 2D = 2d - k*Delta, whose
                    coefficients lie in Z[k, p0],
* cms_I(r, f)   -- built from the Polychronakos operator pi = d - k*Delta~,
* stable_H(r, f) -- the p0-independent combination of the cms_I family,
                    defined on the positive part only.

Each integral is the composition "apply the x-operator r times, then
project x^l -> p_l" (with x^0 -> p0, the parameter).  For the
Dunkl-Heckman family that walk runs once per order and monomial, in
Z[k, p0]: cms_L_doubled reads the image of each monomial from a cached
int table, rows of c * k^i * p0^j (_l_image), and combines it with the
caller's k and p0.  derivation_d, delta_p0, dunkl_heckman_doubled and
e_project are the builders of that table.  The second-order integral
cms_L(2, .) also has a direct expression as a differential operator
without the auxiliary variable, cms_L2_direct: the operator the
construction projects with.  At p0 = 0 on the positive part it is the
stable second integral stable_H(2, .).  It is read from a second,
independent table of int images per monomial, L2 = A + k*B + p0*C +
k*p0*D, which cms_L2_weighted combines with any weights for 1, k, p0
and k*p0.
"""

from functools import cache
from math import comb

from .rational import RAT_ONE, K, P0, ParamPoly, Sparse, rat
from .laurent import LaurentSymFunc, mono_bidegree


class NotPositivePart(ValueError):
    """Raised when a stable integral is applied outside the positive part."""


def _support(f):
    """Set of generator indices occurring in f."""
    s = set()
    for m in f.terms:
        for i, _ in m:
            s.add(i)
    return s


class ExtendedElement(Sparse):
    """Element of the algebra extended by x, x^{-1}: a Sparse sum whose
    terms map a layer (the power of x) to its function."""

    __slots__ = ()

    @staticmethod
    def zero():
        return ExtendedElement()

    @staticmethod
    def embed(f):
        """A plain Laurent symmetric function, sitting at layer 0."""
        return ExtendedElement({0: f})

    def add_term(self, l, f):
        """In-place accumulation of f at layer l (builder method)."""
        if f.is_zero():
            return
        g = self.terms.get(l)
        g = f if g is None else g + f
        if g.is_zero():
            self.terms.pop(l, None)
        else:
            self.terms[l] = g

    def scale(self, c):
        # each layer's own scale: `f * c` would first pass through
        # LaurentSymFunc.__mul__
        return self.map_coeffs(lambda f: f.scale(c))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for l in sorted(self.terms, reverse=True):
            f = self.terms[l]
            if l == 0:
                parts.append(str(f))
            else:
                xs = "x" if l == 1 else "x^%d" % l
                parts.append("%s*(%s)" % (xs, f))
        return " + ".join(parts)

    __repr__ = __str__


def derivation_d(element):
    """The derivation with d(x^l) = l*x^l and d(p_l) = l*x^l."""
    out = ExtendedElement()
    for l, f in element.terms.items():
        if l:
            out.add_term(l, f.scale(l))
        for a in _support(f):
            out.add_term(l + a, f.partial(a))
    return out


def delta_p0(element, p0=P0):
    """The operator with Delta(x^l * f) = Delta(x^l) * f for f free of x.

    For l > 0,
        Delta(x^l) = x^l*(p0 - 2l) + 2*sum_{m=1}^{l-1} x^{l-m} p_m + p_l,
    Delta(1) = 0, and the negative layers follow from the rule
    Delta(x^{-l}) = -Delta(x^l)^* where * also inverts x.  Its
    coefficients lie in Z[p0], so `p0` may be any ring element that the
    coefficients of the element multiply with (see dunkl_heckman_doubled).
    """
    out = ExtendedElement()
    for l, f in element.terms.items():
        if l > 0:
            out.add_term(l, f.scale(p0 - 2 * l))
            for m in range(1, l):
                out.add_term(l - m, f.times(m).scale(2))
            out.add_term(0, f.times(l))
        elif l < 0:
            out.add_term(l, f.scale(-p0 - 2 * l))
            for m in range(1, -l):
                out.add_term(l + m, f.times(-m).scale(-2))
            out.add_term(0, -f.times(l))
    return out


def dunkl_heckman_doubled(element, k=K, p0=P0):
    """Twice the Dunkl-Heckman operator, 2D = 2d - k*Delta.  Its
    coefficients lie in Z[k, p0], so, like cms_L2_direct, it runs on any
    ring elements `k` and `p0` that the coefficients multiply with:
    ParamPolys keep a function cleared of denominators over Z[k, p0],
    and Fractions give the operator at a rational point."""
    return derivation_d(element).scale(2) - delta_p0(element, p0).scale(k)


def dunkl_heckman(element):
    """The Dunkl-Heckman operator D = d - (k/2) * Delta."""
    return dunkl_heckman_doubled(element).scale(rat(1, 2))


def delta_tilde(element):
    """The twisted analogue with
        Delta~(x^l) = x^l*(p0 - l) + sum_{m=1}^{l-1} x^{l-m} p_m   (l > 0),
        Delta~(1)   = 0,
        Delta~(x^l) = -(l*x^l + sum_{m=1}^{-l} x^{l+m} p_{-m})     (l < 0).
    """
    out = ExtendedElement()
    for l, f in element.terms.items():
        if l > 0:
            out.add_term(l, f.scale(P0 - rat(l)))
            for m in range(1, l):
                out.add_term(l - m, f.times(m))
        elif l < 0:
            out.add_term(l, f.scale(-l))
            for m in range(1, -l + 1):
                out.add_term(l + m, -f.times(-m))
    return out


def polychronakos_pi(element):
    """The Polychronakos operator pi = d - k * Delta~."""
    return derivation_d(element) - delta_tilde(element).scale(K)


def e_project(element, p0=P0):
    """Projection back to the Laurent symmetric functions: x^l -> p_l.

    The layer l = 0 is sent to p0 (the parameter) times its function.
    """
    out = LaurentSymFunc.zero()
    for l, f in element.terms.items():
        if l == 0:
            out = out + f.scale(p0)
        else:
            out = out + f.times(l)
    return out


_RING_K, _RING_P0 = ParamPoly.var_k(), ParamPoly.var_p0()


@cache
def _l_image(r, m):
    """The image of 2^r * L_r on the monomial m as a tuple of rows
    (target, ((i, j, c), ...)) with ints c:

        2^r * L_r(m) = sum c * k^i * p0^j * target,

    read off e_project of the walk (2D)^r(m) from layer 0 in Z[k, p0];
    the walk itself is not kept."""
    walk = ExtendedElement.embed(LaurentSymFunc({m: ParamPoly.const(1)}))
    for _ in range(r):
        walk = dunkl_heckman_doubled(walk, _RING_K, _RING_P0)
    image = e_project(walk, _RING_P0)
    return tuple((target, tuple((i, j, c) for (i, j), c in poly.terms.items()))
                 for target, poly in image.terms.items())


def cms_L_doubled(r, f, k=K, p0=P0):
    """2^r times the r-th CMS integral of the Dunkl-Heckman family:
    e_project((2D)^r(f)) with f embedded at layer 0.  Each monomial's
    image is read from the cached int table _l_image: the coefficients
    of f are combined with ints for each target and each k^i * p0^j,
    and each combination is multiplied by that power product once.  The
    doubled operator 2D has coefficients in Z[k, p0], so `k` and `p0`
    may be any ring elements that the coefficients of f multiply with,
    ints included: ParamPolys keep a function cleared of denominators
    in the ring, so no step reduces a fraction, and Fractions give the
    integral at a rational point.
    """
    if r < 0:
        raise ValueError("integral order must be nonnegative")
    parts = {}
    for m, x in f.terms.items():
        for target, row in _l_image(r, m):
            acc = parts.setdefault(target, {})
            for i, j, c in row:
                s = acc.get((i, j))
                acc[(i, j)] = x * c if s is None else s + x * c
    # each step of 2D raises the degrees in k and in p0 by at most one,
    # and e_project that in p0 once more
    k_pow, p0_pow = [1], [1]
    for _ in range(r):
        k_pow.append(k_pow[-1] * k)
        p0_pow.append(p0_pow[-1] * p0)
    p0_pow.append(p0_pow[-1] * p0)
    weights, t = {}, {}
    for target, acc in parts.items():
        v = None
        for (i, j), s in acc.items():
            if not s:
                continue
            w = weights.get((i, j))
            if w is None:
                w = weights[(i, j)] = k_pow[i] * p0_pow[j]
            v = s * w if v is None else v + s * w
        if v:
            t[target] = v
    return f._like(t)


def cms_L(r, f):
    """The r-th CMS integral from the Dunkl-Heckman family.

    cms_L(r, f) = e_project(D^r(f)) with f embedded at layer 0, computed
    as cms_L_doubled(r, f) / 2^r, one scaling at the end.
    The case r = 0 is multiplication by p0, and cms_L(1, .) is the Euler
    operator measuring |lambda| - |mu| on weight vectors.
    """
    return cms_L_doubled(r, f).scale(rat(1, 2 ** r))


def cms_I(r, f):
    """The r-th CMS integral from the Polychronakos family."""
    if r < 0:
        raise ValueError("integral order must be nonnegative")
    e = ExtendedElement.embed(f)
    for _ in range(r):
        e = polychronakos_pi(e)
    return e_project(e)


def _shifted(exps, *steps):
    """The monomial of the exponent map `exps` with each (index, +1 or
    -1) step applied."""
    d = dict(exps)
    for i, s in steps:
        e = d.get(i, 0) + s
        if e:
            d[i] = e
        else:
            del d[i]
    return tuple(sorted(d.items()))


@cache
def _l2_image(m):
    """The second-order integral of the monomial m as a tuple of
    (target, a, b, c, d) with int a, b, c, d:

        L2(m) = sum (a + b*k + c*p0 + d*k*p0) * target.

    The four sums of cms_L2_direct, with d_a = a * d/dp_a:

        sum_{a,b} p_{a+b} d_a d_b                  (p_0 is the parameter)
          - k*(sum_{a,b>0} - sum_{a,b<0}) p_a p_b d_{a+b}
          - k*p0*(sum_{a>0} - sum_{a<0}) p_a d_a
          + (1+k) * sum_a a p_a d_a.
    """
    rows = {}

    def add(target, part, n):
        rows.setdefault(target, [0, 0, 0, 0])[part] += n

    for a, ea in m:
        da = a * ea
        g = _shifted(m, (a, -1))
        # p_{a+b} d_a d_b
        for b, eb in g:
            if a + b == 0:
                add(_shifted(g, (b, -1)), 2, da * b * eb)
            else:
                add(_shifted(g, (b, -1), (a + b, 1)), 0, da * b * eb)
        # (1+k) a p_a d_a  -  k p0 sgn(a) p_a d_a
        sgn = 1 if a > 0 else -1
        add(m, 0, a * da)
        add(m, 1, a * da)
        add(m, 3, -sgn * da)
        # - k sgn(a) (sum over two-part splittings of a) p_b p_{a-b} d_a
        for b in range(1, abs(a)):
            add(_shifted(g, (sgn * b, 1), (a - sgn * b, 1)), 1, -sgn * da)
    return tuple((target,) + tuple(row) for target, row in rows.items()
                 if any(row))


def _l2_bound(m):
    """W^2 + 2*(P^2 + N^2) for m of bidegree (P, N), W = P + N: the most
    that L2, applied again and again, multiplies the L1 norm of the
    coefficient at m by, the largest row sum |a| + |b| + |c| + |d| of
    _l2_image over the monomials it reaches from m.
    * Each target keeps P - N and has no larger P or N: a merge
      p_i p_j -> p_{i+j} (p_0 the parameter) of opposite signs lowers
      both by min(|i|, |j|), and the other sums keep both.
    * With e_i the exponent of p_i, the row sums are at most
      sum_i |i|*e_i*(W + 2|i|) = W^2 + 2*sum_i i^2*e_i <= the bound.
    * At p_P*p_{-N} no two contributions cancel: the sum is the bound.
    * Merges of one sign have positive coefficients, so they reach
      p_P*p_{-N} from any monomial of bidegree (P, N).
    """
    p, n = mono_bidegree(m)
    return (p + n) ** 2 + 2 * (p * p + n * n)


def cms_L2_weighted(f, weights, shift=0):
    """w1*A(f) + wk*B(f) + wp*C(f) + wkp*D(f) - shift*f for the weights
    (w1, wk, wp, wkp), where L2 = A + k*B + p0*C + k*p0*D splits the
    second-order integral into four operators with int matrices on the
    monomials (_l2_image).  Each coefficient of f is scaled by ints into
    the four parts of every target monomial, and the parts are combined
    with the weights once per target, the shift taken off the diagonal
    in the same pass.  The weights (1, k, p0, k*p0) give L2 at (k, p0);
    for k = kn/kd and p0 = pn/pd, the int weights (kd*pd, kn*pd, kd*pn,
    kn*pn) give kd*pd*L2 at the point, on int coefficients.  A shift of
    e read with the same weights gives the factor L2 - e of a
    construction step (jack._grow).
    """
    parts = {}
    for m, x in f.terms.items():
        for target, a, b, c, d in _l2_image(m):
            acc = parts.get(target)
            if acc is None:
                parts[target] = [x * a, x * b, x * c, x * d]
            else:
                acc[0] += x * a
                acc[1] += x * b
                acc[2] += x * c
                acc[3] += x * d
    w1, wk, wp, wkp = weights
    diag = {m: x * shift for m, x in f.terms.items()} if shift else {}
    t = {}
    for target, (a, b, c, d) in parts.items():
        v = a * w1 + b * wk + c * wp + d * wkp
        y = diag.pop(target, None)
        if y is not None:
            v -= y
        if v:
            t[target] = v
    for m, y in diag.items():
        t[m] = -y
    return f._like(t)


def cms_L2_direct(f, k=K, p0=P0):
    """Second-order CMS integral written directly as a differential
    operator, the sum of the four sums of _l2_image.  It is the operator
    of the eigenfunction construction; it agrees with cms_L(2, .), and
    with p0 = 0 on the positive part it is the stable integral
    stable_H(2, .).  `k` and `p0` may be any ring elements that the
    coefficients of f multiply with, ints included: ParamPolys keep a
    function over Z[k, p0], and Fractions give the operator at a fixed
    numeric point.  It reads each monomial's image from the cached table
    and combines the four parts with 1, k, p0 and k*p0 (cms_L2_weighted).
    """
    return cms_L2_weighted(f, (1, k, p0, k * p0))


def stable_H(r, f):
    """The r-th stable integral, defined on the positive part only:

        stable_H(r, f) = sum_{j=1}^{r} C(r-1, j-1) (k p0)^{r-j} cms_I(j, f).

    The result is free of p0 even though the individual summands are not.
    """
    if r < 1:
        raise ValueError("stable integrals start at order 1")
    if not f.is_positive_part():
        raise NotPositivePart("stable integrals act on the positive part only")
    kp0 = K * P0
    out = LaurentSymFunc.zero()
    for j in range(1, r + 1):
        out = out + cms_I(j, f).scale(kp0 ** (r - j) * comb(r - 1, j - 1))
    return out


# -- change of basis between the two p0-dependent families --------------------
#
# The operators hat_f a^(r) express the Dunkl-Heckman integrals through the
# Polychronakos ones:  cms_L(r, f) = sum_a cms_I(r-a, hat_f a^(r-1) (f)).
# Each hat_f is a polynomial in the cms_I's with coefficients in the field;
# we store it as a map (tuple of integral orders, outermost first) -> coeff.


def _op_scale(op, c):
    return {orders: coeff * c for orders, coeff in op.items()}


def _op_add(op1, op2):
    out = dict(op1)
    for orders, coeff in op2.items():
        s = out.get(orders)
        s = coeff if s is None else s + coeff
        if s.is_zero():
            out.pop(orders, None)
        else:
            out[orders] = s
    return out


def _op_compose_I(j, op):
    """Post-compose an operator polynomial with cms_I(j, .)."""
    return {(j,) + orders: coeff for orders, coeff in op.items()}


def _op_apply(op, f):
    out = LaurentSymFunc.zero()
    for orders, coeff in op.items():
        g = f
        for j in reversed(orders):
            g = cms_I(j, g)
        out = out + g.scale(coeff)
    return out


def hat_f_operators(r):
    """The list [hat_f 0^(r), ..., hat_f r^(r)] defined by the recursion

        hat_f a^(r+1)    = hat_f a^(r) + (k p0/2) hat_f (a-1)^(r),  a <= r,
        hat_f (r+1)^(r+1) = (k p0/2) hat_f r^(r)
                            - (k/2) sum_{a=0}^{r} cms_I(r-a) o hat_f a^(r),

    starting from hat_f 0^(0) = identity.
    """
    half_kp0 = K * P0 * rat(1, 2)
    half_k = K * rat(1, 2)
    ops = [{(): RAT_ONE}]
    for s in range(r):
        nxt = []
        for a in range(s + 1):
            op = ops[a]
            if a >= 1:
                op = _op_add(op, _op_scale(ops[a - 1], half_kp0))
            nxt.append(op)
        last = _op_scale(ops[s], half_kp0)
        for a in range(s + 1):
            last = _op_add(last, _op_scale(_op_compose_I(s - a, ops[a]), -half_k))
        nxt.append(last)
        ops = nxt
    return ops


def hat_f_expansion_check(r, f):
    """Check cms_L(r, f) = sum_{a=0}^{r-1} cms_I(r-a, hat_f a^(r-1) (f))."""
    if r < 1:
        raise ValueError("the expansion starts at order 1")
    ops = hat_f_operators(r - 1)
    rhs = LaurentSymFunc.zero()
    for a in range(r):
        rhs = rhs + cms_I(r - a, _op_apply(ops[a], f))
    return cms_L(r, f) == rhs
