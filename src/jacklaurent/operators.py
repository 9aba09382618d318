"""Quantum Calogero-Moser-Sutherland integrals in infinite dimension.

The differential operators here act on the Laurent symmetric function
algebra extended by one auxiliary variable x together with its inverse.
An element of the extended algebra is stored as a map

    layer (int, the power of x)  ->  LaurentSymFunc.

Three families of commuting integrals are provided:

* cms_L(r, f)   -- built from the Dunkl-Heckman operator D = d - (k/2)*Delta,
* cms_I(r, f)   -- built from the Polychronakos operator pi = d - k*Delta~,
* stable_H(r, f) -- the p0-independent combination of the cms_I family,
                    defined on the positive part only.

Each integral is the composition "apply the x-operator r times, then
project x^l -> p_l" (with x^0 -> p0, the parameter).  The second-order
integral cms_L(2, .) also has a direct expression as a differential
operator without the auxiliary variable, cms_L2_direct: the operator the
construction projects with.  At p0 = 0 on the positive part it is the
stable second integral stable_H(2, .).
"""

from math import comb

from .rational import ParamRat, RAT_ONE, K, P0, rat
from .laurent import LaurentSymFunc


class NotPositivePart(ValueError):
    """Raised when a stable integral is applied outside the positive part."""


def _support(f):
    """Set of generator indices occurring in f."""
    s = set()
    for m in f.terms:
        for i, _ in m:
            s.add(i)
    return s


class ExtendedElement:
    """Element of the algebra extended by x, x^{-1}: a map layer -> function."""

    __slots__ = ("layers",)

    def __init__(self, layers=None):
        t = {}
        if layers:
            for l, f in layers.items():
                if not f.is_zero():
                    t[l] = f
        self.layers = t

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
        g = self.layers.get(l)
        g = f if g is None else g + f
        if g.is_zero():
            self.layers.pop(l, None)
        else:
            self.layers[l] = g

    def __add__(self, other):
        out = ExtendedElement(dict(self.layers))
        for l, f in other.layers.items():
            out.add_term(l, f)
        return out

    def __sub__(self, other):
        out = ExtendedElement(dict(self.layers))
        for l, f in other.layers.items():
            out.add_term(l, -f)
        return out

    def scale(self, c):
        out = ExtendedElement()
        for l, f in self.layers.items():
            out.add_term(l, f.scale(c))
        return out

    def is_zero(self):
        return not self.layers

    def __eq__(self, other):
        return isinstance(other, ExtendedElement) and self.layers == other.layers

    def __str__(self):
        if not self.layers:
            return "0"
        parts = []
        for l in sorted(self.layers, reverse=True):
            f = self.layers[l]
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
    for l, f in element.layers.items():
        if l:
            out.add_term(l, f.scale(l))
        for a in _support(f):
            out.add_term(l + a, f.partial(a))
    return out


def delta_p0(element):
    """The operator with Delta(x^l * f) = Delta(x^l) * f for f free of x.

    For l > 0,
        Delta(x^l) = x^l*(p0 - 2l) + 2*sum_{m=1}^{l-1} x^{l-m} p_m + p_l,
    Delta(1) = 0, and the negative layers follow from the rule
    Delta(x^{-l}) = -Delta(x^l)^* where * also inverts x.
    """
    out = ExtendedElement()
    for l, f in element.layers.items():
        if l > 0:
            out.add_term(l, f.scale(P0 - rat(2 * l)))
            for m in range(1, l):
                out.add_term(l - m, (LaurentSymFunc.gen(m) * f).scale(2))
            out.add_term(0, LaurentSymFunc.gen(l) * f)
        elif l < 0:
            out.add_term(l, f.scale(-P0 - rat(2 * l)))
            for m in range(1, -l):
                out.add_term(l + m, (LaurentSymFunc.gen(-m) * f).scale(-2))
            out.add_term(0, -(LaurentSymFunc.gen(l) * f))
    return out


def dunkl_heckman(element):
    """The Dunkl-Heckman operator D = d - (k/2) * Delta."""
    return derivation_d(element) - delta_p0(element).scale(K * rat(1, 2))


def delta_tilde(element):
    """The twisted analogue with
        Delta~(x^l) = x^l*(p0 - l) + sum_{m=1}^{l-1} x^{l-m} p_m   (l > 0),
        Delta~(1)   = 0,
        Delta~(x^l) = -(l*x^l + sum_{m=1}^{-l} x^{l+m} p_{-m})     (l < 0).
    """
    out = ExtendedElement()
    for l, f in element.layers.items():
        if l > 0:
            out.add_term(l, f.scale(P0 - rat(l)))
            for m in range(1, l):
                out.add_term(l - m, LaurentSymFunc.gen(m) * f)
        elif l < 0:
            out.add_term(l, f.scale(-l))
            for m in range(1, -l + 1):
                out.add_term(l + m, -(LaurentSymFunc.gen(-m) * f))
    return out


def polychronakos_pi(element):
    """The Polychronakos operator pi = d - k * Delta~."""
    return derivation_d(element) - delta_tilde(element).scale(K)


def e_project(element):
    """Projection back to the Laurent symmetric functions: x^l -> p_l.

    The layer l = 0 is sent to p0 (the parameter) times its function.
    """
    out = LaurentSymFunc.zero()
    for l, f in element.layers.items():
        if l == 0:
            out = out + f.scale(P0)
        else:
            out = out + LaurentSymFunc.gen(l) * f
    return out


def cms_L(r, f):
    """The r-th CMS integral from the Dunkl-Heckman family.

    cms_L(r, f) = e_project(D^r(f)) with f embedded at layer 0.
    The case r = 0 is multiplication by p0, and cms_L(1, .) is the Euler
    operator measuring |lambda| - |mu| on weight vectors.
    """
    if r < 0:
        raise ValueError("integral order must be nonnegative")
    e = ExtendedElement.embed(f)
    for _ in range(r):
        e = dunkl_heckman(e)
    return e_project(e)


def cms_I(r, f):
    """The r-th CMS integral from the Polychronakos family."""
    if r < 0:
        raise ValueError("integral order must be nonnegative")
    e = ExtendedElement.embed(f)
    for _ in range(r):
        e = polychronakos_pi(e)
    return e_project(e)


def cms_L2_direct(f, k=K, p0=P0):
    """Second-order CMS integral written directly as a differential operator:

        sum_{a,b} p_{a+b} d_a d_b
          - k*(sum_{a,b>0} - sum_{a,b<0}) p_a p_b d_{a+b}
          - k*p0*(sum_{a>0} - sum_{a<0}) p_a d_a
          + (1+k) * sum_a a p_a d_a,

    where d_a = a * d/dp_a and p_0 in the first sum means the parameter.
    This is the operator of the eigenfunction construction; it agrees
    with cms_L(2, .), and with p0 = 0 on the positive part it is the
    stable integral stable_H(2, .).  Passing constant `k` and `p0` gives
    the operator at a fixed numeric parameter point.
    """
    out = LaurentSymFunc.zero()
    kp0 = k * p0
    one_plus_k = RAT_ONE + k
    for a in _support(f):
        g = f.partial(a)
        if g.is_zero():
            continue
        # p_{a+b} d_a d_b
        for b in _support(g):
            h = g.partial(b)
            if a + b == 0:
                out = out + h.scale(p0)
            else:
                out = out + LaurentSymFunc.gen(a + b) * h
        # - k p0 sgn(a) p_a d_a  +  (1+k) a p_a d_a
        c = one_plus_k * rat(a) - (kp0 if a > 0 else -kp0)
        out = out + (LaurentSymFunc.gen(a) * g).scale(c)
        # - k sgn(a) (sum over two-part splittings of a) p_b p_{a-b} d_a
        if a >= 2:
            for b in range(1, a):
                out = out - (LaurentSymFunc.gen(b) * LaurentSymFunc.gen(a - b) * g).scale(k)
        elif a <= -2:
            for b in range(1, -a):
                out = out + (LaurentSymFunc.gen(-b) * LaurentSymFunc.gen(a + b) * g).scale(k)
    return out


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
