"""Scalar closed forms: eigenvalues, shifted power sums, Bernoulli sums,
Pieri coefficients, Stanley-type products, evaluations, norms and the
duality constant.

Conventions.  Partitions are weakly decreasing tuples; a bipartition is a
pair (lam, mu).  Boxes are (row, column), 1-indexed.  A box which cannot
be added (for V) or removed (for U) contributes a Pieri coefficient of 0.

The product formulas -- the Pieri coefficients and their diagram forms,
the Stanley-type products, the norm and the duality constant -- return
a Factored: linear forms in k, p0 and k*p0 multiplied with no
polynomial gcd.  Its to_rat() is the value in Q(k, p0), multiplied out
once; specialize reads it at a rational point, str prints to_rat()'s
canonical string, and it equals an int, Fraction or ParamRat of the
same value.  The other closed forms, the evaluation and phi_infinity
among them, are exact elements of Q(k, p0).
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm, prod

from .rational import ParamPoly, ParamRat, RAT_ZERO, RAT_ONE, K, P0, rat, \
    as_rat, _make, _scalar_canonical
from .partitions import part, conjugate, boxes, add_box_candidates, \
    remove_box_candidates, content_box


class SingularProduct(ArithmeticError):
    """A denominator factor of a closed-form product vanishes identically."""


# -- factored products ---------------------------------------------------------
# A linear form a + b*k + c*p0 + d*k*p0 is an int times at most two
# atoms: primitive polynomials with a positive front coefficient (the
# coefficient printed first).  It splits in two exactly when it has
# rank one, a*d == b*c with both k and p0 in it: (x + y*k)(u + v*p0).
# Otherwise its primitive part is of degree 1 in k or in p0 with
# coprime coefficients, so irreducible.  Distinct atoms are then
# non-associate primes of the UFD Z[k, p0], so a product keeps each
# atom once with the sum of its exponents, and the two sides of a
# quotient are coprime: multiplied out, only the int contents are left
# to reduce.

_MONOS = ((0, 0), (1, 0), (0, 1), (1, 1))     # 1, k, p0 and k*p0
_K_ATOM = ParamPoly.var_k()


def expand(c, atoms):
    """The ParamPoly c * prod a^e over the mapping `atoms`, for an int c
    and exponents e >= 0."""
    return prod((a ** e for a, e in atoms.items()), start=ParamPoly.const(c))


def _over_one(values):
    """(Q, nums) for Factored values: one Factored Q and the ParamPolys
    n_t with values[t] = n_t / Q.  Q holds each atom at its largest
    negative exponent among them, times the lcm of their scale
    denominators, so each n_t is an int times atoms to exponents >= 0
    (expand); no gcd is taken."""
    low = Counter()
    for v in values:
        for a, e in v.atoms.items():
            low[a] = max(low[a], -e)
    q = lcm(*(v.scale.denominator for v in values))
    nums = []
    for v in values:
        atoms = Counter(low)
        atoms.update(v.atoms)
        nums.append(expand(v.scale.numerator * (q // v.scale.denominator),
                           {a: e for a, e in atoms.items() if e}))
    return Factored(q, +low), nums


class Factored:
    """scale * prod a^e over the Counter `atoms`: a Fraction scale and
    atoms as above with nonzero, signed exponents.  A zero scale is the
    zero product.  It equals an int, Fraction or ParamRat of the same
    value, and hashes like it.  Instances are immutable."""

    __slots__ = ("scale", "atoms")

    def __init__(self, scale=1, atoms=None):
        self.scale = scale if type(scale) is Fraction else Fraction(scale)
        self.atoms = Counter() if atoms is None else atoms

    @staticmethod
    def of(form):
        """The Factored of a linear form: an int, Fraction, ParamPoly or
        ParamRat of bidegree at most (1, 1) over a constant; a Factored
        as it is.  Raises ValueError otherwise."""
        if type(form) is Factored:
            return form
        coeffs, d = _coefficients(form)
        out = _linear(*coeffs)
        return out if d == 1 else Factored(out.scale / d, out.atoms)

    def __eq__(self, other):
        # atoms are normalized, non-associate primes, so equal values
        # have the same scale and the same atoms with the same exponents;
        # an atom-free product is the constant of its scale
        if type(other) is Factored:
            return self.scale == other.scale and self.atoms == other.atoms
        if isinstance(other, (int, Fraction)):
            return not self.atoms and self.scale == other
        if isinstance(other, ParamRat):
            return self.to_rat() == other
        return NotImplemented

    def __hash__(self):
        # the hash of the value, as an int, Fraction or ParamRat of it
        # hashes, so that equal values hash alike across the four types
        if not self.atoms:
            return hash(self.scale)
        return hash(self.to_rat())

    def __mul__(self, other):
        return _ratio([((self, other), ())], "a product")

    def __truediv__(self, other):
        return _ratio([((self,), (other,))], "a quotient")

    def __rtruediv__(self, other):
        """other / self for an int or Fraction other: the scale divided
        into it and every exponent negated."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not self.scale:
            raise SingularProduct("a quotient: a denominator factor "
                                  "vanishes identically")
        return Factored(other / self.scale,
                        Counter({a: -e for a, e in self.atoms.items()}))

    def sides(self):
        """((n, up), (d, down)) with self = n*prod a^e over up divided by
        d*prod a^e over down: ints n and d, and positive exponents."""
        return ((self.scale.numerator,
                 {a: e for a, e in self.atoms.items() if e > 0}),
                (self.scale.denominator,
                 {a: -e for a, e in self.atoms.items() if e < 0}))

    def to_rat(self):
        """The ParamRat: both sides multiplied out, coprime as they
        share no atom, so _scalar_canonical finishes the form."""
        return _make(*_scalar_canonical(*(expand(c, atoms)
                                          for c, atoms in self.sides())))

    def param_swap(self):
        """The substitution k -> 1/k, p0 -> k*p0 of ParamRat.param_swap,
        atom by atom: k^i p0^j goes to k^(j-i) p0^j, and the image of an
        atom, a linear form over a power of k, is read through _linear.
        Raises ValueError when an image is not of that shape, as for a
        term in p0 beside one in k."""
        scale, atoms = self.scale, Counter()
        for a, e in self.atoms.items():
            t = {(j - i, j): c for (i, j), c in a.terms.items()}
            s = min(i for i, _ in t)
            image = Factored.of(ParamPoly({(i - s, j): c
                                           for (i, j), c in t.items()}))
            scale *= image.scale ** e
            atoms.update({b: f * e for b, f in image.atoms.items()})
            atoms[_K_ATOM] += s * e
        return Factored(scale, Counter({a: e for a, e in atoms.items() if e}))

    def __str__(self):
        return str(self.to_rat())

    def __repr__(self):
        factors = ["(%s)" % a if e == 1 else "(%s)^%d" % (a, e)
                   for a, e in sorted(self.atoms.items(),
                                      key=lambda item: str(item[0]))]
        if self.scale != 1 or not factors:
            factors.insert(0, str(self.scale))
        return "Factored(%s)" % " * ".join(factors)

    def specialize(self, k0, p00):
        """The value at the rational point (k0, p00), a Fraction; raises
        PoleAtSpecialization as ParamRat.specialize does, naming the
        canonical denominator, when an atom below vanishes there."""
        values = [(a.evaluate(k0, p00), e) for a, e in self.atoms.items()]
        if any(not v and e < 0 for v, e in values):
            return self.to_rat().specialize(k0, p00)
        return self.scale * prod(v ** e for v, e in values)


def _coefficients(v):
    """((a, b, c, d), den): v = (a + b*k + c*p0 + d*k*p0)/den with ints
    and den > 0, for an int, Fraction, ParamPoly or ParamRat of bidegree
    at most (1, 1) over a constant.  Raises ValueError otherwise."""
    v = as_rat(v)
    t = v.num.terms
    if not v.den.is_const() or any(i > 1 or j > 1 for i, j in t):
        raise ValueError("not a linear form in k, p0 and k*p0: %s" % v)
    return tuple(t.get(m, 0) for m in _MONOS), v.den.terms[(0, 0)]


def _shift(x, p=0):
    """x - k*p read once, as (den, (a, b, c, d)) with x - k*p =
    (a + b*k + c*p0 + d*k*p0)/den (_coefficients), for the shifts x
    and p of the Stanley-type products; ValueError unless k*p is a
    linear form, that is, p is free of k."""
    (xc, dx), (pc, dp) = _coefficients(x), _coefficients(p)
    if pc[1] or pc[3]:
        raise ValueError("not a linear form in k, p0 and k*p0: k*(%s)"
                         % as_rat(p))
    d = lcm(dx, dp)
    fx, fp = d // dx, d // dp
    return d, (xc[0] * fx, xc[1] * fx - pc[0] * fp, xc[2] * fx,
               xc[3] * fx - pc[2] * fp)


def _form(n, m, shift):
    """The Factored of n + m*k plus the shift (den, coefficients) of
    _shift: (den*n + a + (den*m + b)*k + c*p0 + d*k*p0)/den."""
    den, (a, b, c, d) = shift
    out = _linear(den * n + a, den * m + b, c, d)
    return out if den == 1 else Factored(out.scale / den, out.atoms)


@cache
def _linear(a, b, c, d):
    """The Factored of a + b*k + c*p0 + d*k*p0 for ints (see above)."""
    if (c or d) and (b or d) and a * d == b * c:
        # rank one: (a, b) and (c, d) are u and v times one primitive
        # (x, y), and the form is (x + y*k)(u + v*p0)
        g = gcd(a, b) or gcd(c, d)
        x, y = (a // g, b // g) if a or b else (c // g, d // g)
        u, v = (a // x, c // x) if x else (b // y, d // y)
        return _linear(x, y, 0, 0) * _linear(u, 0, v, 0)
    g, atom = ParamPoly(dict(zip(_MONOS, (a, b, c, d)))).content_primitive()
    if atom.is_const():
        return Factored(a)
    if atom.terms[atom.front_mono()] < 0:
        g, atom = -g, -atom
    return Factored(g, Counter({atom: 1}))


def _ratio(pairs, what):
    """The Factored prod (prod nums)/(prod dens) over the (nums, dens)
    pairs of tuples of linear forms or Factored; SingularProduct names
    `what` when a den is identically zero.  An atom's exponents add with
    their signs in a plain dict and the scale is kept as two ints, so
    one Fraction and one Counter are built, at the end."""
    n, d, atoms = 1, 1, {}
    for nums, dens in pairs:
        for f in map(Factored.of, dens):
            if not f.scale:
                raise SingularProduct(
                    "%s: a denominator factor vanishes identically" % what)
            n, d = n * f.scale.denominator, d * f.scale.numerator
            for a, e in f.atoms.items():
                atoms[a] = atoms.get(a, 0) - e
        for f in map(Factored.of, nums):
            n, d = n * f.scale.numerator, d * f.scale.denominator
            for a, e in f.atoms.items():
                atoms[a] = atoms.get(a, 0) + e
    if not n:
        return Factored(0)
    return Factored(Fraction(n, d),
                    Counter({a: e for a, e in atoms.items() if e}))


# -- eigenvalues ---------------------------------------------------------------

def eigenvalue_parts(alpha):
    """(n, lin, m) with eigenvalue_e(alpha) = n + k*lin - k*p0*m: over
    the rows x_i of lam and then of mu, n = sum x_i^2,
    lin = sum (2i-1) x_i and m = sum x_i = |lam| + |mu|."""
    rows = list(enumerate(alpha[0], 1)) + list(enumerate(alpha[1], 1))
    return (sum(x * x for _, x in rows),
            sum((2 * i - 1) * x for i, x in rows),
            sum(x for _, x in rows))


def eigenvalue_e(alpha, k=K, p0=P0):
    """The second CMS integral's eigenvalue on the function labelled alpha,
    n + k*lin - k*p0*m with the parts of eigenvalue_parts.

    `k` and `p0` are the point it is read at, in whatever ring they share
    with an int: ParamRats give the value in Q(k, p0), ParamPolys in
    Z[k, p0], and Fractions its value at a rational point.  The
    construction builds it from the ints instead (_eigenvalue_rat).
    """
    n, lin, m = eigenvalue_parts(alpha)
    return n + k * lin - k * p0 * m


def _eigenvalue_rat(parts):
    """eigenvalue_e at K and P0, the canonical ParamRat built with no
    field arithmetic from the ints of eigenvalue_parts."""
    n, lin, m = parts
    return as_rat(ParamPoly({(0, 0): n, (1, 0): lin, (1, 1): -m}))


def eigenvalue_eN(chi, N):
    """Finite-dimensional eigenvalue sum chi_i^2 - k*sum (N-2i+1) chi_i,
    a polynomial in k."""
    if len(chi) != N:
        raise ValueError("sequence length %d != N=%d" % (len(chi), N))
    n = sum(x * x for x in chi)
    lin = sum((N - 2 * i + 1) * x for i, x in enumerate(chi, start=1))
    return as_rat(ParamPoly({(0, 0): n, (1, 0): -lin}))


def stable_eigenvalue(lam):
    """Eigenvalue of the second stable integral on the positive-part Jack
    function: sum lam_i^2 + k*sum (2i-1) lam_i, which is eigenvalue_e of
    (lam, 0) at p0 = 0."""
    return eigenvalue_e((lam, ()), p0=0)


# -- shifted power sums and Harish-Chandra values ------------------------------

def shifted_power_sum(r, a, seq):
    """p_{r,a}(seq) = sum_i [(seq_i + k(i-1) + a)^r - (k(i-1) + a)^r].

    Works both for partitions and for integer sequences (zero entries
    contribute nothing).  `a` may be an int, Fraction or ParamRat.
    """
    if r < 1:
        raise ValueError("power sum order must be >= 1")
    a = as_rat(a)
    total = RAT_ZERO
    for i, x in enumerate(seq, start=1):
        if x == 0:
            continue
        base = K * (i - 1) + a
        total = total + (base + rat(x)) ** r - base ** r
    return total


def hc_value(r, alpha):
    """The value of the r-th shifted power sum on a bipartition:

        p_{r,0}(lam) + (-1)^r p_{r, k - k*p0}(mu),

    the twist on the mu-side coming from w(p_{r,a}) = (-1)^r p_{r,k-kp0-a}.
    """
    lam, mu = alpha
    v = shifted_power_sum(r, RAT_ZERO, lam)
    w = shifted_power_sum(r, K - K * P0, mu)
    return v + w if r % 2 == 0 else v - w


# -- Bernoulli sums and spectrum separation ------------------------------------

def _bernoulli_numbers(n):
    """B_0..B_n with B_1 = -1/2 (the generating-function convention)."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += comb(m + 1, j) * out[j]
        out.append(-s / (m + 1))
    return out


def bernoulli_poly_at(l, z):
    """The Bernoulli polynomial B_l evaluated at a ParamRat argument."""
    z = as_rat(z)
    bnums = _bernoulli_numbers(l)
    total = RAT_ZERO
    for s in range(l + 1):
        c = comb(l, s) * bnums[l - s]
        if c:
            total = total + (z ** s) * ParamRat.from_fraction(c)
    return total


def bernoulli_b_lambda(l, lam, a):
    """Single-diagram content sum l * sum_{(i,j) in lam} c((i,j), a)^(l-1)."""
    if l < 1:
        raise ValueError("order must be >= 1")
    a = as_rat(a)
    total = RAT_ZERO
    for box in boxes(lam):
        total = total + content_box(box, a) ** (l - 1)
    return total * l


@cache
def bernoulli_b(l, alpha):
    """Bernoulli sum on a bipartition:

        b_l(alpha) = l*sum_{box in lam} c(box,0)^(l-1)
                     + (-1)^l * l*sum_{box in mu} c(box, 1+k-k*p0)^(l-1).

    Memoized on (l, alpha), alpha a pair of tuples: separation_check
    compares each label with every other one, order by order.
    """
    lam, mu = alpha
    v = bernoulli_b_lambda(l, lam, RAT_ZERO)
    w = bernoulli_b_lambda(l, mu, RAT_ONE + K - K * P0)
    return v + w if l % 2 == 0 else v - w


def bernoulli_b_sequence(l, chi, a=RAT_ZERO):
    """Bernoulli-polynomial form sum_i [B_l(chi_i + k(i-1) + a) - B_l(k(i-1)+a)].

    Independent route to the same quantity on finite sequences; used to
    cross-check bernoulli_b at p0 = N.
    """
    a = as_rat(a)
    total = RAT_ZERO
    for i, x in enumerate(chi, start=1):
        if x == 0:
            continue
        base = K * (i - 1) + a
        total = total + bernoulli_poly_at(l, base + rat(x)) \
            - bernoulli_poly_at(l, base)
    return total


def separation_check(alpha, beta, l_max=8):
    """The first order l <= l_max whose Bernoulli sum b_l separates the
    labels, or None when none does."""
    if alpha == beta:
        raise ValueError("labels must differ")
    return next((l for l in range(1, l_max + 1)
                 if bernoulli_b(l, alpha) != bernoulli_b(l, beta)), None)


# -- Pieri coefficients --------------------------------------------------------
# Each Pieri coefficient is a product over rows r of a form c = A + B*k
# read off the diagrams, times a boundary factor for U.  A row pattern
# gives the two forms of a row's numerator and the two of its
# denominator, each as the shifts (x, y, z) of c + x + y*k + z*k*p0.

_V_ROW = (((1, 0, 0), (0, -2, 0)), ((1, -1, 0), (0, -1, 0)))
_U_MU_ROW = (((1, 1, 0), (0, -1, 0)), ((1, 0, 0), (0, 0, 0)))
_U_LAM_ROW = (((-1, -2, -1), (0, 0, -1)), ((-1, -1, -1), (0, -1, -1)))
_U_FIGURE_MU_ROW = (((-1, -1, 0), (0, 1, 0)), ((-1, 0, 0), (0, 0, 0)))


def _row_factors(pattern, rows):
    """The (nums, dens) pairs of the row pattern over the (A, B) in
    `rows`, each form read from its ints."""
    return [tuple(tuple(_linear(A + x, B + y, 0, z) for x, y, z in side)
                  for side in pattern) for A, B in rows]


def pieri_V(box, alpha):
    """The coefficient of P_{lam+box, mu} in p_1 * P_{lam,mu}, whatever
    mu, as a Factored: for a box (i,j) addable to lam, with
    c = lam_r - j + (r + 1 - i)*k,

        prod_{r=1}^{i-1} (c + 1)(c - 2k) / [(c + 1 - k)(c - k)]

    (_V_ROW), and 0 otherwise.  As lam_r >= j and lam'_j = i - 1, each
    factor is x - y*k with ints x, y >= 0: -2k over -k(1 - k) is
    2/(1 - k).  Memoized on (box, lam) (_pieri_V)."""
    return _pieri_V(box, tuple(alpha[0]))


@cache
def _pieri_V(box, lam):
    i, j = box
    if box not in add_box_candidates(lam):
        return Factored(0)
    return _ratio(_row_factors(_V_ROW, ((part(lam, r) - j, r + 1 - i)
                                        for r in range(1, i))), "pieri_V")


def pieri_U(box, alpha):
    """The coefficient of P_{lam, mu-box} in p_1 * P_{lam,mu} as a
    Factored; 0 when the box is not removable from mu.  All ingredients
    use mu before removal: over the rows r > i of mu, with
    c = mu_r - j - k*(mu'_j - r), the factor is
    (c + 1 + k)(c - k) / [(c + 1) c] (_U_MU_ROW); over the rows r of
    lam, with c = lam_r + j + k*(mu'_j + r), it is
    (c - 1 - 2k - k*p0)(c - k*p0) / [(c - 1 - k - k*p0)(c - k - k*p0)]
    (_U_LAM_ROW); and one boundary factor closes the product."""
    lam, mu = alpha
    i, j = box
    if box not in remove_box_candidates(mu):
        return Factored(0)
    mu_pj = part(conjugate(mu), j)
    ll, lm = len(lam), len(mu)
    factors = _row_factors(_U_MU_ROW, ((part(mu, r) - j, r - mu_pj)
                                       for r in range(i + 1, lm + 1)))
    factors += _row_factors(_U_LAM_ROW, ((part(lam, r) + j, mu_pj + r)
                                         for r in range(1, ll + 1)))
    factors.append(((_linear(j - 1, ll + mu_pj - 1, 0, -1),
                     _linear(j, mu_pj - lm, 0, 0)),
                    (_linear(j, ll + mu_pj, 0, -1),
                     _linear(j - 1, mu_pj - lm - 1, 0, 0))))
    return _ratio(factors, "pieri_U")


# -- diagrammatic Pieri coefficients -------------------------------------------

def _y_row(alpha, i):
    lam, mu = alpha
    if i >= 1:
        return part(lam, i)
    if i <= -1:
        return -part(mu, -i)
    raise ValueError("row index 0")


def _y_col(alpha, j):
    lam, mu = alpha
    if j >= 1:
        return part(conjugate(lam), j)
    if j <= -1:
        return -part(conjugate(mu), -j)
    raise ValueError("column index 0")


def pieri_V_diagram(box, alpha):
    """The added-box coefficient as a Factored product over the column
    below the box in the two-diagram figure; box = (i,j) in the lam
    diagram.  For r < i, with c = y_r - j - k*(y'_j - r), the factor is
    (c + 1)(c - 2k) / [(c + 1 - k)(c - k)] (_V_ROW)."""
    i, j = box
    if box not in add_box_candidates(alpha[0]):
        return Factored(0)
    return _ratio(_row_factors(_V_ROW, ((_y_row(alpha, r) - j,
                                         r - _y_col(alpha, j))
                                        for r in range(1, i))),
                  "pieri_V_diagram")


def pieri_U_diagram(box, alpha, L=None, M=None):
    """The removed-box coefficient as a Factored product over the figure
    column of the box; box = (i,j) in the mu diagram, sitting at
    (-j,-i) in the figure.  With c = y_r + j - k*(y'_{-j} - r), the rows
    r of mu below the box give (c - 1 - k)(c + k) / [(c - 1) c]
    (_U_FIGURE_MU_ROW), the rows of lam the factor of _U_LAM_ROW, and
    one boundary factor closes the product.

    L and M bound the surrounding rectangle; any L >= l(lam), M >= l(mu)
    gives the same value (enlargement invariance).
    """
    lam, mu = alpha
    i, j = box
    if box not in remove_box_candidates(mu):
        return Factored(0)
    if L is None:
        L = len(lam)
    if M is None:
        M = len(mu)
    if L < len(lam) or M < len(mu):
        raise ValueError("rectangle must contain both diagrams")
    jj = -j
    ycol = -part(conjugate(mu), j)

    def rows(lo, hi):
        return ((_y_row(alpha, r) - jj, r - ycol) for r in range(lo, hi))
    # the pi2 (mu rows), pi3 (lam rows) and boundary factors
    factors = _row_factors(_U_FIGURE_MU_ROW, rows(-M, ycol))
    factors += _row_factors(_U_LAM_ROW, rows(1, L + 1))
    factors.append(((_linear(jj + 1, ycol - L + 1, 0, 1),
                     _linear(jj, ycol + M, 0, 0)),
                    (_linear(jj, ycol - L, 0, 1),
                     _linear(jj + 1, ycol + M + 1, 0, 0))))
    return _ratio(factors, "pieri_U_diagram")


# -- Stanley products, evaluation, norms, duality ------------------------------

def stanley_denominators(lam, x):
    """lam_i - j + k(i-1-lam'_j) + x for each box (i, j) of lam, in box
    order, each a Factored: the denominators of stanley_phi(lam, ., x)."""
    shift, lamc = _shift(x), conjugate(lam)
    return [_form(part(lam, i) - j, i - 1 - part(lamc, j), shift)
            for (i, j) in boxes(lam)]


def stanley_phi(lam, p, x, variant=1):
    """The box product phi_p(lam, x) as a Factored; two displayed
    numerator forms:

        variant 1:  j - 1 + k(i-1-p) + x
        variant 2:  lam_i - j + k(i-1-p) + x

    over the common denominator lam_i - j + k(i-1-lam'_j) + x; x and k*p
    must be linear forms (_shift).
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    shift = _shift(x, p)
    nums = (_form(j - 1 if variant == 1 else part(lam, i) - j, i - 1, shift)
            for (i, j) in boxes(lam))
    return _ratio(zip(zip(nums), zip(stanley_denominators(lam, x))),
                  "stanley_phi")


def phi_pair_factors(lam, mu, p, x):
    """The (nums, dens) pairs of the mixed product phi_p(lam, mu, x), one
    for each i <= l(lam) and j <= l(mu'), in that order, each a pair of
    linear forms as Factored:

        [lam_i+j-1+k(i-1-p)+x] [j-1+k(i-1+mu'_j-p)+x]
        -----------------------------------------------
        [j-1+k(i-1-p)+x] [lam_i+j-1+k(i-1+mu'_j-p)+x].
    """
    shift, muc = _shift(x, p), conjugate(mu)

    def factor(i, j):
        li, t = part(lam, i), i - 1 + part(muc, j)
        return ((_form(li + j - 1, i - 1, shift), _form(j - 1, t, shift)),
                (_form(j - 1, i - 1, shift), _form(li + j - 1, t, shift)))
    return [factor(i, j) for i in range(1, len(lam) + 1)
            for j in range(1, len(muc) + 1)]


def phi_pair(lam, mu, p, x):
    """The mixed product phi_p(lam, mu, x) of phi_pair_factors, a
    Factored."""
    return _ratio(phi_pair_factors(lam, mu, p, x), "phi_pair")


@cache
def _phi_triple(alpha, x):
    """phi_p0(lam,x) phi_p0(mu,x) phi_p0(lam,mu,x), a Factored, shared
    from the memo.  The shift x keys the memo as RAT_ZERO or RAT_ONE + K;
    the int 0 equals and hashes like RAT_ZERO, so it reads the same
    entry."""
    lam, mu = alpha
    return stanley_phi(lam, P0, x) * stanley_phi(mu, P0, x) \
        * phi_pair(lam, mu, P0, x)


def evaluation_value(alpha):
    """epsilon(P_alpha) = phi_p0(lam,0) phi_p0(mu,0) phi_p0(lam,mu,0)."""
    return _phi_triple(alpha, RAT_ZERO).to_rat()


def norm_value(alpha):
    """Square norm of P_alpha for the p0-deformed bilinear form, as a
    Factored: the same triple product evaluated at 0 divided by its
    value at 1+k."""
    return _ratio([((_phi_triple(alpha, RAT_ZERO),),
                    (_phi_triple(alpha, RAT_ONE + K),))], "norm_value")


def duality_constant(alpha):
    """d_alpha = epsilon(P_alpha) / [epsilon(P_alpha') at k -> 1/k, p0 -> k*p0]
    with alpha' the pair of conjugate diagrams, as a Factored.  The swap
    runs atom by atom on the factored evaluation (Factored.param_swap);
    the swapped value is never zero, as every factor above in an
    evaluation has a term in k*p0."""
    lam, mu = alpha
    swapped = _phi_triple((conjugate(lam), conjugate(mu)),
                          RAT_ZERO).param_swap()
    return _phi_triple(alpha, RAT_ZERO) / swapped


def phi_infinity(lam):
    """Limit norm factor: prod over boxes of
    [lam_i - j + 1 + k(i - lam'_j)] / [lam_i - j + k(i - 1 - lam'_j)],
    the Stanley denominators at x = 1 + k over those at x = 0."""
    return _ratio(zip(zip(stanley_denominators(lam, RAT_ONE + K)),
                      zip(stanley_denominators(lam, 0))),
                  "phi_infinity").to_rat()
