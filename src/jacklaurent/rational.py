"""Exact arithmetic in the field Q(k, p0) of rational functions in two parameters.

Everything downstream (Laurent symmetric functions, operators, closed
formulas) has coefficients in this field.  Sparse is the base of every
finite sum over a basis in the package, and its docstring states the
coefficient protocol they all follow.  A ParamPoly is such a sum, a
polynomial in Z[k, p0]: its coefficients are Python ints, and it
rejects any other.  A ParamRat is a quotient of two ParamPolys kept in a
canonical reduced form, so that equality of rational functions is plain
structural equality.  A rational number enters only through a ParamRat
(`from_fraction`, `as_rat`), whose numerator and denominator are
integral by construction.  The printed form of a ParamRat is read back
by `laurent.parse_rat`, the same parser that reads elements.

No floating point is used anywhere, and no external computer-algebra
system: the bivariate gcd needed for reduction is done by
content/primitive-part recursion on the k variable with a subresultant
polynomial remainder sequence over Z[p0][k], in integer arithmetic only.
"""

from fractions import Fraction
from math import gcd as int_gcd


class DivisionByZero(ZeroDivisionError):
    pass


class PoleAtSpecialization(ArithmeticError):
    """Raised when a denominator vanishes at a requested (k, p0) point."""


class IdenticallySingular(ArithmeticError):
    """Raised when a denominator vanishes identically on a requested slice."""


class SingularParameter(ArithmeticError):
    """Raised when a chosen numeric (k, p0) lies on the singular locus of a
    construction (a spectral gap or a transition coefficient vanishes)."""


class NotEigenvector(ArithmeticError):
    """An operator expected to act as a scalar on a function did not."""


# ---------------------------------------------------------------------------
# univariate helpers: polynomials in p0 over Z, as tuples of ints (low degree
# first, no trailing zeros; the zero polynomial is the empty tuple)
# ---------------------------------------------------------------------------

def _u_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _u_sub(a, b):
    out = [x - y for x, y in zip(a, b)]
    if len(a) > len(b):
        return tuple(out) + a[len(b):]
    out.extend(-y for y in b[len(a):])
    return _u_trim(out)


def _u_mul(a, b):
    # Z has no zero divisors, so the leading coefficient is never zero
    if not a or not b:
        return ()
    if len(a) == 1:
        x = a[0]
        return tuple(x * y for y in b)
    if len(b) == 1:
        y = b[0]
        return tuple(x * y for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _u_pow(u, n):
    out = (1,)
    for _ in range(n):
        out = _u_mul(out, u)
    return out


def _u_divexact(a, b):
    """a / b in Z[p0]; raises ArithmeticError unless b divides a there."""
    if not b:
        raise DivisionByZero("univariate division by zero")
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(0, len(r) - db)
    for d in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[d + db], lb)
        if rem:
            raise ArithmeticError("inexact univariate division")
        q[d] = c
        if c:
            for i in range(db):
                r[d + i] -= c * b[i]
    if any(r[:db]):
        raise ArithmeticError("inexact univariate division")
    return tuple(q)


def _u_primitive(a):
    """a divided by the gcd of its coefficients, for nonzero a."""
    g = int_gcd(*a)
    return a if g == 1 else tuple(x // g for x in a)


def _u_gcd(a, b):
    """gcd in Z[p0] of a and b, not both zero, with a positive leading
    coefficient: the gcd of the integer contents times the gcd of the
    primitive parts, which a primitive pseudo-remainder sequence finds."""
    if not a or not b:
        g = a or b
        return g if g[-1] > 0 else tuple(-x for x in g)
    c = int_gcd(*a, *b)
    a, b = _u_primitive(a), _u_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # a pseudo-remainder of a by b; its integer factor is divided out
        r, db, lb = list(a), len(b) - 1, b[-1]
        while len(r) > db:
            lead, shift = r.pop(), len(r) - db
            r = [x * lb for x in r]
            for i in range(db):
                r[shift + i] -= lead * b[i]
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        a, b = b, _u_primitive(r)
    else:
        # a nonzero constant remainder: the primitive parts are coprime
        return (c,)
    if b[-1] < 0:
        c = -c
    return tuple(c * x for x in b)


# ---------------------------------------------------------------------------
# bivariate helpers: recursive view, polynomials in k over Z[p0]
# list indexed by deg_k of univariate tuples; no trailing zero entries
# ---------------------------------------------------------------------------

def _r_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _dict_to_rec(terms):
    if not terms:
        return []
    dk_max = max(dk for dk, _ in terms)
    rows = [{} for _ in range(dk_max + 1)]
    for (dk, dp), c in terms.items():
        rows[dk][dp] = c
    out = []
    for row in rows:
        if row:
            out.append(tuple(row.get(i, 0) for i in range(max(row) + 1)))
        else:
            out.append(())
    return out


def _rec_to_dict(rec):
    terms = {}
    for dk, u in enumerate(rec):
        for dp, c in enumerate(u):
            if c:
                terms[(dk, dp)] = c
    return terms


def _r_content_primitive(rec):
    """Content (gcd in Z[p0] of all k-coefficients) and primitive part,
    for nonzero rec."""
    cont = ()
    for u in rec:
        if u:
            cont = _u_gcd(cont, u)
            if cont == (1,):
                return cont, rec
    return cont, _r_scale_div(rec, cont)


def _r_scale_div(rec, u):
    """Divide every k-coefficient exactly by the univariate u."""
    return [(_u_divexact(c, u) if c else ()) for c in rec]


def _r_pseudo_rem(a, b):
    """Pseudo-remainder lb^(da-db+1) * a mod b in the k variable,
    coefficients in Z[p0].  The full power of lb is essential: the
    subresultant divisors assume it, so any reduction step skipped by a
    leading-term cancellation must still contribute its lb factor."""
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - db
    r = list(a)
    while len(r) > db:
        # r := lb*r - lead*k^(dr-db)*b; the k^dr terms cancel
        lead = r.pop()
        shift = len(r) - db
        r = [_u_mul(u, lb) for u in r]
        for i in range(db):
            r[shift + i] = _u_sub(r[shift + i], _u_mul(lead, b[i]))
        _r_trim(r)
        e -= 1
    if e > 0 and r:
        le = _u_pow(lb, e)
        r = [_u_mul(u, le) for u in r]
    return r


def _r_gcd(a, b):
    """gcd in Z[p0][k] of nonzero a and b, up to sign, via the
    subresultant PRS on primitive parts."""
    ca, pa = _r_content_primitive(a)
    cb, pb = _r_content_primitive(b)
    cg = _u_gcd(ca, cb)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    # subresultant remainder sequence; every division is exact in Z[p0]
    g = h = (1,)
    while True:
        delta = len(pa) - len(pb)
        r = _r_pseudo_rem(pa, pb)
        if not r:
            break
        divisor = _u_mul(g, _u_pow(h, delta))
        pa, pb = pb, _r_scale_div(r, divisor)
        g = pa[-1]
        if delta >= 1:
            h = _u_divexact(_u_pow(g, delta), _u_pow(h, delta - 1))
    _, prim = _r_content_primitive(pb)
    return [_u_mul(u, cg) for u in prim]


def _r_divexact(a, b):
    """Exact division in Z[p0][k]; raises if not exact."""
    if not b:
        raise DivisionByZero("bivariate division by zero")
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [()] * max(0, len(r) - db)
    while len(r) > db:
        c = _u_divexact(r.pop(), lb)
        d = len(r) - db
        q[d] = c
        for i in range(db):
            r[d + i] = _u_sub(r[d + i], _u_mul(c, b[i]))
        _r_trim(r)
    if r:
        raise ArithmeticError("inexact bivariate division")
    return q


# ---------------------------------------------------------------------------
# Sparse: the linear arithmetic of a finite sum over a basis
# ---------------------------------------------------------------------------

class Sparse:
    """A finite sum over a basis: self.terms maps basis keys to nonzero
    coefficients.  ParamPoly (over monomials in k and p0),
    laurent.LaurentSymFunc, operators.ExtendedElement and
    finite_n.SymLaurentPolyN are sums of this kind; each defines its own
    product and display.

    The coefficient protocol: coefficients support `+` and `-` between
    them, `*` by a scalar and `==`, and a coefficient is falsy exactly
    when it is zero.  Ints, Fractions, ParamPolys, ParamRats and the
    Sparse sums themselves all meet it.  No zero coefficient is ever
    stored, so equal sums have equal `terms` and the zero sum is falsy.
    Instances are treated as immutable; all operations return new ones,
    built by `_like`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    def _like(self, terms):
        """An instance of the same kind on `terms` as they are: no zero
        coefficients, keys already in canonical form."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m)
            s = c if s is None else s + c
            if s:
                t[m] = s
            else:
                del t[m]
        return self._like(t)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """The product of every coefficient with the scalar c."""
        if not c or not self.terms:
            return self._like({})
        return self._like({m: x * c for m, x in self.terms.items()})

    def map_coeffs(self, fn):
        """fn applied to every coefficient; zero results are dropped."""
        t = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v:
                t[m] = v
        return self._like(t)


# ---------------------------------------------------------------------------
# ParamPoly
# ---------------------------------------------------------------------------

def _grlex_key(mono):
    dk, dp = mono
    return (dk + dp, dk)


class ParamPoly(Sparse):
    """Sparse polynomial in Z[k, p0].

    self.terms maps (deg_k, deg_p0) -> int coefficient.  The constructor
    raises TypeError on a coefficient that is not an int, so sums,
    products and integer multiples stay in Z[k, p0].  It meets the
    coefficient protocol of Sparse, with an int operand of `+ - *` on
    either side taken as the constant polynomial.
    """

    __slots__ = ("_hash",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for mono, c in terms.items():
                if type(c) is not int:
                    raise TypeError("ParamPoly coefficients are ints, got %r"
                                    % (c,))
                if c:
                    t[mono] = c
        self.terms = t
        self._hash = None

    def _like(self, terms):
        out = ParamPoly.__new__(ParamPoly)
        out.terms = terms
        out._hash = None
        return out

    @staticmethod
    def const(c):
        return ParamPoly({(0, 0): c})

    @staticmethod
    def var_k():
        return ParamPoly({(1, 0): 1})

    @staticmethod
    def var_p0():
        return ParamPoly({(0, 1): 1})

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def const_value(self):
        return Fraction(self.terms.get((0, 0), 0))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # An int operand of + - * is the constant polynomial; any other
    # operand that is not a ParamPoly raises TypeError from the constructor.

    def __add__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        return Sparse.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            return self.scale(other)
        if not isinstance(other, ParamPoly):
            other = ParamPoly.const(other)
        if not self.terms or not other.terms:
            return _P_ZERO
        t = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                mono = (a1 + a2, b1 + b2)
                s = t.get(mono, 0) + c1 * c2
                if s:
                    t[mono] = s
                else:
                    t.pop(mono, None)
        return self._like(t)

    __rmul__ = __mul__

    def scale(self, c):
        """The product with the int c."""
        return self if c == 1 else Sparse.scale(self, c)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial: %d" % n)
        # square only while a higher bit is left, so self ** 1 is self
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return _P_ONE if out is None else out

    def leading_mono(self):
        return max(self.terms, key=_grlex_key)

    def front_mono(self):
        """The graded-lex smallest monomial — the one printed first."""
        return min(self.terms, key=_grlex_key)

    def evaluate(self, k0, p00):
        """The value at the rational point (k0, p00), a Fraction: with
        k0 = a/b and p00 = c/d, the int sum of x * a^i b^(I-i) c^j d^(J-j)
        over the terms x k^i p0^j, I and J the degrees, divided once by
        b^I d^J."""
        if not self.terms:
            return Fraction(0)
        k0, p00 = Fraction(k0), Fraction(p00)
        a, b, c, d = k0.numerator, k0.denominator, p00.numerator, \
            p00.denominator
        top_k = max(i for i, _ in self.terms)
        top_p = max(j for _, j in self.terms)
        return Fraction(sum(x * a ** i * b ** (top_k - i) * c ** j
                            * d ** (top_p - j)
                            for (i, j), x in self.terms.items()),
                        b ** top_k * d ** top_p)

    def subs(self, var, a, b, d):
        """b^d times self with a/b substituted for k (var 0) or p0
        (var 1), for ints a, b and d at least the degree in that
        variable; a ParamPoly in the other variable alone."""
        t = {}
        for mono, c in self.terms.items():
            e = mono[var]
            rest = (0, mono[1]) if var == 0 else (mono[0], 0)
            t[rest] = t.get(rest, 0) + c * a ** e * b ** (d - e)
        return ParamPoly(t)

    def degree_p0(self):
        return max((dp for _, dp in self.terms), default=-1)

    def coeff_of_p0_power(self, d):
        """The coefficient of p0^d, as a ParamPoly in k alone."""
        return ParamPoly({(dk, 0): c for (dk, dp), c in self.terms.items()
                          if dp == d})

    def content_primitive(self):
        """Content and primitive part, self = content * prim: the content
        is the int gcd (> 0) of the coefficients, and prim is self divided
        by it with `//`.  The zero polynomial has content 0.
        """
        if not self.terms:
            return 0, _P_ZERO
        content = int_gcd(*self.terms.values())
        if content == 1:
            return 1, self
        return content, self._like({m: c // content
                                    for m, c in self.terms.items()})

    def __str__(self):
        return _format_poly(self)

    def __repr__(self):
        return "ParamPoly(%s)" % _format_poly(self)


_P_ZERO = ParamPoly()
_P_ONE = ParamPoly({(0, 0): 1})


def poly_gcd(a, b):
    """gcd of two integer ParamPolys, integer-primitive, with a positive
    graded-lex leading coefficient."""
    if a.is_zero():
        g_rec = _dict_to_rec(b.terms)
    elif b.is_zero():
        g_rec = _dict_to_rec(a.terms)
    else:
        g_rec = _r_gcd(_dict_to_rec(a.terms), _dict_to_rec(b.terms))
    g = ParamPoly(_rec_to_dict(g_rec))
    if g.is_zero():
        return g
    _, g = g.content_primitive()
    if g.terms[g.leading_mono()] < 0:
        g = -g
    return g


def poly_divexact(a, b):
    """Exact division of integer ParamPolys; raises ArithmeticError
    unless b divides a in Z[k, p0]."""
    return ParamPoly(_rec_to_dict(_r_divexact(_dict_to_rec(a.terms),
                                              _dict_to_rec(b.terms))))


def _k_linear_divexact(c, a):
    """Exact division of the ParamPoly c by the atom a = x + y*k, y
    nonzero: a synthetic division in k, one column of c (a power of
    p0) at a time, from the top degree down.  Raises ArithmeticError
    unless the quotient lies in Z[k, p0]: an int remainder on the way,
    or a constant term the division leaves nonzero."""
    x, y = a.terms.get((0, 0), 0), a.terms[(1, 0)]
    cols = {}
    for (i, j), v in c.terms.items():
        cols.setdefault(j, {})[i] = v
    t = {}
    for j, col in cols.items():
        q = 0
        for i in range(max(col), 0, -1):
            q, rem = divmod(col.get(i, 0) - x * q, y)
            if rem:
                raise ArithmeticError("inexact division by a linear atom")
            if q:
                t[(i - 1, j)] = q
        if col.get(0, 0) != x * q:
            raise ArithmeticError("inexact division by a linear atom")
    return c._like(t)


def _divide_out(c, a, most):
    """(c / a^i, i) for the largest i <= most with a^i dividing c.  An
    atom x + y*k, linear in k alone, divides by _k_linear_divexact;
    any other by poly_divexact."""
    linear = a.terms.keys() <= {(0, 0), (1, 0)} and (1, 0) in a.terms
    divide = _k_linear_divexact if linear else poly_divexact
    i = 0
    while i < most:
        try:
            c = divide(c, a)
        except ArithmeticError:
            break
        i += 1
    return c, i


# ---------------------------------------------------------------------------
# ParamRat
# ---------------------------------------------------------------------------

def _cancel(a, b):
    """a/g and b/g for g = gcd(a, b), for nonzero a and b; a and b
    themselves when g is 1.

    No gcd is taken when either is constant (the gcd with a nonzero
    constant is 1) or when they are equal (g = a).  This is the only
    place a ParamRat reduces by a polynomial gcd.
    """
    if a.is_const() or b.is_const():
        return a, b
    if a == b:
        return _P_ONE, _P_ONE
    g = poly_gcd(a, b)
    if g.is_const():
        return a, b
    return poly_divexact(a, g), poly_divexact(b, g)


def _scalar_canonical(num, den):
    """The canonical (num, den) of num/den for polynomially coprime num
    and den: zero is 0/1, the integer contents are coprime and den's
    front coefficient is positive."""
    if num.is_zero():
        return _P_ZERO, _P_ONE
    cn, pn = num.content_primitive()
    cd, pd = den.content_primitive()
    g = int_gcd(cn, cd)
    num = pn.scale(cn // g)
    den = pd.scale(cd // g)
    if den.terms[den.front_mono()] < 0:
        num, den = -num, -den
    return num, den


def _make(num, den):
    """The ParamRat num/den, for a (num, den) already in canonical form."""
    out = ParamRat.__new__(ParamRat)
    out.num, out.den, out._hash = num, den, None
    return out


class ParamRat:
    """Element of Q(k, p0) in canonical reduced form.

    Invariants: num and den are ParamPolys whose coefficients are all
    Python ints, with no common polynomial factor; the integer contents
    of num and den are coprime; den's front coefficient, that of its
    graded-lex (total degree, then deg_k) smallest monomial, is
    positive; zero is 0/1.
    The form is unique, so equality and hashing are structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if den is None:
            den = _P_ONE
        if den.is_zero():
            raise DivisionByZero("zero denominator in ParamRat")
        self.num, self.den = _scalar_canonical(*_cancel(num, den))
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n):
        return ParamRat(ParamPoly.const(n))

    @staticmethod
    def from_fraction(q):
        q = Fraction(q)
        return ParamRat(ParamPoly.const(q.numerator),
                        ParamPoly.const(q.denominator))

    @staticmethod
    def k():
        return ParamRat(ParamPoly.var_k())

    @staticmethod
    def p0():
        return ParamRat(ParamPoly.var_p0())

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return (self.num.is_const() and self.den.is_const()
                and self.num.const_value() == self.den.const_value())

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant: %s" % self)
        return Fraction(self.num.terms.get((0, 0), 0),
                        self.den.terms[(0, 0)])

    def __eq__(self, other):
        if not isinstance(other, ParamRat):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = as_rat(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes like its Fraction value, which it equals
        if self._hash is None:
            self._hash = hash(self.const_value() if self.is_const()
                              else (self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.num.is_zero()

    # -- arithmetic ----------------------------------------------------------
    # A scalar operand that is not a ParamRat goes through as_rat.

    def __add__(self, other):
        if not isinstance(other, ParamRat):
            other = as_rat(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        # over the lcm d1*c2 = d2*c1; when gcd(d1, d2) = 1 (nothing
        # cancelled) the sum is already coprime to it
        c1, c2 = _cancel(self.den, other.den)
        num = self.num * c2 + other.num * c1
        den = self.den * c2
        if c1 is self.den:
            return _make(*_scalar_canonical(num, den))
        return ParamRat(num, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _make(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ParamRat):
            other = as_rat(other)
        if self.num.is_zero() or other.num.is_zero():
            return RAT_ZERO
        # cancel across, so only the scalars remain to normalize
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _make(*_scalar_canonical(n1 * n2, d1 * d2))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        num, den = self.den, self.num
        if den.terms[den.front_mono()] < 0:
            num, den = -num, -den
        return _make(num, den)

    def __truediv__(self, other):
        if not isinstance(other, ParamRat):
            other = as_rat(other)
        if other.num.is_zero():
            raise DivisionByZero("division by zero ParamRat")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RAT_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- specialization ------------------------------------------------------

    def specialize(self, k0, p00):
        """Evaluate at exact rationals (k0, p00); result is a Fraction."""
        d = self.den.evaluate(k0, p00)
        if d == 0:
            raise PoleAtSpecialization(
                "denominator %s vanishes at k=%s, p0=%s" % (self.den, k0, p00))
        return self.num.evaluate(k0, p00) / d

    def substitute_k(self, k0):
        """Substitute k = k0; result is a ParamRat in p0 alone."""
        return self._substitute(0, "k", k0)

    def substitute_p0(self, p00):
        """Substitute p0 = p00; result is a ParamRat in k alone."""
        return self._substitute(1, "p0", p00)

    def _substitute(self, var, name, value):
        # num/den with value = a/b put in, both times b^d for the joint
        # degree d in the variable, so the result stays in Z[k, p0]
        q = Fraction(value)
        d = max(m[var] for p in (self.num, self.den) for m in p.terms)
        num, den = (p.subs(var, q.numerator, q.denominator, d)
                    for p in (self.num, self.den))
        if den.is_zero():
            raise IdenticallySingular("denominator %s vanishes identically "
                                      "at %s=%s" % (self.den, name, value))
        return ParamRat(num, den)

    def param_swap(self):
        """The substitution k -> 1/k, p0 -> k*p0 (an involution of Q(k,p0)).

        A monomial k^a p0^b goes to k^(b-a) p0^b; the common power of k
        is cleared from numerator and denominator afterwards.
        """
        def swapped(poly):
            return {(dp - dk, dp): c for (dk, dp), c in poly.terms.items()}
        tn, td = swapped(self.num), swapped(self.den)
        if not tn:
            return RAT_ZERO
        shift = -min(min((dk for dk, _ in tn), default=0),
                     min((dk for dk, _ in td), default=0))
        num = ParamPoly({(dk + shift, dp): c for (dk, dp), c in tn.items()})
        den = ParamPoly({(dk + shift, dp): c for (dk, dp), c in td.items()})
        return ParamRat(num, den)

    def is_p0_free(self):
        return (all(dp == 0 for _, dp in self.num.terms)
                and all(dp == 0 for _, dp in self.den.terms))

    def is_polynomial(self):
        """True if the canonical denominator is a constant."""
        return self.den.is_const()

    def has_unit_denominator(self):
        """True if the canonical denominator is exactly 1."""
        return self.den.is_const() and self.den.const_value() == 1

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return _format_poly(self.num)
        return "(%s)/(%s)" % (_format_poly(self.num), _format_poly(self.den))

    def __repr__(self):
        return "ParamRat(%s)" % self.__str__()


RAT_ZERO = _make(_P_ZERO, _P_ONE)
RAT_ONE = _make(_P_ONE, _P_ONE)
K = ParamRat.k()
P0 = ParamRat.p0()


def rat(n, d=1):
    """Small convenience: the constant n/d as a ParamRat."""
    return ParamRat.from_fraction(Fraction(n, d))


def as_rat(v):
    """An int, Fraction, ParamPoly or ParamRat as a ParamRat."""
    if isinstance(v, ParamRat):
        return v
    if isinstance(v, ParamPoly):
        return _make(v, _P_ONE)
    if isinstance(v, int):
        return ParamRat.from_int(v)
    if isinstance(v, Fraction):
        return ParamRat.from_fraction(v)
    raise TypeError("expected ParamRat, int or Fraction, got %r" % (v,))


# ---------------------------------------------------------------------------
# text form: printing and parsing, round-trips bit-exactly
# ---------------------------------------------------------------------------

def _format_mono(dk, dp):
    parts = []
    if dk == 1:
        parts.append("k")
    elif dk > 1:
        parts.append("k^%d" % dk)
    if dp == 1:
        parts.append("p0")
    elif dp > 1:
        parts.append("p0^%d" % dp)
    return "*".join(parts)


def _format_poly(poly):
    """Canonical string: terms ascending in graded-lex (total degree, deg_k).

    Unit coefficients are hidden except on a leading negative term,
    which prints its coefficient explicitly (e.g. `-1*p0`).
    """
    if not poly.terms:
        return "0"
    monos = sorted(poly.terms, key=_grlex_key)
    pieces = []
    for idx, mono in enumerate(monos):
        c = poly.terms[mono]
        mstr = _format_mono(*mono)
        shown = c if idx == 0 else abs(c)
        if not mstr:
            body = str(shown)
        elif shown == 1:
            body = mstr
        else:
            body = "%s*%s" % (shown, mstr)
        pieces.append(body if idx == 0 else (" - " if c < 0 else " + ") + body)
    return "".join(pieces)

