"""The algebra of Laurent symmetric functions.

Elements are sparse polynomials in free commuting generators p_i,
i a nonzero integer, with coefficients in Q(k, p0): ParamRats for
symbolic parameters, Fractions at a rational point (k0, p00), and
ParamPolys in Z[k, p0] inside a construction step.  A
monomial is a tuple of (index, exponent) pairs sorted by index; the
unit monomial is the empty tuple.  The parameter p0 plays the role of
the dimension and only ever enters through coefficients, never as a
generator.

One parser reads the printed forms back: `parse_element` for elements
and `parse_rat` for a coefficient alone.  It refuses, before running
it, any coefficient `+ - * / ^` whose result could pass total degree
MAX_EXPONENT in k and p0.
"""

from collections import Counter
from fractions import Fraction

from .rational import (RAT_ONE, RAT_ZERO, K, P0, ParamRat, as_rat,
                       PoleAtSpecialization)

UNIT_MONO = ()


def mono_from_dict(d):
    """Canonical monomial from an index -> exponent mapping."""
    items = []
    for i, e in d.items():
        i = int(i)
        e = int(e)
        if i == 0:
            raise ValueError("generator index 0 does not exist")
        if e < 0:
            raise ValueError("negative exponent in monomial")
        if e:
            items.append((i, e))
    return tuple(sorted(items))


def mono_mul(m1, m2):
    d = dict(m1)
    for i, e in m2:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


def mono_bidegree(m):
    """(sum of positive-index degrees, minus sum of negative-index degrees)."""
    pos = sum(i * e for i, e in m if i > 0)
    neg = -sum(i * e for i, e in m if i < 0)
    return (pos, neg)


def mono_str(m):
    if not m:
        return "1"
    return "*".join("p%d" % i + ("^%d" % e if e > 1 else "") for i, e in m)


def _term_order(m):
    pos, neg = mono_bidegree(m)
    return (pos + neg, pos, m)


class LaurentSymFunc:
    """Sparse element of the Laurent symmetric function algebra.

    self.terms maps monomial tuples to nonzero coefficients.  Any
    coefficient with `+ - *` (int operands included), `==` with `hash`,
    and truthiness for zero will do: ParamRat for symbolic parameters,
    Fraction at a rational point, and ParamPoly for the ring step of the
    construction, whose functions are cleared of denominators.  The
    coefficient type is that of the input; where a Fraction
    meets a ParamRat, in a sum or a product, the result is a ParamRat,
    through ParamRat's reflected operators.  A constant ParamRat equals
    and hashes like its Fraction value, so equality does not depend on
    the type.  Instances are treated as immutable; all operations
    return new ones.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = c
        self.terms = t

    @staticmethod
    def zero():
        return LaurentSymFunc()

    @staticmethod
    def one():
        return LaurentSymFunc({UNIT_MONO: RAT_ONE})

    @staticmethod
    def const(c):
        return LaurentSymFunc({UNIT_MONO: c})

    @staticmethod
    def gen(i, power=1):
        """The generator p_i (or a pure power of it; p_i^0 is 1)."""
        return LaurentSymFunc({mono_from_dict({i: power}): RAT_ONE})

    @staticmethod
    def from_partition(lam, sign=1):
        """The power-sum monomial p_lam (sign=-1 gives negative indices)."""
        d = {}
        for x in lam:
            d[sign * x] = d.get(sign * x, 0) + 1
        return LaurentSymFunc({mono_from_dict(d): RAT_ONE})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LaurentSymFunc) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m)
            s = c if s is None else s + c
            if not s:
                t.pop(m, None)
            else:
                t[m] = s
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = t
        return out

    def __neg__(self):
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentSymFunc):
            return self.scale(other)
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = c1 * c2
                s = t.get(m)
                s = c if s is None else s + c
                if not s:
                    t.pop(m, None)
                else:
                    t[m] = s
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = t
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """The product with a scalar: a ParamRat, int or Fraction."""
        if not c or not self.terms:
            return LaurentSymFunc()
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = {m: x * c for m, x in self.terms.items()}
        return out

    def times(self, *gens):
        """The product with the generators p_i, i in gens: a shift of
        every monomial, with the coefficients kept as they are."""
        mono = mono_from_dict(Counter(gens))
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = {mono_mul(m, mono): c for m, c in self.terms.items()}
        return out

    def coeff(self, m):
        return self.terms.get(m, RAT_ZERO)

    # -- algebra maps --------------------------------------------------------

    def star(self):
        """The involution p_i -> p_{-i}; coefficients unchanged."""
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = {tuple(sorted((-i, e) for i, e in m)): c
                     for m, c in self.terms.items()}
        return out

    def theta(self, inverse=False):
        """The homomorphism p_a -> k*p_a (inverse: p_a -> p_a/k)."""
        t = {}
        for m, c in self.terms.items():
            e_total = sum(e for _, e in m)
            factor = K ** (-e_total if inverse else e_total)
            t[m] = c * factor
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = t
        return out

    def partial(self, a):
        """The scaled derivation a * d/dp_a."""
        if a == 0:
            raise ValueError("no generator p_0")
        t = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(a)
            if not e:
                continue
            if e == 1:
                del d[a]
            else:
                d[a] = e - 1
            key = tuple(sorted(d.items()))
            add = c * (a * e)
            s = t.get(key)
            s = add if s is None else s + add
            if not s:
                t.pop(key, None)
            else:
                t[key] = s
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = t
        return out

    def evaluate_eps(self):
        """Substitute every generator by the parameter symbol p0."""
        total = RAT_ZERO
        for m, c in self.terms.items():
            e_total = sum(e for _, e in m)
            total = total + c * P0 ** e_total
        return total

    def bidegree_components(self):
        """Split into homogeneous components keyed by (m, n) bidegree."""
        comps = {}
        for m, c in self.terms.items():
            bd = mono_bidegree(m)
            comps.setdefault(bd, {})[m] = c
        return {bd: LaurentSymFunc(t) for bd, t in comps.items()}

    def is_positive_part(self):
        """True if no negative-index generator occurs."""
        return all(i > 0 for m in self.terms for i, _ in m)

    # -- coefficient maps ----------------------------------------------------

    def map_coeffs(self, fn):
        t = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v:
                t[m] = v
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = t
        return out

    def substitute_k(self, k0):
        return self.map_coeffs(lambda c: c.substitute_k(k0))

    def substitute_p0(self, p00):
        return self.map_coeffs(lambda c: c.substitute_p0(p00))

    def param_swap(self):
        """Apply k -> 1/k, p0 -> k*p0 to every coefficient."""
        return self.map_coeffs(lambda c: c.param_swap())

    def specialize(self, k0, p00):
        """The function at the rational point (k0, p00), with Fraction
        coefficients; a pole raises PoleAtSpecialization naming the
        monomial."""
        k0, p00 = Fraction(k0), Fraction(p00)
        t = {}
        for m, c in self.terms.items():
            try:
                v = c.specialize(k0, p00)
            except PoleAtSpecialization:
                raise PoleAtSpecialization(
                    "coefficient of %s has a pole at k=%s, p0=%s: %s"
                    % (mono_str(m), k0, p00, c))
            if v:
                t[m] = v
        out = LaurentSymFunc.__new__(LaurentSymFunc)
        out.terms = t
        return out

    # -- display -------------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _term_order(kv[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for idx, (m, c) in enumerate(self.sorted_terms()):
            c = as_rat(c)
            neg = c.num.terms[c.num.front_mono()] < 0
            mag = -c if neg else c
            body = _coeff_mono_str(mag, m)
            if idx == 0:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return "LaurentSymFunc(%s)" % self.__str__()

    def to_json_terms(self):
        """JSON form: list of {exponents, coeff} with string coefficients."""
        out = []
        for m, c in self.sorted_terms():
            out.append({"exponents": {str(i): e for i, e in m},
                        "coeff": str(as_rat(c))})
        return out


def _coeff_mono_str(c, m):
    ms = mono_str(m)
    if not m:
        # a bare multi-term polynomial needs parens to survive a sign prefix
        if c.has_unit_denominator() and len(c.num.terms) > 1:
            return "(%s)" % c
        return str(c)
    if c.is_one():
        return ms
    if c.is_const():
        v = c.const_value()
        if v.denominator == 1:
            return "%d*%s" % (v.numerator, ms)
        return "(%d/%d)*%s" % (v.numerator, v.denominator, ms)
    return "(%s)*%s" % (c, ms)


def from_json_terms(data):
    t = {}
    for entry in data:
        m = mono_from_dict(entry["exponents"])
        c = parse_rat(entry["coeff"])
        if not c.is_zero():
            t[m] = (t.get(m, RAT_ZERO) + c)
    return LaurentSymFunc(t)


# ---------------------------------------------------------------------------
# text parsing: coefficients such as (p0)/(1 + k - k*p0) and elements such
# as p1*p-1 - (p0)/(1 + k - k*p0)
# ---------------------------------------------------------------------------

# str.isdigit would also take non-ASCII digits such as "\u0663" and "\u00b2"
_DIGITS = frozenset("0123456789")

# The largest exponent after `^`, and the largest total degree in k and p0
# that the numerator or denominator of a coefficient may reach through any
# `+ - * / ^`.  No coefficient of a label with |lam|+|mu| <= 7 needs more
# than 11, and a short expression of degree 64 already costs seconds.
MAX_EXPONENT = 32

# The deepest nesting of parentheses; each level is a few Python frames,
# so this stays well inside the recursion limit.
MAX_DEPTH = 100

# A parse error quotes at most this many characters of the input.
_EXCERPT = 40


def _degrees(c):
    """The total degrees in k and p0 of c's numerator and denominator."""
    return [max(map(sum, p.terms), default=0) for p in (c.num, c.den)]


class _Parser:
    """Recursive-descent parser for coefficients and elements.

    Grammar: expr = ['+'|'-'] term (('+'|'-') term)*;
    term = (factor | gen) (('*'|'/') (factor | gen))*;
    factor = atom ('^' int)?; atom = int | 'k' | 'p0' | '(' expr ')';
    gen = 'p' ['-'] int ('^' int)? with a nonzero index, so `p0` is the
    parameter and `p-3`, `p3^2` are generators.  A term is a coefficient
    times a generator monomial.  A generator may not follow `/` or stand
    inside parentheses, and with `generators` false it is refused.  An
    exponent is at most MAX_EXPONENT, and so is the total degree that
    any coefficient operation can reach, checked before it runs;
    parentheses nest at most MAX_DEPTH deep.
    """

    def __init__(self, text, generators):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.generators = generators

    def error(self, msg):
        lo = max(0, min(self.pos - _EXCERPT // 2, len(self.text) - _EXCERPT))
        hi = lo + _EXCERPT
        raise ValueError("parse error at %d in %s%r%s: %s" % (
            self.pos, "..." if lo else "", self.text[lo:hi],
            "..." if hi < len(self.text) else "", msg))

    def bound(self, what, num, den):
        if max(num, den) > MAX_EXPONENT:
            self.error("%s of total degree %d exceeds %d"
                       % (what, max(num, den), MAX_EXPONENT))

    def combine(self, op, a, b):
        """a op b for ParamRats, refused before it runs when its numerator
        or denominator could pass total degree MAX_EXPONENT."""
        (an, ad), (bn, bd) = _degrees(a), _degrees(b)
        if op == "*":
            self.bound("product", an + bn, ad + bd)
            return a * b
        if op == "/":
            self.bound("quotient", an + bd, ad + bn)
            return a / b
        self.bound("sum", max(an + bd, bn + ad), ad + bd)
        return a + b if op == "+" else a - b

    def peek(self):
        """The next character after whitespace, '' at the end."""
        while self.text[self.pos:self.pos + 1].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def take(self, chars):
        """The next character, consumed, if it is one of chars; else ''."""
        ch = self.peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        return ""

    def parse_int(self):
        self.peek()
        start = self.pos
        while self.text[self.pos:self.pos + 1] in _DIGITS:
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def parse_exponent(self):
        """The int after an optional `^`, 1 when there is none; above
        MAX_EXPONENT it is a parse error."""
        if not self.take("^"):
            return 1
        n = self.parse_int()
        if n > MAX_EXPONENT:
            self.error("exponent %d exceeds %d" % (n, MAX_EXPONENT))
        return n

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_DEPTH:
                self.error("parentheses nest deeper than %d" % MAX_DEPTH)
            self.depth += 1
            self.pos += 1
            e = self.parse_expr()
            if not self.take(")"):
                self.error("expected ')'")
            self.depth -= 1
            return e.get(UNIT_MONO, RAT_ZERO)
        if ch in _DIGITS:
            return ParamRat.from_int(self.parse_int())
        if self.text.startswith("p0", self.pos):
            self.pos += 2
            return P0
        if ch == "k":
            self.pos += 1
            return K
        self.error("expected atom")

    def parse_factor(self):
        a = self.parse_atom()
        n = self.parse_exponent()
        if n == 1:
            return a
        self.bound("power", *(n * d for d in _degrees(a)))
        return a ** n

    def generator_ahead(self):
        """True at a `p` that starts a generator, not the parameter p0."""
        if not self.generators or self.depth or self.peek() != "p":
            return False
        nxt = self.text[self.pos + 1:self.pos + 3]
        if nxt[:1] == "0":
            return nxt[1:] in _DIGITS
        return nxt[:1] in _DIGITS or nxt[:1] == "-"

    def parse_generator(self):
        """(index, exponent) of a generator power such as p-3^2."""
        self.pos += 1
        sign = -1 if self.take("-") else 1
        idx = sign * self.parse_int()
        if idx == 0:
            self.error("generator index 0 does not exist")
        return idx, self.parse_exponent()

    def parse_term(self):
        """(coefficient, monomial) of a product of factors and generators."""
        coeff, gens, op = RAT_ONE, Counter(), "*"
        while op:
            if not self.generator_ahead():
                coeff = self.combine(op, coeff, self.parse_factor())
            elif op == "/":
                self.error("cannot divide by a generator")
            else:
                idx, e = self.parse_generator()
                gens[idx] += e
            op = self.take("*/")
        return coeff, mono_from_dict(gens)

    def parse_expr(self):
        """A sum of terms, as a map from monomial to nonzero coefficient."""
        out, op = {}, self.take("+-") or "+"
        while op:
            coeff, m = self.parse_term()
            c = self.combine(op, out.pop(m, RAT_ZERO), coeff)
            if c:
                out[m] = c
            op = self.take("+-")
        return out

    def parse(self):
        out = self.parse_expr()
        if self.peek():
            self.error("trailing input")
        return out


def parse_rat(text):
    """Parse the textual form of a ParamRat, e.g. `(-1*p0)/(1 + k - k*p0)`."""
    return _Parser(text, generators=False).parse().get(UNIT_MONO, RAT_ZERO)


def parse_element(text):
    """Parse the textual form of a LaurentSymFunc."""
    return LaurentSymFunc(_Parser(text, generators=True).parse())
