"""The coefficient field Q(k, p0): canonical forms, arithmetic,
specialization, and the parameter swap."""

import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from jacklaurent import clear_caches, rational
from jacklaurent.jack import construct, rational_mode_construct
from jacklaurent.laurent import LaurentSymFunc, MAX_DEPTH, MAX_EXPONENT, \
    parse_rat
from jacklaurent.closed_forms import pieri_U
from jacklaurent.partitions import bipartitions_up_to, remove_box_candidates
from jacklaurent.verify import run_suite
from jacklaurent.rational import ParamPoly, ParamRat, RAT_ZERO, RAT_ONE, \
    K, P0, rat, poly_gcd, poly_divexact, DivisionByZero, \
    PoleAtSpecialization, IdenticallySingular


def frac(n, d=1):
    return Fraction(n, d)


small_fracs = st.fractions(min_value=-4, max_value=4,
                           max_denominator=3)


def _cleared(num, den):
    """num/den for two maps monomial -> rational coefficient, with both
    sides multiplied by the lcm of the coefficient denominators, so that
    they are ParamPolys in Z[k, p0]."""
    m = lcm(*(c.denominator for t in (num, den) for c in t.values()))
    return ParamRat(*(ParamPoly({mono: (c * m).numerator
                                 for mono, c in t.items()})
                      for t in (num, den)))


@st.composite
def param_rats(draw, max_terms=3, max_deg=2):
    def terms():
        n = draw(st.integers(0, max_terms))
        t = {}
        for _ in range(n):
            mono = (draw(st.integers(0, max_deg)),
                    draw(st.integers(0, max_deg)))
            t[mono] = t.get(mono, Fraction(0)) + draw(small_fracs)
        return t
    num = terms()
    den = terms()
    if not any(den.values()):
        den = {(0, 0): Fraction(1)}
    return _cleared(num, den)


@st.composite
def int_polys(draw, max_terms=4, max_deg=2):
    """Polynomials in Z[k, p0]."""
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        mono = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-5, 5))
    return ParamPoly(terms)


nonzero_int_polys = int_polys().filter(lambda p: not p.is_zero())


def _normal(p):
    """p integer-primitive with a positive graded-lex leading coefficient."""
    _, p = p.content_primitive()
    return -p if p.terms[p.leading_mono()] < 0 else p


@st.composite
def const_den_rats(draw):
    """Elements with a constant denominator: the coefficients of a
    construction at a numeric point, and of most closed forms."""
    a = draw(param_rats())
    return _cleared(a.num.terms, {(0, 0): draw(small_fracs.filter(bool))})


def _assert_canonical(r):
    """The canonical-form invariants of ParamRat, checked from outside."""
    ints = [c for p in (r.num, r.den) for c in p.terms.values()]
    assert all(type(c) is int for c in ints), r
    if r.is_zero():
        assert r.den == ParamPoly.const(1), r
        return
    assert gcd(*(c.numerator for c in ints)) == 1, r
    assert r.den.terms[r.den.front_mono()] > 0, r
    assert poly_gcd(r.num, r.den).is_const(), r


def _assert_results_canonical(a, b):
    for r in (a, b, -a, a + b, a - b, a * b, a + 1, a * 2):
        _assert_canonical(r)
    if not b.is_zero():
        _assert_canonical(a / b)
        _assert_canonical(b.inverse())


# Points where every label with |lam|+|mu| <= 3 is regular.
REGULAR_POINTS = [(Fraction(-1, 2), Fraction(7, 3)),
                  (Fraction(-5, 7), Fraction(13, 2))]


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestCanonicalInvariants:
    def test_front_not_leading_coefficient_is_positive(self):
        r = P0 / (RAT_ONE + K - K * P0)
        assert str(r) == "(p0)/(1 + k - k*p0)"
        assert r.den.terms[r.den.leading_mono()] < 0
        _assert_canonical(r)

    @settings(max_examples=60, deadline=None)
    @given(param_rats(), param_rats())
    def test_operation_results(self, a, b):
        _assert_results_canonical(a, b)

    @settings(max_examples=60, deadline=None)
    @given(const_den_rats(), st.one_of(const_den_rats(), param_rats()))
    def test_operation_results_constant_denominators(self, a, b):
        _assert_results_canonical(a, b)
        _assert_results_canonical(b, a)

    @settings(max_examples=60, deadline=None)
    @given(param_rats(), param_rats())
    def test_operators_match_one_shot_constructor(self, a, b):
        assert a + b == ParamRat(a.num * b.den + b.num * a.den,
                                 a.den * b.den)
        assert a * b == ParamRat(a.num * b.num, a.den * b.den)

    def test_constructed_coefficients(self):
        for alpha in bipartitions_up_to(3):
            for c in construct(alpha).f.terms.values():
                _assert_canonical(c)

    @pytest.mark.parametrize("k0,p00", REGULAR_POINTS)
    def test_rational_mode_coefficients(self, k0, p00):
        for alpha in bipartitions_up_to(3):
            for c in rational_mode_construct(alpha, k0, p00).terms.values():
                assert type(c) is Fraction, (alpha, c)

    @settings(max_examples=30, deadline=None)
    @given(param_rats(), param_rats())
    def test_sympy_cancel_oracle(self, sympy, a, b):
        k, p0 = sympy.symbols("k p0")

        def parse(text):
            return sympy.sympify(text.replace("^", "**"),
                                 locals={"k": k, "p0": p0})

        x, y = parse(str(a)), parse(str(b))
        results = [(a + b, x + y), (a - b, x - y), (a * b, x * y)]
        if not b.is_zero():
            results.append((a / b, x / y))
        for r, want in results:
            assert sympy.cancel(parse(str(r)) - want) == 0, (a, b, r)
            assert sympy.gcd(parse(str(r.num)), parse(str(r.den))).is_number


# The first pseudo-division step of a by b cancels a's k^2 term too, so
# the pseudo-remainder owes b's leading coefficient for the step skipped.
SKIPPED_STEP = [parse_rat(t).num for t in
                ("k^3 + k^2 + k + 2", "p0*k^2 + p0*k + 1", "k + p0")]


class TestIntegerGcd:
    @settings(max_examples=60, deadline=None)
    @given(nonzero_int_polys, int_polys(), nonzero_int_polys)
    @example(*SKIPPED_STEP)
    def test_sympy_gcd_oracle(self, sympy, a, b, g):
        k, p0 = sympy.symbols("k p0")

        def to_sympy(p):
            return sympy.sympify(str(p).replace("^", "**"),
                                 locals={"k": k, "p0": p0})

        want = sympy.Poly(sympy.gcd(to_sympy(a * g), to_sympy(b * g)), k, p0)
        want = ParamPoly({m: int(c) for m, c in want.terms()})
        assert poly_gcd(a * g, b * g) == _normal(want)

    @settings(max_examples=60, deadline=None)
    @given(int_polys(), nonzero_int_polys)
    def test_divexact(self, a, g):
        assert poly_divexact(a * g, g) == a
        with pytest.raises(ArithmeticError):
            poly_divexact(g, g.scale(2))
        if not g.is_const():
            with pytest.raises(ArithmeticError):
                poly_divexact(a * g + ParamPoly.const(1), g)


@given(int_polys(max_deg=3), small_fracs, small_fracs)
def test_evaluate_sums_over_ints(p, k0, p00):
    # against the term-by-term Fraction sum it replaced
    want = sum((c * k0 ** i * p00 ** j for (i, j), c in p.terms.items()),
               Fraction(0))
    got = p.evaluate(k0, p00)
    assert type(got) is Fraction and got == want


def test_no_gcd_with_a_constant_operand(monkeypatch):
    # the construction reduces by trial division over its atoms and the
    # Pieri checks compare in the ring, so neither takes a gcd at all;
    # ParamRat arithmetic, as in a product of Pieri coefficients, still
    # does, but never with a constant operand
    calls = {"all": 0, "constant": 0}
    real = rational.poly_gcd

    def counting(a, b):
        calls["all"] += 1
        calls["constant"] += a.is_const() or b.is_const()
        return real(a, b)

    monkeypatch.setattr(rational, "poly_gcd", counting)
    clear_caches()
    for alpha in bipartitions_up_to(3):
        construct(alpha)
    rational_mode_construct(((2, 1), (1,)), *REGULAR_POINTS[0])
    assert calls["all"] == 0
    assert run_suite("pieri", 2)["status"] == "pass"
    assert calls["all"] == 0
    alpha = ((1,), (2, 1))
    u = [pieri_U(box, alpha).to_rat()
         for box in remove_box_candidates(alpha[1])]
    assert u[0] * u[1] / (u[0] + u[1]) != RAT_ZERO
    assert calls["constant"] == 0
    assert calls["all"] > 0


class TestCanonicalForm:
    def test_zero_and_one(self):
        assert RAT_ZERO.is_zero()
        assert RAT_ONE.is_one()
        assert rat(0) == RAT_ZERO
        assert rat(7, 7) == RAT_ONE

    def test_gcd_reduction(self):
        # (k^2 - k*p0) / (k) reduces to k - p0
        num = K * K - K * P0
        assert num / K == K - P0

    def test_common_content_cleared(self):
        assert rat(2, 4) == rat(1, 2)
        assert (K * 2 + rat(2)) / rat(2) == K + RAT_ONE

    def test_denominator_sign_normalized(self):
        a = RAT_ONE / (RAT_ZERO - K)
        b = -(RAT_ONE / K)
        assert a == b
        assert str(a) == str(b)

    def test_structural_equality_and_hash(self):
        a = (K + RAT_ONE) * (K + RAT_ONE)
        b = K * K + K * 2 + RAT_ONE
        assert a == b
        assert hash(a) == hash(b)

    def test_constants_equal_and_hash_like_their_values(self):
        assert rat(1, 2) == Fraction(1, 2)
        assert Fraction(1, 2) == rat(1, 2)
        assert rat(2) == 2
        assert hash(rat(2)) == hash(2)
        assert hash(rat(1, 2)) == hash(Fraction(1, 2))
        assert {rat(2): "x"}[2] == "x"
        assert K != "k" and rat(2) != 2.0


class TestNoFloats:
    def test_const_value_is_a_fraction(self):
        for c in (ParamPoly.const(4), rat(1, 3), RAT_ZERO):
            assert type(c.const_value()) is Fraction
        assert rat(1, 3).const_value() == Fraction(1, 3)

    def test_evaluations_are_fractions(self):
        c = (K * 2 + P0) / (K - 3)
        f = construct(((1,), (1,))).f
        third = LaurentSymFunc.const(rat(1, 3))
        for v in (c.specialize(2, 5), c.num.evaluate(2, 5),
                  f.evaluate_eps().specialize(2, 5),
                  third.evaluate_eps().const_value()):
            assert type(v) is Fraction, v
        for c in f.specialize(2, 5).terms.values():
            assert type(c) is Fraction, c

    def test_param_poly_rejects_non_int_coefficients(self):
        for c in (Fraction(1, 2), Fraction(2), 0.5):
            with pytest.raises(TypeError):
                ParamPoly({(0, 0): c})


class TestParamPolyRing:
    """ParamPoly as a coefficient of LaurentSymFunc: truthiness and int
    operands, as the construction's ring step uses them."""

    def test_bool(self):
        assert not ParamPoly()
        assert ParamPoly.var_k() and ParamPoly.const(-1)

    def test_int_operands(self):
        p = ParamPoly.var_k() + ParamPoly.var_p0()
        assert 2 + p == p + 2 == p + ParamPoly.const(2)
        assert p - 3 == p + ParamPoly.const(-3)
        assert 3 - p == ParamPoly.const(3) - p
        assert p * 4 == 4 * p == p + p + p + p
        assert p * 0 == 0 * p == ParamPoly()

    def test_non_int_operands_raise(self):
        p = ParamPoly.var_k()
        with pytest.raises(TypeError):
            ParamPoly({(0, 0): Fraction(1, 2)})
        for op in (lambda: p + Fraction(1, 2), lambda: Fraction(1, 2) * p,
                   lambda: p - 0.5):
            with pytest.raises(TypeError):
                op()

    def test_negative_power_raises(self):
        # a negative power leaves Z[k, p0]; square-and-multiply would
        # shift the exponent forever
        p = ParamPoly.var_k() + 1
        assert p ** 0 == ParamPoly.const(1) and p ** 2 == p * p
        with pytest.raises(ValueError):
            p ** -1

    @settings(max_examples=60, deadline=None)
    @given(int_polys(), int_polys(), st.sampled_from(["+", "-", "*"]))
    def test_agrees_with_param_rat(self, a, b, op):
        fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
              "*": lambda x, y: x * y}[op]
        assert ParamRat(fn(a, b)) == fn(ParamRat(a), ParamRat(b))


class TestArithmetic:
    def test_int_mixing(self):
        assert K + 1 == K + RAT_ONE
        assert 2 * K == K * 2
        assert 1 - K == -(K - 1)
        assert K / 2 == K * rat(1, 2)

    def test_fraction_mixing(self):
        half = Fraction(1, 2)
        assert K + half == K + rat(1, 2)
        assert half + K == K + rat(1, 2)
        assert K - half == K - rat(1, 2)
        assert K * half == half * K == K * rat(1, 2)
        assert K / half == K * 2
        assert half / K == rat(1, 2) / K

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            RAT_ONE / RAT_ZERO
        with pytest.raises(DivisionByZero):
            RAT_ZERO.inverse()

    def test_pow(self):
        assert K ** 0 == RAT_ONE
        assert K ** 3 == K * K * K
        assert K ** -2 == RAT_ONE / (K * K)
        assert (K + P0) ** 2 == K * K + K * P0 * 2 + P0 * P0

    @settings(max_examples=60, deadline=None)
    @given(param_rats(), param_rats(), param_rats())
    def test_field_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert a - a == RAT_ZERO

    @settings(max_examples=60, deadline=None)
    @given(param_rats())
    def test_inverse_roundtrip(self, a):
        if not a.is_zero():
            assert a * a.inverse() == RAT_ONE
            assert (a.inverse()).inverse() == a


class TestSpecialization:
    def test_evaluate(self):
        c = (K * 2 + P0) / (K - RAT_ONE)
        assert c.specialize(frac(1, 2), frac(3)) == frac(1 + 3, 1) / frac(-1, 2)

    def test_pole_detection(self):
        c = P0 / (RAT_ONE + K - K * P0)
        with pytest.raises(PoleAtSpecialization):
            c.specialize(1, 2)
        assert c.specialize(frac(-1), frac(2)) == frac(1)
        assert c.specialize(frac(-2), frac(2)) == frac(2, 3)

    def test_substitute_k(self):
        c = (K * K - RAT_ONE) / (K - RAT_ONE)   # = k + 1
        assert c == K + RAT_ONE
        assert c.substitute_k(frac(1)) == rat(2)

    def test_substitute_p0(self):
        c = P0 * K / (P0 - rat(3))
        assert c.substitute_p0(4) == K * 4
        with pytest.raises(IdenticallySingular):
            c.substitute_p0(3)

    def test_identically_singular_k(self):
        c = RAT_ONE / (K + RAT_ONE)
        with pytest.raises(IdenticallySingular):
            c.substitute_k(-1)

    @pytest.mark.parametrize("c,method,value,message", [
        (RAT_ONE / (K + RAT_ONE), "substitute_k", -1,
         "denominator 1 + k vanishes identically at k=-1"),
        (P0 * K / (P0 - rat(3)), "substitute_p0", 3,
         "denominator 3 - p0 vanishes identically at p0=3"),
        ((K * P0 + 1) / (K * 2 + 1), "substitute_k", frac(-1, 2),
         "denominator 1 + 2*k vanishes identically at k=-1/2"),
        (K / (K * P0 * 3 - P0 * P0 * 6), "substitute_p0", 0,
         "denominator 6*p0^2 - 3*k*p0 vanishes identically at p0=0"),
    ])
    def test_identically_singular_messages(self, c, method, value, message):
        with pytest.raises(IdenticallySingular) as exc:
            getattr(c, method)(value)
        assert str(exc.value) == message

    @settings(max_examples=80, deadline=None)
    @given(param_rats(), small_fracs, small_fracs, small_fracs)
    def test_substitution_matches_specialization(self, c, q, x, y):
        """c.substitute_k(q) at (x, y) is c at (q, y), and
        c.substitute_p0(q) at (x, y) is c at (x, q), wherever the right
        side is defined; the reduced substitution is then defined too."""
        for sub, at in ((c.substitute_k, (q, y)), (c.substitute_p0, (x, q))):
            try:
                want = c.specialize(*at)
            except PoleAtSpecialization:
                continue
            assert sub(q).specialize(x, y) == want, (c, q, x, y)


class TestParamSwap:
    def test_generators(self):
        assert K.param_swap() == RAT_ONE / K
        assert P0.param_swap() == K * P0

    def test_monomial(self):
        # k^2 p0 -> k^(-2) (k p0) = k^(-1) p0
        assert (K * K * P0).param_swap() == P0 / K

    @settings(max_examples=40, deadline=None)
    @given(param_rats())
    def test_involution(self, a):
        assert a.param_swap().param_swap() == a

    @settings(max_examples=40, deadline=None)
    @given(param_rats(), param_rats())
    def test_homomorphism(self, a, b):
        assert (a + b).param_swap() == a.param_swap() + b.param_swap()
        assert (a * b).param_swap() == a.param_swap() * b.param_swap()


class TestPredicates:
    def test_p0_free(self):
        assert K.is_p0_free()
        assert not P0.is_p0_free()
        assert not (RAT_ONE / P0).is_p0_free()

    def test_polynomial_and_unit_denominator(self):
        half = K * P0 + rat(1, 2)
        assert half.is_polynomial()
        assert not half.has_unit_denominator()
        assert (K * P0).is_polynomial()
        assert not (K / P0).is_polynomial()
        assert (K + RAT_ONE).has_unit_denominator()
        assert not (K / rat(2)).has_unit_denominator()


class TestStringRoundTrip:
    @pytest.mark.parametrize("text", [
        "0", "1", "-1/2", "k", "p0", "k*p0",
        "(1 + k - k*p0)", "(p0)/(1 + k - k*p0)",
        "(-2 + 2*p0 - 2*k)/(2 + 7*k - 5*k*p0)",
    ])
    def test_parse_then_print(self, text):
        v = parse_rat(text)
        assert parse_rat(str(v)) == v

    @settings(max_examples=60, deadline=None)
    @given(param_rats())
    def test_print_then_parse(self, a):
        assert parse_rat(str(a)) == a

    def test_exponent_bound(self):
        assert parse_rat("2^%d" % MAX_EXPONENT) == rat(2 ** MAX_EXPONENT)
        for text in ("2^33", "(1+k+p0)^80", "k^99999999999"):
            with pytest.raises(ValueError, match="parse error.*exceeds 32"):
                parse_rat(text)

    def test_nested_exponent_bound(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="parse error.*total degree 128 "
                                             "exceeds 32"):
            parse_rat("((1+k+p0)^8)^16")
        assert time.perf_counter() - t0 < 1
        assert parse_rat("((1+k+p0)^8)^4") == (RAT_ONE + K + P0) ** 32
        assert parse_rat("(1+k)^32") == (RAT_ONE + K) ** 32
        assert parse_rat("(k/(1+k))^16") == (K / (RAT_ONE + K)) ** 16

    def test_parenthesis_depth(self):
        depth = MAX_DEPTH
        assert parse_rat("(" * depth + "k" + ")" * depth) == K
        for n in (depth + 1, 250, 1000):
            with pytest.raises(ValueError, match="parse error.*parentheses "
                                                 "nest deeper than 100"):
                parse_rat("(" * n + "k" + ")" * n)

    @pytest.mark.parametrize("text", ["\u0663", "\u00b2", "k^\u00b2",
                                      "1\u0663", "k^\u0663"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(ValueError, match="parse error"):
            parse_rat(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        try:
            v = parse_rat(text)
        except (ValueError, DivisionByZero):
            return
        assert parse_rat(str(v)) == v
