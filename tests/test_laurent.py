"""The free commutative algebra on p_i (i nonzero) over Q(k, p0):
arithmetic, involutions, derivations, evaluation, serialization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jacklaurent.rational import K, P0, RAT_ONE, RAT_ZERO, rat, \
    DivisionByZero
from jacklaurent.laurent import LaurentSymFunc, mono_str, mono_bidegree, \
    parse_element, from_json_terms

g = LaurentSymFunc.gen


@st.composite
def elements(draw):
    n = draw(st.integers(0, 3))
    out = LaurentSymFunc.zero()
    for _ in range(n):
        coef = rat(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        term = LaurentSymFunc.const(coef)
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.sampled_from((-2, -1, 1, 2, 3)))
            term = term * g(i)
        out = out + term
    return out


class TestMonomials:
    def test_mono_str(self):
        assert mono_str(()) == "1"
        f = g(2, 3) * g(-1)
        (m, c), = f.sorted_terms()
        assert mono_str(m) == "p-1*p2^3"
        assert mono_bidegree(m) == (6, 1)

    def test_gen_validation(self):
        with pytest.raises(ValueError):
            g(0)


class TestAlgebra:
    def test_zero_one(self):
        assert LaurentSymFunc.zero().is_zero()
        assert (LaurentSymFunc.one() - LaurentSymFunc.const(RAT_ONE)).is_zero()

    def test_from_partition(self):
        assert LaurentSymFunc.from_partition((2, 1)) == g(2) * g(1)
        assert LaurentSymFunc.from_partition((2, 1), sign=-1) == \
            g(-2) * g(-1)

    @settings(max_examples=40, deadline=None)
    @given(elements(), elements(), elements())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_scale(self):
        assert g(1).scale(K) == g(1) * K
        assert (g(1) * 0).is_zero()


class TestInvolutions:
    @settings(max_examples=30, deadline=None)
    @given(elements())
    def test_star_involution(self, a):
        assert a.star().star() == a

    @settings(max_examples=30, deadline=None)
    @given(elements(), elements())
    def test_star_is_multiplicative(self, a, b):
        assert (a * b).star() == a.star() * b.star()

    def test_star_example(self):
        assert g(2).star() == g(-2)
        assert (g(1) * g(-1)).star() == g(1) * g(-1)

    def test_theta_scaling(self):
        assert g(3).theta() == g(3) * K
        assert (g(1) * g(2)).theta() == g(1) * g(2) * (K * K)

    @settings(max_examples=30, deadline=None)
    @given(elements())
    def test_theta_roundtrip(self, a):
        assert a.theta().theta(inverse=True) == a

    def test_param_swap_involution(self):
        a = g(1) * (P0 / (RAT_ONE + K)) + LaurentSymFunc.const(K)
        assert a.param_swap().param_swap() == a


class TestDerivations:
    def test_partial_basic(self):
        # partial(a) = a * d/dp_a
        assert g(2).partial(2) == LaurentSymFunc.const(rat(2))
        assert g(2).partial(1).is_zero()
        assert g(1, 3).partial(1) == g(1, 2) * 3

    @settings(max_examples=30, deadline=None)
    @given(elements(), elements(), st.sampled_from((-2, -1, 1, 2)))
    def test_leibniz(self, a, b, i):
        lhs = (a * b).partial(i)
        rhs = a.partial(i) * b + a * b.partial(i)
        assert lhs == rhs


class TestEvaluation:
    def test_evaluate_eps(self):
        # every p_i |-> p0
        f = g(1) * g(-2) + LaurentSymFunc.const(rat(5))
        assert f.evaluate_eps() == P0 * P0 + rat(5)

    def test_positive_part(self):
        assert (g(1) * g(2)).is_positive_part()
        assert not g(-1).is_positive_part()

    def test_bidegree_split(self):
        f = g(1) * g(-1) + g(2)
        comps = f.bidegree_components()
        assert set(comps) == {(1, 1), (2, 0)}


class TestScalars:
    def test_fraction_scalars(self):
        half = Fraction(1, 2)
        f = g(1) * g(-1) + g(2) * K
        assert LaurentSymFunc.const(half) == LaurentSymFunc.const(rat(1, 2))
        assert f.scale(half) == f.scale(rat(1, 2))
        assert f * half == f * rat(1, 2)
        assert half * f == f * rat(1, 2)
        assert K + half == K + rat(1, 2)

    def test_fraction_coefficients_equal_constant_rats(self):
        f = g(1) * g(-1) * rat(-1, 2) + g(2) * rat(3) + LaurentSymFunc.one()
        fr = LaurentSymFunc({m: c.const_value() for m, c in f.terms.items()})
        assert all(type(c) is Fraction for c in fr.terms.values())
        assert fr == f and f == fr
        assert hash(fr) == hash(f)
        assert str(fr) == str(f)
        assert fr.to_json_terms() == f.to_json_terms()
        assert (fr - f).is_zero() and (f - fr).is_zero()

    def test_times_keeps_the_coefficient_type(self):
        f = LaurentSymFunc({(): Fraction(1, 2), ((-1, 1),): Fraction(3)})
        assert f.times(1) == g(1) * f
        assert f.times(2, -1, 2) == g(2, 2) * g(-1) * f
        assert all(type(c) is Fraction for c in f.times(1).terms.values())
        with pytest.raises(ValueError):
            f.times(0)


class TestSpecializations:
    def test_substitute_k(self):
        f = g(1) * (RAT_ONE / (RAT_ONE - K))
        assert f.substitute_k(-1) == g(1) * rat(1, 2)

    def test_specialize_numeric(self):
        f = g(1) * (P0 / (RAT_ONE + K - K * P0))
        got = f.specialize(rat(-1).const_value(), rat(2).const_value())
        # p0/(1+k-k*p0) at k=-1, p0=2 is 2/(1-1+2) = 1
        assert got == g(1)


class TestSerialization:
    @settings(max_examples=30, deadline=None)
    @given(elements())
    def test_json_roundtrip(self, a):
        assert from_json_terms(a.to_json_terms()) == a

    @settings(max_examples=30, deadline=None)
    @given(elements())
    def test_parse_str_roundtrip(self, a):
        assert parse_element(str(a)) == a

    def test_parse_examples(self):
        assert parse_element("p1*p-1 - (p0)/(1 + k - k*p0)") == \
            g(1) * g(-1) - LaurentSymFunc.const(P0 / (RAT_ONE + K - K * P0))
        assert parse_element("0").is_zero()
        assert parse_element("p2^3") == g(2, 3)

    def test_zero_power_is_one(self):
        assert parse_element("p1^0") == parse_element("1")
        assert g(1, 0) == LaurentSymFunc.one()
        assert str(parse_element("p1^0 + p2")) == "p2 + 1"

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("p1*p-1 - 2/(1 - k)")
    @example("p2^3 - (p0)*p-1")
    @example("p1/(k - k)")
    def test_arbitrary_text(self, text):
        try:
            f = parse_element(text)
        except (ValueError, DivisionByZero):
            return
        assert parse_element(str(f)) == f

    def test_parse_errors(self):
        for text, message in (("p0\u0663", "trailing input"),
                              ("p1^33", "exponent 33 exceeds 32"),
                              ("p1*(1+k)^99", "exponent 99 exceeds 32")):
            with pytest.raises(ValueError, match="parse error.*" + message):
                parse_element(text)
