"""The free commutative algebra on p_i (i nonzero) over Q(k, p0):
arithmetic, involutions, derivations, evaluation, serialization."""

from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import example, given, settings, strategies as st

from jacklaurent.rational import K, P0, RAT_ONE, rat, DivisionByZero, \
    ParamRat
from jacklaurent.jack import construct
from jacklaurent.laurent import LaurentSymFunc, mono_str, mono_bidegree, \
    parse_element, parse_rat, from_json_terms
from jacklaurent.partitions import bipartitions_up_to

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

    def test_constructed_functions_round_trip(self):
        for alpha in bipartitions_up_to(5):
            f = construct(alpha).f
            assert parse_element(str(f)) == f, alpha

    def test_cleared_forms_print(self):
        # a cleared form has ParamPoly coefficients; it prints as the
        # function with each coefficient a ParamRat over 1
        for alpha in (((1,), (1,)), ((2,), (1,)), ((1,), (2, 1)), ((), (2,))):
            F, _ = construct(alpha).cleared
            over_one = F.map_coeffs(ParamRat)
            assert str(F) == str(over_one), alpha
            assert repr(F) == repr(over_one), alpha
            assert parse_element(str(F)) == over_one, alpha

    def test_printed_functions_unchanged(self):
        # the sha256 of every printed P to |lam|+|mu| <= 4, as printed
        # before ParamPoly coefficients printed at all
        text = "\n".join(str(construct(a).f) for a in bipartitions_up_to(4))
        assert sha256(text.encode()).hexdigest()[:16] == "89877278fbccef87"


# What the parser returned before every coefficient operation was bounded
# by total degree: the printed value (its sha256 prefix when longer than
# 60 characters) or "!" and the error.  The inputs in NEWLY_REFUSED were
# accepted then; the degree bound now refuses them.
PARENT = [
    (parse_rat, "0", "0"),
    (parse_rat, "-0", "0"),
    (parse_rat, "+k", "k"),
    (parse_rat, "-k", "-1*k"),
    (parse_rat, "1/2", "(1)/(2)"),
    (parse_rat, "-1/2", "(-1)/(2)"),
    (parse_rat, " k ", "k"),
    (parse_rat, "k*p0", "k*p0"),
    (parse_rat, "k/p0", "(k)/(p0)"),
    (parse_rat, "(1+k)/(1-k)", "(1 + k)/(1 - k)"),
    (parse_rat, "k^2 - p0^2", "-1*p0^2 + k^2"),
    (parse_rat, "(k-p0)/(k^2-p0^2)", "(1)/(p0 + k)"),
    (parse_rat, "2^32", "4294967296"),
    (parse_rat, "(1+k+p0)^32", "sha256:2e463f8f5170621c"),
    (parse_rat, "((1+k+p0)^8)^4", "sha256:2e463f8f5170621c"),
    (parse_rat, "(k/(1+k))^16", "sha256:e37d6584db2a657d"),
    (parse_rat, "k^0", "1"),
    (parse_rat, "(1+k)^0", "1"),
    (parse_rat, "0^0", "1"),
    (parse_rat, "0^5", "0"),
    (parse_rat, "(k-k)^3", "0"),
    (parse_rat, "k^2/k^2", "1"),
    (parse_rat, "k^32/k^32", "1"),
    (parse_rat, "k^16*k^16/k", "k^31"),
    (parse_rat, "(1+k)^16*(1+k)^16", "sha256:320fd477b15be203"),
    (parse_rat, "(1+k)^32-(1+k)^32", "0"),
    (parse_rat, "1/(1+k)^16+1/(1+p0)^16", "sha256:9cea0d4b8c723098"),
    (parse_rat, "k^32 + p0^32", "p0^32 + k^32"),
    (parse_rat, "-(1+k)^32 + k", "sha256:b666026ff13917d8"),
    (parse_rat, "2/3 - 5/7*k", "(14 - 15*k)/(21)"),
    (parse_rat, "(1+k)^16*(1+k)^17", "sha256:e09936b976bd4913"),
    (parse_rat, "(1+k)^20/(1+k)^20", "1"),
    (parse_rat, "1/(1+k)^16+1/(1+p0)^17", "sha256:d6276df05f2fad7d"),
    (parse_rat, "k^32*k", "k^33"),
    (parse_rat, "k^17*k^16", "k^33"),
    (parse_rat, "k^16/p0^16/p0^16", "(k^16)/(p0^32)"),
    (parse_rat, "k^20/p0^20/p0^13", "(k^20)/(p0^33)"),
    (parse_rat, "1/k^32 + 1/p0", "(p0 + k^32)/(k^32*p0)"),
    (parse_rat, "(k^20)^2/k^20",
     "!ValueError: parse error at 8 in '(k^20)^2/k^20': power of total "
     "degree 40 exceeds 32"),
    (parse_rat, "(1+k+p0)^32*(1+k+p0)^32*(1+k+p0)^32",
     "sha256:1ebcfd1b0c96374c"),
    (parse_rat, "1/(1+k+p0)^32+1/(2+k+p0)^32+1/(3+k+p0)^32+1/(4+k+p0)^32",
     "sha256:4af64e65edad0d44"),
    (parse_rat, "", "!ValueError: parse error at 0 in '': expected atom"),
    (parse_rat, "k^",
     "!ValueError: parse error at 2 in 'k^': expected integer"),
    (parse_rat, "2^33",
     "!ValueError: parse error at 4 in '2^33': exponent 33 exceeds 32"),
    (parse_rat, "k^99999999999",
     "!ValueError: parse error at 13 in 'k^99999999999': exponent "
     "99999999999 exceeds 32"),
    (parse_rat, "((k))", "k"),
    (parse_rat, "1/0", "!DivisionByZero: division by zero ParamRat"),
    (parse_rat, "1/(k-k)", "!DivisionByZero: division by zero ParamRat"),
    (parse_rat, "k++p0",
     "!ValueError: parse error at 2 in 'k++p0': expected atom"),
    (parse_rat, "--k",
     "!ValueError: parse error at 1 in '--k': expected atom"),
    (parse_rat, "p1", "!ValueError: parse error at 0 in 'p1': expected atom"),
    (parse_rat, "p01",
     "!ValueError: parse error at 2 in 'p01': trailing input"),
    (parse_rat, "p0 p0",
     "!ValueError: parse error at 3 in 'p0 p0': trailing input"),
    (parse_rat, "3k", "!ValueError: parse error at 1 in '3k': trailing input"),
    (parse_rat, "k)", "!ValueError: parse error at 1 in 'k)': trailing input"),
    (parse_rat, "(k", "!ValueError: parse error at 2 in '(k': expected ')'"),
    (parse_rat, "k^-1",
     "!ValueError: parse error at 2 in 'k^-1': expected integer"),
    (parse_rat, "\u0663",
     "!ValueError: parse error at 0 in '\u0663': expected atom"),
    (parse_rat, "k^\xb2",
     "!ValueError: parse error at 2 in 'k^\xb2': expected integer"),
    (parse_rat, "p0\u0663",
     "!ValueError: parse error at 2 in 'p0\u0663': trailing input"),
    (parse_rat, "k*", "!ValueError: parse error at 2 in 'k*': expected atom"),
    (parse_rat, "1 / / 2",
     "!ValueError: parse error at 4 in '1 / / 2': expected atom"),
    (parse_element, "p1*p-1 - (p0)/(1 + k - k*p0)",
     "p-1*p1 - (p0)/(1 + k - k*p0)"),
    (parse_element, "0", "0"),
    (parse_element, "p2^3", "p2^3"),
    (parse_element, "p1^0", "1"),
    (parse_element, "p1^0 + p2", "p2 + 1"),
    (parse_element, "p1 + p1", "2*p1"),
    (parse_element, "p1 - p1", "0"),
    (parse_element, "-p1*p2 + 2*p3", "2*p3 - p1*p2"),
    (parse_element, "p1*k/2", "((k)/(2))*p1"),
    (parse_element, "p1/k", "((1)/(k))*p1"),
    (parse_element, "p0*p1", "(p0)*p1"),
    (parse_element, "p-3^2*p3", "p-3^2*p3"),
    (parse_element, "p1^32*p1^32", "p1^64"),
    (parse_element, "2*p1 + 3*p1", "5*p1"),
    (parse_element, "p1*2*p2*k", "(2*k)*p1*p2"),
    (parse_element, "+p1", "p1"),
    (parse_element, " p1 * p-1 ", "p-1*p1"),
    (parse_element, "(1+k)*p1*(1-k)", "(1 - k^2)*p1"),
    (parse_element, "p1*(1+k)^16*(1+k)^16", "sha256:d929ea948fc34861"),
    (parse_element, "1/(1+k)^32*p1 + 1/(1+p0)^32*p2",
     "sha256:e11f495b3b22a549"),
    (parse_element, "p-1*p1 - 1", "p-1*p1 - 1"),
    (parse_element, "p1*(1+k+p0)^32*(1+k+p0)^32", "sha256:7a8ceab943a7d7c6"),
    (parse_element, "(1+k+p0)^32*(1+k+p0)^32*(1+k+p0)^32",
     "sha256:c5ab479461288b12"),
    (parse_element, "1/(1+k)^32*p1 + 1/(1+p0)^32*p1",
     "sha256:ea8ebc468d6cda2e"),
    (parse_element, "p1*(1+k)^17*(1+k)^16", "sha256:3b06830196e9b9f1"),
    (parse_element, "p1/p2",
     "!ValueError: parse error at 3 in 'p1/p2': cannot divide by a "
     "generator"),
    (parse_element, "p-0",
     "!ValueError: parse error at 3 in 'p-0': generator index 0 does "
     "not exist"),
    (parse_element, "p00",
     "!ValueError: parse error at 3 in 'p00': generator index 0 does "
     "not exist"),
    (parse_element, "p1^33",
     "!ValueError: parse error at 5 in 'p1^33': exponent 33 exceeds 32"),
    (parse_element, "p1*(1+k)^99",
     "!ValueError: parse error at 11 in 'p1*(1+k)^99': exponent 99 "
     "exceeds 32"),
    (parse_element, "(p1)",
     "!ValueError: parse error at 1 in '(p1)': expected atom"),
    (parse_element, "p1/(k-k)", "!DivisionByZero: division by zero ParamRat"),
    (parse_element, "p1^2^2",
     "!ValueError: parse error at 4 in 'p1^2^2': trailing input"),
    (parse_element, "p-",
     "!ValueError: parse error at 2 in 'p-': expected integer"),
    (parse_element, "p",
     "!ValueError: parse error at 0 in 'p': expected atom"),
    (parse_element, "k p1",
     "!ValueError: parse error at 2 in 'k p1': trailing input"),
    (parse_element, "p1 p2",
     "!ValueError: parse error at 3 in 'p1 p2': trailing input"),
    (parse_element, "p1*",
     "!ValueError: parse error at 3 in 'p1*': expected atom"),
    (parse_element, "p2*p-1", "p-1*p2"),
    (parse_element, "p1*((1+k+p0)^8)^16",
     "!ValueError: parse error at 18 in 'p1*((1+k+p0)^8)^16': power of "
     "total degree 128 exceeds 32"),
    (parse_element, "p1^\u0663",
     "!ValueError: parse error at 3 in 'p1^\u0663': expected integer"),
    (parse_element, "p-\u0661",
     "!ValueError: parse error at 2 in 'p-\u0661': expected integer"),
    (parse_element, "1/0", "!DivisionByZero: division by zero ParamRat"),
    (parse_element, "p0\u0663",
     "!ValueError: parse error at 2 in 'p0\u0663': trailing input"),
]
NEWLY_REFUSED = {
    "(1+k)^16*(1+k)^17": "product of total degree 33",
    "1/(1+k)^16+1/(1+p0)^17": "sum of total degree 33",
    "k^32*k": "product of total degree 33",
    "k^17*k^16": "product of total degree 33",
    "k^20/p0^20/p0^13": "quotient of total degree 33",
    "1/k^32 + 1/p0": "sum of total degree 33",
    "(1+k+p0)^32*(1+k+p0)^32*(1+k+p0)^32": "product of total degree 64",
    "1/(1+k+p0)^32+1/(2+k+p0)^32+1/(3+k+p0)^32+1/(4+k+p0)^32":
        "sum of total degree 64",
    "p1*(1+k+p0)^32*(1+k+p0)^32": "product of total degree 64",
    "1/(1+k)^32*p1 + 1/(1+p0)^32*p1": "sum of total degree 64",
    "p1*(1+k)^17*(1+k)^16": "product of total degree 33",
}


def _parsed(parse, text):
    try:
        got = str(parse(text))
    except (ValueError, DivisionByZero) as exc:
        return "!%s: %s" % (type(exc).__name__, exc)
    if len(got) > 60:
        return "sha256:" + sha256(got.encode()).hexdigest()[:16]
    return got


@pytest.mark.parametrize("parse,text,want", PARENT)
def test_parse_as_before(parse, text, want):
    got = _parsed(parse, text)
    if text in NEWLY_REFUSED:
        assert not want.startswith("!")
        assert got.startswith("!ValueError: parse error at ")
        assert got.endswith(": %s exceeds 32" % NEWLY_REFUSED[text])
    else:
        assert got == want
