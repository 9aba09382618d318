"""Finite-N oracle: symmetric Laurent polynomials in N variables, the
restriction homomorphism phi_N, the finite CMS operator, triangular
eigenpolynomials, and the torus inner product at negative integer k."""

import time
from fractions import Fraction
from itertools import permutations

import pytest

from jacklaurent.rational import K, RAT_ONE, rat, SingularParameter, \
    PoleAtSpecialization
from jacklaurent.laurent import LaurentSymFunc, parse_element
from jacklaurent.operators import cms_L
from jacklaurent.closed_forms import pieri_U
from jacklaurent.jack import construct, jack_positive
from jacklaurent.finite_n import (
    SymLaurentPolyN, c_chi, cms_N, cms_r_N, constant_term_delta, euler_N,
    finite_pieri_check, hc_eigen_check_N, involution_check_N,
    jack_laurent_poly_N, jack_poly_N, phi_N_map, pieri_V_N, power_sum_N,
    torus_form,
)

g = LaurentSymFunc.gen
ORBIT = SymLaurentPolyN.orbit


def _shifted(chi, N, a):
    """(x_1...x_N)^{-a} P_{chi+a}, for comparing shifts of one label."""
    return jack_poly_N(tuple(x + a for x in chi), N).shift(-a)


class TestPolynomialAlgebra:
    def test_orbit_str(self):
        assert str(ORBIT((1, 0), 2)) == "m[1,0]"

    def test_orbit_square(self):
        sq = ORBIT((1, 0), 2) * ORBIT((1, 0), 2)
        assert sq.coeff((2, 0)) == RAT_ONE
        assert sq.coeff((1, 1)) == rat(2)

    def test_power_sum(self):
        assert power_sum_N(-1, 2) == ORBIT((0, -1), 2)
        assert power_sum_N(2, 3) == ORBIT((2, 0, 0), 3)

    @pytest.mark.parametrize("f", [
        ORBIT((), 0), ORBIT((0,), 1), ORBIT((1, 1), 2), ORBIT((2, 1, 0), 3),
        ORBIT((1, 0, 0, -1), 4), ORBIT((1, 1, 0, 0, -2), 5) * rat(3),
        jack_laurent_poly_N((1, 0, 0, -1), 4), jack_poly_N((2, 1, 1), 4),
    ])
    def test_expand_matches_all_permutations(self, f):
        assert f.expand() == {key: c for chi, c in f.terms.items()
                              for key in set(permutations(chi))}

    def test_expand_follows_the_orbit(self):
        # the constant in 12 variables has one monomial, not 12! orderings
        start = time.perf_counter()
        assert jack_laurent_poly_N((0,) * 12, 12) == SymLaurentPolyN.one(12)
        assert time.perf_counter() - start < 1

    def test_star_and_shift(self):
        m10 = ORBIT((1, 0), 2)
        assert m10.star() == ORBIT((0, -1), 2)
        assert m10.shift(-1) == ORBIT((0, -1), 2)
        assert m10.shift(2).shift(-2) == m10


class TestRestriction:
    def test_p1_pminus1(self):
        # (x1 + x2)(1/x1 + 1/x2) = m_(1,-1) + 2
        f = g(1) * g(-1)
        assert phi_N_map(f, 2) == ORBIT((1, -1), 2) + SymLaurentPolyN.one(2) * 2

    def test_kills_long_functions(self):
        # the label ((1),(1)) needs two variables
        p11 = construct(((1,), (1,)))
        assert phi_N_map(p11.f, 1).is_zero()

    def test_pole_at_p0_equal_to_N(self):
        f = parse_element("p1/(p0 - 2)")
        with pytest.raises(PoleAtSpecialization):
            phi_N_map(f, 2)
        assert str(phi_N_map(f, 3)) == "m[1,0,0]"

    def test_intertwines_integrals(self):
        for fn in (g(2), g(1) * g(-1), g(1) * g(1)):
            for N in (2, 3):
                for r in (1, 2):
                    left = phi_N_map(cms_L(r, fn), N)
                    right = cms_r_N(phi_N_map(fn, N), r)
                    assert left == right, (r, N, str(fn))


class TestFiniteOperator:
    def test_frozen_action(self):
        # the operator on m_(1,-1) for two variables, computed by hand
        act = cms_N(ORBIT((1, -1), 2))
        assert act.coeff((1, -1)) == rat(2) - K * 2
        assert act.coeff((0, 0)) == -(K * 4)

    def test_euler(self):
        assert euler_N(ORBIT((2, -1), 2)).coeff((2, -1)) == RAT_ONE
        assert euler_N(ORBIT((1, -1), 2)).is_zero()


class TestEigenpolynomials:
    def test_single_box(self):
        assert jack_poly_N((1,), 2) == ORBIT((1, 0), 2)

    def test_row_two(self):
        p2 = jack_poly_N((2,), 2)
        assert p2.coeff((2, 0)) == RAT_ONE
        assert p2.coeff((1, 1)) == -(K * 2) / (RAT_ONE - K)

    def test_agrees_with_infinite_construction(self):
        assert jack_poly_N((2,), 2) == phi_N_map(jack_positive((2,)), 2)
        assert jack_poly_N((1, 1), 2) == phi_N_map(jack_positive((1, 1)), 2)
        assert jack_poly_N((2, 1), 3) == phi_N_map(jack_positive((2, 1)), 3)

    def test_laurent_label(self):
        pl = jack_laurent_poly_N((1, -1), 2)
        assert pl.coeff((1, -1)) == RAT_ONE
        assert pl.coeff((0, 0)) == -(K * 2) / (RAT_ONE - K)
        # the shifts a = 1 and a = 2 give the same function, also in
        # three variables
        assert pl == _shifted((1, -1), 2, 2)
        assert jack_laurent_poly_N((2, 0, -1), 3) == \
            _shifted((2, 0, -1), 3, 1) == _shifted((2, 0, -1), 3, 2)

    def test_matches_infinite_eigenfunction(self):
        p11 = construct(((1,), (1,)))
        assert phi_N_map(p11.f, 2) == jack_laurent_poly_N((1, -1), 2) \
            == _shifted((1, -1), 2, 2)

    def test_numeric_coupling(self):
        want = jack_poly_N((2,), 2).substitute_k(Fraction(-1, 2))
        assert jack_poly_N((2,), 2, k0=Fraction(-1, 2)) == want

    @pytest.mark.parametrize("nu, N", [((2,), 2), ((2, 1), 3), ((3, 1), 3),
                                       ((2, 2), 4)])
    def test_numeric_coupling_runs_on_fractions(self, nu, N):
        k0 = Fraction(1, 3)
        p = jack_poly_N(nu, N, k0)
        assert all(type(c) is Fraction for c in p.terms.values())
        assert p == jack_poly_N(nu, N).substitute_k(k0)

    def test_collision_detected(self):
        with pytest.raises(SingularParameter):
            jack_poly_N((2,), 2, k0=1)


class TestTorusForm:
    def test_constant_term_normalization(self):
        # Dyson constant-term values (mN)! / (m!)^N
        assert constant_term_delta(-1, 4) == 24
        assert constant_term_delta(-2, 4) == 2520

    def test_unit_and_ones(self):
        one2 = SymLaurentPolyN.one(2)
        assert torus_form(one2, one2, -1, 2) == Fraction(1)
        m10 = ORBIT((1, 0), 2)
        assert torus_form(m10, m10, -1, 2) == Fraction(1)

    def test_orthogonality_distinct_labels(self):
        pa = jack_poly_N((2,), 2, k0=-1)
        pb = jack_poly_N((1, 1), 2, k0=-1)
        assert torus_form(pa, pb, -1, 2) == 0
        assert torus_form(pa, pa, -1, 2) != 0

    @pytest.mark.parametrize("k", [Fraction(-3, 2), 1])
    def test_coupling_must_be_a_negative_integer(self, k):
        # a fractional k is refused, not truncated toward zero to -1
        one4 = SymLaurentPolyN.one(4)
        with pytest.raises(ValueError, match="negative integer k"):
            torus_form(one4, one4, k, 4)
        with pytest.raises(ValueError, match="negative integer k"):
            constant_term_delta(k, 2)


class TestFiniteClosedForms:
    def test_pieri(self):
        assert finite_pieri_check((1, -1), 2)
        assert finite_pieri_check((1, 0, -1), 3)
        assert finite_pieri_check((0, 0), 2)

    def test_pieri_matches_infinite_U(self):
        # the infinite coefficient, restricted to p0 = 2, is the finite one
        u = pieri_U((1, 1), ((1,), (1,)))
        assert u.substitute_p0(2) == pieri_V_N(2, (1, -1))

    def test_eigenvalues(self):
        assert hc_eigen_check_N((1, 0), 2) == RAT_ONE - K
        assert hc_eigen_check_N((1, -1), 2) == rat(2) - K * 2
        hc_eigen_check_N((2, 1, 0), 3)
        hc_eigen_check_N((1, 0, -1), 3)

    def test_involution(self):
        assert involution_check_N((1, 0, -1), 3)
        assert involution_check_N((2, 0), 2)
        assert involution_check_N((1, 1, -1), 3)

    def test_c_chi_scalar_shift(self):
        # chi_2 - chi_1 - 1 + 2k + b on chi = (2, 0, -1)
        want = rat(-3) + K * 2
        assert c_chi((2, 0, -1), 2, 1, 1) == want + 1
        assert c_chi((2, 0, -1), 2, 1, Fraction(1, 2)) == want + rat(1, 2)
        assert c_chi((2, 0, -1), 2, 1, K) == want + K
