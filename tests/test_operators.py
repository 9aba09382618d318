"""Quantum CMS integrals on the extended algebra: frozen small values,
the direct second-order operator, stability, commutativity, and the
change of basis between the two integral families."""

import pytest
from hypothesis import given, settings, strategies as st

from jacklaurent.rational import K, P0, RAT_ONE, RAT_ZERO, rat
from jacklaurent.laurent import LaurentSymFunc
from jacklaurent.operators import (
    ExtendedElement, NotPositivePart, cms_I, cms_L, cms_L2_direct,
    delta_p0, delta_tilde, derivation_d, dunkl_heckman, e_project,
    hat_f_expansion_check, hat_f_operators, polychronakos_pi, stable_H,
)

g = LaurentSymFunc.gen


def x_layer(l, f=None):
    return ExtendedElement({l: LaurentSymFunc.one() if f is None else f})


@st.composite
def small_monomials(draw, indices=(-3, -2, -1, 1, 2, 3), max_len=3):
    out = LaurentSymFunc.one()
    for _ in range(draw(st.integers(0, max_len))):
        out = out * g(draw(st.sampled_from(indices)))
    return out


class TestExtendedElement:
    def test_embed_and_zero(self):
        assert ExtendedElement.zero().is_zero()
        assert ExtendedElement.embed(LaurentSymFunc.zero()).is_zero()
        e = ExtendedElement.embed(g(1))
        assert e.layers == {0: g(1)}

    def test_add_sub_scale(self):
        a = x_layer(2) + x_layer(0, g(1))
        b = x_layer(2)
        assert (a - b).layers == {0: g(1)}
        assert (a - a).is_zero()
        assert a.scale(K).layers[2] == LaurentSymFunc.const(K)

    def test_str(self):
        e = x_layer(2, g(1)) + x_layer(-1) + x_layer(0, g(3))
        s = str(e)
        assert "x^2" in s and "x^-1" in s and "p3" in s
        assert str(ExtendedElement.zero()) == "0"


class TestBuildingBlocks:
    def test_derivation_on_layers(self):
        # d(x^l f) = l x^l f + sum_a x^{l+a} (a dp_a f)
        got = derivation_d(x_layer(2, g(1)))
        assert got == x_layer(2, g(1) * 2) + x_layer(3)
        assert derivation_d(x_layer(0, g(2))) == x_layer(2, LaurentSymFunc.one() * 2)

    def test_delta_positive_layer(self):
        # Delta(x^2) = x^2 (p0 - 4) + 2 x p1 + p2
        got = delta_p0(x_layer(2))
        want = x_layer(2, LaurentSymFunc.const(P0 - rat(4))) \
            + x_layer(1, g(1) * 2) + x_layer(0, g(2))
        assert got == want

    def test_delta_negative_layer_antisymmetry(self):
        # Delta(x^{-l}) = -Delta(x^l)^*, the star also inverting x
        for l in (1, 2, 3):
            pos = delta_p0(x_layer(l))
            neg = delta_p0(x_layer(-l))
            mirrored = ExtendedElement(
                {-m: -f.star() for m, f in pos.layers.items()})
            assert neg == mirrored, l

    def test_delta_kills_layer_zero(self):
        assert delta_p0(x_layer(0, g(1) * g(-2))).is_zero()
        assert delta_tilde(x_layer(0, g(1) * g(-2))).is_zero()

    def test_delta_tilde_layers(self):
        # Delta~(x^2) = x^2 (p0 - 2) + x p1;  Delta~(x^{-1}) = x^{-1} - p_{-1}
        assert delta_tilde(x_layer(2)) == \
            x_layer(2, LaurentSymFunc.const(P0 - rat(2))) + x_layer(1, g(1))
        assert delta_tilde(x_layer(-1)) == x_layer(-1) - x_layer(0, g(-1))

    def test_e_project(self):
        e = x_layer(3, g(1)) + x_layer(0, g(2))
        assert e_project(e) == g(3) * g(1) + g(2) * P0

    def test_operator_composition_matches_wrappers(self):
        f = g(2) * g(-1)
        e = ExtendedElement.embed(f)
        assert e_project(dunkl_heckman(dunkl_heckman(e))) == cms_L(2, f)
        assert e_project(polychronakos_pi(e)) == cms_I(1, f)


class TestIntegralValues:
    def test_order_zero_is_p0(self):
        assert cms_L(0, g(1)) == g(1) * P0
        assert cms_I(0, g(-2)) == g(-2) * P0

    def test_order_one_is_euler(self):
        # weight of p_lambda p_{-mu} is |lambda| - |mu|
        assert cms_L(1, g(2) * g(-1)) == g(2) * g(-1)
        assert cms_L(1, g(1) * g(-1)).is_zero()
        assert cms_L(1, g(3, 2)) == g(3, 2) * 6

    def test_order_two_frozen(self):
        assert cms_L(2, g(1)) == g(1) * (RAT_ONE + K - K * P0)
        assert cms_L(2, g(-1)) == g(-1) * (RAT_ONE + K - K * P0)
        assert cms_L(2, g(2)) == \
            g(2) * (rat(4) + K * 4 - K * P0 * 2) - g(1, 2) * (K * 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            cms_L(-1, g(1))
        with pytest.raises(ValueError):
            cms_I(-1, g(1))

    @settings(max_examples=25, deadline=None)
    @given(small_monomials(), small_monomials())
    def test_linearity(self, a, b):
        assert cms_L(2, a + b.scale(K)) == cms_L(2, a) + cms_L(2, b).scale(K)

    @settings(max_examples=20, deadline=None)
    @given(small_monomials())
    def test_direct_second_order(self, f):
        assert cms_L2_direct(f) == cms_L(2, f)

    def test_families_agree_up_to_order_two_only(self):
        for f in (g(1), g(2), g(1) * g(-1), g(2) * g(-1)):
            assert cms_I(1, f) == cms_L(1, f)
            assert cms_I(2, f) == cms_L(2, f)
        # from order three on, the families genuinely differ
        assert cms_I(3, g(1)) != cms_L(3, g(1))


class TestCommutativity:
    @settings(max_examples=10, deadline=None)
    @given(small_monomials(max_len=2))
    def test_L_commute(self, f):
        assert cms_L(2, cms_L(3, f)) == cms_L(3, cms_L(2, f))

    @settings(max_examples=10, deadline=None)
    @given(small_monomials(max_len=2))
    def test_I_commute(self, f):
        assert cms_I(2, cms_I(3, f)) == cms_I(3, cms_I(2, f))


class TestSymmetries:
    @settings(max_examples=12, deadline=None)
    @given(small_monomials(), st.sampled_from((1, 2, 3)))
    def test_theta_conjugation(self, f, r):
        # theta^{-1} L_r theta = k^{r-1} * (L_r with k -> 1/k, p0 -> k p0)
        lhs = cms_L(r, f.theta()).theta(inverse=True)
        rhs = cms_L(r, f).map_coeffs(lambda c: c.param_swap()) * K ** (r - 1)
        assert lhs == rhs

    @settings(max_examples=12, deadline=None)
    @given(small_monomials(), st.sampled_from((1, 2, 3)))
    def test_star_conjugation(self, f, r):
        # * L_r * = (-1)^r L_r
        lhs = cms_L(r, f.star()).star()
        rhs = cms_L(r, f) * ((-RAT_ONE) ** r)
        assert lhs == rhs


class TestStableIntegrals:
    def test_frozen_values(self):
        assert stable_H(1, g(2)) == g(2) * 2
        assert stable_H(2, g(2)) == g(2) * (rat(4) + K * 4) - g(1, 2) * (K * 2)

    @settings(max_examples=15, deadline=None)
    @given(small_monomials(indices=(1, 2, 3)))
    def test_H2_dual_route(self, f):
        # the construction operator at p0 = 0 is the stable integral
        assert cms_L2_direct(f, p0=RAT_ZERO) == stable_H(2, f)

    @settings(max_examples=10, deadline=None)
    @given(small_monomials(indices=(1, 2, 3)), st.sampled_from((1, 2, 3)))
    def test_p0_free(self, f, r):
        for _, c in stable_H(r, f).sorted_terms():
            assert c.is_p0_free(), (r, str(f))

    def test_positive_part_guard(self):
        with pytest.raises(NotPositivePart):
            stable_H(2, g(-1))
        with pytest.raises(ValueError):
            stable_H(0, g(1))


class TestChangeOfBasis:
    def test_first_operator_is_identity(self):
        ops = hat_f_operators(0)
        assert ops == [{(): RAT_ONE}]

    def test_order_one_corrector_vanishes(self):
        # hat_f_1^(1) = (k p0/2) - (k/2) I_0 applies as the zero map,
        # which is why the two integral families coincide at orders 1, 2
        ops = hat_f_operators(1)
        total = LaurentSymFunc.zero()
        for orders, coeff in ops[1].items():
            h = g(2)
            for j in reversed(orders):
                h = cms_I(j, h)
            total = total + h.scale(coeff)
        assert total.is_zero()

    @settings(max_examples=8, deadline=None)
    @given(small_monomials(max_len=2), st.sampled_from((1, 2, 3)))
    def test_expansion(self, f, r):
        assert hat_f_expansion_check(r, f)
