"""Quantum CMS integrals on the extended algebra: frozen small values,
the direct second-order operator, stability, commutativity, and the
change of basis between the two integral families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacklaurent.rational import K, P0, RAT_ONE, RAT_ZERO, ParamPoly, \
    ParamRat, rat
from jacklaurent.laurent import LaurentSymFunc, mono_bidegree
from jacklaurent import operators
from jacklaurent.operators import (
    ExtendedElement, NotPositivePart, _l2_bound, _l2_image, _l_image, _walk,
    cms_I, cms_L, cms_L2_direct, cms_L2_weighted, cms_L_doubled, delta_p0,
    delta_tilde, derivation_d, dunkl_heckman, dunkl_heckman_doubled,
    e_project, hat_f_expansion_check, hat_f_operators, polychronakos_pi,
    stable_H,
)
from jacklaurent.partitions import bipartitions_up_to
from jacklaurent.jack import construct
from jacklaurent.closed_forms import eigenvalue_parts

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
        assert e.terms == {0: g(1)}

    def test_add_sub_scale(self):
        a = x_layer(2) + x_layer(0, g(1))
        b = x_layer(2)
        assert (a - b).terms == {0: g(1)}
        assert (a - a).is_zero()
        assert a.scale(K).terms[2] == LaurentSymFunc.const(K)

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
                {-m: -f.star() for m, f in pos.terms.items()})
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

    @pytest.mark.parametrize("alpha", bipartitions_up_to(4))
    def test_direct_on_constructed(self, alpha):
        f = construct(alpha).f
        assert cms_L2_direct(f) == cms_L(2, f)

    @pytest.mark.parametrize("k0,p00", [(Fraction(-3, 4), Fraction(9, 5)),
                                        (Fraction(5, 7), Fraction(0)),
                                        (Fraction(-2), Fraction(-1, 3))])
    @pytest.mark.parametrize("alpha", bipartitions_up_to(3))
    def test_direct_at_a_point(self, alpha, k0, p00):
        # at a point the operator commutes with specialization, on
        # Fraction parameters and on constant ParamRats alike
        f = construct(alpha).f
        want = cms_L2_direct(f).specialize(k0, p00)
        at = f.specialize(k0, p00)
        assert cms_L2_direct(at, k=k0, p0=p00) == want
        assert cms_L2_direct(at, k=ParamRat.from_fraction(k0),
                             p0=ParamRat.from_fraction(p00)) == want
        # the int weights give kd*pd times the operator
        kn, kd = k0.numerator, k0.denominator
        pn, pd = p00.numerator, p00.denominator
        assert cms_L2_weighted(at, (kd * pd, kn * pd, kd * pn, kn * pn)) \
            == want.scale(kd * pd)

    def test_image_table(self):
        image = _l2_image(((-1, 1), (2, 1)))
        assert all(type(n) is int for row in image for n in row[1:])
        assert all(any(row[1:]) for row in image)
        assert cms_L2_weighted(g(-1) * g(2), (1, K, P0, K * P0)) == \
            cms_L(2, g(-1) * g(2))

    def test_families_agree_up_to_order_two_only(self):
        for f in (g(1), g(2), g(1) * g(-1), g(2) * g(-1)):
            assert cms_I(1, f) == cms_L(1, f)
            assert cms_I(2, f) == cms_L(2, f)
        # from order three on, the families genuinely differ
        assert cms_I(3, g(1)) != cms_L(3, g(1))


def _row_l1(m):
    """The sum of |a| + |b| + |c| + |d| over the rows of _l2_image(m)."""
    return sum(abs(a) + abs(b) + abs(c) + abs(d)
               for _, a, b, c, d in _l2_image(m))


monomials = st.dictionaries(
    st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)), st.integers(1, 3),
    max_size=4).map(lambda exps: tuple(sorted(exps.items())))


class TestL2Bound:
    """_l2_bound, the closed form in the bidegree (P, N) that sizes each
    symbolic step's layout."""

    @given(monomials)
    @settings(max_examples=200, deadline=None)
    def test_rows_stay_under_the_bound(self, m):
        p, n = mono_bidegree(m)
        assert _row_l1(m) <= _l2_bound(m)
        for target, *_ in _l2_image(m):
            tp, tn = mono_bidegree(target)
            assert tp - tn == p - n and tp <= p and tn <= n

    def test_bound_is_met_at_the_top_monomial(self):
        for p in range(7):
            for n in range(7):
                m = tuple(x for x in ((-n, 1), (p, 1)) if x[0])
                assert mono_bidegree(m) == (p, n)
                assert _row_l1(m) == _l2_bound(m) \
                    == (p + n) ** 2 + 2 * (p * p + n * n)


# the weights (1, k, p0, k*p0) as ParamPolys, and those of the point
# (-3/4, 9/5) as ints (times 20) and as Fractions
_PK, _PP = ParamPoly.var_k(), ParamPoly.var_p0()
SHIFT_WEIGHTS = {
    ParamPoly.const: (ParamPoly.const(1), _PK, _PP, _PK * _PP),
    int: (20, -15, 36, -27),
    Fraction: (Fraction(1), Fraction(-3, 4), Fraction(9, 5),
               Fraction(-27, 20)),
}
RING_IDS = ("ParamPoly", "int", "Fraction")


def _shift(parts, w):
    """n + lin*k - m*k*p0 read with the weights w, as a step reads an
    eigenvalue."""
    n, lin, m = parts
    return n * w[0] + lin * w[1] - m * w[3]


class TestShiftedWeighted:
    """cms_L2_weighted(f, w, e), the factor L2 - e of a construction step
    in one pass, against the operator and a separate scale."""

    @pytest.mark.parametrize("ring", SHIFT_WEIGHTS, ids=RING_IDS)
    @given(st.dictionaries(monomials, st.integers(-9, 9).filter(bool),
                           max_size=4),
           st.sampled_from(((0, 0, 0), (5, 3, 2), (1, -1, 4), (14, 9, 4))))
    @settings(max_examples=60, deadline=None)
    def test_matches_a_separate_scale(self, ring, terms, parts):
        w = SHIFT_WEIGHTS[ring]
        f = LaurentSymFunc({m: ring(c) for m, c in terms.items()})
        e = _shift(parts, w)
        got = cms_L2_weighted(f, w, e)
        assert got == cms_L2_weighted(f, w) - f.scale(e)
        assert all(got.terms.values())
        assert cms_L2_weighted(f, w, 0) == cms_L2_weighted(f, w)

    @pytest.mark.parametrize("ring", SHIFT_WEIGHTS, ids=RING_IDS)
    def test_a_cancelled_diagonal_is_dropped(self, ring):
        w = SHIFT_WEIGHTS[ring]
        # p_1 = P[1; 0] is an eigenfunction, so all of it cancels; the
        # others keep their rows off the diagonal
        for m in (((1, 1),), ((-1, 1), (2, 1)), ((-2, 1), (1, 2))):
            f = LaurentSymFunc({m: ring(1)})
            image = cms_L2_weighted(f, w)
            e = image.terms[m]
            got = cms_L2_weighted(f, w, e)
            assert m not in got.terms
            assert got.terms.keys() == image.terms.keys() - {m}
            assert got == image - f.scale(e)
        # the unit monomial has no row: the shift alone is left
        one = LaurentSymFunc({(): ring(2)})
        assert cms_L2_weighted(one, w).is_zero()
        assert cms_L2_weighted(one, w, w[1]) == one.scale(-w[1])

    def test_an_eigenfunction_is_sent_to_zero(self):
        # on the cleared form F of P_alpha, every entry of L2(F) - e*F
        # cancels
        w = SHIFT_WEIGHTS[ParamPoly.const]
        for alpha in bipartitions_up_to(3):
            F, _ = construct(alpha).cleared
            got = cms_L2_weighted(F, w, _shift(eigenvalue_parts(alpha), w))
            assert got.terms == {}, alpha


class TestDoubledIntegrals:
    """cms_L_doubled on functions cleared of denominators, over
    Z[k, p0], against 2^r * cms_L over Q(k, p0) on the same function."""

    RING = (ParamPoly.var_k(), ParamPoly.var_p0())

    @staticmethod
    def cleared(alpha):
        """The p-monomial p_lam * p_{-mu} and P_alpha, each cleared of
        denominators: ParamPoly coefficients.  The monomial's
        coefficient is 1, its own numerator."""
        lam, mu = alpha
        mono = LaurentSymFunc.from_partition(lam) \
            * LaurentSymFunc.from_partition(mu, sign=-1)
        return [mono.map_coeffs(lambda c: c.num), construct(alpha).cleared[0]]

    @pytest.mark.parametrize("alpha", bipartitions_up_to(3))
    def test_ring_matches_field(self, alpha):
        for F in self.cleared(alpha):
            assert all(type(c) is ParamPoly for c in F.terms.values())
            field = F.map_coeffs(ParamRat)
            for r in range(4):
                got = cms_L_doubled(r, F, *self.RING)
                assert all(type(c) is ParamPoly for c in got.terms.values())
                assert got.map_coeffs(ParamRat) == \
                    cms_L(r, field).scale(2 ** r), (r, str(F))

    @pytest.mark.parametrize("alpha", bipartitions_up_to(3))
    def test_ring_matches_field_at_a_point(self, alpha):
        k0, p00 = Fraction(-3, 4), Fraction(9, 5)
        for F in self.cleared(alpha):
            at = F.map_coeffs(lambda c: c.evaluate(k0, p00))
            field = F.map_coeffs(ParamRat)
            for r in range(4):
                want = cms_L(r, field).scale(2 ** r).specialize(k0, p00)
                got = cms_L_doubled(r, at, k0, p00)
                assert all(type(c) is Fraction for c in got.terms.values())
                assert got == want, (r, str(F))

    def test_dunkl_heckman_is_half_the_doubled_operator(self):
        e = x_layer(2, g(1)) + x_layer(-1, g(-2) * P0) + x_layer(0, g(3))
        assert dunkl_heckman(e).scale(rat(2)) == dunkl_heckman_doubled(e)
        # 2D(x^2) = 4 x^2 - k Delta(x^2), Delta(x^2) = x^2 (p0 - 4)
        # + 2 x p1 + p2, on Z[k, p0]
        kk, pp = self.RING
        one = LaurentSymFunc({(): ParamPoly.const(1)})
        got = dunkl_heckman_doubled(ExtendedElement({2: one}), kk, pp)
        assert got == ExtendedElement({
            2: one.scale(4 - kk * (pp - 4)),
            1: one.times(1).scale(-2 * kk),
            0: one.times(2).scale(-kk)})


def walk_oracle(r, f, k, p0):
    """The per-call walk: e_project((2D)^r(f)) with f embedded at layer
    0 and 2D run r times at (k, p0)."""
    e = ExtendedElement.embed(f)
    for _ in range(r):
        e = dunkl_heckman_doubled(e, k, p0)
    return e_project(e, p0)


_RING_K, _RING_P0 = TestDoubledIntegrals.RING
# (k, p0, map of a ParamPoly coefficient to the point): the ring, the
# field, and two rational points, one of them at p0 = 0
TABLE_POINTS = {
    "ring": (_RING_K, _RING_P0, lambda c: c),
    "field": (K, P0, ParamRat),
    "point": (Fraction(-3, 4), Fraction(9, 5),
              lambda c: c.evaluate(Fraction(-3, 4), Fraction(9, 5))),
    "p0-zero": (Fraction(5, 2), Fraction(0),
                lambda c: c.evaluate(Fraction(5, 2), Fraction(0))),
}


def _p_monomial(alpha):
    lam, mu = alpha
    return (LaurentSymFunc.from_partition(lam)
            * LaurentSymFunc.from_partition(mu, sign=-1)).sorted_terms()[0][0]


def _ring_sums():
    """Sums of p-monomials with ParamPoly coefficients: every monomial of
    size at most 3 with its own linear form, and P[2, 1; 1] cleared of
    denominators."""
    t = {}
    for n, alpha in enumerate(sorted(bipartitions_up_to(3))):
        t[_p_monomial(alpha)] = ParamPoly.const(n - 4) + _RING_K * (n % 3) \
            - _RING_P0 * (n % 5) + _RING_K * _RING_P0 * 2
    return [LaurentSymFunc(t), construct(((2, 1), (1,))).cleared[0]]


class TestIntegralTable:
    """cms_L_doubled reads each monomial's image from the table
    _l_image; the walk of 2D it replaces is the oracle."""

    @pytest.mark.parametrize("point", TABLE_POINTS)
    def test_monomials_match_the_walk(self, point):
        k, p0, at = TABLE_POINTS[point]
        one = at(ParamPoly.const(1))
        for alpha in bipartitions_up_to(4):
            f = LaurentSymFunc({_p_monomial(alpha): one})
            for r in range(4):
                want = walk_oracle(r, f, k, p0)
                assert cms_L_doubled(r, f, k, p0) == want, (point, alpha, r)

    @pytest.mark.parametrize("point", TABLE_POINTS)
    def test_sums_match_the_walk(self, point):
        k, p0, at = TABLE_POINTS[point]
        for F in _ring_sums():
            f = F.map_coeffs(at)
            for r in range(4):
                got = cms_L_doubled(r, f, k, p0)
                assert got == walk_oracle(r, f, k, p0), (point, r)
                types = {type(c) for c in f.terms.values()}
                assert {type(c) for c in got.terms.values()} <= types

    def test_table_rows(self):
        # int coefficients at distinct targets and powers, no zero row
        for alpha in bipartitions_up_to(3):
            m = _p_monomial(alpha)
            for r in range(4):
                image = _l_image(r, m)
                assert len({target for target, _ in image}) == len(image)
                for _, row in image:
                    assert row and all(type(c) is int and c for *_, c in row)
                    assert len({(i, j) for i, j, _ in row}) == len(row)
                    assert all(i <= r and j <= r + 1 for i, j, _ in row)
        # order zero is the product with p0, and 2L_1 is twice the Euler
        # operator
        m = _p_monomial(((2,), (1,)))
        assert _l_image(0, m) == ((m, ((0, 1, 1),)),)
        assert _l_image(1, m) == ((m, ((0, 0, 2),)),)

    def test_orders_share_the_walk(self):
        _walk.cache_clear()
        _l_image.cache_clear()
        m = _p_monomial(((2, 1), (1,)))
        _l_image(3, m)
        assert _walk.cache_info().misses == 4
        _l_image(2, m)
        _l_image(1, m)
        assert _walk.cache_info().misses == 4

    def test_table_is_not_read_from_the_second_order_table(
            self, monkeypatch):
        # the commute check compares cms_L2_direct, read from _l2_image,
        # with cms_L_doubled(2, .): the two routes stay independent
        def refuse(m):
            raise AssertionError("_l2_image read")

        monkeypatch.setattr(operators, "_l2_image", refuse)
        _walk.cache_clear()
        _l_image.cache_clear()
        f = g(2) * g(-1) + g(1)
        assert cms_L_doubled(2, f) == walk_oracle(2, f, K, P0)


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
