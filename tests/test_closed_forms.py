"""Closed-form data attached to a bipartition label: eigenvalues,
shifted power sums, Bernoulli-type sums, Pieri coefficients,
Stanley-type products, evaluations, norms, and duality constants."""

import hashlib
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from random import Random
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from jacklaurent.rational import K, P0, RAT_ONE, RAT_ZERO, rat, ParamPoly, \
    ParamRat, DivisionByZero, PoleAtSpecialization, as_rat
from jacklaurent.partitions import chi_N, partitions_up_to, \
    bipartitions_up_to, add_box_candidates, remove_box_candidates, boxes, \
    conjugate, part
from jacklaurent.closed_forms import (
    Factored, SingularProduct,
    bernoulli_b, bernoulli_b_lambda, bernoulli_b_sequence, bernoulli_poly_at,
    duality_constant, eigenvalue_e, eigenvalue_eN, evaluation_value,
    expand, hc_value, norm_value, phi_infinity, phi_pair,
    pieri_U, pieri_U_diagram, pieri_V, pieri_V_diagram,
    separation_check, shifted_power_sum, stable_eigenvalue, stanley_phi,
    _linear, _phi_triple, _ratio, _y_col, _y_row,
)
from jacklaurent.finite_n import pieri_V_N
from jacklaurent import clear_caches, rational

partitions3 = st.sampled_from(tuple(partitions_up_to(3)))
small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


class TestEigenvalues:
    def test_frozen(self):
        assert eigenvalue_e(((1,), (1,))) == rat(2) + K * 2 - K * P0 * 2
        assert eigenvalue_e(((), ())) == RAT_ZERO
        assert eigenvalue_eN((1, 0, -1), 3) == rat(2) - K * 4
        assert eigenvalue_eN((0, 0), 2) == RAT_ZERO
        assert stable_eigenvalue((2, 1)) == rat(5) + K * 5

    def test_polynomial_ring(self):
        # eigenvalue_e over Z[k, p0] is the numerator of its ParamRat form,
        # and stable_eigenvalue is its p0 = 0 restriction
        kp, pp = ParamPoly.var_k(), ParamPoly.var_p0()
        for alpha in bipartitions_up_to(5):
            e = eigenvalue_e(alpha)
            assert type(e) is ParamRat and e.has_unit_denominator()
            assert eigenvalue_e(alpha, kp, pp) == e.num, alpha
        for lam in partitions_up_to(5):
            s = stable_eigenvalue(lam)
            assert type(s) is ParamRat
            assert s == eigenvalue_e((lam, ())).substitute_p0(0), lam

    @settings(max_examples=25, deadline=None)
    @given(small_fracs, small_fracs)
    def test_at_rational_points(self, k0, p00):
        for alpha in bipartitions_up_to(5):
            v = eigenvalue_e(alpha, k0, p00)
            assert type(v) is Fraction
            assert v == eigenvalue_e(alpha).specialize(k0, p00), alpha

    def test_finite_matches_specialized(self):
        for alpha, N in [(((1,), (1,)), 3), (((2,), (1,)), 2),
                         (((2, 1), ()), 4)]:
            chi = chi_N(alpha, N)
            assert eigenvalue_eN(chi, N) == \
                eigenvalue_e(alpha).substitute_p0(N), (alpha, N)

    @settings(max_examples=25, deadline=None)
    @given(partitions3, partitions3)
    def test_w_flip(self, lam, mu):
        # e2 is symmetric under swapping the two halves of the label
        assert eigenvalue_e((lam, mu)) == eigenvalue_e((mu, lam))


class TestShiftedSumsAndHC:
    def test_shifted_power_sum(self):
        assert shifted_power_sum(1, 0, (2, 1)) == rat(3)
        assert shifted_power_sum(2, 0, ()) == RAT_ZERO

    def test_hc_values(self):
        assert hc_value(1, ((1,), (1,))) == RAT_ZERO
        assert hc_value(1, ((2, 1), (1,))) == rat(2)
        assert hc_value(2, ((1,), (1,))) == rat(2) + K * 2 - K * P0 * 2

    def test_hc_order_two_vs_eigenvalue(self):
        # the two second-order generators differ by a multiple of the
        # first one: e2 = hc2 + k(1 - p0)(|lam| - |mu|)
        for alpha in [((1,), ()), ((2,), (1,)), ((2, 1), (1, 1)),
                      ((3, 1), (2,)), ((), (3,))]:
            lam, mu = alpha
            shift = (K - K * P0) * (sum(lam) - sum(mu))
            assert hc_value(2, alpha) + shift == eigenvalue_e(alpha), alpha


class TestBernoulli:
    def test_frozen(self):
        assert bernoulli_b(1, ((2, 1), (1,))) == rat(2)
        assert bernoulli_b(3, ((), ())) == RAT_ZERO
        assert bernoulli_b(2, ((1,), ())) == RAT_ZERO

    def test_dual_route(self):
        # content-power sum vs Bernoulli-polynomial telescoping
        for l in (1, 2, 3, 4):
            for lam in ((1,), (2,), (2, 1), (3, 1)):
                for a in (RAT_ZERO, RAT_ONE + K - K * P0, K * 3 - rat(1, 2)):
                    assert bernoulli_b_lambda(l, lam, a) == \
                        bernoulli_b_sequence(l, lam, a), (l, lam)

    def test_difference_equation(self):
        # B_l(x+1) - B_l(x) = l x^{l-1}
        x = K * 2 + P0 * rat(1, 3) + rat(5, 7)
        for l in (1, 2, 3, 5):
            assert bernoulli_poly_at(l, x + RAT_ONE) - \
                bernoulli_poly_at(l, x) == (x ** (l - 1)) * l


class TestSeparation:
    def test_separated_pairs(self):
        assert separation_check(((1,), ()), ((), (1,)), 8)
        assert separation_check(((2,), ()), ((1, 1), ()), 8)

    def test_first_separating_order(self):
        assert separation_check(((1,), ()), ((), (1,))) == 1
        # b_1 is the size, so (2) and (1,1) first differ at l = 2
        assert separation_check(((2,), ()), ((1, 1), ())) == 2
        assert separation_check(((2,), ()), ((1, 1), ()), 1) is None

    def test_equal_labels_rejected(self):
        with pytest.raises(ValueError):
            separation_check(((1,), (1,)), ((1,), (1,)), 8)


def _c_lambda_product(box, alpha):
    """pieri_V as the product of its c_lambda factors, each step reduced
    in Q(k, p0), the way it was computed before the factors were kept
    as atoms."""
    i, j = box
    lam = alpha[0]
    v = RAT_ONE
    for r in range(1, i):
        v = v * c_lambda(lam, j, r, 1) * c_lambda(lam, j, r, K * (-2)) / (
            c_lambda(lam, j, r, -K) * c_lambda(lam, j, r, RAT_ONE - K))
    return v


@cache
def _addable_boxes(max_size):
    """(box, alpha, c_lambda product) for every addable box of every lam
    with |lam| <= max_size; pieri_V does not depend on mu."""
    return [(box, (lam, ()), _c_lambda_product(box, (lam, ())))
            for lam in partitions_up_to(max_size)
            for box in add_box_candidates(lam)]


class TestPieriCoefficients:
    def test_V_frozen(self):
        assert pieri_V((1, 2), ((1,), (1,))).to_rat() == RAT_ONE
        assert pieri_V((3, 1), ((1,), ())).to_rat() == RAT_ZERO
        assert pieri_V((2, 1), ((1,), ())).to_rat() == rat(2) / (RAT_ONE - K)

    def test_V_matches_c_lambda_product(self):
        for box, alpha, want in _addable_boxes(6):
            assert pieri_V(box, alpha).to_rat() == want, (box, alpha)
            assert pieri_V(box, (alpha[0], (2, 1))).to_rat() == want, \
                (box, alpha)

    def test_V_forms_are_coprime_and_balanced(self):
        # the atoms of V are forms x - y*k with coprime x, y > 0 (k
        # cancels), each above or below with a nonzero exponent; each
        # row above the box gives two factors of degree 1 in k above and
        # two below, except the row just above it, whose first factor
        # above is a constant: V falls like 1/k below the first row
        for box, alpha, _ in _addable_boxes(6):
            v = pieri_V(box, alpha)
            assert type(v.scale) is Fraction and v.scale > 0
            assert all(v.atoms.values()), (box, alpha)
            assert sum(v.atoms.values()) == -(box[0] > 1), (box, alpha)
            for a in v.atoms:
                x, y = a.terms.get((0, 0), 0), -a.terms[(1, 0)]
                assert a.terms.keys() <= {(0, 0), (1, 0)}, (box, a)
                assert x > 0 and y > 0 and gcd(x, y) == 1, (box, a)

    def test_V_forms_cancel_up_to_scale(self):
        # -2k above and -k below: 2/(1 - k)
        one_minus = {n: 1 - ParamPoly.var_k() * n for n in (1, 2)}
        v = pieri_V((2, 1), ((1,), ()))
        assert (v.scale, v.atoms) == (2, Counter({one_minus[1]: -1}))
        # 1 - k above and below: 3/(1 - 2k)
        v = pieri_V((3, 1), ((1, 1), ()))
        assert (v.scale, v.atoms) == (3, Counter({one_minus[2]: -1}))
        assert v.to_rat() == rat(3) / (RAT_ONE - K * 2)

    def test_U_frozen(self):
        assert pieri_U((1, 1), ((), (1,))).to_rat() == \
            P0 / (RAT_ONE + K - K * P0)
        u = pieri_U((1, 1), ((1,), (1,))).to_rat()
        want = ((RAT_ONE - K * P0) * (rat(2) + K * 2 - K * P0)
                * (P0 - RAT_ONE)) / (
            (RAT_ONE + K - K * P0) * (rat(2) + K - K * P0)
            * (RAT_ONE + K * 2 - K * P0))
        assert u == want
        # at p0 = 2 this must agree with the two-variable picture
        assert u.substitute_p0(2) == \
            (rat(2) * (RAT_ONE - K * 2)) / ((RAT_ONE - K) * (rat(2) - K))
        assert pieri_U((2, 1), ((), (1,))).to_rat() == RAT_ZERO

    def test_diagram_route_V(self):
        for box, alpha in [((2, 1), ((1,), ())), ((2, 2), ((3, 1), (1,))),
                           ((3, 1), ((2, 2), (1,)))]:
            assert pieri_V_diagram(box, alpha) == pieri_V(box, alpha), \
                (box, alpha)

    def test_diagram_route_U_and_rectangle_invariance(self):
        cases = [
            ((1, 1), ((), (1,))),
            ((1, 1), ((1,), (1,))),
            ((1, 2), ((1,), (2,))),
            ((2, 1), ((2,), (2, 1))),
            ((1, 1), ((2, 1), (1, 1))),
            ((2, 1), ((1,), (1, 1))),
        ]
        for box, alpha in cases:
            lam, mu = alpha
            d = pieri_U(box, alpha)
            assert pieri_U_diagram(box, alpha) == d, (box, alpha)
            # the bounding rectangle is a free choice
            assert pieri_U_diagram(box, alpha,
                                   L=len(lam) + 2, M=len(mu)) == d
            assert pieri_U_diagram(box, alpha,
                                   L=len(lam), M=len(mu) + 3) == d
            assert pieri_U_diagram(box, alpha,
                                   L=len(lam) + 1, M=len(mu) + 2) == d


# -- test-only references: each product formula as a ParamRat product of
# its factors, each factor built in Q(k, p0) and each step reduced there,
# the way the values were computed before the factors were read from ints

def _field_product(pairs):
    """prod (prod nums)/(prod dens) over the (nums, dens) pairs."""
    v = RAT_ONE
    for nums, dens in pairs:
        for n in nums:
            v = v * n
        for d in dens:
            v = v / d
    return v


def c_lambda(lam, j, i, a):
    """lam_i - j - k*(lam'_j - i) + a."""
    return rat(part(lam, i) - j) - K * (part(conjugate(lam), j) - i) + as_rat(a)


def c_alpha(alpha, j, i, a):
    """lam_i + j + k*(mu'_j + i) + a."""
    lam, mu = alpha
    return rat(part(lam, i) + j) + K * (part(conjugate(mu), j) + i) + as_rat(a)


def c_Y(alpha, box_ji, a):
    """y_i - j - k*(y'_j - i) + a on the two-diagram figure."""
    j, i = box_ji
    return rat(_y_row(alpha, i) - j) - K * (_y_col(alpha, j) - i) + as_rat(a)


def field_pieri_U(box, alpha):
    lam, mu = alpha
    i, j = box
    pairs = [((c_lambda(mu, j, r, RAT_ONE + K), c_lambda(mu, j, r, -K)),
              (c_lambda(mu, j, r, 1), c_lambda(mu, j, r, 0)))
             for r in range(i + 1, len(mu) + 1)]
    pairs += [((c_alpha(alpha, j, r, -RAT_ONE - K * (P0 + 2)),
                c_alpha(alpha, j, r, -K * P0)),
               (c_alpha(alpha, j, r, -RAT_ONE - K * (P0 + 1)),
                c_alpha(alpha, j, r, -K * (P0 + 1))))
              for r in range(1, len(lam) + 1)]
    mu_pj, ll, lm = part(conjugate(mu), j), len(lam), len(mu)
    pairs.append(((rat(j - 1) + K * (ll + mu_pj - 1) - K * P0,
                   rat(j) + K * (mu_pj - lm)),
                  (rat(j) + K * (ll + mu_pj) - K * P0,
                   rat(j - 1) + K * (mu_pj - lm - 1))))
    return _field_product(pairs)


def field_pieri_V_diagram(box, alpha):
    i, j = box
    return _field_product(
        ((c_Y(alpha, (j, r), K * (-2)), c_Y(alpha, (j, r), 1)),
         (c_Y(alpha, (j, r), -K), c_Y(alpha, (j, r), RAT_ONE - K)))
        for r in range(1, i))


def field_pieri_U_diagram(box, alpha, L, M):
    i, j = box
    jj, ycol = -j, -part(conjugate(alpha[1]), j)
    pairs = [((c_Y(alpha, (jj, r), -RAT_ONE - K), c_Y(alpha, (jj, r), K)),
              (c_Y(alpha, (jj, r), -1), c_Y(alpha, (jj, r), 0)))
             for r in range(-M, ycol)]
    pairs += [((c_Y(alpha, (jj, r), -RAT_ONE - K * (P0 + 2)),
                c_Y(alpha, (jj, r), -K * P0)),
               (c_Y(alpha, (jj, r), -RAT_ONE - K * (P0 + 1)),
                c_Y(alpha, (jj, r), -K * (P0 + 1))))
              for r in range(1, L + 1)]
    pairs.append(((rat(jj + 1) + K * (ycol - L) + K * (P0 + 1),
                   rat(jj) + K * (ycol + M)),
                  (rat(jj) + K * (ycol - L) + K * P0,
                   rat(jj + 1) + K * (ycol + M + 1))))
    return _field_product(pairs)


def field_stanley_phi(lam, p, x, variant):
    lamc = conjugate(lam)
    return _field_product(
        ((rat(j - 1 if variant == 1 else part(lam, i) - j)
          + K * (rat(i - 1) - p) + x,),
         (rat(part(lam, i) - j) + K * (i - 1 - part(lamc, j)) + x,))
        for (i, j) in boxes(lam))


def field_phi_pair(lam, mu, p, x):
    muc = conjugate(mu)
    pairs = []
    for i in range(1, len(lam) + 1):
        for j in range(1, len(muc) + 1):
            li, shift = part(lam, i), K * (rat(i - 1) - p) + x
            tshift = shift + K * part(muc, j)
            pairs.append(((rat(li + j - 1) + shift, rat(j - 1) + tshift),
                          (rat(j - 1) + shift, rat(li + j - 1) + tshift)))
    return _field_product(pairs)


def field_triple(alpha, x):
    lam, mu = alpha
    return field_stanley_phi(lam, P0, x, 1) * field_stanley_phi(mu, P0, x, 1) \
        * field_phi_pair(lam, mu, P0, x)


def field_duality_constant(alpha):
    lam, mu = alpha
    dual = field_triple((conjugate(lam), conjugate(mu)), RAT_ZERO)
    return field_triple(alpha, RAT_ZERO) / dual.param_swap()


def _agree(fn, reference, *args):
    """fn(*args) equals the reference in Q(k, p0), a Factored through its
    to_rat(), or both find a factor below that vanishes identically."""
    try:
        want = reference(*args)
    except DivisionByZero:
        with pytest.raises(SingularProduct):
            fn(*args)
        return
    got = fn(*args)
    if type(got) is Factored:
        got = got.to_rat()
    assert got == want, (fn.__name__, args)


class TestIntBuiltFactors:
    # every product formula on every label with |lam|+|mu| <= 5 (74)
    # against the same factors multiplied in Q(k, p0); the shift
    # 1/2 + k with p = 3/2*p0 - 1 reads x and p over a denominator
    SHIFTS = ((P0, RAT_ZERO), (P0, RAT_ONE + K),
              (rat(3, 2) * P0 - 1, rat(1, 2) + K))

    def test_pieri_coefficients(self):
        for lam, mu in bipartitions_up_to(5):
            alpha = (lam, mu)
            for box in add_box_candidates(lam):
                _agree(pieri_V_diagram, field_pieri_V_diagram, box, alpha)
            for box in remove_box_candidates(mu):
                _agree(pieri_U, field_pieri_U, box, alpha)
                for L, M in ((len(lam), len(mu)),
                             (len(lam) + 2, len(mu) + 1)):
                    _agree(pieri_U_diagram, field_pieri_U_diagram,
                           box, alpha, L, M)

    def test_stanley_type_products(self):
        for lam, mu in bipartitions_up_to(5):
            for p, x in self.SHIFTS:
                for variant in (1, 2):
                    _agree(stanley_phi, field_stanley_phi, lam, p, x,
                           variant)
                _agree(phi_pair, field_phi_pair, lam, mu, p, x)

    def test_evaluation_norm_and_duality(self):
        for alpha in bipartitions_up_to(5):
            zero, one = (field_triple(alpha, x) for x in (RAT_ZERO,
                                                          RAT_ONE + K))
            assert evaluation_value(alpha) == zero, alpha
            assert norm_value(alpha).to_rat() == zero / one, alpha
            _agree(duality_constant, field_duality_constant, alpha)


class TestTripleMemo:
    """_phi_triple is a memo; the evaluation, norm and duality read from
    it match the triple product recomputed on each call."""

    def test_cold_and_warm_match_the_uncached_triple(self):
        fresh = _phi_triple.__wrapped__
        labels = bipartitions_up_to(4)
        clear_caches()
        for _ in ("cold", "warm"):
            for lam, mu in labels:
                alpha = (lam, mu)
                zero, one = fresh(alpha, RAT_ZERO), fresh(alpha, RAT_ONE + K)
                swapped = fresh((conjugate(lam), conjugate(mu)),
                                RAT_ZERO).param_swap()
                assert evaluation_value(alpha) == zero.to_rat(), alpha
                assert norm_value(alpha) == zero / one, alpha
                assert duality_constant(alpha) == (zero / swapped).to_rat()
        # the shifts 0 and 1 + k on each label; conjugation keeps the size
        assert _phi_triple.cache_info().currsize == 2 * len(labels)

    def test_int_zero_reads_the_rat_zero_entry(self):
        clear_caches()
        first = _phi_triple(((2, 1), (1,)), 0)
        assert _phi_triple(((2, 1), (1,)), RAT_ZERO) is first
        assert _phi_triple.cache_info().currsize == 1


class TestStanleyProducts:
    def test_base_values(self):
        assert stanley_phi((), P0, RAT_ZERO).to_rat() == RAT_ONE
        assert stanley_phi((1,), P0, RAT_ZERO).to_rat() == P0

    def test_variant_checked_before_the_product(self):
        for lam in ((), (1,)):
            with pytest.raises(ValueError, match="variant"):
                stanley_phi(lam, P0, RAT_ZERO, variant=3)

    def test_vanishing_denominator(self):
        # the box (1,1) of (1) has denominator -k + x, zero at x = k
        with pytest.raises(SingularProduct, match="stanley_phi"):
            stanley_phi((1,), P0, K)
        # the factor j-1+k(i-1-p)+x is 0 at i = j = 1, p = x = 0
        with pytest.raises(SingularProduct, match="phi_pair"):
            phi_pair((1,), (1,), 0, 0)

    def test_two_presentations_agree(self):
        for lam in ((1,), (2, 1), (3, 1, 1)):
            for xv in (RAT_ZERO, RAT_ONE + K):
                assert stanley_phi(lam, P0, xv, variant=1) == \
                    stanley_phi(lam, P0, xv, variant=2), lam

    def test_complementary_pair(self):
        # complementary diagrams inside a rectangle give equal products
        xsym = K * 5 + P0 + rat(3)
        assert stanley_phi((2, 1), 2, xsym) == stanley_phi((1,), 2, xsym)
        assert stanley_phi((3, 1), 2, xsym) == stanley_phi((2,), 2, xsym)

    def test_joined_diagram_factorization(self):
        xsym = K * 5 + P0 + rat(3)
        lhs = stanley_phi((2,), 2, xsym)
        one = stanley_phi((1,), 2, xsym)
        rhs = one * one * phi_pair((1,), (1,), 2, xsym)
        assert lhs == rhs
        lhs = stanley_phi((3, 1), 3, xsym)
        rhs = stanley_phi((2,), 3, xsym) * stanley_phi((1,), 3, xsym) \
            * phi_pair((2,), (1,), 3, xsym)
        assert lhs == rhs


class TestEvaluationNormDuality:
    def test_frozen(self):
        assert evaluation_value(((1,), ())) == P0
        assert evaluation_value(((1,), (1,))) == \
            P0 * (P0 - RAT_ONE) * (RAT_ONE - K * P0) / (RAT_ONE + K - K * P0)
        assert norm_value(((), (1,))).to_rat() == P0 / (RAT_ONE + K - K * P0)
        assert duality_constant(((1,), ())) == RAT_ONE / K
        assert phi_infinity((1,)) == -RAT_ONE / K
        assert phi_infinity(()) == RAT_ONE

    def test_w_symmetry(self):
        for alpha in [((1,), (1,)), ((2,), (1,)), ((2, 1), (1, 1))]:
            lam, mu = alpha
            assert evaluation_value(alpha) == evaluation_value((mu, lam))
            assert norm_value(alpha) == norm_value((mu, lam))

    def test_linear_factors(self):
        # c_alpha(alpha, j, i, a) = lam_i + j + k (mu'_j + i) + a
        assert c_alpha(((1,), (1,)), 1, 1, RAT_ONE) == rat(3) + K * 2
        assert c_alpha(((), ()), 1, 1, RAT_ZERO) == RAT_ONE + K


_MONOS = ((0, 0), (1, 0), (0, 1), (1, 1))
small_ints = st.integers(min_value=-4, max_value=4)


def _form(a, b, c, d):
    """a + b*k + c*p0 + d*k*p0 as a ParamPoly."""
    return ParamPoly(dict(zip(_MONOS, (a, b, c, d))))


def _assert_normalized(atom):
    # a nonconstant primitive form of bidegree at most (1, 1) with a
    # positive front coefficient
    assert not atom.is_const() and atom.terms.keys() <= set(_MONOS), atom
    assert atom.content_primitive()[0] == 1, atom
    assert atom.terms[atom.front_mono()] > 0, atom


nonzero_forms = st.tuples(small_ints, small_ints, small_ints,
                          small_ints).filter(any)
exponents = st.integers(min_value=-2, max_value=2)


def _product(factors):
    """The Factored product of the forms with coefficients `coeffs` to
    the exponents e, over the (coeffs, e) pairs."""
    out = Factored()
    for coeffs, e in factors:
        f = Factored.of(_form(*coeffs))
        for _ in range(abs(e)):
            out = out * f if e > 0 else out / f
    return out


class TestFactored:
    @settings(max_examples=300, deadline=None)
    @given(small_ints, small_ints, small_ints, small_ints)
    def test_scale_times_atoms_rebuilds_the_form(self, a, b, c, d):
        form = _form(a, b, c, d)
        f = Factored.of(form)
        assert type(f.scale) is Fraction and f.scale.denominator == 1
        assert all(e == 1 for e in f.atoms.values()) and len(f.atoms) <= 2
        for atom in f.atoms:
            _assert_normalized(atom)
        assert expand(f.scale.numerator, f.atoms) == form
        # rank one: both k and p0 occur and a*d == b*c
        splits = bool((c or d) and (b or d) and a * d == b * c)
        assert len(f.atoms) == 1 + splits or not (b or c or d)
        # over a constant denominator, the scale takes it
        g = Factored.of(as_rat(form) / 3)
        assert (g.scale, g.atoms) == (f.scale / 3, f.atoms)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(small_ints, small_ints, small_ints, small_ints),
           st.tuples(small_ints, small_ints, small_ints, small_ints))
    def test_quotients_match_the_field(self, top, bottom):
        # signed exponents: the quotient and the product multiplied out
        # agree with ParamRat arithmetic, which reduces by the gcd
        num, den = as_rat(_form(*top)), as_rat(_form(*bottom))
        if den.is_zero():
            return
        q = Factored.of(num) / Factored.of(den)
        assert q.to_rat() == num / den
        assert (q * den).to_rat() == num
        assert all(q.atoms.values())
        inverse = RAT_ONE / Factored.of(den).to_rat()
        assert (Factored() / den).to_rat() == inverse

    def test_atoms_are_irreducible(self):
        sympy = pytest.importorskip("sympy")
        k, p0 = sympy.symbols("k p0")
        atoms = {a for coeffs in product(range(-2, 3), repeat=4)
                 for a in Factored.of(_form(*coeffs)).atoms}
        assert len(atoms) > 100
        for a in atoms:
            poly = sympy.Poly(sum(c * k ** i * p0 ** j
                                  for (i, j), c in a.terms.items()), k, p0)
            content, factors = sympy.factor_list(poly)
            assert abs(content) == 1 and [e for _, e in factors] == [1], a
            # the sign is fixed, so no two atoms are associate
            assert -a not in atoms, a

    def test_rank_one_form_splits(self):
        # k*(i - 1 - p0) at j = 1 of phi_pair's denominators
        k, p0 = ParamPoly.var_k(), ParamPoly.var_p0()
        f = Factored.of(k * 2 - k * p0)
        assert (f.scale, f.atoms) == (1, Counter({k: 1, 2 - p0: 1}))
        f = Factored.of(-6 - 4 * k + 3 * p0 + 2 * k * p0)
        assert (f.scale, f.atoms) == (-1, Counter({3 + 2 * k: 1,
                                                   2 - p0: 1}))

    def test_nonlinear_factor_raises(self):
        # the factor j - 1 + k(i - 1 - p) + x of the box (1, 1) is -k^2
        # at p = k, and has the denominator k at x = 1/k; no gcd route
        # is taken instead
        with pytest.raises(ValueError, match="linear form"):
            stanley_phi((1,), K, 0)
        with pytest.raises(ValueError, match="linear form"):
            stanley_phi((1,), P0, RAT_ONE / K)
        with pytest.raises(ValueError, match="linear form"):
            phi_pair((1,), (1,), K * K, 0)

    def test_product_formulas_take_no_gcd(self):
        # every label with |lam|+|mu| <= 4 from cold memos, each Factored
        # multiplied out, the duality constant swapped atom by atom
        # included
        clear_caches()
        with mock.patch.object(rational, "poly_gcd",
                               wraps=rational.poly_gcd) as gcd_calls:
            for lam, mu in bipartitions_up_to(4):
                alpha = (lam, mu)
                for box in add_box_candidates(lam):
                    pieri_V(box, alpha).to_rat()
                    pieri_V_diagram(box, alpha).to_rat()
                for box in remove_box_candidates(mu):
                    pieri_U(box, alpha).to_rat()
                    pieri_U_diagram(box, alpha).to_rat()
                    pieri_U_diagram(box, alpha, len(lam) + 1,
                                    len(mu) + 2).to_rat()
                for x in (RAT_ZERO, RAT_ONE + K):
                    for variant in (1, 2):
                        stanley_phi(lam, P0, x, variant).to_rat()
                    phi_pair(lam, mu, P0, x).to_rat()
                phi_infinity(lam)
                evaluation_value(alpha)
                norm_value(alpha).to_rat()
                duality_constant(alpha)
        assert gcd_calls.call_count == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(nonzero_forms, exponents), max_size=4),
           st.lists(st.tuples(nonzero_forms, exponents), max_size=4),
           st.randoms(use_true_random=False),
           st.integers(min_value=-3, max_value=3).filter(bool))
    def test_equality_and_hash_follow_the_field(self, first, second, rnd, c):
        a = _product(first)
        # the same value regrouped: the factors shuffled, each form taken
        # c times over and divided by c again
        shuffled = list(first)
        rnd.shuffle(shuffled)
        b = Factored()
        for coeffs, e in shuffled:
            b = b * _product([(tuple(c * x for x in coeffs), e)]) \
                / Fraction(c) ** e
        assert a == b and hash(a) == hash(b)
        assert a.to_rat() == b.to_rat()
        d = _product(second)
        assert (a == d) == (a.to_rat() == d.to_rat())
        assert a != d or hash(a) == hash(d)
        # and each equals the ParamRat of its value, hashing like it
        assert a == a.to_rat() and d.to_rat() == d
        assert hash(a) == hash(a.to_rat()) and hash(d) == hash(d.to_rat())

    def test_atom_free_product_is_its_scale(self):
        # pieri_V((1, 2), ((1,), (1,))) is 1 with no atom left
        one = pieri_V((1, 2), ((1,), (1,)))
        assert not one.atoms
        assert one == 1 and 1 == one and hash(one) == hash(1)
        assert {1: "one"}[one] == "one" and {one: "one"}[1] == "one"
        half = Factored(Fraction(1, 2))
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert Factored(0) == 0 and Factored(2) != 1
        # a product with an atom is no constant, not even its scale
        v = pieri_V((2, 1), ((1,), ()))
        assert v.atoms and v != v.scale and v != 2

    def test_equals_the_param_rat_of_its_value(self):
        # the value 1 with no atom left equals RAT_ONE either way round,
        # as it equals 1, and int, Fraction, ParamRat and Factored of one
        # value hash alike
        one = pieri_V((1, 2), ((1,), (1,)))
        assert one == RAT_ONE and RAT_ONE == one
        assert hash(one) == hash(RAT_ONE) == hash(1) == hash(Fraction(1))
        v = pieri_V((2, 1), ((1,), ()))
        assert v.atoms
        assert v == v.to_rat() and v.to_rat() == v
        assert hash(v) == hash(v.to_rat())
        assert v != v.to_rat() + 1 and v.to_rat() * 2 != v
        assert {v.to_rat(): "v"}[v] == "v" and {v: "v"}[v.to_rat()] == "v"
        assert v != ParamPoly.const(2)

    def test_reciprocal(self):
        # an int or Fraction over a Factored: the scale divided into it
        # and every exponent negated
        v = pieri_V((2, 1), ((1,), ()))
        assert 1 / v == RAT_ONE / v.to_rat()
        assert Fraction(3, 2) / v == Factored(Fraction(3, 2)) / v
        assert (1 / v).atoms == Counter({a: -e for a, e in v.atoms.items()})
        with pytest.raises(SingularProduct):
            1 / Factored(0)

    def test_repr_shows_scale_and_atoms(self):
        assert repr(pieri_V((1, 2), ((1,), (1,)))) == "Factored(1)"
        assert repr(Factored(0)) == "Factored(0)"
        assert repr(Factored(Fraction(-3, 2))) == "Factored(-3/2)"
        assert repr(pieri_V((2, 1), ((1,), ()))) == \
            "Factored(2 * (1 - k)^-1)"
        assert repr(norm_value(((), (1,)))) == \
            "Factored((1 + k - k*p0)^-1 * (p0))"

    def test_swap_matches_the_field(self):
        # k -> 1/k, p0 -> k*p0 atom by atom, against ParamRat.param_swap
        # of the value multiplied out, on every evaluation up to size 5
        for lam, mu in bipartitions_up_to(5):
            f = _phi_triple((lam, mu), 0)
            assert f.param_swap().to_rat() == f.to_rat().param_swap()
        with pytest.raises(ValueError, match="linear form"):
            Factored.of(_form(1, 1, 1, 0)).param_swap()


forms = st.tuples(small_ints, small_ints, small_ints, small_ints)


class TestRatio:
    """_ratio over _linear forms read from ints: exponents summed with
    their signs, the scale kept as two ints, against the field."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(forms, max_size=4), st.lists(forms, max_size=4),
           nonzero_forms)
    def test_matches_the_field(self, nums, dens, shared):
        top = tuple(_linear(*c) for c in nums)
        bottom = tuple(_linear(*c) for c in dens)
        if not all(map(any, dens)):
            with pytest.raises(SingularProduct) as err:
                _ratio([(top, bottom)], "a test product")
            assert str(err.value) == \
                "a test product: a denominator factor vanishes identically"
            return
        q = _ratio([(top, bottom)], "a test product")
        want = RAT_ONE
        for c in nums:
            want = want * as_rat(_form(*c))
        for c in dens:
            want = want / as_rat(_form(*c))
        assert q.to_rat() == want
        assert type(q.scale) is Fraction and type(q.atoms) is Counter
        total = Counter()
        for sign, side in ((1, top), (-1, bottom)):
            for f in side:
                for a, e in f.atoms.items():
                    total[a] += sign * e
        if all(map(any, nums)):
            assert q.atoms == {a: e for a, e in total.items() if e}
        else:
            assert not q.scale and not q.atoms
        # an atom whose exponents sum to 0 is dropped: a form on both
        # sides leaves the product as it was, and so does its reciprocal
        f = _linear(*shared)
        again = _ratio([(top + (f,), bottom), ((), (f,))], "a test product")
        assert (again.scale, again.atoms) == (q.scale, q.atoms)
        assert all(again.atoms.values())
        if q.scale:
            one = _ratio([(top, bottom), (bottom, top)], "a test product")
            assert (one.scale, one.atoms) == (1, Counter())


# (p, x) for the Stanley-type products: the shifts of TestIntBuiltFactors
# and the symbolic point of TestStanleyProducts
SURFACE_SHIFTS = TestIntBuiltFactors.SHIFTS + ((2, K * 5 + P0 + rat(3)),)


@cache
def _factored_values(max_size):
    """(name, args, value) for every formula that returns a Factored, on
    every label with |lam|+|mu| <= max_size: each addable or removable
    box, the diagram forms at two rectangles, the Stanley-type products
    at SURFACE_SHIFTS, the norm, and pieri_V_N on the label's sequence
    at N = 3 and 4 where it fits.  Products with a factor below that
    vanishes identically are left out."""
    out = []

    def add(fn, *args):
        try:
            out.append((fn.__name__, args, fn(*args)))
        except SingularProduct:
            pass

    for alpha in sorted(bipartitions_up_to(max_size)):
        lam, mu = alpha
        for box in add_box_candidates(lam):
            add(pieri_V, box, alpha)
            add(pieri_V_diagram, box, alpha)
        for box in remove_box_candidates(mu):
            add(pieri_U, box, alpha)
            add(pieri_U_diagram, box, alpha)
            add(pieri_U_diagram, box, alpha, len(lam) + 2, len(mu) + 1)
        for p, x in SURFACE_SHIFTS:
            for variant in (1, 2):
                add(stanley_phi, lam, p, x, variant)
            add(phi_pair, lam, mu, p, x)
        add(norm_value, alpha)
        for N in (3, 4):
            if len(lam) + len(mu) <= N:
                chi = chi_N(alpha, N)
                for i in range(1, N + 1):
                    add(pieri_V_N, i, chi)
    return out


def _seeded_points(seed, n):
    rnd = Random(seed)
    return [tuple(Fraction(rnd.randint(-6, 6), rnd.randint(1, 3))
                  for _ in range(2)) for _ in range(n)]


def _specialize_agrees(value, field, k0, p00):
    """value.specialize(k0, p00) is the Fraction field.specialize(k0, p00)
    of its to_rat(), or both raise PoleAtSpecialization with the same
    message; False at a pole."""
    try:
        want = field.specialize(k0, p00)
    except PoleAtSpecialization as exc:
        with pytest.raises(PoleAtSpecialization) as got:
            value.specialize(k0, p00)
        assert str(got.value) == str(exc)
        return False
    got = value.specialize(k0, p00)
    assert type(got) is Fraction and got == want
    return True


class TestFactoredSurface:
    # str and specialize of the Factored product formulas read like
    # those of the value multiplied out in Q(k, p0)
    def test_str_is_the_canonical_string(self):
        values = _factored_values(5)
        assert len(values) == 1887
        for name, args, value in values:
            assert type(value) is Factored, (name, args)
            assert str(value) == str(value.to_rat()), (name, args)

    def test_specialize_matches_the_field(self):
        # seeded points, and two small integer points where some values
        # have a pole
        points = _seeded_points(0, 4) + [(1, 2), (-1, 0)]
        poles = 0
        for name, args, value in _factored_values(5):
            field = value.to_rat()
            for k0, p00 in points:
                poles += not _specialize_agrees(value, field, k0, p00)
        assert poles > 0

    def test_pole_names_the_canonical_denominator(self):
        # pieri_V((2, 1), ((1,), ())) is 2/(1 - k): a pole at k = 1
        value = pieri_V((2, 1), ((1,), ()))
        with pytest.raises(PoleAtSpecialization) as got:
            value.specialize(1, 0)
        assert str(got.value) == "denominator 1 - k vanishes at k=1, p0=0"
        assert not _specialize_agrees(value, value.to_rat(), 1, 0)


def _closed_form_lines(max_size):
    """One line per product closed form on every label with
    |lam|+|mu| <= max_size and each addable or removable box."""
    def show(name, fn, *args):
        try:
            value = str(fn(*args))
        except SingularProduct:
            value = "SingularProduct"
        return "%s(%s): %s" % (name, ", ".join(map(str, args)), value)

    for alpha in sorted(bipartitions_up_to(max_size)):
        lam, mu = alpha
        for box in add_box_candidates(lam):
            yield show("pieri_V", pieri_V, box, alpha)
            yield show("pieri_V_diagram", pieri_V_diagram, box, alpha)
        for box in remove_box_candidates(mu):
            yield show("pieri_U", pieri_U, box, alpha)
            yield show("pieri_U_diagram", pieri_U_diagram, box, alpha)
            yield show("pieri_U_diagram", pieri_U_diagram, box, alpha,
                       len(lam) + 1, len(mu) + 2)
        for x in (RAT_ZERO, RAT_ONE + K):
            for variant in (1, 2):
                yield show("stanley_phi", stanley_phi, lam, P0, x, variant)
            yield show("phi_pair", phi_pair, lam, mu, P0, x)
        yield show("phi_infinity", phi_infinity, lam)
        yield show("evaluation_value", evaluation_value, alpha)
        yield show("norm_value", norm_value, alpha)
        yield show("duality_constant", duality_constant, alpha)


def test_golden_closed_forms():
    # the canonical strings of 606 values, digest recorded before the
    # products were routed through one helper
    lines = list(_closed_form_lines(4))
    assert len(lines) == 606
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "673379831808be930ec34b99eff0793bc98192c7011104febad702b8583d6288"
