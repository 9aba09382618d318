"""Construction of the Jack-Laurent symmetric functions: base cases,
frozen small eigenfunctions, eigenvalue checks, Pieri recursion,
involutions, growth-order independence, and numeric-parameter mode."""

import contextlib
import hashlib
import random
import sys
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from jacklaurent.rational import (
    K, P0, RAT_ONE, RAT_ZERO, rat, NotEigenvector, ParamPoly, ParamRat,
    PoleAtSpecialization, SingularParameter, poly_divexact, poly_gcd,
)
from jacklaurent.laurent import LaurentSymFunc
from jacklaurent.partitions import (
    add_box, add_box_candidates, bipartitions_up_to, conjugate,
    partitions_up_to, remove_box, remove_box_candidates, size,
)
from jacklaurent.closed_forms import eigenvalue_e, eigenvalue_parts, expand, \
    pieri_U, pieri_V
from jacklaurent.operators import (
    _l2_bound, cms_L, cms_L2_direct, cms_L_doubled,
)
from jacklaurent import clear_caches, closed_forms, jack, rational
from jacklaurent.jack import (
    JackLaurentFunction, _Point, _ring_eigenvalue, _walk, construct,
    construct_via_order, eigen_check_all, jack_positive, pieri_identity_check,
    rational_mode_construct, star_symmetry_check, theta_duality_check,
)

g = LaurentSymFunc.gen
e2 = (g(1, 2) - g(2)) * rat(1, 2)


def field_clear(f):
    """(F, D) for f over Q(k, p0): D the lcm of the coefficient
    denominators in Z[k, p0], the int lcm of their contents times the
    lcm of their primitive parts through poly_gcd and poly_divexact,
    with a positive front coefficient, and F = D*f on ParamPoly
    coefficients.  The reference for the cleared form the construction
    carries."""
    n, lead = 1, ParamPoly.const(1)
    for c in f.terms.values():
        content, prim = c.den.content_primitive()
        n = lcm(n, content)
        lead = poly_divexact(lead * prim, poly_gcd(lead, prim))
    if lead.terms[lead.front_mono()] < 0:
        lead = -lead
    D = lead.scale(n)
    return f.map_coeffs(lambda c: poly_divexact(c.num * D, c.den)), D


def fraction_clear(f):
    """(F, d) for f over Q: d the lcm of the Fraction denominators and
    F = d*f on int coefficients."""
    d = lcm(*(c.denominator for c in f.terms.values()))
    return f.map_coeffs(lambda c: c.numerator * (d // c.denominator)), d


class TestPositivePart:
    def test_base_cases(self):
        assert jack_positive(()) == LaurentSymFunc.one()
        assert jack_positive((1,)) == g(1)

    def test_column(self):
        # the single column (1,1) is the elementary function e2
        assert jack_positive((1, 1)) == e2

    def test_row(self):
        row = jack_positive((2,))
        assert row == (g(2) - g(1, 2) * K) * (RAT_ONE / (RAT_ONE - K))
        # monic in the monomial basis: the m_2 coefficient
        # is coeff(p_2) + coeff(p_1^2) = 1
        assert row.coeff(((2, 1),)) + row.coeff(((1, 2),)) == RAT_ONE


class TestFrozenFunctions:
    def test_one_one(self):
        p11 = construct(((1,), (1,)))
        assert p11.f == g(1) * g(-1) \
            - LaurentSymFunc.const(P0 / (RAT_ONE + K - K * P0))
        assert p11.eigenvalue2 == rat(2) + K * 2 - K * P0 * 2

    def test_oneone_one(self):
        p111 = construct(((1, 1), (1,)))
        want = e2 * g(-1) - g(1) * (
            rat(2) * (P0 - RAT_ONE) / (rat(2) + K * 4 - K * P0 * 2))
        assert p111.f == want

    def test_trivial_labels(self):
        assert construct(((), ())).f == LaurentSymFunc.one()
        assert construct(((1,), ())).f == g(1)
        assert construct(((), (1,))).f == g(-1)

    def test_provenance_records_growth(self):
        assert construct(((1,), (1,))).provenance == ((1, 1),)

    def test_str(self):
        s = str(construct(((1,), (1,))))
        assert s.startswith("P[1; 1] = ")


class TestEigenChecks:
    def test_small_labels(self):
        out = eigen_check_all(((1,), (1,)), 3)
        assert out[0] == (1, RAT_ZERO)
        assert out[1] == (2, rat(2) + K * 2 - K * P0 * 2)
        out = eigen_check_all(((2,), (1,)), 2)
        assert out[0][1] == RAT_ONE

    def test_weight_rule(self):
        # first integral measures |lambda| - |mu|
        for alpha in [((2, 1), ()), ((), (2,)), ((2,), (2,))]:
            out = eigen_check_all(alpha, 1)
            lam, mu = alpha
            assert out[0][1] == rat(sum(lam) - sum(mu)), alpha

    def test_ring_eigenvalue_matches_field(self):
        # the eigenvalue read in Z[k, p0] is L_r(f)[m0] / f[m0] over Q(k, p0)
        jf = construct(((2,), (1,)))
        F, _ = jf.cleared
        m0, c0 = jf.f.sorted_terms()[0]
        for r in (1, 2, 3):
            want = cms_L(r, jf.f).coeff(m0) / c0
            assert _ring_eigenvalue(F, r, jf.alpha) == want, r

    @pytest.mark.parametrize("base", [LaurentSymFunc.zero(), g(1)])
    def test_extra_monomial_is_not_an_eigenfunction(self, base):
        # L2(p2) has a p1^2 term, outside the support of p2 and of
        # p1 + p2; on p2 alone every cross-product agrees, so only the
        # support comparison can catch it
        F, _ = field_clear(base + g(2))
        R = cms_L_doubled(2, F, ParamPoly.var_k(), ParamPoly.var_p0())
        assert R.terms.keys() > F.terms.keys()
        with pytest.raises(NotEigenvector, match="order-2 integral is not "
                                                 "scalar"):
            _ring_eigenvalue(F, 2, ((1,), ()))

    @pytest.mark.parametrize("alpha", [((2,), ()), ((1,), (1,)),
                                       ((2, 1), (1,))])
    def test_perturbed_coefficient_is_not_an_eigenfunction(self, alpha):
        # one coefficient off the leading monomial moved by 1: the
        # support stays, so the cross-multiplication catches it
        F, _ = construct(alpha).cleared
        m = F.sorted_terms()[-1][0]
        bumped = dict(F.terms)
        bumped[m] = bumped[m] + 1
        F = LaurentSymFunc(bumped)
        R = cms_L_doubled(2, F, ParamPoly.var_k(), ParamPoly.var_p0())
        assert R.terms.keys() == F.terms.keys()
        with pytest.raises(NotEigenvector, match="order-2 integral is not "
                                                 "scalar"):
            _ring_eigenvalue(F, 2, alpha)

    def test_zero_eigenvalue(self):
        # L_1 kills the weight-zero P[1; 1]
        F, _ = construct(((1,), (1,))).cleared
        assert _ring_eigenvalue(F, 1, ((1,), (1,))) == RAT_ZERO


def field_pieri_identity(alpha):
    """The Pieri identity summed in Q(k, p0), on the functions and the
    ParamRat coefficients pieri_V and pieri_U: the route the check took
    before it compared numerators in the ring."""
    lam, mu = alpha
    lhs = construct(alpha).f.times(1)
    rhs = LaurentSymFunc.zero()
    for x in add_box_candidates(lam):
        v = pieri_V(x, alpha).to_rat()
        if not v.is_zero():
            rhs = rhs + construct((add_box(lam, x), mu)).f * v
    for y in remove_box_candidates(mu):
        u = pieri_U(y, alpha).to_rat()
        if not u.is_zero():
            rhs = rhs + construct((lam, remove_box(mu, y))).f * u
    return lhs == rhs


class TestPieriRecursion:
    def test_identity(self):
        for alpha in [((), ()), ((1,), ()), ((), (1,)), ((1,), (1,)),
                      ((2,), (1,)), ((1, 1), (1,)), ((1,), (2,))]:
            assert pieri_identity_check(alpha), alpha

    def test_ring_agrees_with_the_field(self):
        labels = sorted(bipartitions_up_to(4))
        assert len(labels) == 38
        for alpha in labels:
            assert pieri_identity_check(alpha), alpha
            assert field_pieri_identity(alpha), alpha

    @pytest.mark.parametrize("alpha", [((1,), ()), ((2, 1), (1,)),
                                       ((1,), (2, 1)), ((2, 2), (1, 1))])
    def test_doubled_V_fails_both_routes(self, alpha):
        # one V doubled in pieri_V's memo, which the ring reads as a
        # Factored and the field multiplied out
        box = add_box_candidates(alpha[0])[-1]
        real = closed_forms._pieri_V

        def doubled(x, lam):
            v = real(x, lam)
            return v * 2 if x == box and lam == alpha[0] else v

        with mock.patch.object(closed_forms, "_pieri_V", doubled):
            assert not pieri_identity_check(alpha)
            assert not field_pieri_identity(alpha)


class TestInvolutions:
    def test_star(self):
        assert star_symmetry_check(((1,), (1,)))
        assert star_symmetry_check(((2,), (1,)))

    def test_theta(self):
        assert theta_duality_check(((1,), ()))
        assert theta_duality_check(((1,), (1,)))
        assert theta_duality_check(((2,), ()))


def field_theta_duality(alpha):
    """The duality identity in Q(k, p0): theta^{-1} and param_swap on the
    ParamRat coefficients and the product with d_alpha multiplied out,
    the route the check took before it compared in the ring.  It reads
    jack.duality_constant, so a patched constant reaches both routes."""
    lam, mu = alpha
    lhs = construct(alpha).f.theta(inverse=True)
    dual = construct((conjugate(lam), conjugate(mu))).f.param_swap()
    return lhs == dual * jack.duality_constant(alpha).to_rat()


def field_ring_eigenvalue(F, r):
    """The eigenvalue as the ParamRat R[m0] / (2^r * F[m0]), reduced by
    the gcd: the route _ring_eigenvalue took before its exact division."""
    R = cms_L_doubled(r, F, ParamPoly.var_k(), ParamPoly.var_p0())
    if R.is_zero():
        return RAT_ZERO
    m0 = F.sorted_terms()[0][0]
    return ParamRat(R.terms[m0], F.terms[m0] * 2 ** r)


class TestRingAgainstTheField:
    """The duality and eigen checks in the ring against their former
    Q(k, p0) routes, on every label with |lam|+|mu| <= 5."""

    LABELS = sorted(bipartitions_up_to(5))

    def test_duality(self):
        assert len(self.LABELS) == 74
        for alpha in self.LABELS:
            assert theta_duality_check(alpha), alpha
            assert field_theta_duality(alpha), alpha

    def test_eigenvalues(self):
        for alpha in self.LABELS:
            F, _ = construct(alpha).cleared
            for r in (1, 2, 3):
                assert _ring_eigenvalue(F, r, alpha) == \
                    field_ring_eigenvalue(F, r), (alpha, r)

    @pytest.mark.parametrize("alpha", [((1,), ()), ((2, 1), (1,)),
                                       ((1,), (2, 1)), ((2, 2), (1, 1)),
                                       ((), ())])
    def test_doubled_constant_fails_both_routes(self, alpha, monkeypatch):
        real = jack.duality_constant
        monkeypatch.setattr(jack, "duality_constant",
                            lambda a: real(a) * 2)
        assert not theta_duality_check(alpha)
        assert not field_theta_duality(alpha)

    def test_mismatched_support_fails(self, monkeypatch):
        # the conjugate label's cleared form with one monomial dropped
        alpha, dual = ((2,), (1,)), ((1, 1), (1,))
        jf = construct(dual)
        F, D = jf.cleared
        m = F.sorted_terms()[-1][0]
        cut = JackLaurentFunction(dual, jf.f, (LaurentSymFunc(
            {n: c for n, c in F.terms.items() if n != m}), D),
            jf.eigenvalue2, jf.provenance)
        real = jack.construct
        monkeypatch.setattr(jack, "construct",
                            lambda a: cut if a == dual else real(a))
        assert not theta_duality_check(alpha)

    def test_eigenvalue_off_the_ring_is_refused(self, monkeypatch):
        # R = k/(1 - k) * F passes the cross-multiplication, but its
        # eigenvalue is no polynomial
        k = ParamPoly.var_k()
        F, _ = construct(((2,), (1,))).cleared
        F = F.scale(1 - k)
        R = F.map_coeffs(lambda c: poly_divexact(c * k, 1 - k))
        monkeypatch.setattr(jack, "cms_L_doubled", lambda r, f, *point: R)
        with pytest.raises(NotEigenvector, match="not a polynomial"):
            _ring_eigenvalue(F, 2, ((2,), (1,)))


class TestMirrorRule:
    def test_the_mirror_is_never_mirrored(self):
        for alpha in bipartitions_up_to(7):
            if jack._mirrored(alpha):
                assert alpha[1] and not jack._mirrored(alpha[::-1]), alpha

    def test_mirrored_labels_match_the_grown_route(self, cold_memo):
        # each route from a cold memo: construct reads a mirrored label
        # as the star of its mirror, with the mirror's eigenvalue, and
        # construct_via_order grows it
        for alpha in bipartitions_up_to(5):
            lam, mu = alpha
            if not (lam and mu):
                continue
            clear_caches()
            grown = construct_via_order(alpha, jack._canonical_order(lam))
            clear_caches()
            built = construct(alpha)
            assert str(built) == str(grown), alpha
            (F, D), (G, E) = built.cleared, grown.cleared
            assert F == G, alpha
            assert (D.scale, D.atoms) == (E.scale, E.atoms), alpha
            assert built.provenance == grown.provenance, alpha
            assert built.eigenvalue2 == grown.eigenvalue2, alpha

    def test_involutions_compare_independent_sides(self, monkeypatch):
        # the mirrored member of every pair with both diagrams nonempty
        # and unequal is grown box by box, not read from the memo, and
        # once for the checks of both members of its pair
        grown = []
        via_order = jack.construct_via_order

        def recording(alpha, order):
            grown.append(alpha)
            return via_order(alpha, order)
        monkeypatch.setattr(jack, "construct_via_order", recording)
        clear_caches()
        labels = [a for a in bipartitions_up_to(4)
                  if a[0] and a[1] and a[0] != a[1]]
        for alpha in labels:
            assert star_symmetry_check(alpha), alpha
        assert sorted(grown) == sorted(a for a in labels if jack._mirrored(a))


class TestOrderIndependence:
    def test_two_growth_orders(self):
        a = construct_via_order(((2, 1), (1,)), [(1, 1), (1, 2), (2, 1)])
        b = construct_via_order(((2, 1), (1,)), [(1, 1), (2, 1), (1, 2)])
        assert a.f == b.f
        assert a.f == construct(((2, 1), (1,))).f

    def test_cache_reset(self):
        clear_caches()
        assert construct(((1,), (1,))).f.coeff(((-1, 1), (1, 1))) == RAT_ONE

    def test_trailing_zeros_share_memo(self):
        assert construct(((1, 0), ())) is construct(((1,), ()))


class TestSpecialization:
    def test_regular_point(self):
        p11 = construct(((1,), (1,)))
        num = p11.f.specialize(-1, 5)
        assert num == g(1) * g(-1) - LaurentSymFunc.one()

    def test_pole_names_offender(self):
        p11 = construct(((1,), (1,)))
        with pytest.raises(PoleAtSpecialization):
            p11.f.specialize(1, 2)


def _near(shape, other):
    """The labels that can appear in p_1 * P_{shape,other}."""
    out = [(add_box(shape, x), other) for x in add_box_candidates(shape)]
    out += [(shape, remove_box(other, y)) for y in remove_box_candidates(other)]
    return out


@cache
def _reduced_each_factor(alpha):
    """P_alpha by the projector with every factor applied and reduced in
    Q(k, p0) in turn, the way the construction ran before it deferred the
    denominators: the reference for its single division per step."""
    lam, mu = alpha
    if not lam:
        return (_reduced_each_factor((mu, ())).star() if mu
                else LaurentSymFunc.one())
    box = max(remove_box_candidates(lam))
    shape = remove_box(lam, box)
    s = eigenvalue_e(alpha)
    out = _reduced_each_factor((shape, mu)).times(1)
    for gamma in _near(shape, mu):
        if gamma != alpha:
            e = eigenvalue_e(gamma)
            out = (cms_L2_direct(out) - out * e) * (1 / (s - e))
    return out * (1 / pieri_V(box, (shape, mu)).to_rat())


class TestDeferredDenominators:
    @pytest.mark.parametrize("alpha", bipartitions_up_to(4))
    def test_matches_reduction_after_each_factor(self, alpha):
        assert construct(alpha).f == _reduced_each_factor(alpha)


# sha256 of str(construct(a)) for every label of bipartitions_up_to(5),
# joined by newlines, as the construction printed them when it still
# reduced each step through the polynomial gcd
GOLDEN_UP_TO_5 = ("69fe29220bf0c7bf2f16c984c79d3e17"
                  "e2642e629aee2c3d197a378077fc0457")


class TestFactoredDenominators:
    def test_golden(self):
        clear_caches()
        text = "\n".join(str(construct(a)) for a in bipartitions_up_to(5))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_UP_TO_5

    @pytest.mark.parametrize("alpha", bipartitions_up_to(7))
    def test_coefficients_are_canonical(self, alpha):
        # ParamRat reduces num/den again through the polynomial gcd
        for c in construct(alpha).f.terms.values():
            assert ParamRat(c.num, c.den) == c

    def test_atoms_are_irreducible_and_not_associate(self):
        sympy = pytest.importorskip("sympy")
        k, p0 = sympy.symbols("k p0")
        atoms = [sympy.Poly(sympy.sympify(str(a).replace("^", "**"),
                                          locals={"k": k, "p0": p0}), k, p0)
                 for a in _pole_atoms(5)]
        assert atoms
        for a in atoms:
            assert [e for _, e in sympy.factor_list(a)[1]] == [1], a
        # a and b are associate exactly when a * lc(b) == b * lc(a)
        for i, a in enumerate(atoms):
            for b in atoms[i + 1:]:
                assert not (a * b.LC() - b * a.LC()).is_zero, (a, b)

    def test_atoms_are_the_pole_families(self):
        # the denominators to |lam|+|mu| <= n factor over exactly
        # b - a*k with gcd(a, b) = 1 and b + a*k - k*p0, for a, b >= 1
        # and a + b <= n: a*k - b and k*p0 - a*k - b up to the sign that
        # makes the constant term positive
        k, p0 = ParamPoly.var_k(), ParamPoly.var_p0()
        for n, count in ((5, 19), (6, 26)):
            pairs = [(a, b) for a in range(1, n) for b in range(1, n - a + 1)]
            want = {b - k * a for a, b in pairs if gcd(a, b) == 1}
            want |= {b + k * a - k * p0 for a, b in pairs}
            assert len(want) == count
            assert _pole_atoms(n) == want, n


def _pole_atoms(n):
    """The atoms of the cleared denominators of every label with
    |lam|+|mu| <= n."""
    return {a for alpha in bipartitions_up_to(n)
            for a in construct(alpha).cleared[1].atoms}


class TestClearedForm:
    """The cleared form the construction carries, against the lcm of
    the denominators taken in the field."""

    @pytest.mark.parametrize("alpha", bipartitions_up_to(7))
    def test_symbolic_matches_field_lcm(self, alpha):
        jf = construct(alpha)
        F, D = jf.cleared
        want, lead = field_clear(jf.f)
        assert all(type(c) is ParamPoly for c in F.terms.values())
        assert F.terms == want.terms
        assert expand(D.scale.numerator, D.atoms) == lead

    @pytest.mark.parametrize("k0,p00", [
        (Fraction(-3, 4), Fraction(9, 5)), (Fraction(5, 7), Fraction(0)),
        (Fraction(-1, 2), Fraction(7, 3))])
    def test_rational_matches_fraction_lcm(self, k0, p00):
        # both walks of rational_mode_construct, P_{mu,0} at (k0, 0) and
        # P_{lam,mu} at (k0, p00), carry the Fraction lcm
        checked = 0
        for lam, mu in bipartitions_up_to(5):
            try:
                F, d = _walk((LaurentSymFunc.const(1), 1), mu, (),
                             _Point((k0, Fraction(0))))
                assert (F, d) == fraction_clear(
                    rational_mode_construct((mu, ()), k0, 0))
                F, d = _walk((F.star(), d), lam, mu, _Point((k0, p00)))
            except SingularParameter:
                continue
            assert (F, d) == fraction_clear(
                rational_mode_construct((lam, mu), k0, p00)), (lam, mu)
            checked += 1
        assert checked > 40


class TestIntScalars:
    """The symbolic step's scalars from ints: the eigenvalue against
    the field, the step's quotient without atoms above, and no field
    arithmetic in the construction (the canonical forms and the cleared
    form are compared with the field in TestFactoredDenominators and
    TestClearedForm)."""

    def test_eigenvalue_matches_the_field(self, cold_memo):
        # n + K*lin - K*P0*m multiplied out in Q(k, p0), for the grown,
        # the mirrored and the empty label alike
        labels = sorted(bipartitions_up_to(7))
        assert labels[0] == ((), ())
        for alpha in labels:
            n, lin, m = eigenvalue_parts(alpha)
            want = rat(n) + K * lin - K * P0 * m
            for got in (construct(alpha).eigenvalue2, eigenvalue_e(alpha)):
                assert type(got) is ParamRat and got == want, alpha
                assert (got.num.terms, got.den.terms) == \
                    (want.num.terms, want.den.terms)
                assert str(got) == str(want) and hash(got) == hash(want)

    def test_no_atom_is_left_above(self, cold_memo):
        # _Point.unclear drops the atoms above in num/den: each step of
        # a cold build to 7 has none to drop
        tops, unclear = [], jack._Point.unclear

        def spy(point, F, num, den, ring=None):
            if point.at is None:
                tops.append((num / den).sides()[0][1])
            return unclear(point, F, num, den, ring)
        with mock.patch.object(jack._Point, "unclear", spy):
            for alpha in bipartitions_up_to(7):
                construct(alpha)
        assert len(tops) > 100 and not any(tops)

    def test_construction_takes_no_field_arithmetic(self, cold_memo):
        # in the style of test_construction_takes_no_gcd: no ParamRat is
        # reduced or combined, and no canonical form is finished by
        # _scalar_canonical, in whichever module holds it
        holders = [mod for name, mod in sys.modules.items()
                   if name.startswith("jacklaurent.")
                   and hasattr(mod, "_scalar_canonical")]
        assert rational in holders and jack in holders
        with contextlib.ExitStack() as stack:
            for name in ("__init__", "__add__", "__sub__", "__mul__",
                         "__truediv__"):
                stack.enter_context(mock.patch.object(
                    ParamRat, name, side_effect=AssertionError(name)))
            for mod in holders:
                stack.enter_context(mock.patch.object(
                    mod, "_scalar_canonical",
                    side_effect=AssertionError("_scalar_canonical")))
            for alpha in bipartitions_up_to(6):
                construct(alpha)


# -- packed coefficients -------------------------------------------------------

def _layouts():
    """(B, DK) pairs and a ParamPoly whose digits and k-degrees fit them,
    balanced digits from -2^(B-1) to 2^(B-1) - 1."""
    return st.sampled_from([(8, 1), (8, 3), (16, 2), (24, 5), (64, 4)]) \
        .flatmap(lambda layout: st.tuples(st.just(layout), st.dictionaries(
            st.tuples(st.integers(0, layout[1] - 1), st.integers(0, 4)),
            st.integers(-2 ** (layout[0] - 1), 2 ** (layout[0] - 1) - 1),
            max_size=12)))


def _poly_divide(c, atoms):
    """The reference: each atom divided out of c by poly_divexact."""
    powers = []
    for a, cap in atoms:
        i = 0
        while i < cap:
            try:
                c = poly_divexact(c, a)
            except ArithmeticError:
                break
            i += 1
        powers.append(i)
    return c, powers


def _division_layout(c):
    """A layout for dividing c: DK = deg_k(c) + 1 and a width that holds
    Mahler's bound on a true quotient, |q| * prod ||a||_1^i <=
    2^(deg_k(c) + deg_p0(c)) * ||c||_1, so no true quotient is
    refused."""
    dk = max(i for i, _ in c.terms)
    height = jack._l1(c) << dk + max(j for _, j in c.terms)
    return jack._Packed(jack._width(height), dk + 1, height)


_k, _p0 = ParamPoly.var_k(), ParamPoly.var_p0()
ATOM_SAMPLE = [1 - _k, 2 - _k * 3, 3 + _k - _k * _p0, 1 + _k * 2 - _k * _p0 * 2]
SMALL_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-50, 50), min_size=1, max_size=8).map(ParamPoly) \
    .filter(lambda q: not q.is_zero())


class TestPackedCoefficients:
    @settings(max_examples=200, deadline=None)
    @given(_layouts())
    def test_pack_unpack_round_trip(self, case):
        (bits, dk), terms = case
        ring = jack._Packed(bits, dk, 0)
        c = ParamPoly(terms)
        assert ring.unpack(ring.pack(c)) == c
        assert ring.weights == (1, 1 << bits, 1 << bits * dk,
                                1 << bits * (dk + 1))

    def test_packing_is_the_value_at_powers_of_two(self):
        ring = jack._Packed(16, 3, 0)
        c = 5 - _k * 7 + _k * _k * _p0 * 9 - _p0 * _p0
        assert ring.pack(c) == c.evaluate(2 ** 16, 2 ** 48)
        x, y = 3 - _k * _p0, _k * 2 + _p0
        assert ring.unpack(ring.pack(x) * ring.pack(y)) == x * y

    def test_too_narrow_layout_is_refused(self):
        with pytest.raises(OverflowError):
            jack._Packed(8, 2, 128)
        assert jack._Packed(8, 2, 127).bits == 8

    @settings(max_examples=60, deadline=None)
    @given(SMALL_POLYS, st.lists(st.integers(0, 2), min_size=4, max_size=4))
    def test_division_matches_poly_divexact_on_exact_quotients(self, q,
                                                               powers):
        c = q
        for a, e in zip(ATOM_SAMPLE, powers):
            c = c * a ** e
        atoms = [(a, 3) for a in ATOM_SAMPLE]
        ring = _division_layout(c)
        got = ring.divide(ring.pack(c), atoms)
        assert got == _poly_divide(c, atoms)
        # q itself may hold a further power of an atom
        assert all(i >= e for i, e in zip(got[1], powers))

    @settings(max_examples=60, deadline=None)
    @given(SMALL_POLYS, st.integers(1, 9))
    def test_division_matches_poly_divexact_off_the_quotients(self, q, r):
        # q * a + r is divisible by no atom a, whatever the int divisions
        for a in ATOM_SAMPLE:
            c = q * a + r
            atoms = [(b, 2) for b in ATOM_SAMPLE]
            ring = _division_layout(c)
            got = ring.divide(ring.pack(c), atoms)
            assert got == _poly_divide(c, atoms)

    @pytest.mark.parametrize("bits", [8, 16, 64])
    def test_false_positive_is_refused(self, bits):
        # k and p0 are both 1 modulo 2^B - 1, so the packed 1 - k divides
        # the packed -4 + 4*k*p0 as ints; the guard refuses the quotient
        # and poly_divexact finds 1 - k does not divide it
        c, a = 4 * _k * _p0 - 4, 1 - _k
        ring = jack._Packed(bits, 2, 0)
        assert ring.pack(c) % ring.pack(a) == 0
        with mock.patch.object(jack, "_divide_out",
                               wraps=jack._divide_out) as fallback:
            assert ring.divide(ring.pack(c), [(a, 1)]) == (c, [0])
        fallback.assert_called_once_with(c, a, 1)

    def test_true_quotient_needs_no_fallback(self):
        # the width holds Mahler's bound, so the guard accepts a quotient
        # where every int division was a polynomial one; (1, 1), where
        # the packed 1 - k vanishes modulo 2^B - 1, is no zero of c / a^2
        a, b = 1 - _k, 3 + _k - _k * _p0
        c = a ** 2 * b * (2 + _p0 * 5 - _k * 6)
        ring = _division_layout(c)
        with mock.patch.object(jack, "_divide_out",
                               side_effect=AssertionError):
            got = ring.divide(ring.pack(c), [(a, 3), (b, 3)])
        assert got == (2 + _p0 * 5 - _k * 6, [2, 1])


NARROW_LABEL = ((3, 2), (2, 1))


@pytest.fixture
def cold_memo():
    """Empty memos before and after, so nothing built under a patched
    layout outlives the test."""
    clear_caches()
    yield
    clear_caches()


def _l1_total(F):
    """||F||_1, the sum of the L1 norms of F's ParamPoly coefficients."""
    return sum(map(jack._l1, F.terms.values()))


def _l2_closure(support):
    """The monomials that L2, applied again and again, reaches from the
    monomials of `support`."""
    reach, todo = set(support), list(support)
    while todo:
        for m in cms_L2_direct(LaurentSymFunc({todo.pop(): RAT_ONE})).terms:
            if m not in reach:
                reach.add(m)
                todo.append(m)
    return reach


def _row_l1(m):
    """||L2(m)||_1 for the monomial m: the sum of the L1 norms of the
    coefficients of L2(m), which lie in Z[k, p0]."""
    image = cms_L2_direct(LaurentSymFunc({m: RAT_ONE}))
    return sum(jack._l1(c.num) for c in image.terms.values())


class TestNarrowWidth:
    def test_every_factor_stays_inside_the_layout(self, cold_memo,
                                                  monkeypatch):
        # every symbolic step to |lam|+|mu| <= 5, read after each factor
        # L2 - e: the support stays in the closure of F's support under L2,
        # and the L1 norm under the bound the layout's width was sized
        # for; the most L2 multiplies a norm by over that closure is the
        # closed form in the bidegrees of F
        steps = []
        layout, weighted = jack._layout, jack.cms_L2_weighted
        unclear = jack._Point.unclear

        def recording_layout(F, factors):
            ring = layout(F, factors)
            steps.append((F, factors, ring, []))
            return ring

        def recording_weighted(out, weights, shift=0):
            steps[-1][3].append(out)
            return weighted(out, weights, shift)

        def recording_unclear(self, F, num, den, ring=None):
            steps[-1][3].append(F)
            return unclear(self, F, num, den, ring)
        monkeypatch.setattr(jack, "_layout", recording_layout)
        monkeypatch.setattr(jack, "cms_L2_weighted", recording_weighted)
        monkeypatch.setattr(jack._Point, "unclear", recording_unclear)
        labels = bipartitions_up_to(5)
        for alpha in labels:
            construct(alpha)
        # one step per label the construction grows: its first diagram
        # is not empty and it is not read as the star of its mirror
        assert len(steps) == sum(1 for a in labels
                                 if a[0] and not jack._mirrored(a))
        for F, factors, ring, outs in steps:
            assert len(outs) == len(factors) + 1
            reach = _l2_closure(F.terms)
            most = max(map(_row_l1, reach))
            assert most == max(map(_l2_bound, F.terms))
            bound = _l1_total(F)
            for i, out in enumerate(outs):
                if i:
                    bound *= most + sum(map(abs, factors[i - 1][0]))
                assert out.terms.keys() <= reach
                assert _l1_total(out.map_coeffs(ring.unpack)) <= bound
            assert ring.height == bound
            assert ring.bits == jack._width(bound)

    def test_without_the_guard_the_narrow_width_is_wrong(self, cold_memo,
                                                          monkeypatch):
        # the label's digits do outgrow ||F||_1: a layout sized to it
        # alone lets them wrap
        want = str(construct(NARROW_LABEL))
        clear_caches()
        layout = jack._layout

        def narrow(F, factors):
            height = _l1_total(F)
            return jack._Packed(jack._width(height), layout(F, factors).dk,
                                height)
        monkeypatch.setattr(jack, "_layout", narrow)
        assert str(construct(NARROW_LABEL)) != want

    def test_guard_raises_when_no_wider_slot(self, cold_memo, monkeypatch):
        monkeypatch.setattr(jack, "_width", lambda height: 16)
        with pytest.raises(OverflowError):
            construct(NARROW_LABEL)

    def test_construction_takes_no_gcd(self, cold_memo):
        with mock.patch.object(rational, "poly_gcd",
                               side_effect=AssertionError):
            text = "\n".join(str(construct(a))
                             for a in bipartitions_up_to(5))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_UP_TO_5


def _canonical_chain(lam):
    """(shape, box) for each step that grows lam from the empty diagram,
    adding last the deepest removable box."""
    steps = []
    while lam:
        box = max(remove_box_candidates(lam))
        lam = remove_box(lam, box)
        steps.append((lam, box))
    return steps[::-1]


def _singular_by_closed_forms(alpha, k0, p00):
    """Whether the closed forms make (k0, p00) singular for the numeric
    construction of alpha: along the canonical chain of mu at (k0, 0),
    or of lam at (k0, p00) with mu fixed, two neighbour eigenvalues
    coincide or the transition coefficient is zero or has a pole."""
    lam, mu = alpha
    for diagram, other, point in ((mu, (), (k0, 0)), (lam, mu, (k0, p00))):
        for shape, box in _canonical_chain(diagram):
            evs = [eigenvalue_e(gamma).specialize(*point)
                   for gamma in _near(shape, other)]
            if len(set(evs)) < len(evs):
                return True
            try:
                if pieri_V(box, (shape, other)).specialize(*point) == 0:
                    return True
            except PoleAtSpecialization:
                return True
    return False


SINGULAR_MESSAGES = [
    (((2,), ()), 1, 5, "eigenvalue collision at k=1, p0=5: "
                       "((2,), ()) vs ((1, 1), ())"),
    (((), (2,)), 1, 5, "eigenvalue collision at k=1, p0=0: "
                       "((2,), ()) vs ((1, 1), ())"),
    (((), (2, 1)), Fraction(1, 2), -3, "vanishing transition "
     "coefficient at box (2, 1) at k=1/2, p0=0"),
]


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


class TestRationalMode:
    @pytest.mark.parametrize("alpha,k0,p00", [
        (((1,), (1,)), Fraction(-1, 2), Fraction(7, 3)),
        (((2,), (1,)), Fraction(-5, 7), Fraction(13, 2)),
        (((1, 1), (2,)), Fraction(-3, 4), Fraction(9, 5)),
    ])
    def test_agrees_with_symbolic(self, alpha, k0, p00):
        fast = rational_mode_construct(alpha, k0, p00)
        slow = construct(alpha).f.specialize(k0, p00)
        assert fast == slow

    @settings(max_examples=25, deadline=None)
    @given(SMALL_RATIONALS, SMALL_RATIONALS)
    def test_agrees_with_symbolic_at_drawn_points(self, k0, p00):
        for alpha in bipartitions_up_to(3):
            singular = _singular_by_closed_forms(alpha, k0, p00)
            try:
                fast = rational_mode_construct(alpha, k0, p00)
            except SingularParameter:
                assert singular, alpha
                continue
            assert not singular, alpha
            try:
                slow = construct(alpha).f.specialize(k0, p00)
            except PoleAtSpecialization:
                continue
            assert fast == slow, alpha

    @pytest.mark.parametrize("k0,p00", [(Fraction(-3, 4), Fraction(9, 5)),
                                        (Fraction(5, 7), Fraction(0))])
    @pytest.mark.parametrize("alpha", [a for a in bipartitions_up_to(5)
                                       if size(a[0]) + size(a[1]) == 5])
    def test_size_five_over_the_integers(self, alpha, k0, p00):
        # the integer ring step gives Fraction coefficients equal to the
        # symbolic function read at the point
        fast = rational_mode_construct(alpha, k0, p00)
        assert fast == construct(alpha).f.specialize(k0, p00)
        assert all(type(c) is Fraction for c in fast.terms.values())

    def test_ring_is_the_integers_at_a_point(self):
        point = _Point((Fraction(-3, 4), Fraction(9, 5)))
        assert point.weights == (20, -15, 36, -27)
        f = construct(((1,), (1,))).f.specialize(Fraction(-3, 4),
                                                 Fraction(9, 5))
        F, d = fraction_clear(f)
        assert all(type(c) is int for c in F.terms.values())
        assert F == f.scale(d)
        assert point.unclear(F, 1, d) == (F, d)
        # the eigenvalues are 20*e(gamma), ints like the weights
        for gamma in _near((2, 1), (1,)):
            e = jack._read(eigenvalue_parts(gamma), point.weights)
            assert type(e) is int
            assert e == 20 * eigenvalue_e(gamma).specialize(
                Fraction(-3, 4), Fraction(9, 5)), gamma

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    @example(Fraction(0))
    @example(Fraction(1))
    @example(Fraction(1, 2))
    def test_pieri_at_rational_points(self, k0):
        # V = vnum/vden in ints at (k0, 0), with vden = 0 exactly at the
        # poles of pieri_V
        point = _Point((k0, Fraction(0)))
        for lam in partitions_up_to(5):
            for box in add_box_candidates(lam):
                vnum, vden = point.pieri(box, (lam, ()))
                assert type(vnum) is int and type(vden) is int
                try:
                    value = pieri_V(box, (lam, ())).specialize(k0, 0)
                except PoleAtSpecialization:
                    assert vden == 0, (box, lam)
                    continue
                assert vden != 0 and Fraction(vnum, vden) == value, (box, lam)

    def test_pieri_cancels_up_to_scale(self):
        # -2k above and -k below: 2/(1 - k), which is 2 at k = 0
        point = _Point((Fraction(0), Fraction(0)))
        assert point.pieri((2, 1), ((1,), ())) == (2, 1)
        # 1 - k above and below: 3/(1 - 2k), which is -3 at k = 1
        point = _Point((Fraction(1), Fraction(0)))
        vnum, vden = point.pieri((3, 1), ((1, 1), ()))
        assert Fraction(vnum, vden) == -3

    def test_at_k_zero(self):
        # pieri_V((2, 1), ((1,), ())) is -2k/(-k(1 - k)): the transition
        # coefficient is read from its cancelled form, 2 at k = 0
        alpha, p00 = ((1, 1), ()), Fraction(3, 7)
        assert rational_mode_construct(alpha, 0, p00) == \
            construct(alpha).f.specialize(0, p00)

    def test_collision_both_sides(self):
        with pytest.raises(SingularParameter):
            rational_mode_construct(((2,), ()), 1, 5)
        with pytest.raises(SingularParameter):
            rational_mode_construct(((), (2,)), 1, 5)

    @pytest.mark.parametrize("alpha,k0,p00,message", SINGULAR_MESSAGES)
    def test_singular_messages(self, alpha, k0, p00, message):
        with pytest.raises(SingularParameter) as exc:
            rational_mode_construct(alpha, k0, p00)
        assert str(exc.value) == message

    def test_integer_weight_preserved(self):
        # every monomial of P_{lam,mu} has p-weight |lam| - |mu|
        f = construct(((2, 1), (1,))).f
        for m, _ in f.sorted_terms():
            assert sum(i * e for i, e in m) == 2, m


def _seeded_points(seed, n):
    """n points (k0, p00) of Fractions with numerators and denominators
    up to 9, either sign, drawn from the seed."""
    rng = random.Random(seed)
    return [tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                           rng.randint(1, 9)) for _ in range(2))
            for _ in range(n)]


def _numeric(labels, points):
    """{(alpha, point): rational_mode_construct there, or the message of
    its SingularParameter}."""
    out = {}
    for point in points:
        for alpha in labels:
            try:
                out[alpha, point] = rational_mode_construct(alpha, *point)
            except SingularParameter as exc:
                out[alpha, point] = str(exc)
    return out


class TestRouteIndependence:
    """The numeric mode and construct read the same step plans
    (jack._plan): whichever fills them first, each gives what it gives
    alone."""

    # at the second point, k = 4, four labels up to size 5 are singular
    POINTS = _seeded_points(2, 3)

    def _symbolic(self, labels):
        text = "\n".join(str(construct(a)) for a in labels)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_UP_TO_5

    def _agrees(self, numeric):
        singular = 0
        for (alpha, point), got in numeric.items():
            if isinstance(got, str):
                singular += 1
                continue
            assert got == construct(alpha).f.specialize(*point), (alpha,
                                                                  point)
        return singular

    def test_cold_and_warm(self, cold_memo):
        labels = bipartitions_up_to(5)
        cold = _numeric(labels, self.POINTS)
        assert jack._plan.cache_info().currsize
        self._symbolic(labels)
        assert self._agrees(cold) == 4
        clear_caches()
        self._symbolic(labels)
        hits = jack._plan.cache_info().hits
        warm = _numeric(labels, self.POINTS)
        assert jack._plan.cache_info().hits > hits
        assert warm.keys() == cold.keys()
        for key, got in warm.items():
            assert got == cold[key], key
            assert type(got) is type(cold[key]), key
        assert self._agrees(warm) == 4

    @pytest.mark.parametrize("alpha,k0,p00,message", SINGULAR_MESSAGES)
    def test_singular_messages_in_both_orders(self, cold_memo, alpha, k0,
                                              p00, message):
        for warm in (False, True):
            clear_caches()
            if warm:
                for beta in bipartitions_up_to(size(alpha[0])
                                               + size(alpha[1])):
                    construct(beta)
            with pytest.raises(SingularParameter) as exc:
                rational_mode_construct(alpha, k0, p00)
            assert str(exc.value) == message, warm


def _peeled_order(lam):
    """The canonical order as construct first defined it: peel the
    deepest removable box off lam until it is empty, then reverse."""
    peeled = []
    while lam:
        box = max(remove_box_candidates(lam))
        peeled.append(box)
        lam = remove_box(lam, box)
    return peeled[::-1]


def _pieri_by_sides(point, box, alpha):
    """(vnum, vden) at a rational point from the two sides of V, as
    _Point.pieri read them before it made one pass over the atoms."""
    w = point.weights
    (n, up), (d, down) = pieri_V(box, alpha).sides()
    return tuple(c * w[0] ** sum(other.values()) * prod(
        sum(x * w[i + 2 * j] for (i, j), x in a.terms.items()) ** e
        for a, e in atoms.items())
        for c, atoms, other in ((n, up, down), (d, down, up)))


class TestIntStep:
    """The point-free data of a step read as ints: the plan's parts by
    box arithmetic, V at a point in one pass over its atoms, and the p_1
    shift from a table, each against the route it replaced."""

    def test_canonical_order_is_the_peeling_route(self):
        for lam in partitions_up_to(12):
            assert jack._canonical_order(lam) == _peeled_order(lam), lam

    def test_plan_parts_by_box_arithmetic(self):
        plan = jack._plan.__wrapped__
        for alpha in bipartitions_up_to(8):
            lam, mu = alpha
            near = jack._neighbors(alpha)
            for box in add_box_candidates(lam):
                beta, parts, at = plan(alpha, box)
                assert beta == (add_box(lam, box), mu)
                assert parts == tuple(map(eigenvalue_parts, near)), alpha
                assert at == near.index(beta), (alpha, box)

    def test_plan_refuses_a_box_it_cannot_add(self):
        with pytest.raises(ValueError, match="not addable"):
            jack._plan.__wrapped__(((2,), (1,)), (2, 2))

    def test_pieri_at_a_point_is_the_sides_formula(self):
        # at seeded points, and at points where an atom of V vanishes:
        # every atom is x - y*k, so V's atoms vanish at k = x/y
        labels = bipartitions_up_to(6)
        roots = {Fraction(-a.terms.get((0, 0), 0), a.terms[(1, 0)])
                 for lam, mu in labels for box in add_box_candidates(lam)
                 for a in pieri_V(box, (lam, mu)).atoms}
        assert {1, Fraction(1, 2), 2} <= roots
        points = _seeded_points(7, 4) + [(r, Fraction(5, 3)) for r in roots]
        points.append((Fraction(0), Fraction(0)))
        for point in map(_Point, points):
            for lam, mu in labels:
                # every addable box, and one that is not, where V is 0
                for box in add_box_candidates(lam) + [(1, size(lam) + 2)]:
                    got = point.pieri(box, (lam, mu))
                    assert got == _pieri_by_sides(point, box, (lam, mu)), \
                        (point.at, box, lam)
                    assert all(type(v) is int for v in got)

    def test_p1_table_is_times_one(self, cold_memo):
        functions = [construct(a).f for a in bipartitions_up_to(6)]
        # the symbolic steps fill the table too, not rational mode alone
        assert jack._times_p1.cache_info().currsize
        for f in functions:
            for m in f.terms:
                assert LaurentSymFunc({jack._times_p1(m): 1}) == \
                    LaurentSymFunc({m: 1}).times(1), m
