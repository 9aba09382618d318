"""Construction of the Jack-Laurent symmetric functions: base cases,
frozen small eigenfunctions, eigenvalue checks, Pieri recursion,
involutions, growth-order independence, and numeric-parameter mode."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacklaurent.rational import (
    K, P0, RAT_ONE, RAT_ZERO, rat, PoleAtSpecialization, SingularParameter,
)
from jacklaurent.laurent import LaurentSymFunc
from jacklaurent.partitions import (
    add_box, add_box_candidates, bipartitions_up_to, remove_box,
    remove_box_candidates,
)
from jacklaurent.closed_forms import eigenvalue_e, pieri_V
from jacklaurent.jack import (
    clear_cache, construct, construct_via_order, eigen_check_all,
    jack_positive, pieri_identity_check, rational_mode_construct,
    specialize_function, star_symmetry_check, theta_duality_check,
)

g = LaurentSymFunc.gen
e2 = (g(1, 2) - g(2)) * rat(1, 2)


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


class TestPieriRecursion:
    def test_identity(self):
        for alpha in [((), ()), ((1,), ()), ((), (1,)), ((1,), (1,)),
                      ((2,), (1,)), ((1, 1), (1,)), ((1,), (2,))]:
            assert pieri_identity_check(alpha), alpha


class TestInvolutions:
    def test_star(self):
        assert star_symmetry_check(((1,), (1,)))
        assert star_symmetry_check(((2,), (1,)))

    def test_theta(self):
        assert theta_duality_check(((1,), ()))
        assert theta_duality_check(((1,), (1,)))
        assert theta_duality_check(((2,), ()))


class TestOrderIndependence:
    def test_two_growth_orders(self):
        a = construct_via_order(((2, 1), (1,)), [(1, 1), (1, 2), (2, 1)])
        b = construct_via_order(((2, 1), (1,)), [(1, 1), (2, 1), (1, 2)])
        assert a.f == b.f
        assert a.f == construct(((2, 1), (1,))).f

    def test_cache_reset(self):
        clear_cache()
        assert construct(((1,), (1,))).f.coeff(((-1, 1), (1, 1))) == RAT_ONE


class TestSpecialization:
    def test_regular_point(self):
        p11 = construct(((1,), (1,)))
        num = specialize_function(p11, -1, 5)
        assert num == g(1) * g(-1) - LaurentSymFunc.one()

    def test_pole_names_offender(self):
        p11 = construct(((1,), (1,)))
        with pytest.raises(PoleAtSpecialization):
            specialize_function(p11, 1, 2)


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
            near = [(add_box(shape, x), other)
                    for x in add_box_candidates(shape)]
            near += [(shape, remove_box(other, y))
                     for y in remove_box_candidates(other)]
            evs = [eigenvalue_e(gamma).specialize(*point) for gamma in near]
            if len(set(evs)) < len(evs):
                return True
            try:
                if pieri_V(box, (shape, other)).specialize(*point) == 0:
                    return True
            except PoleAtSpecialization:
                return True
    return False


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


class TestRationalMode:
    @pytest.mark.parametrize("alpha,k0,p00", [
        (((1,), (1,)), Fraction(-1, 2), Fraction(7, 3)),
        (((2,), (1,)), Fraction(-5, 7), Fraction(13, 2)),
        (((1, 1), (2,)), Fraction(-3, 4), Fraction(9, 5)),
    ])
    def test_agrees_with_symbolic(self, alpha, k0, p00):
        fast = rational_mode_construct(alpha, k0, p00)
        slow = specialize_function(construct(alpha), k0, p00)
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
                slow = specialize_function(construct(alpha), k0, p00)
            except PoleAtSpecialization:
                continue
            assert fast == slow, alpha

    def test_collision_both_sides(self):
        with pytest.raises(SingularParameter):
            rational_mode_construct(((2,), ()), 1, 5)
        with pytest.raises(SingularParameter):
            rational_mode_construct(((), (2,)), 1, 5)

    def test_integer_weight_preserved(self):
        # every monomial of P_{lam,mu} has p-weight |lam| - |mu|
        f = construct(((2, 1), (1,))).f
        for m, _ in f.sorted_terms():
            assert sum(i * e for i, e in m) == 2, m
