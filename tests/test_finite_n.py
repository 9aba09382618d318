"""Finite-N oracle: symmetric Laurent polynomials in N variables, the
restriction homomorphism phi_N, the finite CMS operator, triangular
eigenpolynomials, and the torus inner product at negative integer k."""

import re
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from math import lcm
from unittest import mock

import pytest

from jacklaurent.rational import K, RAT_ONE, rat, as_rat, poly_divexact, \
    NotEigenvector, ParamPoly, SingularParameter, PoleAtSpecialization, \
    _divide_out
from jacklaurent.laurent import LaurentSymFunc, parse_element
from jacklaurent.operators import cms_L
from jacklaurent.closed_forms import Factored, expand, pieri_U
from jacklaurent.partitions import bipartitions_up_to, chi_N, \
    dominance_leq, partitions_of, partitions_up_to
from jacklaurent.jack import construct, jack_positive
from jacklaurent import finite_n, rational, verify
from jacklaurent.finite_n import (
    SymLaurentPolyN, cms_N, constant_term_delta, euler_N,
    finite_pieri_check, hc_eigen_check_N, involution_check_N,
    jack_laurent_poly_N, jack_poly_N, phi_N_map, pieri_V_N, power_sum_N,
    torus_form,
)

g = LaurentSymFunc.gen
ORBIT = SymLaurentPolyN.orbit


# every non-increasing sequence with N <= 3 entries in -2..2
CHIS = [tuple(sorted(c, reverse=True)) for N in (1, 2, 3)
        for c in combinations_with_replacement(range(-2, 3), N)]


# -- test-only references: the bodies these functions had before their
# int tables

def reference_phi_N_map(f, N):
    """phi_N as the product of the power sums, one factor at a time."""
    out = SymLaurentPolyN.zero(N)
    for m, c in f.terms.items():
        term = SymLaurentPolyN.one(N) * c.substitute_p0(Fraction(N))
        for i, e in m:
            for _ in range(e):
                term = term * power_sum_N(i, N)
        out = out + term
    return out


def reference_cms_N(f, k=K):
    """L_{k,N} by the expand-and-bump loop over every monomial of f."""
    N = f.N
    out = {}

    def bump(key, c):
        v = out.get(key)
        out[key] = c if v is None else v + c

    for a, c in f.expand().items():
        diag = sum(x * x for x in a)
        if diag:
            bump(a, c * diag)
        for i in range(N):
            for j in range(i + 1, N):
                d = a[i] - a[j]
                if d <= 0:
                    continue
                kd = k * d
                bump(a, -(c * kd))
                swap = list(a)
                swap[i], swap[j] = swap[j], swap[i]
                bump(tuple(swap), -(c * kd))
                mid = list(a)
                for _ in range(d - 1):
                    mid[i] -= 1
                    mid[j] += 1
                    bump(tuple(mid), -(c * kd * 2))
    return SymLaurentPolyN.from_full(N, out)


@cache
def reference_delta_expansion(m, N):
    """prod_{i != j} (1 - x_i/x_j)^m multiplied out in full, one factor
    at a time, as a dict from exponent vectors to ints."""
    full = {(0,) * N: 1}
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            for _ in range(m):
                nxt = {}
                for a, c in full.items():
                    nxt[a] = nxt.get(a, 0) + c
                    b = list(a)
                    b[i] += 1
                    b[j] -= 1
                    b = tuple(b)
                    nxt[b] = nxt.get(b, 0) - c
                full = {a: c for a, c in nxt.items() if c}
    return full


def reference_torus_form(f, g, k_neg_int, N):
    """The torus form summed over Fractions, term by term, against the
    expanded weight Delta^m."""
    delta = reference_delta_expansion(-k_neg_int, N)
    ct = delta[(0,) * N]
    k0 = Fraction(k_neg_int)

    def numeric(h):
        return {a: as_rat(c).specialize(k0, 0)
                for a, c in h.expand().items()}
    total = Fraction(0)
    gb = numeric(g)
    for a, ca in numeric(f).items():
        for b, cb in gb.items():
            w = delta.get(tuple(y - x for x, y in zip(a, b)))
            if w:
                total += ca * cb * w
    return total / ct


def _pad(delta, N):
    return delta + (0,) * (N - len(delta))


def reference_triangle(chi, N):
    """(a, nu, cands, actions) of the triangular solve for the Laurent
    label chi: the shift a and partition nu = chi + a, the partitions
    below nu in dominance, nu first, in an order that solves each after
    the ones L_{k,N} sends to it, and the image of each orbit sum,
    {eta: (x, y)} for the coefficient x + k*y of m_eta."""
    a = max(0, -chi[-1])
    nu = tuple(x + a for x in chi if x + a)
    cands = sorted((delta for delta in partitions_of(sum(nu))
                    if len(delta) <= N
                    and dominance_leq(_pad(delta, N), _pad(nu, N))),
                   key=lambda delta: sum(i * x for i, x in enumerate(delta)))
    actions = {delta: {tuple(x for x in eta if x): xy
                       for eta, xy in
                       finite_n._cms_N_image(_pad(delta, N)).items()}
               for delta in cands}
    return a, nu, cands, actions


def field_jack_laurent_poly_N(chi, N):
    """jack_laurent_poly_N with k symbolic by the triangular solve in Q(k):
    each coefficient the ParamRat sum of a * c_eta over its gap, reduced
    by the gcd, the route the solve took before it went fraction-free."""
    a, nu, cands, xy = reference_triangle(chi, N)
    actions = {delta: {eta: x + K * y for eta, (x, y) in image.items()}
               for delta, image in xy.items()}
    s = actions[nu].get(nu, 0)
    coeffs = {nu: RAT_ONE}
    for delta in cands[1:]:
        total = 0
        for eta, c_eta in coeffs.items():
            if delta in actions[eta]:
                total = total + actions[eta][delta] * c_eta
        coeffs[delta] = total / (s - actions[delta].get(delta, 0))
    return SymLaurentPolyN(N, {_pad(delta, N): c
                               for delta, c in coeffs.items()}).shift(-a)


def fraction_jack_laurent_poly_N(chi, N, k0):
    """jack_laurent_poly_N at a rational k0 by the triangular solve on
    Fractions, the route it took before it read the fraction-free solve:
    SingularParameter at the first gap that vanishes at k0, whatever the
    sum over it."""
    a, nu, cands, actions = reference_triangle(chi, N)
    sx, sy = actions[nu].get(nu, (0, 0))
    coeffs = {nu: Fraction(1)}
    for delta in cands[1:]:
        total = 0
        for eta, c_eta in coeffs.items():
            xy = actions[eta].get(delta)
            if xy is not None:
                total = total + (xy[0] + k0 * xy[1]) * c_eta
        x, y = actions[delta].get(delta, (0, 0))
        gap = sx - x + k0 * (sy - y)
        if not gap:
            raise SingularParameter(
                "eigenvalue collision at k=%s: %s vs %s" % (k0, nu, delta))
        coeffs[delta] = total / gap
    return SymLaurentPolyN(N, {_pad(delta, N): c
                               for delta, c in coeffs.items()}).shift(-a)


def _chis_up_to(n, N):
    """chi_N(alpha, N) for every label with |lam|+|mu| <= n that does not
    restrict to zero in N variables."""
    return sorted({chi_N(a, N) for a in bipartitions_up_to(n)
                   if len(a[0]) + len(a[1]) <= N})


def c_chi(chi, r, i, b):
    """chi_r - chi_i - 1 + k*(r+1-i) + b."""
    base = rat(chi[r - 1] - chi[i - 1] - 1) + K * (r + 1 - i)
    return base + b


def field_pieri_V_N(i, chi):
    """pieri_V_N as the product of its c_chi factors in Q(k), each step
    reduced there: over r < i, (c + 1)(c - 2k) / [(c + 1 - k)(c - k)]
    with c = c_chi(chi, r, i, 0); 0 when chi + e_i is not
    non-increasing."""
    if i > 1 and chi[i - 2] == chi[i - 1]:
        return rat(0)
    v = RAT_ONE
    for r in range(1, i):
        v = v * c_chi(chi, r, i, 1) * c_chi(chi, r, i, -2 * K) / (
            c_chi(chi, r, i, RAT_ONE - K) * c_chi(chi, r, i, -K))
    return v


def reference_finite_pieri(chi, N):
    """The finite Pieri identity multiplied out in Q(k): SymLaurentPolyN
    products over full monomials and the ParamRat coefficients of
    pieri_V_N, multiplied out."""
    lhs = power_sum_N(1, N) * jack_laurent_poly_N(chi, N)
    rhs = SymLaurentPolyN.zero(N)
    for i in range(1, N + 1):
        v = finite_n.pieri_V_N(i, chi).to_rat()
        if v.is_zero():
            continue
        up = chi[:i - 1] + (chi[i - 1] + 1,) + chi[i:]
        rhs = rhs + jack_laurent_poly_N(up, N) * v
    return lhs == rhs


def _finite_pieri_labels():
    """chi_N(alpha, 3) for every label with |lam|+|mu| <= 5 that does
    not restrict to zero at N = 3, and a few sequences at N = 4."""
    at3 = sorted({chi_N(a, 3) for a in bipartitions_up_to(5)
                  if len(a[0]) + len(a[1]) <= 3})
    at4 = [(1, 0, 0, 0), (1, 1, 0, -1), (2, 1, -1, -1), (2, 0, 0, -2)]
    return [(chi, 3) for chi in at3] + [(chi, 4) for chi in at4]


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
                    right = (euler_N, cms_N)[r - 1](phi_N_map(fn, N))
                    assert left == right, (r, N, str(fn))


class TestIntTables:
    """phi_N_map, cms_N and torus_form against their earlier bodies."""

    @pytest.mark.parametrize("chi", CHIS)
    def test_cms_N_on_an_orbit(self, chi):
        N = len(chi)
        m = ORBIT(chi, N)
        assert cms_N(m) == reference_cms_N(m)
        k0 = Fraction(-1, 2)
        q = SymLaurentPolyN(N, {chi: Fraction(3, 7)})
        assert cms_N(q, k0) == reference_cms_N(q, k0)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_cms_N_on_a_sum(self, N):
        # terms that share targets, symbolic and at k = -1/2
        chis = [chi for chi in CHIS if len(chi) == N]
        f = SymLaurentPolyN(N, {chi: K + i for i, chi in enumerate(chis)})
        assert cms_N(f) == reference_cms_N(f)
        k0 = Fraction(-1, 2)
        q = SymLaurentPolyN(N, {chi: Fraction(i - 3, i + 1)
                                for i, chi in enumerate(chis)})
        assert cms_N(q, k0) == reference_cms_N(q, k0)
        assert cms_N(q, k0) == reference_cms_N(q.map_coeffs(as_rat), k0)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_phi_N_map_on_labels(self, N):
        for alpha in bipartitions_up_to(3):
            f = construct(alpha).f
            assert phi_N_map(f, N) == reference_phi_N_map(f, N), alpha

    @pytest.mark.parametrize("i", [1, -1, 2, -2, 3, -3])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_times_power_sum(self, N, i):
        # p_i * f by the orbit rule against the product through every
        # rearrangement, on orbits with negative and repeated entries
        chis = combinations_with_replacement(range(2, -3, -1), N)
        f = SymLaurentPolyN(N, {chi: K + j for j, chi in enumerate(chis)})
        assert finite_n._times_power_sum(f, i) == power_sum_N(i, N) * f

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_phi_N_map_on_monomials(self, N):
        f = parse_element("p2^2*p-1 + (k/(p0+1))*p1^3*p-2 + p-1^2 - 3")
        assert phi_N_map(f, N) == reference_phi_N_map(f, N)

    @pytest.mark.parametrize("chi", [chi for chi in CHIS if len(chi) > 1])
    def test_torus_form_on_fractions_and_symbols(self, chi):
        N = len(chi)
        f = jack_laurent_poly_N(chi, N, k0=-1)
        g = SymLaurentPolyN(N, {chi: K + 2, (0,) * N: rat(1, 3)})
        for k in (-1, -2, -3):
            for a, b in ((f, f), (f, g), (g, f), (g, g)):
                assert torus_form(a, b, k, N) == \
                    reference_torus_form(a, b, k, N), (k, str(a), str(b))

    @pytest.mark.parametrize("chi", [
        (1, 0, 0, -1), (2, 1, 1, 0), (1, 1, -1, -1), (2, 0, -1, -1),
        (1, 0, 0, 0, -1), (1, 1, 0, -1, -1)])
    def test_torus_form_in_four_and_five_variables(self, chi):
        # Laurent labels with repeated parts; f a polynomial on Fractions,
        # g on symbolic and Fraction coefficients with orbits of every
        # size, so f V^m and g V^m differ in support
        N = len(chi)
        f = jack_laurent_poly_N(chi, N, k0=-1)
        g = SymLaurentPolyN(N, {chi: K + 2, (0,) * N: rat(1, 3),
                                (1,) + (0,) * (N - 2) + (-1,): K * K - 1,
                                (2,) + (0,) * (N - 1): Fraction(-5, 7)})
        for k in (-1, -2):
            for a, b in ((f, f), (f, g), (g, f), (g, g)):
                assert torus_form(a, b, k, N) == \
                    reference_torus_form(a, b, k, N), (k, str(a), str(b))

    @pytest.mark.parametrize("k0, N", [(verify.TORUS_K, verify.TORUS_N),
                                       (verify.FINITE_K, verify.FINITE_N)])
    def test_specialize_before_the_map(self, k0, N):
        # the checks' route equals the symbolic one at both check points
        for alpha in bipartitions_up_to(4):
            f = construct(alpha).f
            assert phi_N_map(f.specialize(k0, N), N) == \
                phi_N_map(f, N).substitute_k(k0), alpha


class TestRestrictedRoute:
    """verify._restricted, the one route from P to N variables of the
    norms and finite-n checks: the cleared form restricted over Z[k]."""

    @pytest.mark.parametrize("point", ["torus", "finite"])
    def test_equals_the_field_routes(self, point):
        # at both check points, for every label up to 6: the Fraction
        # route where P specializes, else the ParamRat route at k0
        on_rats = []
        for alpha in sorted(bipartitions_up_to(6)):
            lam, mu = alpha
            k0, N = (verify.TORUS_K, max(verify.TORUS_N, len(lam) + len(mu))) \
                if point == "torus" else (verify.FINITE_K, verify.FINITE_N)
            f = construct(alpha).f
            try:
                want = phi_N_map(f.specialize(k0, N), N)
            except PoleAtSpecialization:
                on_rats.append(alpha)
                want = phi_N_map(f, N).substitute_k(k0).map_coeffs(
                    lambda c: c.specialize(k0, N))
            got = verify._restricted(construct(alpha).cleared, k0, N)
            assert got == want, alpha
            assert all(type(c) is Fraction for c in got.terms.values())
        if point == "finite":
            assert ((1,), (1, 1, 1, 1, 1)) in on_rats
        else:
            assert not on_rats

    def test_pole_of_one_coefficient_takes_no_gcd(self):
        # a coefficient of P[1; 1,1,1,1,1] has a pole at (k, p0) =
        # (-1/2, 3), its image in three variables has none; the check
        # passes on the cleared form with no gcd
        alpha = ((1,), (1, 1, 1, 1, 1))
        with pytest.raises(PoleAtSpecialization):
            construct(alpha).f.specialize(verify.FINITE_K, verify.FINITE_N)
        with mock.patch.object(rational, "poly_gcd",
                               wraps=rational.poly_gcd) as calls:
            assert verify.check_finite_n(alpha) == \
                (True, {"N": 3, "expected": "0"})
        assert calls.call_count == 0

    def test_atom_vanishing_at_k0_divides_out(self):
        # (3 + 6k)/(2 + 4k) * p1 and (1 + 5k - k*p0)/(2 - 2k*p0 + 10k)
        # * p1, whose denominators vanish at k = -1/2 (the second at
        # p0 = 3 only), restrict to 3/2 and 1/2 times m_(1,0,0)
        k, p0 = ParamPoly.var_k(), ParamPoly.var_p0()
        for num, den, want in ((3 + 6 * k, 2 + 4 * k, Fraction(3, 2)),
                               (1 + 5 * k - k * p0, 2 + 10 * k - 2 * k * p0,
                                Fraction(1, 2))):
            got = verify._restricted((g(1).map_coeffs(lambda c: num),
                                      Factored.of(den)), Fraction(-1, 2), 3)
            assert got == SymLaurentPolyN(3, {(1, 0, 0): want})

    def test_image_with_a_pole_raises(self):
        # no factor of the atom that vanishes at k = -1/2 in the image,
        # one factor of two, and a denominator that vanishes at p0 = 3
        k, p0 = ParamPoly.var_k(), ParamPoly.var_p0()
        for num, den in ((ParamPoly.const(1), Factored.of(1 + 2 * k)),
                         (1 + 2 * k, Factored(1, Counter({1 + 2 * k: 2}))),
                         (k, Factored.of(3 - p0))):
            F = g(1).map_coeffs(lambda c: num)
            with pytest.raises(PoleAtSpecialization):
                verify._restricted((F, den), Fraction(-1, 2), 3)


class TestFiniteOperator:
    def test_frozen_action(self):
        # the operator on m_(1,-1) for two variables, computed by hand
        act = cms_N(ORBIT((1, -1), 2))
        assert act.coeff((1, -1)) == rat(2) - K * 2
        assert act.coeff((0, 0)) == -(K * 4)

    def test_euler(self):
        assert euler_N(ORBIT((2, -1), 2)).coeff((2, -1)) == RAT_ONE
        assert euler_N(ORBIT((1, -1), 2)).is_zero()

    @pytest.mark.parametrize("f", [
        jack_laurent_poly_N((1, 0, 0, -1), 4), jack_poly_N((2, 1, 1), 4),
        jack_laurent_poly_N((2, 1, -1), 3), ORBIT((3, 0, -2), 3) * rat(5)])
    def test_euler_on_orbit_sums(self, f):
        # each monomial of the expanded polynomial times its degree,
        # collapsed back to orbit sums, in the same canonical terms
        full = {a: c * sum(a) for a, c in f.expand().items() if sum(a)}
        want = SymLaurentPolyN.from_full(f.N, full)
        assert euler_N(f) == want
        assert euler_N(f).sorted_terms() == want.sorted_terms()


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


class TestFractionFree:
    """The fraction-free solve in Z[k] against the solve in Q(k) it
    replaced, kept here as the oracle field_jack_laurent_poly_N."""

    @pytest.mark.parametrize("N", [3, 4])
    def test_every_label_up_to_six(self, N):
        chis = _chis_up_to(6, N)
        assert len(chis) == {3: 86, 4: 116}[N]
        k0 = Fraction(-1, 2)
        for chi in chis:
            want = field_jack_laurent_poly_N(chi, N)
            assert jack_laurent_poly_N(chi, N) == want, chi
            assert jack_laurent_poly_N(chi, N, k0) == want.substitute_k(k0), chi
            # the cleared form the checks read is Q times the same function
            G, Q = finite_n._cleared_laurent(chi, N)
            q = expand(Q.scale.numerator, Q.atoms)
            assert G == want.map_coeffs(
                lambda c: poly_divexact(c.num * q, c.den)), chi

    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("k0", [Fraction(-1, 2), Fraction(1, 3),
                                    Fraction(-5, 7)])
    def test_numeric_coupling_against_the_fraction_solve(self, N, k0):
        # the cleared form at k0 against the solve on Fractions it
        # replaced: the same polynomial, or the same collision
        raised = 0
        for chi in _chis_up_to(6, N):
            try:
                want = fraction_jack_laurent_poly_N(chi, N, k0)
            except SingularParameter as exc:
                raised += 1
                with pytest.raises(SingularParameter) as got:
                    jack_laurent_poly_N(chi, N, k0)
                assert str(got.value) == str(exc), chi
                continue
            got = jack_laurent_poly_N(chi, N, k0)
            assert got == want, chi
            assert all(type(c) is Fraction for c in got.terms.values())
        # three labels at N = 4 lift to P[2,1,1], which meets m[1,1,1,1]
        # at k = 1/3
        assert raised == (3 if (N, k0) == (4, Fraction(1, 3)) else 0)

    def test_collision_where_the_coefficient_is_zero(self):
        # at k = 5/3 the gap of m[2,1,1] in P[4] in three variables
        # vanishes, and so does the sum it divides: the coefficient of
        # m[2,1,1] has no pole there, but the solve still refuses k0
        k0 = Fraction(5, 3)
        c = jack_poly_N((4,), 3).coeff((2, 1, 1))
        assert c.den.evaluate(k0, 0)
        msg = "eigenvalue collision at k=5/3: (4,) vs (2, 1, 1)"
        with pytest.raises(SingularParameter, match=re.escape(msg)):
            fraction_jack_laurent_poly_N((4, 0, 0), 3, k0)
        with pytest.raises(SingularParameter, match=re.escape(msg)):
            jack_poly_N((4,), 3, k0)

    def test_one_gap_table_per_label(self):
        # the collision check at a numeric k and the solve read one
        # memoized table of gaps, cold and warm
        finite_n._gaps.cache_clear()
        finite_n._cleared_N.cache_clear()
        for _ in range(2):
            jack_poly_N((3, 2, 1), 3, Fraction(-1, 2))
            jack_poly_N((3, 2, 1), 3)
        assert finite_n._gaps.cache_info().misses == 1

    def test_trial_division_is_complete(self):
        # m[3,1,-2] in three variables: the solve meets the gap 5 - 3k,
        # which cancels from every coefficient and so leaves Q, beside
        # (2 - k)^2; the public form divides what is left as far as it
        # goes
        k = ParamPoly.var_k()
        G, Q = finite_n._cleared_laurent((3, 1, -2), 3)
        assert Q.atoms == Counter({1 - k: 1, 2 - k: 2, 3 - 2 * k: 1})
        assert G.coeff((3, 1, -2)) == expand(Q.scale.numerator, Q.atoms)
        p = jack_laurent_poly_N((3, 1, -2), 3)
        assert str(p.coeff((2, 0, 0))) == "(18*k^2)/(4 - 4*k + k^2)"
        assert all(c.den.evaluate(Fraction(5, 3), 0)
                   for c in p.terms.values())

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_q_is_the_lcm_of_the_denominators(self, N):
        # the solve divides out what Q shares with every coefficient, so
        # each atom of Q, and Q's int scale, is needed by some reduced
        # coefficient of the public form
        for nu in partitions_up_to(8):
            if not nu or len(nu) > N:
                continue
            G, Q = finite_n._cleared_N(nu, N)
            scale, atoms = 1, Counter()
            for c in finite_n._field_form(G, Q).terms.values():
                d = c.den
                for a in Q.atoms:
                    d, i = _divide_out(d, a, Q.atoms[a] + 1)
                    atoms[a] = max(atoms[a], i)
                assert d.is_const(), (nu, N, c)
                scale = lcm(scale, abs(d.terms[(0, 0)]))
            assert Q.scale == scale and Q.atoms == +atoms, (nu, N)

    def test_no_gcd(self):
        # the solve from a cold memo, the public ParamRat form and the
        # three checks on every sequence up to size 4 in three variables
        finite_n._cleared_N.cache_clear()
        with mock.patch.object(rational, "poly_gcd",
                               wraps=rational.poly_gcd) as calls:
            for chi in _chis_up_to(4, 3):
                jack_laurent_poly_N(chi, 3)
                assert finite_pieri_check(chi, 3), chi
                assert involution_check_N(chi, 3), chi
                hc_eigen_check_N(chi, 3)
        assert calls.call_count == 0


class TestFaults:
    """Each finite check still fails on a wrong input."""

    @pytest.mark.parametrize("chi", [(1, 0, -1), (2, 1, -1), (1, 1, 0, -1)])
    def test_wrong_eigenvalue(self, chi, monkeypatch):
        real = finite_n.eigenvalue_eN
        monkeypatch.setattr(finite_n, "eigenvalue_eN",
                            lambda seq, N: real(seq, N) + int(seq == chi))
        with pytest.raises(NotEigenvector):
            hc_eigen_check_N(chi, len(chi))

    @pytest.mark.parametrize("chi", [(2, 1, -1), (2, 0, 0), (3, 1, -2),
                                     (1, 1, 0, -1)])
    def test_perturbed_coefficient(self, chi, monkeypatch):
        # one coefficient below the leading one moved by 1 in the cleared
        # form of P_chi, which every check and the public form read; chi
        # is not w(chi), so the involution check has a second route
        N = len(chi)
        nu = tuple(x - chi[-1] for x in chi if x - chi[-1])
        real = finite_n._cleared_N

        def bumped(mu, n):
            G, Q = real(mu, n)
            if (mu, n) != (nu, N):
                return G, Q
            t = dict(G.terms)
            low = min(t)
            t[low] = t[low] + 1
            return SymLaurentPolyN(N, t), Q

        monkeypatch.setattr(finite_n, "_cleared_N", bumped)
        assert not involution_check_N(chi, N)
        assert not finite_pieri_check(chi, N)
        assert not reference_finite_pieri(chi, N)
        with pytest.raises(NotEigenvector):
            hc_eigen_check_N(chi, N)


class TestTorusForm:
    def test_constant_term_normalization(self):
        # Dyson constant-term values (mN)! / (m!)^N
        assert constant_term_delta(-1, 4) == 24
        assert constant_term_delta(-2, 4) == 2520

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_constant_term_of_the_expanded_weight(self, N, m):
        assert constant_term_delta(-m, N) == \
            reference_delta_expansion(m, N)[(0,) * N]

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

    def test_pieri_matches_the_field(self):
        cases = _finite_pieri_labels()
        assert len(cases) == 59
        for chi, N in cases:
            assert finite_pieri_check(chi, N), chi
            assert reference_finite_pieri(chi, N), chi

    @pytest.mark.parametrize("chi", [(1, 0, -1), (2, 1, -1), (1, 1, 0, -1)])
    def test_doubled_V_fails_both_routes(self, chi):
        # the last nonzero V doubled, as the Factored the check reads and
        # the ParamRat the reference reads
        N = len(chi)
        i = max(i for i in range(1, N + 1) if pieri_V_N(i, chi).scale)
        real = finite_n.pieri_V_N

        def doubled(j, seq):
            v = real(j, seq)
            return v * 2 if (j, seq) == (i, chi) else v

        with mock.patch.object(finite_n, "pieri_V_N", doubled):
            assert not finite_pieri_check(chi, N)
            assert not reference_finite_pieri(chi, N)

    def test_pieri_matches_infinite_U(self):
        # the infinite coefficient, restricted to p0 = 2, is the finite one
        u = pieri_U((1, 1), ((1,), (1,))).to_rat()
        assert u.substitute_p0(2) == pieri_V_N(2, (1, -1)).to_rat()

    def test_V_N_matches_c_chi_product(self):
        for chi, N in _finite_pieri_labels():
            for i in range(1, N + 1):
                assert pieri_V_N(i, chi).to_rat() == \
                    field_pieri_V_N(i, chi), (i, chi)

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_V_N_index_outside_the_sequence(self, i):
        # below 1 the index would wrap round to the end of chi, and
        # past len(chi) it would read beyond it
        with pytest.raises(ValueError, match=r"i=%d outside 1\.\.len\(chi\)=3"
                           % i):
            pieri_V_N(i, (2, 1, 0))

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
