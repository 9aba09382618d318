"""Acceptance suite: ten numbered criteria covering the explicit small
eigenfunctions, the eigenfunction property of the CMS integrals, operator
identities, the Pieri recursion, evaluations, finite-N compatibility,
torus norms, involutions and spectrum separation, the k = -1 limit, and
the (report-only) large-p0 conjecture sweeps.

Every comparison is exact over Q(k, p0) or Q; there are no tolerances.
Criteria 1-9 gate; criterion 10 reports its verdicts without gating.
"""

import time
from fractions import Fraction
from itertools import combinations

from jacklaurent.rational import K, P0, RAT_ONE, rat
from jacklaurent.laurent import LaurentSymFunc
from jacklaurent.partitions import (
    bipartitions_up_to, chi_N, partitions_up_to, w_bipartition,
)
from jacklaurent.operators import (
    cms_L, cms_L2_direct, hat_f_expansion_check, stable_H,
)
from jacklaurent.closed_forms import (
    eigenvalue_e, evaluation_value, norm_value, phi_pair, pieri_U,
    pieri_U_diagram, pieri_V, pieri_V_diagram, separation_check,
    stanley_phi,
)
from jacklaurent import clear_caches
from jacklaurent.jack import (
    construct, eigen_check_all, pieri_identity_check,
    star_symmetry_check, theta_duality_check,
)
from jacklaurent.finite_n import (
    SymLaurentPolyN, jack_laurent_poly_N, phi_N_map, torus_form,
)
from jacklaurent.schur import jacobi_trudy_S, schur_limit
from jacklaurent.conjectures import run_all

g = LaurentSymFunc.gen

LABELS_3 = bipartitions_up_to(3)     # 18 bipartitions with |lam|+|mu| <= 3
LABELS_4 = bipartitions_up_to(4)     # 38 with |lam|+|mu| <= 4


def monomials(max_pos, max_neg):
    """All p_lambda * p_{-mu} with |lambda| <= max_pos, |mu| <= max_neg."""
    out = []
    for lam in partitions_up_to(max_pos):
        for mu in partitions_up_to(max_neg):
            out.append(LaurentSymFunc.from_partition(lam)
                       * LaurentSymFunc.from_partition(mu, sign=-1))
    return out


def length(alpha):
    lam, mu = alpha
    return len(lam) + len(mu)


def test_criterion_01_explicit_examples():
    clear_caches()
    t0 = time.monotonic()
    p11 = construct(((1,), (1,)))
    p111 = construct(((1, 1), (1,)))
    elapsed = time.monotonic() - t0

    want11 = g(1) * g(-1) \
        - LaurentSymFunc.const(P0 / (RAT_ONE + K - K * P0))
    assert p11.f == want11

    e2 = (g(1, 2) - g(2)) * rat(1, 2)
    want111 = e2 * g(-1) - g(1) * (
        rat(2) * (P0 - RAT_ONE) / (rat(2) + K * 4 - K * P0 * 2))
    assert p111.f == want111

    assert elapsed < 1.0, "construction took %.2fs" % elapsed


def test_criterion_02_eigenfunctions():
    # P_alpha is a joint eigenfunction of the first three integrals;
    # the first eigenvalue is |lam| - |mu|, the second is the closed
    # form, and the third changes sign under swapping the two halves
    # of the label.
    third = {}
    for alpha in LABELS_4:
        out = dict(eigen_check_all(alpha, 3))  # raises if not eigenvector
        lam, mu = alpha
        assert out[1] == rat(sum(lam) - sum(mu)), alpha
        assert out[2] == eigenvalue_e(alpha), alpha
        third[alpha] = out[3]
    for alpha in LABELS_4:
        w = w_bipartition(alpha)
        assert third[w] == -third[alpha], alpha
        assert eigenvalue_e(w) == eigenvalue_e(alpha), alpha


def test_criterion_03_operator_identities():
    monos33 = monomials(3, 3)
    # the direct second-order differential operator is the composed one
    for f in monos33:
        assert cms_L2_direct(f) == cms_L(2, f), str(f)
    # the integrals commute pairwise up to order three
    lowered = {1: [cms_L(1, f) for f in monos33],
               2: [cms_L(2, f) for f in monos33],
               3: [cms_L(3, f) for f in monos33]}
    for r, s in combinations((1, 2, 3), 2):
        for f, rf, sf in zip(monos33, lowered[r], lowered[s]):
            assert cms_L(s, rf) == cms_L(r, sf), (r, s, str(f))
    # theta- and star-conjugation of the integrals
    monos22 = monomials(2, 2)
    for r in (1, 2, 3):
        for f in monos22:
            lhs = cms_L(r, f.theta()).theta(inverse=True)
            rhs = cms_L(r, f).map_coeffs(lambda c: c.param_swap()) \
                * K ** (r - 1)
            assert lhs == rhs, ("theta", r, str(f))
            assert cms_L(r, f.star()).star() == \
                cms_L(r, f) * ((-RAT_ONE) ** r), ("star", r, str(f))
    # change of basis between the two families
    for r in (1, 2, 3):
        for f in monos22:
            assert hat_f_expansion_check(r, f), (r, str(f))
    # stable integrals stay free of the parameter p0
    for lam in partitions_up_to(4):
        if not lam:
            continue
        f = LaurentSymFunc.from_partition(lam)
        for r in (1, 2, 3):
            for _, c in stable_H(r, f).sorted_terms():
                assert c.is_p0_free(), (r, lam)


def test_criterion_04_pieri():
    from jacklaurent.partitions import add_box_candidates, \
        remove_box_candidates
    for alpha in LABELS_3:
        assert pieri_identity_check(alpha), alpha
        lam, mu = alpha
        for box in add_box_candidates(lam):
            v = pieri_V(box, alpha)
            assert pieri_V_diagram(box, alpha) == v, (box, alpha)
        for box in remove_box_candidates(mu):
            u = pieri_U(box, alpha)
            assert pieri_U_diagram(box, alpha) == u, (box, alpha)
            # enlarging the bounding rectangle must not change anything
            assert pieri_U_diagram(box, alpha, L=len(lam) + 2,
                                   M=len(mu) + 1) == u, (box, alpha)


def test_criterion_05_evaluation():
    # the evaluation homomorphism on P_alpha gives the product formula
    for alpha in LABELS_4:
        got = construct(alpha).f.evaluate_eps()
        assert got == evaluation_value(alpha), alpha
    # complementary diagrams inside a b x a rectangle (all b, a <= 4)
    # give equal Stanley products at a generic symbolic point
    xsym = K * 5 + P0 + rat(3)
    for b in range(1, 5):
        for a in range(1, 5):
            for lam in partitions_up_to(a * b):
                if len(lam) > b or (lam and lam[0] > a):
                    continue
                padded = tuple(lam) + (0,) * (b - len(lam))
                comp = tuple(x for x in
                             (a - padded[b - 1 - i] for i in range(b)) if x)
                assert stanley_phi(lam, b, xsym) == \
                    stanley_phi(comp, b, xsym), (lam, a, b)
    # joined-diagram factorization spot-checks
    one = stanley_phi((1,), 2, xsym)
    assert stanley_phi((2,), 2, xsym) == \
        one * one * phi_pair((1,), (1,), 2, xsym)
    assert stanley_phi((3, 1), 3, xsym) == \
        stanley_phi((2,), 3, xsym) * stanley_phi((1,), 3, xsym) \
        * phi_pair((2,), (1,), 3, xsym)


def test_criterion_06_finite_n_compatibility():
    couplings = (Fraction(-1, 2), Fraction(-5, 7))
    checked_sym = checked_zero = 0
    for N in (1, 2, 3, 4):
        for alpha in LABELS_4:
            f = construct(alpha).f
            img = phi_N_map(f, N)          # substitutes p0 = N
            if length(alpha) > N:
                assert img.is_zero(), (alpha, N)
                checked_zero += 1
                continue
            chi = chi_N(alpha, N)
            want = jack_laurent_poly_N(chi, N)
            assert img == want, (alpha, N)  # symbolic in k
            for k0 in couplings:
                assert img.substitute_k(k0) == \
                    jack_laurent_poly_N(chi, N, k0), (alpha, N, k0)
            checked_sym += 1
    assert checked_sym == 103 and checked_zero == 49


def test_criterion_07_torus_norms():
    N = 4
    for k0 in (Fraction(-1), Fraction(-2)):
        imgs = {alpha: phi_N_map(construct(alpha).f, N).substitute_k(k0)
                for alpha in LABELS_3}
        one = SymLaurentPolyN.one(N)
        assert torus_form(one, one, int(k0), N) == 1
        for alpha in LABELS_3:
            got = torus_form(imgs[alpha], imgs[alpha], int(k0), N)
            want = norm_value(alpha).specialize(k0, N)
            assert got == want, (alpha, k0)
        for alpha, beta in combinations(LABELS_3, 2):
            assert torus_form(imgs[alpha], imgs[beta], int(k0), N) == 0, \
                (alpha, beta, k0)


def test_criterion_08_involutions_and_separation():
    for alpha in LABELS_4:
        assert star_symmetry_check(alpha), alpha
    for alpha in LABELS_3:
        assert theta_duality_check(alpha), alpha
    for alpha, beta in combinations(LABELS_3, 2):
        assert separation_check(alpha, beta, 8), (alpha, beta)


def test_criterion_09_schur_laurent_limit():
    for lam, mu in LABELS_4:
        lim = schur_limit(construct((lam, mu)).f)  # raises on any pole
        assert lim == jacobi_trudy_S(lam, mu), (lam, mu)
        for _, c in lim.sorted_terms():
            assert c.is_const(), (lam, mu)  # free of k and of p0
    # the two worked examples
    assert jacobi_trudy_S((1,), (1,)) == g(1) * g(-1) - LaurentSymFunc.one()
    assert jacobi_trudy_S((1, 1), (1,)) == \
        (g(1) * g(1) - g(2)) * rat(1, 2) * g(-1) - g(1)


def test_criterion_10_conjecture_report():
    # report-only: the sweeps must run and produce a complete report,
    # but their verdicts do not gate acceptance
    report = run_all(3)
    for section in ("p0_infinity_limit", "norm_infinity", "integrality",
                    "power_sum_form", "non_orthogonality"):
        assert section in report, section
    for section in ("p0_infinity_limit", "norm_infinity", "integrality",
                    "power_sum_form"):
        print("conjecture %s: %s" % (section, report[section]["verdict"]))
    print("conjecture non_orthogonality: observed_nonzero_off_diagonal=%s"
          % report["non_orthogonality"]["observed_nonzero_off_diagonal"])
