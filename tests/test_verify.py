"""The named verification suites: report shape and determinism."""

import json
from fractions import Fraction

import pytest

from jacklaurent import clear_caches, closed_forms, finite_n, jack, \
    operators, rational, schur, verify
from jacklaurent.closed_forms import norm_value
from jacklaurent.partitions import bipartitions_up_to
from jacklaurent.rational import RAT_ONE, PoleAtSpecialization
from jacklaurent.verify import SUITES, check_eigen, check_evaluation, \
    check_finite_n, check_norm_torus, run_suite

MEMOS = (jack._construct, closed_forms._linear,
         closed_forms._pieri_V, operators._l2_image,
         finite_n._jack_poly_N,
         finite_n._phi_N_monomial, finite_n._cms_N_image,
         finite_n._delta_expansion, schur._complete_h)
# filled by the eigen checks, by the involution checks at size 3 and by
# the separation checks
EIGEN_MEMOS = (verify._eigenvalues, jack._grown_mirror,
               closed_forms.bernoulli_b)


class TestSuites:
    def test_suite_names(self):
        assert "all" in SUITES and "eigen" in SUITES

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense", 2)

    @pytest.mark.parametrize("suite", ["eigen", "pieri", "schur"])
    def test_small_suites_pass(self, suite):
        report = run_suite(suite, 2)
        assert report["status"] == "pass"
        assert report["suite"] == suite
        assert report["max_size"] == 2
        for row in report["checks"]:
            assert row["status"] == "pass", row

    @pytest.mark.parametrize("suite,checks", [("involutions", 8),
                                              ("duality", 36)])
    def test_involution_and_duality_suites_pass(self, suite, checks):
        report = run_suite(suite, 2)
        assert report["status"] == "pass"
        assert len(report["checks"]) == checks
        assert all(row["status"] == "pass" for row in report["checks"])

    def test_raising_check_is_a_failed_row(self, monkeypatch):
        def boom(alpha):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "check_involution", boom)
        report = run_suite("involutions", 1)
        assert report["status"] == "fail"
        assert len(report["checks"]) == 3
        for row in report["checks"]:
            assert row["status"] == "fail"
            assert row["witness"] == {"error": "RuntimeError: boom"}

    def test_checks_sorted_and_unique(self):
        report = run_suite("evaluation", 2)
        ids = [row["id"] for row in report["checks"]]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_cold_and_warm_runs_identical(self):
        suites = ("norms", "finite-n", "schur")
        clear_caches()
        cold = [json.dumps(run_suite(s, 2), sort_keys=True) for s in suites]
        assert all(memo.cache_info().currsize for memo in MEMOS)
        warm = [json.dumps(run_suite(s, 2), sort_keys=True) for s in suites]
        assert cold == warm

    def test_clear_caches_empties_every_memo(self):
        run_suite("norms", 1)
        run_suite("finite-n", 1)
        run_suite("schur", 1)
        run_suite("commute", 1)
        assert all(memo.cache_info().currsize for memo in MEMOS)
        # the eigen checks at size 2 fill the eigenvalue memo, the
        # involution checks at 3 the memo of grown mirrored labels, the
        # separation checks that of the Bernoulli sums
        run_suite("eigen", 2)
        run_suite("involutions", 3)
        run_suite("duality", 1)
        assert all(memo.cache_info().currsize for memo in EIGEN_MEMOS)
        clear_caches()
        sizes = [memo.cache_info().currsize for memo in MEMOS + EIGEN_MEMOS]
        assert sizes == [0] * len(MEMOS + EIGEN_MEMOS)


class TestChecks:
    @pytest.mark.parametrize("a", range(6))
    def test_norms_of_length_five(self, a):
        # five one-box rows restrict to zero at N = 4 variables, where
        # the closed-form norm has a pole; the check takes N = 5
        alpha = ((1,) * a, (1,) * (5 - a))
        ok, witness = check_norm_torus(alpha)
        assert ok, witness
        assert witness["N"] == 5

    def test_finite_n_of_a_label_longer_than_N(self):
        # four rows restrict to zero in N = 3 variables
        assert check_finite_n(((1, 1), (1, 1))) == \
            (True, {"N": 3, "expected": "0"})

    def test_norm_keeps_four_variables_for_short_labels(self):
        assert check_norm_torus(((2, 1), (1,)))[1]["N"] == 4

    def test_factored_norm_at_the_torus_point(self):
        # the check reads the factored norm at (TORUS_K, N) on Fractions:
        # the closed form in Q(k, p0), specialized there
        k0 = verify.TORUS_K
        for lam, mu in bipartitions_up_to(5):
            N = max(verify.TORUS_N, len(lam) + len(mu))
            norm = norm_value((lam, mu))
            got = norm.specialize(k0, N)
            assert type(got) is Fraction
            assert got == norm.to_rat().specialize(k0, N), (lam, mu)

    @pytest.mark.parametrize("point", [(1, 2), (-1, 0)])
    def test_factored_norm_pole_names_the_denominator(self, point):
        # the norm of P[0; 1] is p0/(1 + k - k*p0): a pole at (1, 2), and
        # at (-1, 0) a pole where the numerator vanishes too
        alpha = ((), (1,))
        with pytest.raises(PoleAtSpecialization) as want:
            norm_value(alpha).to_rat().specialize(*point)
        with pytest.raises(PoleAtSpecialization) as got:
            norm_value(alpha).specialize(*point)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("alpha", [((2, 1), (1,)), ((1,), (2,))])
    def test_evaluation_runs_in_the_ring(self, monkeypatch, alpha):
        # a match reports the closed form; a mismatch builds the value in
        # Q(k, p0), which is evaluate_eps of the function
        got = jack.construct(alpha).f.evaluate_eps()
        assert check_evaluation(alpha) == \
            (True, {"value": str(got), "formula": str(got)})
        wrong = got + RAT_ONE
        for module in (jack, verify):
            monkeypatch.setattr(module, "evaluation_value", lambda a: wrong)
        assert check_evaluation(alpha) == \
            (False, {"value": str(got), "formula": str(wrong)})

    def test_eigen_checks_take_few_gcds(self, monkeypatch):
        # the integrals run on cleared functions in Z[k, p0]: left are
        # the gcds of clearing each function and of one eigenvalue per
        # order, not one per coefficient operation
        labels = bipartitions_up_to(3)
        clear_caches()
        for alpha in labels:
            jack.construct(alpha)
        calls = [0]
        real = rational.poly_gcd

        def counting(a, b):
            calls[0] += 1
            return real(a, b)

        monkeypatch.setattr(rational, "poly_gcd", counting)
        for alpha in labels:
            ok, _ = check_eigen(alpha)
            assert ok, alpha
        assert 0 < calls[0] < 100

    def test_eigen_suite_checks_each_label_once(self, monkeypatch):
        # check_eigen reads alpha and w(alpha); the 18 labels of size
        # at most 3 are closed under w, so each runs its integrals once
        calls = [0]
        real = jack.eigen_check_all

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(jack, "eigen_check_all", counting)
        clear_caches()
        assert run_suite("eigen", 3)["status"] == "pass"
        assert calls[0] == 18
