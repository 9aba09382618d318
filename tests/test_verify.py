"""The named verification suites: report shape and determinism."""

import importlib
import json
import pkgutil
from fractions import Fraction
from unittest import mock

import pytest

import jacklaurent
from jacklaurent import clear_caches, jack, rational, verify
from jacklaurent.closed_forms import norm_value
from jacklaurent.partitions import bipartitions_up_to
from jacklaurent.rational import RAT_ONE, PoleAtSpecialization
from jacklaurent.verify import SUITES, check_commute, check_eigen, \
    check_evaluation, check_finite_n, check_norm_torus, run_suite


def _memos():
    """{qualified name: memo} for every functools memo defined in a
    module of the package, at module level or in a class: found by
    introspection, so a memo added later is covered unlisted."""
    out = {}
    for info in pkgutil.iter_modules(jacklaurent.__path__):
        mod = importlib.import_module("jacklaurent." + info.name)
        scopes = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                if isinstance(c, type)
                                and c.__module__ == mod.__name__]
        for scope in scopes:
            for obj in scope.values():
                if (hasattr(obj, "cache_clear")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    out["%s.%s" % (info.name, obj.__qualname__)] = obj
    return out


MEMOS = _memos()
# the suites, with their sizes, that fill every memo: the eigen checks at
# size 2 fill the eigenvalue memo, the involution checks at 3 the memo of
# grown mirrored labels, the separation checks that of the Bernoulli sums
FILL = (("norms", 2), ("finite-n", 2), ("schur", 2), ("commute", 1),
        ("eigen", 2), ("involutions", 3), ("duality", 1))


def _reports():
    return [json.dumps(run_suite(s, n), sort_keys=True) for s, n in FILL]


def _sizes():
    return {name: memo.cache_info().currsize for name, memo in MEMOS.items()}


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

    def test_memos_are_found(self):
        assert {"jack._construct", "jack._plan", "closed_forms._phi_triple",
                "operators._l2_image", "operators._l_image",
                "finite_n._gaps", "verify._eigenvalues"} <= set(MEMOS)

    def test_cold_and_warm_runs_identical(self):
        clear_caches()
        cold = _reports()
        assert all(_sizes().values()), _sizes()
        assert _reports() == cold

    def test_clear_caches_empties_every_memo(self):
        _reports()
        assert all(_sizes().values()), _sizes()
        clear_caches()
        assert _sizes() == dict.fromkeys(MEMOS, 0)


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

    def test_commute_witnesses(self, monkeypatch):
        # a passing check, then 4 * L2 off the direct operator, then an
        # L_1 that does not commute with L_2: the first pair is named
        label, f = "2,1|1", verify._p_monomial(((2, 1), (1,)))
        assert check_commute(label, f) == (True, {"monomial": label})
        real = verify.cms_L_doubled
        monkeypatch.setattr(verify, "cms_L2_direct", lambda f, k, p0: f)
        assert check_commute(label, f) == \
            (False, {"monomial": label, "orders": [2], "route": "direct"})
        monkeypatch.setattr(
            verify, "cms_L_doubled",
            lambda r, f, k, p0: f.times(1) if r == 1 else real(r, f, k, p0))
        assert check_commute(label, f) == \
            (False, {"monomial": label, "orders": [1, 2]})

    def test_eigen_checks_take_few_gcds(self, monkeypatch):
        # the integrals run on cleared functions in Z[k, p0], and each
        # eigenvalue is an exact quotient there: no gcd at all
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
        assert calls[0] == 0

    def test_verify_takes_no_gcd(self):
        # from cold caches, every suite at 3, construction included, and
        # the finite-n checks on every label up to 5: the duality, eigen,
        # finite-N and Schur checks all compare in the ring
        clear_caches()
        with mock.patch.object(rational, "poly_gcd",
                               wraps=rational.poly_gcd) as calls:
            assert run_suite("all", 3)["status"] == "pass"
            assert calls.call_count == 0
            for alpha in sorted(bipartitions_up_to(5)):
                assert check_finite_n(alpha)[0], alpha
        assert calls.call_count == 0

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
