"""Experimental statements examined at large p0: the p0 -> infinity
limit of the eigenfunctions, the limiting bilinear form, and the
integrality of rescaled coefficients."""

import json

import pytest

from jacklaurent import conjectures
from jacklaurent.closed_forms import Factored
from jacklaurent.jack import construct
from jacklaurent.rational import K, RAT_ONE, rat
from jacklaurent.laurent import LaurentSymFunc, mono_str
from jacklaurent.partitions import bipartitions_up_to
from jacklaurent.conjectures import (
    a_lambda, a_pair, integrality_check, jack_basis_expansion,
    limiting_form, non_orthogonality_data, norm_infinity_check,
    p0_infinity_limit, p0_limit_coeff, power_sum_form_check, run_all,
)

g = LaurentSymFunc.gen


class TestLimitRule:
    def test_constant_is_its_own_limit(self):
        ok, lim = p0_limit_coeff(rat(1) / (RAT_ONE - K))
        assert ok and lim == rat(1) / (RAT_ONE - K)

    def test_decaying_coefficient(self):
        from jacklaurent.rational import P0
        ok, lim = p0_limit_coeff(RAT_ONE / P0)
        assert ok and lim.is_zero()

    def test_diverging_coefficient(self):
        from jacklaurent.rational import P0
        ok, _ = p0_limit_coeff(P0 / (RAT_ONE - K))
        assert not ok


class TestInfinityLimit:
    def test_one_one(self):
        v, limit, _ = p0_infinity_limit(((1,), (1,)))
        assert v == "holds"
        assert limit == g(1) * g(-1) + LaurentSymFunc.const(RAT_ONE / K)

    def test_norms(self):
        v, w = norm_infinity_check(((), (1,)))
        assert v == "holds", w
        v, w = norm_infinity_check(((2,), (1,)))
        assert v == "holds", w


class TestIntegrality:
    def test_rescaling_constants(self):
        assert a_lambda((1,)).to_rat() == -K
        assert not a_pair((1,), (1,)).to_rat().is_zero()

    def test_small_label(self):
        s, wk, wit = integrality_check(((1,), (1,)))
        assert s == "holds" and wk == "holds", wit

    @pytest.mark.parametrize("dropped", [(), ("a_lambda",), ("a_pair",),
                                         ("a_lambda", "a_pair")])
    def test_ring_verdicts_match_the_field(self, monkeypatch, dropped):
        # with a multiplier replaced by 1 the forms fail on some labels;
        # the divisions in Z[k, p0] must give the verdicts and the first
        # counterexamples of the coefficients multiplied out in Q(k, p0)
        for name in dropped:
            monkeypatch.setattr(conjectures, name, lambda *a: Factored())
        failed = set()
        for alpha in bipartitions_up_to(4):
            lam, mu = alpha
            f = construct(alpha).f
            # each multiplier multiplied out, and the product taken in
            # Q(k, p0)
            pair = conjectures.a_pair(lam, mu).to_rat()
            mult = pair * conjectures.a_lambda(lam).to_rat() \
                * conjectures.a_lambda(mu).to_rat()
            want = [next(((mono_str(m), str(c))
                          for m, c in prod.sorted_terms() if fails(c)), None)
                    for prod, fails in (
                        (f * mult, lambda c: not c.has_unit_denominator()),
                        (f * pair, lambda c: c.den.degree_p0() > 0))]
            strong, weak, wit = integrality_check(alpha)
            assert [wit["strong_counterexample"],
                    wit["weak_counterexample"]] == want, alpha
            assert (strong, weak) == tuple(
                "holds" if w is None else "fails" for w in want), alpha
            failed.update(v for v in (strong, weak) if v == "fails")
        assert bool(failed) == bool(dropped)


class TestLimitingForm:
    def test_expansion(self):
        exp = jack_basis_expansion(g(1) * g(-1))
        assert set(exp) == {((), ()), ((1,), (1,))}
        assert exp[((1,), (1,))] == RAT_ONE

    def test_value(self):
        ok, val = limiting_form(g(1) * g(-1), LaurentSymFunc.one())
        assert ok and val == -(RAT_ONE / K)

    def test_positive_half_classical(self):
        v, inst = power_sum_form_check(2)
        assert v == "holds", inst

    def test_off_diagonal_terms_exist(self):
        found, rows = non_orthogonality_data(2)
        assert found and rows


class TestReport:
    def test_deterministic_and_complete(self):
        r1 = run_all(2)
        r2 = run_all(2)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert r1["p0_infinity_limit"]["verdict"] == "holds"
        assert r1["norm_infinity"]["verdict"] == "holds"
        assert r1["integrality"]["verdict"] == "holds"
        assert r1["power_sum_form"]["verdict"] == "holds"
        assert r1["non_orthogonality"]["observed_nonzero_off_diagonal"] is True
