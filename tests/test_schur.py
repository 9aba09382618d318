"""The k = -1 limit: complete symmetric functions, the determinant
formula for Schur-Laurent functions, and the limit of the eigenfunctions."""

from unittest import mock

import pytest

from jacklaurent import rational
from jacklaurent.rational import K, P0, RAT_ONE, IdenticallySingular, rat
from jacklaurent.laurent import LaurentSymFunc, parse_rat
from jacklaurent.jack import construct
from jacklaurent.partitions import bipartitions_up_to
from jacklaurent.schur import (
    ResidualP0, complete_h, jacobi_trudy_S, schur_limit,
)

g = LaurentSymFunc.gen


def field_schur_limit(f):
    """The limit by substitute_k(-1) in Q(k, p0), each coefficient
    reduced by the gcd: the route schur_limit took before it
    cross-multiplied."""
    try:
        out = f.substitute_k(-1)
    except IdenticallySingular as exc:
        raise IdenticallySingular("pole at k = -1: %s" % exc)
    for c in out.terms.values():
        if not c.is_p0_free():
            raise ResidualP0("coefficient of a term still involves p0: %s"
                             % c)
    return out


class TestCompleteFunctions:
    def test_newton_recursion(self):
        assert complete_h(0) == LaurentSymFunc.one()
        assert complete_h(1) == g(1)
        assert complete_h(2) == (g(1) * g(1) + g(2)) * rat(1, 2)
        assert complete_h(3) == \
            (g(1) * g(1) * g(1) + g(1) * g(2) * 3 + g(3) * 2) * rat(1, 6)

    def test_negative_index_is_zero(self):
        assert complete_h(-1).is_zero()


class TestDeterminant:
    def test_small_cases(self):
        assert jacobi_trudy_S((), ()) == LaurentSymFunc.one()
        assert jacobi_trudy_S((2,), ()) == complete_h(2)
        assert jacobi_trudy_S((), (2,)) == complete_h(2).star()

    def test_mixed_cases(self):
        assert jacobi_trudy_S((1,), (1,)) == \
            g(1) * g(-1) - LaurentSymFunc.one()
        assert jacobi_trudy_S((1, 1), (1,)) == \
            (g(1) * g(1) - g(2)) * rat(1, 2) * g(-1) - g(1)


class TestLimit:
    @pytest.mark.parametrize("lam,mu", [
        ((1,), (1,)), ((1, 1), (1,)), ((2,), (1,)), ((1,), (1, 1)),
        ((2,), (2,)), ((2, 1), (1,)), ((3,), ()), ((1, 1, 1), ()),
    ])
    def test_eigenfunction_limit_is_determinant(self, lam, mu):
        p = construct((lam, mu))
        assert schur_limit(p.f) == jacobi_trudy_S(lam, mu)

    def test_residual_parameter_rejected(self):
        # a k-free coefficient still involving p0 cannot be a limit value
        f = g(1) * (P0 + K)
        with pytest.raises(ResidualP0):
            schur_limit(f)

    def test_every_label_up_to_five_against_the_field(self):
        labels = sorted(bipartitions_up_to(5))
        with mock.patch.object(rational, "poly_gcd",
                               wraps=rational.poly_gcd) as calls:
            got = [schur_limit(construct(a).f) for a in labels]
        assert calls.call_count == 0
        for alpha, lim in zip(labels, got):
            assert lim == field_schur_limit(construct(alpha).f), alpha
            assert lim == jacobi_trudy_S(*alpha), alpha

    @pytest.mark.parametrize("text, value", [
        # p0 in both, cancelling at k = -1 only: (p0 + 1)/(2*p0 + 2)
        ("(p0 + 6 + 5*k)/(2*p0 + 3 + k)", rat(1, 2)),
        ("(1 + p0 + k*p0)/(2 - k)", rat(1, 3)),
        ("(k + 1)*p0/(3 + k)", rat(0)),
    ])
    def test_constant_after_cancellation(self, text, value):
        f = g(1) * parse_rat(text) + g(2)
        assert schur_limit(f) == g(1) * value + g(2)
        assert field_schur_limit(f) == schur_limit(f)

    @pytest.mark.parametrize("text", [
        "p0", "(p0^2 + p0)/(p0^2 + 1)", "(p0^2 + 1)/(p0^2 + 2)",
        "(p0 + 6 + 5*k)/(2*p0 + 3)", "(1 + k*p0)/(2 - k)",
    ])
    def test_residual_p0_names_the_reduced_value(self, text):
        # the leading coefficients may agree; the message is the field's
        f = g(1) * parse_rat(text)
        with pytest.raises(ResidualP0) as got:
            schur_limit(f)
        with pytest.raises(ResidualP0) as want:
            field_schur_limit(f)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", ["1/(1 + k)", "p0/(1 + k + k*p0 + p0)",
                                      "(k - 1)/(k^2 - 1)"])
    def test_pole_at_minus_one(self, text):
        # each denominator, reduced, vanishes at k = -1 for every p0
        f = g(1) * parse_rat(text) + g(-1)
        with pytest.raises(IdenticallySingular) as got:
            schur_limit(f)
        with pytest.raises(IdenticallySingular) as want:
            field_schur_limit(f)
        assert str(got.value) == str(want.value)

    def test_limit_is_plain_substitution_when_regular(self):
        f = g(1) * (RAT_ONE / (RAT_ONE - K))
        assert schur_limit(f) == g(1) * rat(1, 2)
