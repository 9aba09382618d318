"""The named verification suites: report shape and determinism."""

import json

import pytest

from jacklaurent import jack
from jacklaurent.verify import SUITES, run_suite


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

    def test_checks_sorted_and_unique(self):
        report = run_suite("evaluation", 2)
        ids = [row["id"] for row in report["checks"]]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_cold_and_warm_runs_identical(self):
        jack.clear_cache()
        cold = json.dumps(run_suite("norms", 2), sort_keys=True)
        warm = json.dumps(run_suite("norms", 2), sort_keys=True)
        assert cold == warm
