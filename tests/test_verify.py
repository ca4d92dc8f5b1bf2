"""Verification suites: passing runs, empty ranges and firing budgets."""

import threading

import pytest

from kspm import Params, analysis, dds, fixed_point, incremental_scan
from kspm.errors import InvalidParameter, WorkLimitExceeded
from kspm.verify import (
    check_confluence,
    check_density,
    check_linkage,
    check_plateau,
    check_recurrence,
    check_spectrum,
    check_support,
    check_waves,
)


class TestSuitesPass:
    def test_confluence(self):
        assert check_confluence(2, 60, seeds=3).passed

    def test_plateau(self):
        result = check_plateau(3, 120)
        assert result.passed
        assert result.data["worst"] <= 4

    def test_support(self):
        assert check_support(2, 800).passed

    def test_spectrum(self):
        assert check_spectrum(12).passed

    def test_waves(self):
        result = check_waves(4, 2000)
        assert result.passed
        assert "theorem2_index=20" in result.detail

    def test_linkage(self):
        assert check_linkage(2, [1, 7, 24, 100, 512]).passed
        assert check_linkage(4, [2000]).passed

    def test_density(self):
        result = check_density(2, 300)
        assert result.passed
        assert result.data["l_global"] >= 0

    def test_recurrence(self):
        assert check_recurrence(3, 60).passed

    def test_spectrum_tolerance_is_a_module_constant(self, monkeypatch):
        from kspm import verify

        # max_modulus - (p-1)/p > -1 for every p, so the modulus check must fail
        monkeypatch.setattr(verify, "_TOLERANCE", -1.0)
        result = check_spectrum(4)
        assert not result.passed
        assert "exceeds" in result.detail

    def test_result_line_format(self):
        line = check_spectrum(4).line()
        assert line.startswith("PASS: spectrum p<=4")


class TestLinkageSubstance:
    def test_first_constant_index_starts_loose_pattern(self):
        # the constant averaging state forces the wavy suffix from there
        for p, n in ((2, 24), (2, 1024), (3, 600), (4, 2000)):
            params = Params(p)
            idx = dds.first_constant_index(dds.avg_trajectory(n, params))
            c = fixed_point(n, params)
            assert analysis.matches_theorem1_at(c, idx)

    @pytest.mark.parametrize("p", [2, 3])
    def test_every_small_pile_links(self, p):
        assert check_linkage(p, range(1, 401)).passed


class TestEmptyRanges:
    @pytest.mark.parametrize(
        "check, args",
        [
            pytest.param(check_confluence, (2, 0), id="confluence"),
            pytest.param(check_plateau, (2, 0), id="plateau"),
            pytest.param(check_recurrence, (2, 0), id="recurrence"),
            pytest.param(check_spectrum, (1,), id="spectrum"),
            pytest.param(check_linkage, (2, []), id="linkage"),
            pytest.param(check_waves, (2, 0), id="waves"),
        ],
    )
    def test_raises_instead_of_passing(self, check, args):
        with pytest.raises(InvalidParameter):
            check(*args)


@pytest.mark.parametrize(
    "kwargs",
    [{"seeds": -1}, {"seeds": True}, {"seeds": 2.0}, {"base_seed": 1.5}, {"base_seed": None}],
)
def test_confluence_rejects_bad_seed_arguments(kwargs):
    with pytest.raises(InvalidParameter):
        check_confluence(2, 5, **kwargs)


def test_confluence_with_no_random_seeds():
    result = check_confluence(2, 5, seeds=0, base_seed=-3)
    assert result.passed and "0 random seeds" in result.detail


class TestWorkLimits:
    def test_scan_respects_budget(self):
        with pytest.raises(WorkLimitExceeded):
            incremental_scan(500, Params(2), work_limit=20)


class TestConcurrency:
    def test_parallel_scans_match_serial(self):
        """Distinct (p, N) scans share no state and can run concurrently."""
        cells = [(1, 150), (2, 200), (3, 120), (4, 90)]
        serial = {
            (p, n): incremental_scan(n, Params(p)).final.diffs for p, n in cells
        }
        parallel = {}
        lock = threading.Lock()

        def work(p, n):
            final = incremental_scan(n, Params(p)).final.diffs
            with lock:
                parallel[(p, n)] = final

        threads = [threading.Thread(target=work, args=cell) for cell in cells]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert parallel == serial
