"""Verification suites: passing runs, empty ranges and firing budgets."""

import threading

import pytest

from kspm import Params, _engine, analysis, avalanche, dds, fixed_point, incremental_scan, verify
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

import reference


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
        # L'(2, k) for k <= 300 from leftmost on each pile plus a grain, and brute-force holes
        b, lps = [0], []
        for _ in range(300):
            b[0] += 1
            fired = []
            _engine.leftmost(b, 2, 10**10, fired)
            holes = reference.brute_holes(fired)
            lps.append(holes[-1] + 1 if holes else 0)
        assert result.data["l_global"] == max(lps) > 0
        assert result.data["checkpoints"][256] == max(lps[:256])

    def test_recurrence(self):
        assert check_recurrence(3, 60).passed

    def test_spectrum_fails_on_a_bad_polynomial(self, monkeypatch):
        # (x+1)^2 in place of 3 R at p=3: the first p whose claims fail
        good = dds.r_coefficients
        monkeypatch.setattr(dds, "r_coefficients", lambda p: [1, 2, 1] if p == 3 else good(p))
        result = check_spectrum(4)
        assert not result.passed
        assert result.line() == (
            "FAIL: spectrum p<=4 repeated root: gcd(P, P') is not a nonzero constant at p=3")
        assert result.counterexample == {"p": 3, "coefficients": [1, 2, 1]}

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


def _steps_with(edit):
    """`avalanche.steps` with `edit(k, step)` applied to each step; a None edit stops there."""
    real = avalanche.steps

    def steps(grains, p, work_limit):
        for k, *step in real(grains, p, work_limit):
            step = edit(k, [k, *step])
            if step is None:
                return
            yield tuple(step)

    return steps


class TestFailPaths:
    """Each FAIL's line, detail and counterexample, forced by feeding the suite bad data."""

    @pytest.mark.parametrize(
        "p, n_max, k_bad, width, line, counterexample",
        [
            (2, 300, 100, 33, "FAIL: support p=2 width 33 outside (4.000, 33.000) at N=100",
             {"p": 2, "N": 100, "width": 33, "lower": 4.0, "upper": 33.0}),
            (3, 300, 37, 29, "FAIL: support p=3 width 29 outside (1.028, 28.331) at N=37",
             {"p": 3, "N": 37, "width": 29, "lower": 1.0275875100994063,
              "upper": 28.331050121192877}),
            (2, 3000, 2500, 24, "FAIL: support p=2 width 24 outside (24.000, 153.000) at N=2500",
             {"p": 2, "N": 2500, "width": 24, "lower": 24.0, "upper": 153.0}),
            (3, 3000, 2000, 13, "FAIL: support p=3 width 13 outside (13.907, 182.885) at N=2000",
             {"p": 3, "N": 2000, "width": 13, "lower": 13.9071198499986,
              "upper": 182.88543819998318}),
        ],
        ids=["wide-p2", "wide-p3", "narrow-p2", "narrow-p3"],
    )
    def test_support(self, monkeypatch, p, n_max, k_bad, width, line, counterexample):
        # the pile at k_bad padded to the first width at or past the upper
        # bound, or cut to the last width at or below the lower one
        def edit(k, step):
            if k < k_bad:
                return step
            if k > k_bad:
                return None
            b = step[-1]
            step[-1] = b[:width] + [1] * (width - len(b))
            return step

        monkeypatch.setattr(avalanche, "steps", _steps_with(edit))
        result = check_support(p, n_max)
        assert not result.passed
        assert result.line() == line
        assert result.detail == line.split(f"support p={p} ", 1)[1]
        assert result.counterexample == counterexample

    @pytest.mark.parametrize(
        "p, k_bad, line, counterexample",
        [
            (2, 98, "FAIL: density p=2 L'=54 > emergence(pi(97)) + p + 1 = 10 at k=98",
             {"p": 2, "k": 98, "l_prime": 54, "bound": 10, "prev_emergence": 7,
              "fired": [0, 2, 4, 6, 5, 7]}),
            (3, 138, "FAIL: density p=3 L'=52 > emergence(pi(137)) + p + 1 = 14 at k=138",
             {"p": 3, "k": 138, "l_prime": 52, "bound": 14, "prev_emergence": 10,
              "fired": [0, 3, 2, 6, 5, 4, 7, 8]}),
        ],
    )
    def test_density(self, monkeypatch, p, k_bad, line, counterexample):
        def edit(k, step):  # L' moved 50 columns right at k_bad
            if k == k_bad:
                step[2] += 50
            return step

        monkeypatch.setattr(avalanche, "steps", _steps_with(edit))
        result = check_density(p, 200)
        assert not result.passed
        assert result.line() == line
        assert result.detail == line.split(f"density p={p} ", 1)[1]
        assert result.counterexample == counterexample
        assert result.data == {}

    def test_linkage_without_constant_state(self, monkeypatch):
        monkeypatch.setattr(dds, "first_constant_index", lambda traj: None)
        result = check_linkage(2, [5, 24])
        assert not result.passed
        assert result.line() == "FAIL: linkage p=2 no constant averaging state for N=5"
        assert result.detail == "no constant averaging state for N=5"
        assert result.counterexample == {"p": 2, "N": 5}

    def test_linkage_suffix_not_wavy(self, monkeypatch):
        monkeypatch.setattr(dds, "first_constant_index", lambda traj: 0)
        result = check_linkage(3, [24, 100])
        assert not result.passed
        assert result.line() == (
            "FAIL: linkage p=3 suffix from first constant index 0 not wavy for N=24")
        assert result.detail == "suffix from first constant index 0 not wavy for N=24"
        assert result.counterexample == {
            "p": 3, "N": 24, "first_constant_index": 0, "diffs": [0, 0, 3, 2, 0, 0, 1]}

    def test_recurrence(self, monkeypatch):
        good = verify.fixed_point
        # from scratch, k = 24 grains come back as pi(23)
        monkeypatch.setattr(verify, "fixed_point",
                            lambda k, params, limit: good(k - (k == 24), params, limit))
        result = check_recurrence(2, 40)
        assert not result.passed
        assert result.line() == (
            "FAIL: recurrence p=2 incremental and from-scratch piles differ at k=24")
        assert result.detail == "incremental and from-scratch piles differ at k=24"
        assert result.counterexample == {
            "p": 2, "k": 24, "incremental": [2, 1, 2, 1, 2], "scratch": [1, 1, 2, 1, 2]}


class TestSettledWork:
    """The sweeps skip work a proof settles; a FAIL that the skipped work would
    have found still comes at the same k, with the same line and counterexample."""

    @pytest.mark.parametrize(
        "p, k_frozen, k_bad, line, counterexample",
        [
            (1, 30, 81, "FAIL: support p=1 width 8 outside (8.000, 20.000) at N=81",
             {"p": 1, "N": 81, "width": 8, "lower": 8.0, "upper": 20.0}),
            (2, 50, 256, "FAIL: support p=2 width 7 outside (7.000, 51.000) at N=256",
             {"p": 2, "N": 256, "width": 7, "lower": 7.0, "upper": 51.0}),
            (3, 40, 576, "FAIL: support p=3 width 7 outside (7.000, 100.000) at N=576",
             {"p": 3, "N": 576, "width": 7, "lower": 7.0, "upper": 100.0}),
        ],
        ids=["p1", "p2", "p3"],
    )
    def test_support_frozen_width(self, monkeypatch, p, k_frozen, k_bad, line, counterexample):
        """The pile stops changing at k_frozen, so its width never changes again:
        the lower bound alone must catch it, at the first k where sqrt(k)/p - 1
        reaches the width."""
        frozen = []

        def edit(k, step):
            if k == k_frozen:
                frozen.extend(step[-1])
            if k >= k_frozen:
                step[-1] = list(frozen)
            return step

        monkeypatch.setattr(avalanche, "steps", _steps_with(edit))
        result = check_support(p, 3000)
        assert not result.passed
        width = len(frozen)
        assert k_bad == next(k for k in range(k_frozen, 3001)
                             if analysis._support_limits(k, p)[0] >= width)
        assert result.line() == line
        assert result.counterexample == counterexample

    @pytest.mark.parametrize(
        "p, k_bad, line, counterexample",
        [
            (1, 7, "FAIL: density p=1 L'=50 > emergence(pi(6)) + p + 1 = 2 at k=7",
             {"p": 1, "k": 7, "l_prime": 50, "bound": 2, "prev_emergence": 0,
              "fired": [0, 1, 2]}),
            (2, 3, "FAIL: density p=2 L'=50 > emergence(pi(2)) + p + 1 = 4 at k=3",
             {"p": 2, "k": 3, "l_prime": 50, "bound": 4, "prev_emergence": 1, "fired": [0]}),
        ],
        ids=["p1", "p2"],
    )
    def test_density_after_an_empty_avalanche(self, monkeypatch, p, k_bad, line, counterexample):
        """Grain k_bad - 1 started no avalanche but changed the emergence index
        of the pile it left, which the FAIL at k_bad must report."""
        piles = {k: (list(b), head) for k, head, _, _, b in avalanche.steps(k_bad - 1, p)}
        b, head = piles[k_bad - 1]
        assert head == [] and b[0] == p
        emergence = analysis.emergence_index(fixed_point(k_bad - 1, Params(p)))
        last_avalanche = max((k for k in piles if piles[k][1]), default=0)
        assert emergence != (analysis._tight_index(piles[last_avalanche][0], p)
                             if last_avalanche else 0)

        def edit(k, step):  # L' moved 50 columns right at k_bad
            if k == k_bad:
                step[2] += 50
            return step

        monkeypatch.setattr(avalanche, "steps", _steps_with(edit))
        result = check_density(p, 100)
        assert not result.passed
        assert result.counterexample["prev_emergence"] == emergence
        assert result.line() == line
        assert result.counterexample == counterexample


class TestEmptyRanges:
    @pytest.mark.parametrize(
        "check, args",
        [
            pytest.param(check_confluence, (2, 0), id="confluence"),
            pytest.param(check_plateau, (2, 0), id="plateau"),
            pytest.param(check_recurrence, (2, 0), id="recurrence"),
            pytest.param(check_spectrum, (1,), id="spectrum"),
            pytest.param(check_linkage, (2, []), id="linkage"),
            pytest.param(check_linkage, (2, [5, "a"]), id="linkage-str"),
            pytest.param(check_linkage, (2, [5, None]), id="linkage-none"),
            pytest.param(check_linkage, (2, 5), id="linkage-int"),
            pytest.param(check_waves, (2, 0), id="waves"),
            pytest.param(check_support, (2, 0), id="support"),
            pytest.param(check_density, (2, 0), id="density"),
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


def final_pile(n, p):
    """pi(n) as the last pile of a scan."""
    for *_, b in avalanche.steps(n, p):
        pass
    return tuple(b)


class TestConcurrency:
    def test_parallel_scans_match_serial(self):
        """Distinct (p, N) scans share no state and can run concurrently."""
        cells = [(1, 150), (2, 200), (3, 120), (4, 90)]
        serial = {(p, n): final_pile(n, p) for p, n in cells}
        parallel = {}
        lock = threading.Lock()

        def work(p, n):
            final = final_pile(n, p)
            with lock:
                parallel[(p, n)] = final

        threads = [threading.Thread(target=work, args=cell) for cell in cells]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert parallel == serial
        assert serial == {(p, n): fixed_point(n, Params(p)).diffs for p, n in cells}
