"""Shot vectors, the window and averaging systems, and the spectrum checks."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from kspm import (
    AvgVector,
    Configuration,
    Params,
    ShotVector,
    XVector,
    avg_step,
    avg_trajectory,
    first_constant_index,
    fixed_point,
    incremental_scan,
    pile,
    reconstruct_b,
    shot_vector,
    spectrum,
    trajectory_of,
    x_step,
    x_to_avg,
)
from kspm.errors import IndexOutOfRange, InvalidParameter, NonIntegral

import reference


class TestShotVector:
    def test_n24(self):
        sv = shot_vector(24, Params(2))
        assert sv.counts == (8, 1, 2)

    def test_n2000_p4_counts(self):
        sv = shot_vector(2000, Params(4))
        assert sv.a(4) == 189
        assert sv.a(8) == 120
        assert sv.a(9) == 103

    def test_empty(self):
        assert shot_vector(0, Params(3)).counts == ()

    def test_boundary_convention(self):
        sv = shot_vector(24, Params(2))
        assert sv.a(-2) == 24
        assert sv.a(-1) == 0
        assert sv.a(100) == 0
        with pytest.raises(IndexOutOfRange):
            sv.a(-3)

    def test_a0_bounded_by_n_over_p(self):
        for p in (1, 2, 5):
            for n in (1, 10, 313, 1024):
                sv = shot_vector(n, Params(p))
                assert sv.a(0) <= n / p

    @pytest.mark.parametrize("p", range(1, 7))
    def test_avg_vector_is_a_window_of_differences(self, p):
        """Y_n = (a_{n-p+1} - a_{n-p}, ..., a_n - a_{n-1}) at every n from 0 to width + p."""
        for grains in (1, 24, 777, 4097):
            pi, sv = pile(grains, Params(p))
            for n in range(pi.width() + p + 1):
                expected = tuple(sv.a(i + 1) - sv.a(i) for i in range(n - p, n))
                assert sv.avg_vector(n).entries == expected, (grains, n)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_relation_reconstructs_fixed_point(self, p):
        for n in (0, 1, 24, 100, 777):
            sv = shot_vector(n, Params(p))
            assert sv.fixed_point() == fixed_point(n, Params(p))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_counts_of_the_height_rule_run(self, p):
        """Against the height-rule oracle, which shares no engine with the package;
        1025 and 4097 cross the relax cutoffs (1024 at p=1, 4096 above)."""
        for n in (0, 1, 24, 777, 1025, 4097):
            fired: list[int] = []
            reference.HeightPile([n], p).leftmost_run(fired=fired)
            assert shot_vector(n, Params(p)).counts == tuple(reference.shot_counts(fired)), n

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_relation_along_full_scan(self, p):
        """b_n = a_{n-p} - (p+1) a_n + p a_{n+1} at every k <= 2000, every n.

        Shot counts are accumulated from the avalanche records (each
        column fires at most once per avalanche), an independent route
        from the stabilization engine's own counters.
        """
        shots: list[int] = []
        failures = []

        def sink(k, record, c):
            for col in record.fired:
                if col >= len(shots):
                    shots.extend([0] * (col + 1 - len(shots)))
                shots[col] += 1
            width = c.width()
            for n in range(width + p):
                a_nm_p = shots[n - p] if 0 <= n - p < len(shots) else (k if n == 0 else 0)
                a_n = shots[n] if n < len(shots) else 0
                a_n1 = shots[n + 1] if n + 1 < len(shots) else 0
                b_n = c.diffs[n] if n < width else 0
                if b_n != a_nm_p - (p + 1) * a_n + p * a_n1:
                    failures.append((k, n))

        incremental_scan(2000, Params(p), sink)
        assert not failures


class TestReconstructB:
    def test_known_pile2000_pair(self):
        assert reconstruct_b(189, 120, Params(4)) == {1}

    def test_ambiguous(self):
        assert reconstruct_b(0, 0, Params(4)) == {0, 4}

    def test_always_contains_truth(self):
        from kspm.dds import pile

        cases = [(2, n) for n in range(1, 501)] + [(3, n) for n in range(1, 301, 7)]
        for p, n_grains in cases:
            params = Params(p)
            pi, sv = pile(n_grains, params)
            for n in range(pi.width() + p):
                b_n = pi.diffs[n] if n < pi.width() else 0
                candidates = reconstruct_b(sv.a(n - p), sv.a(n), params)
                assert b_n in candidates
                assert candidates in ({b_n}, {0, p})


class TestXStep:
    def test_window_step_reproduces_known_count(self):
        sv = shot_vector(2000, Params(4))
        x8 = sv.x_vector(8)
        assert x8.entries == (sv.a(4), sv.a(5), sv.a(6), sv.a(7), 120)
        assert x8.entries[0] == 189
        x9 = x_step(x8, 1, Params(4))
        assert x9.entries[-1] == 103

    def test_first_window_step_of_pile24(self):
        x0 = XVector((24, 0, 8))
        assert x_step(x0, 2, Params(2)).entries == (0, 8, 1)

    def test_non_integral(self):
        with pytest.raises(NonIntegral):
            x_step(XVector((24, 0, 8)), 1, Params(2))

    def test_validates_b_range(self):
        with pytest.raises(InvalidParameter):
            x_step(XVector((24, 0, 8)), 3, Params(2))

    def test_window_consistency_along_shot_vector(self):
        for p, n_grains in ((2, 24), (3, 100), (4, 2000)):
            params = Params(p)
            sv = shot_vector(n_grains, params)
            pi = fixed_point(n_grains, params)
            x = sv.x_vector(0)
            for n in range(pi.width() + p):
                b_n = pi.diffs[n] if n < pi.width() else 0
                x = x_step(x, b_n, params)
                assert x == sv.x_vector(n + 1)


class TestAvgStep:
    def test_known_step_of_pile2000(self):
        y = AvgVector((-3, -5, -7, -7))
        assert avg_step(y, 2, Params(4)).entries == (-5, -7, -7, -5)

    def test_constant_with_zero(self):
        assert avg_step(AvgVector((4, 4, 4)), 0, Params(3)).entries == (4, 4, 4)

    def test_constant_with_p(self):
        assert avg_step(AvgVector((4, 4, 4)), 3, Params(3)).entries == (4, 4, 5)

    def test_non_integral(self):
        with pytest.raises(NonIntegral):
            avg_step(AvgVector((-3, -5, -7, -7)), 1, Params(4))

    def test_p1_reduces_to_accumulation(self):
        assert avg_step(AvgVector((5,)), 1, Params(1)).entries == (6,)
        assert avg_step(AvgVector((5,)), 0, Params(1)).entries == (5,)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60)
    def test_commutes_with_window_step(self, p, data):
        """Projecting the window to differences then stepping equals
        stepping the window then projecting."""
        params = Params(p)
        entries = tuple(
            data.draw(st.integers(-50, 50)) for _ in range(p + 1)
        )
        x = XVector(entries)
        r = (entries[0] - (p + 1) * entries[-1]) % p
        b = data.draw(st.sampled_from([0, p])) if r == 0 else r
        assert avg_step(x_to_avg(x), b, params) == x_to_avg(x_step(x, b, params))


_P2 = Params(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: avg_step(AvgVector((0, 0)), 2.0, _P2),
        lambda: avg_step(AvgVector((0, 0)), True, _P2),
        lambda: avg_step(AvgVector((1.0, 0)), 1, _P2),
        lambda: avg_step(AvgVector((True, 0)), 1, _P2),
        lambda: x_step(XVector((0, 0, 0)), 2.0, _P2),
        lambda: x_step(XVector((0, 0, 0)), True, _P2),
        lambda: x_step(XVector((1.0, 2, 3)), 0, _P2),
        lambda: x_step(XVector((True, 2, 3)), 0, _P2),
        lambda: x_to_avg(XVector((1.0, 2, 3))),
        lambda: x_to_avg(XVector((True, 2, 3))),
        lambda: reconstruct_b(1.5, 2, _P2),
        lambda: reconstruct_b(2, 1.5, _P2),
        lambda: reconstruct_b(True, 0, _P2),
        lambda: shot_vector(24, _P2).a(1.5),
        lambda: shot_vector(24, _P2).a(-1.5),
        lambda: shot_vector(24, _P2).a(True),
    ],
    ids=[
        "avg_step-float", "avg_step-bool", "avg_step-float-entry", "avg_step-bool-entry",
        "x_step-float", "x_step-bool", "x_step-float-entry", "x_step-bool-entry",
        "x_to_avg-float-entry", "x_to_avg-bool-entry", "reconstruct_b-float-a",
        "reconstruct_b-float-b", "reconstruct_b-bool", "a-float", "a-negative-float", "a-bool",
    ],
)
def test_exact_systems_reject_non_int(call):
    """The integer systems never coerce: floats and bools raise, not round or pass."""
    with pytest.raises(InvalidParameter):
        call()


class TestAvgTrajectory:
    def test_y0_of_pile24(self):
        traj = avg_trajectory(24, Params(2))
        assert traj[0].entries == (-24, 8)
        assert traj[1].entries == (8, -7)

    def test_pile2000_regression_states(self):
        traj = avg_trajectory(2000, Params(4))
        assert traj[13].entries == (-3, -5, -7, -7)
        assert traj[14].entries == (-5, -7, -7, -5)

    def test_forced_b13(self):
        # the congruence pins b_13 given a_9 and a_13
        params = Params(4)
        sv = shot_vector(2000, params)
        assert reconstruct_b(sv.a(9), sv.a(13), params) == {2}
        assert fixed_point(2000, params).diffs[13] == 2

    def test_single_grain(self):
        for p in (1, 2, 4):
            traj = avg_trajectory(1, Params(p))
            assert traj[0].entries == (-1,) + (0,) * (p - 1)

    def test_ends_constant_zero(self):
        traj = avg_trajectory(100, Params(3))
        assert traj[-1].entries == (0, 0, 0)

    @pytest.mark.parametrize("p,n", [(1, 50), (2, 300), (5, 123)])
    def test_integrality_and_consistency(self, p, n):
        # construction raises Inconsistent/NonIntegral if either fails
        traj = avg_trajectory(n, Params(p))
        assert all(isinstance(v, int) for y in traj for v in y.entries)

    @pytest.mark.parametrize("p,n", [(2, 1024), (3, 2048), (4, 4096)])
    def test_monotone_envelope(self, p, n):
        """While non-constant: min never drops, max never grows, and the
        spread strictly shrinks within p further steps."""
        traj = avg_trajectory(n, Params(p))
        for i, y in enumerate(traj[:-1]):
            if y.is_constant():
                continue
            nxt = traj[i + 1]
            assert min(nxt.entries) >= min(y.entries)
            assert max(nxt.entries) <= max(y.entries)
            spread = max(y.entries) - min(y.entries)
            window = traj[i + 1 : i + p + 1]
            if len(window) == p:
                assert any(
                    max(w.entries) - min(w.entries) < spread for w in window
                )


    @pytest.mark.parametrize(
        "pi_of,sv_of,params",
        [
            ((99, 2), (100, 2), 2),  # N differs between pi and sv
            ((100, 3), (100, 2), 2),  # p differs between pi and sv
            ((100, 2), (100, 2), 3),  # params differs from both
        ],
        ids=["grains", "p", "params"],
    )
    def test_mismatched_inputs_rejected(self, pi_of, sv_of, params):
        pi = pile(pi_of[0], Params(pi_of[1]))[0]
        sv = pile(sv_of[0], Params(sv_of[1]))[1]
        with pytest.raises(InvalidParameter):
            trajectory_of(pi, sv, Params(params))


    @pytest.mark.parametrize(
        "p, n", [*((p, n) for p in range(1, 7) for n in (1, 24, 777, 4097)), (2, 2**17 + 300)])
    def test_against_stepwise_reference(self, p, n):
        """Every state equals the one `avg_step` reaches from `sv.avg_vector(0)`."""
        params = Params(p)
        pi, sv = pile(n, params)
        expected = [sv.avg_vector(0)]
        for b_n in pi.diffs + (0,) * p:
            expected.append(avg_step(expected[-1], b_n, params))
        assert trajectory_of(pi, sv, params) == expected

    @pytest.mark.parametrize("p", range(1, 7))
    def test_unstable_pile_rejected(self, p):
        """An unstable pi with the shot vector that rebuilds it: b_0 = p + 1 is outside 0..p."""
        params = Params(p)
        pi, sv = Configuration((p + 1,), params), ShotVector((), p + 1, params)
        assert sv.fixed_point() == pi
        with pytest.raises(InvalidParameter, match=rf"b must be an int in 0\.\.{p}, got {p + 1}"):
            trajectory_of(pi, sv, params)

    def test_check_order(self):
        """The grain count first, then the pair's match, then each b_n in order."""
        params = Params(2)
        empty = Configuration((), params)
        with pytest.raises(InvalidParameter, match="grain count must be an int >= 1, got 0"):
            trajectory_of(empty, ShotVector((), 0, params), params)
        with pytest.raises(InvalidParameter, match="grain count must be an int >= 1, got 0"):
            trajectory_of(empty, ShotVector((), 0, Params(3)), params)
        with pytest.raises(InvalidParameter, match="shot vector does not match"):
            trajectory_of(Configuration((3,), params), ShotVector((), 4, params), params)


class TestFirstConstantIndex:
    def test_synthetic_constant_start(self):
        assert first_constant_index([AvgVector((3, 3, 3))]) == 0

    def test_synthetic_never_constant(self):
        traj = [AvgVector((1, 2)), AvgVector((0, 5))]
        assert first_constant_index(traj) is None

    def test_p1_is_zero(self):
        assert first_constant_index(avg_trajectory(10, Params(1))) == 0

    def test_n2000_p4_at_most_20(self):
        idx = first_constant_index(avg_trajectory(2000, Params(4)))
        assert idx is not None and idx <= 20

    def test_pile24_value(self):
        # hand-computed from the shot vector (8, 1, 2)
        assert first_constant_index(avg_trajectory(24, Params(2))) == 5


class TestSpectrum:
    def test_p2_closed_form(self):
        report = spectrum(Params(2))
        assert len(report.roots) == 1
        assert abs(report.roots[0] - (-0.5)) < 1e-12
        assert abs(report.max_modulus - 0.5) < 1e-12
        assert report.distinct

    def test_p3_closed_form(self):
        report = spectrum(Params(3))
        assert len(report.roots) == 2
        for z in report.roots:
            assert abs(abs(z) - math.sqrt(1 / 3)) < 1e-12
        assert report.max_modulus <= 2 / 3 + 1e-9

    def test_p1_trivial(self):
        report = spectrum(Params(1))
        assert report.roots == ()
        assert report.distinct
        assert report.dm_max_error == 0.0

    @pytest.mark.parametrize("p", list(range(2, 65)))
    def test_sweep(self, p):
        report = spectrum(Params(p))
        assert report.distinct
        assert report.max_modulus <= (p - 1) / p + 1e-9
        assert report.dm_max_error <= 1e-7
        assert len(report.roots) == p - 1

    @pytest.mark.parametrize("tolerance", ["x", True, -1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(InvalidParameter):
            spectrum(Params(4), tolerance)
