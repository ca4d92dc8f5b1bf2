"""The warm-started relaxation against the cold one, its certificate, and the avalanche kernel."""

import functools

import numpy as np
import pytest
from hypothesis import find, given, strategies as st

from kspm import Params, fixed_point
from kspm import _engine
from kspm.avalanche import steps
from kspm.errors import WorkLimitExceeded

LIMIT = 10**12


def pushed(b0, p, e):
    """b0 + De for a firing vector e, by the firing rule."""
    b = list(b0) + [0] * (len(e) + p + 1)
    for i, x in enumerate(e):
        b[i] -= (p + 1) * x
        if i:
            b[i - 1] += p * x
        b[i + p] += x
    return b


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [4096, 16383, 16384, 16385, 65537])
def test_warm_start_matches_cold_relax(p, n):
    assert _engine.pile_with_shots(n, p, LIMIT) == _engine.relax([n], n, p, LIMIT)


def test_budget_counts_the_shot_vector():
    n, p = 16384, 2
    b, shots, total = _engine.pile_with_shots(n, p, LIMIT)
    assert total == sum(shots)
    with pytest.raises(WorkLimitExceeded):
        _engine.pile_with_shots(n, p, total - 1)
    with pytest.raises(WorkLimitExceeded):
        fixed_point(n, Params(p), total - 1)
    assert _engine.pile_with_shots(n, p, total) == (b, shots, total)


def test_overshooting_estimate_falls_back(monkeypatch):
    n, p = 16384, 2
    cold = _engine.relax([n], n, p, LIMIT)
    twice = 2 * np.array(cold[1], dtype=np.int64)
    monkeypatch.setattr(_engine, "_estimate", lambda shots, sub, grains, p: twice)
    assert _engine.pile_with_shots(n, p, LIMIT) == cold


class TestCertify:
    @pytest.mark.parametrize("p,n", [(1, 500), (2, 2000), (3, 2000), (4, 5000)])
    def test_accepts_only_the_shot_vector(self, p, n):
        b, u, _ = _engine.pile_with_shots(n, p, LIMIT)
        assert _engine.certify([n], p, u) == b
        left_stable = 0
        for lo in range(len(u)):
            for hi in range(lo + 1, len(u) + 1):
                w = u[:lo] + [x + 1 for x in u[lo:hi]] + u[hi:]
                assert _engine.certify([n], p, w) is None, (lo, hi)
                left_stable += all(v <= p for v in pushed([n], p, w))
        # some of these leave the pile stable: there only burning rejects
        assert left_stable

    def test_single_columns_that_stay_stable(self):
        n, p = 2000, 3
        _, u, _ = _engine.pile_with_shots(n, p, LIMIT)
        stable = []
        for x in range(len(u)):
            w = list(u)
            w[x] += 1
            if all(v <= p for v in pushed([n], p, w)):
                stable.append(x)
            assert _engine.certify([n], p, w) is None
        assert len(stable) > 1

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(st.integers(min_value=0, max_value=4 * p + 4), max_size=10),
                st.data(),
            )
        )
    )
    def test_arbitrary_start(self, case):
        p, b0, data = case
        b = list(b0)
        u: list[int] = []
        _engine.leftmost(b, p, LIMIT, sum(v > p for v in b), shots=u)
        _engine.trim(u)
        assert _engine.certify(b0, p, u) == b
        if u:
            lo = data.draw(st.integers(min_value=0, max_value=len(u) - 1))
            hi = data.draw(st.integers(min_value=lo + 1, max_value=len(u) + p))
            w = u + [0] * (hi - len(u))
            w[lo:hi] = [x + 1 for x in w[lo:hi]]
            assert _engine.certify(b0, p, w) is None


@pytest.mark.parametrize("k", [3, 5, 8])
def test_sliding_min(k):
    x = np.array([5.0, 3, 9, 1, 7, 2, 8, 6, 4, 0, 3])
    padded = np.concatenate([x, np.zeros(k - 1)])
    expected = [padded[i : i + k].min() for i in range(len(x))]
    assert _engine._sliding_min(x, k).tolist() == expected


@functools.cache
def firing_scan_piles(p):
    """Copies of pi(k - 1), k <= 1500, on which the k-th grain starts an avalanche."""
    return [list(b) for _, _, _, b in steps(1499, p) if b[0] == p]


def wavy(p):
    """Stable piles made of waves p, p-1, ..., 1, runs of p, single zeros and any values."""
    piece = st.one_of(
        st.integers(1, 3).map(lambda n: list(range(p, 0, -1)) * n),
        st.integers(1, p + 1).map(lambda n: [p] * n),
        st.just([0]),
        st.integers(0, p).map(lambda v: [v]),
    )
    return st.lists(piece, max_size=16).map(lambda parts: [v for part in parts for v in part])


WAVY_CASES = st.integers(min_value=1, max_value=8).flatmap(lambda p: st.tuples(st.just(p), wavy(p)))


class TestAvalancheKernel:
    """`_engine.avalanche` and `_engine.tail` against the general leftmost loop on the same pile."""

    @staticmethod
    def check(b, p):
        """Whether the kernel took the dense-tail step, after checking it."""
        ref = list(b)
        fired_ref: list[int] = []
        total = _engine.leftmost(ref, p, LIMIT, 1, fired_ref)
        head, last = _engine.avalanche(b, p)
        assert head + _engine.tail(b, p, max(head), last) == fired_ref
        assert b == ref
        assert len(head) + last - max(head) == total
        return last > max(head)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p), max_size=40))
        )
    )
    def test_random_stable_pile_plus_a_grain(self, case):
        p, rest = case
        # column 0 holds p before the grain, so it is the one enabled column
        self.check([p + 1] + rest, p)

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_scan_piles_plus_a_grain(self, p, data):
        piles = firing_scan_piles(p)
        b = list(data.draw(st.sampled_from(piles)))
        b[0] += 1
        self.check(b, p)

    @given(WAVY_CASES)
    def test_wavy_pile_plus_a_grain(self, case):
        p, rest = case
        self.check([p + 1] + rest, p)

    def test_wavy_piles_reach_the_dense_tail(self):
        # raises NoSuchExample if no drawn pile takes the dense-tail step
        find(WAVY_CASES, lambda case: self.check([case[0] + 1] + case[1], case[0]))

    @pytest.mark.parametrize("p, n", [(64, 3000), (1000, 3000)])
    def test_steps_at_large_p(self, p, n):
        ref: list[int] = []
        for k, head, last, b in steps(n, p):
            ref = ref or [0]
            ref[0] += 1
            fired: list[int] = []
            total = _engine.leftmost(ref, p, LIMIT, int(ref[0] > p), fired)
            assert b == ref, k
            assert head + _engine.tail(b, p, max(head, default=-1), last) == fired
            assert len(head) + last - max(head, default=-1) == total
