"""Shot vectors and the derived integer dynamical systems.

The shot vector (a_i) counts how often each column fired on the way from
the single pile to its fixed point.  With the boundary convention
a_{-p} = N and a_i = 0 for -p < i < 0 (column 0 starts with all N units
of height difference), the fixed point and the shot vector are linked by

    b_n = a_{n-p} - (p+1) a_n + p a_{n+1}        for every n >= 0,

so  a_{n+1} = (-a_{n-p} + (p+1) a_n + b_n) / p  in exact integers: the
division is forced by a congruence, which also pins b_n down to one value
(or to {0, p} when the congruence is already satisfied).  From the right
end, where a_n = 0 from len(b) - p on, a_{n-p} = b_n + (p+1) a_n - p a_{n+1}
needs no division: `_engine.odometer` reads each shot vector off its pile.

Sliding windows of the shot vector evolve linearly.  X_n holds the p+1
counts a_{n-p} .. a_n; one step shifts the window and appends the exact
quotient above.  Changing basis and projecting out one component turns
this into the averaging system on Z^p,

    Y_{n+1} = shift up, append mean(Y_n) + b_n / p,

whose state Y_n = x_to_avg(X_n) holds consecutive shot-vector differences,
so `trajectory_of` reads each Y_n off them: sum(Y_n) + b_n = p (a_{n+1} - a_n)
is the identity above, which it checks once.
All dynamics here stay in exact integer arithmetic; floating point
appears only in `spectrum`, which checks the eigenvalue claims behind the
contraction argument (roots of R, spectral radius of the mean-centered
step matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import Configuration, DEFAULT_WORK_LIMIT, Params, _single_pile, check_grains
from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    NonIntegral,
    NumericalFailure,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ShotVector:
    """Per-column firing counts for the pile of `grains` on column 0."""

    counts: tuple[int, ...]
    grains: int
    params: Params

    def a(self, i: int) -> int:
        """Count at index i, honoring the boundary convention below 0."""
        if type(i) is not int:
            raise InvalidParameter(f"index must be an int, got {i!r}")
        if i >= 0:
            return self.counts[i] if i < len(self.counts) else 0
        if i == -self.params.p:
            return self.grains
        if i > -self.params.p:
            return 0
        raise IndexOutOfRange(f"index {i} below -p = {-self.params.p}")

    def fixed_point(self) -> Configuration:
        """Rebuild pi(N) from the counts by the identity forwards; `_engine.odometer` inverts it."""
        p, a = self.params.p, self._padded()
        diffs = [a[n] - (p + 1) * a[n + p] + p * a[n + p + 1] for n in range(len(self.counts) + p)]
        return Configuration(tuple(diffs), self.params)

    def _padded(self) -> list[int]:
        """a_{-p} .. a_{len(counts) + 2p} as a plain list, a_i at index i + p."""
        p = self.params.p
        return [self.grains, *[0] * (p - 1), *self.counts, *[0] * (2 * p + 1)]

    def x_vector(self, n: int) -> "XVector":
        p = self.params.p
        return XVector(tuple(self.a(n - p + j) for j in range(p + 1)))

    def avg_vector(self, n: int) -> "AvgVector":
        return x_to_avg(self.x_vector(n))


@dataclass(frozen=True)
class XVector:
    """Window (a_{n-p}, ..., a_n) of the shot vector."""

    entries: tuple[int, ...]


@dataclass(frozen=True)
class AvgVector:
    """Consecutive shot-vector differences (may be negative)."""

    entries: tuple[int, ...]

    def is_constant(self) -> bool:
        return len(set(self.entries)) <= 1

    def mean_numerator(self) -> int:
        """Sum of entries: the mean times p, kept exact."""
        return sum(self.entries)


@dataclass(frozen=True)
class SpectrumReport:
    """Numerical check of the contraction eigenvalues for one p."""

    p: int
    roots: tuple[complex, ...]
    max_modulus: float
    distinct: bool
    dm_eigenvalues: tuple[complex, ...]
    dm_max_error: float

    def modulus_bound(self) -> float:
        return (self.p - 1) / self.p


def pile(
    grains: int, params: Params, work_limit: int = DEFAULT_WORK_LIMIT
) -> tuple[Configuration, ShotVector]:
    """Fixed point and shot vector of `grains` on column 0, from one run."""
    pi, shots = _single_pile(grains, params, work_limit)
    return pi, ShotVector(tuple(shots), grains, params)


def shot_vector(
    grains: int, params: Params, work_limit: int = DEFAULT_WORK_LIMIT
) -> ShotVector:
    """Firing counts accumulated while stabilizing the single pile."""
    return pile(grains, params, work_limit)[1]


def reconstruct_b(a_nm_p: int, a_n: int, params: Params) -> set[int]:
    """Possible b_n values given the counts at n-p and n.

    The congruence -a_{n-p} + (p+1) a_n + b_n = 0 (mod p) pins b_n to a
    single value in 0..p, except when the residue is 0, where both 0 and
    p remain possible.
    """
    if type(a_nm_p) is not int or type(a_n) is not int:
        raise InvalidParameter(f"counts must be ints, got {a_nm_p!r} and {a_n!r}")
    p = params.p
    r = (a_nm_p - (p + 1) * a_n) % p
    return {0, p} if r == 0 else {r}


def x_step(x: XVector, b_n: int, params: Params) -> XVector:
    """One move of the window system: shift left, append the new count."""
    p = params.p
    if len(x.entries) != p + 1:
        raise InvalidParameter(f"window must have p+1 = {p + 1} entries")
    _check_ints(x.entries)
    if type(b_n) is not int or not 0 <= b_n <= p:
        raise InvalidParameter(f"b must be an int in 0..{p}, got {b_n!r}")
    num = -x.entries[0] + (p + 1) * x.entries[-1] + b_n
    if num % p:
        raise NonIntegral(f"({x.entries[0]}, {x.entries[-1]}, b={b_n}) leaves Z")
    return XVector(x.entries[1:] + (num // p,))


def avg_step(y: AvgVector, b_n: int, params: Params) -> AvgVector:
    """One move of the averaging system: shift up, append mean + b/p."""
    p = params.p
    if len(y.entries) != p:
        raise InvalidParameter(f"state must have p = {p} entries")
    _check_ints(y.entries)
    if type(b_n) is not int or not 0 <= b_n <= p:
        raise InvalidParameter(f"b must be an int in 0..{p}, got {b_n!r}")
    num = sum(y.entries) + b_n
    if num % p:
        raise NonIntegral(f"sum {sum(y.entries)} with b={b_n} leaves Z")
    return AvgVector(y.entries[1:] + (num // p,))


def x_to_avg(x: XVector) -> AvgVector:
    """Basis change + projection: consecutive differences of the window."""
    e = x.entries
    _check_ints(e)
    return AvgVector(tuple(e[j + 1] - e[j] for j in range(len(e) - 1)))


def _check_ints(entries: tuple[int, ...]) -> None:
    """Reject a caller-built state with an entry that is not an int: a float or a bool."""
    if any(type(v) is not int for v in entries):
        raise InvalidParameter(f"entries must be ints, got {entries!r}")


def avg_trajectory(
    grains: int, params: Params, work_limit: int = DEFAULT_WORK_LIMIT
) -> list[AvgVector]:
    """Y_0, Y_1, ... driven by the fixed point's height differences.

    Y_0 = (-N, 0, ..., 0, a_0); each state is a difference slice of the
    simulated shot vector.  The trajectory runs to width + p, by which
    point it is the constant zero vector.
    """
    pi, sv = pile(grains, params, work_limit)
    return trajectory_of(pi, sv, params)


def trajectory_of(pi: Configuration, sv: ShotVector, params: Params) -> list[AvgVector]:
    """The averaging trajectory of `avg_trajectory` from an existing
    fixed point pi(N), N >= 1, and its shot vector; InvalidParameter unless
    sv has these params and rebuilds pi, or pi is unstable.  Y_n is
    d[n : n + p], with d[i + p] = a_{i+1} - a_i, so sum(Y_n) = a_n - a_{n-p}
    and each step's sum(Y_n) + b_n = p (a_{n+1} - a_n) is the identity that
    rebuilding pi checks; past len(counts) + p every term is 0."""
    check_grains(sv.grains, 1)
    if sv.params != params or sv.fixed_point() != pi:
        raise InvalidParameter("shot vector does not match the fixed point and params")
    p = params.p
    for b_n in pi.diffs:
        if b_n > p:
            raise InvalidParameter(f"b must be an int in 0..{p}, got {b_n!r}")
    a = sv._padded()  # reaches a_{width + p}: sv rebuilds pi, so width <= len(counts) + p
    d = [y - x for x, y in zip(a, a[1:])]
    return [AvgVector(tuple(d[n : n + p])) for n in range(pi.width() + p + 1)]


def first_constant_index(traj) -> int | None:
    """Smallest n with Y_n constant; None if absent (an anomaly)."""
    for n, y in enumerate(traj):
        if y.is_constant():
            return n
    return None


def averaging_matrix(p: int) -> np.ndarray:
    """The linear part of the averaging step (shift + mean row)."""
    import numpy as np

    m = np.zeros((p, p))
    for i in range(p - 1):
        m[i, i + 1] = 1.0
    m[p - 1, :] = 1.0 / p
    return m


def mean_centering_matrix(p: int) -> np.ndarray:
    """Projection sending a vector to its differences from its mean."""
    import numpy as np

    return np.eye(p) - np.full((p, p), 1.0 / p)


_DISTINCT = 1e-9  # roots closer than this count as one in `spectrum`


def spectrum(params: Params) -> SpectrumReport:
    """Roots of R(x) = x^{p-1} + ((p-1)/p) x^{p-2} + ... + 1/p, plus the
    eigenvalues of the mean-centered step matrix.

    The claims under test: the p-1 roots are pairwise distinct with
    modulus at most (p-1)/p, and the centered matrix's eigenvalues are
    exactly {0} plus those roots (hence a contraction).  `distinct` and
    `dm_max_error` report the outcome; callers assert against their own
    tolerances.  Roots come from the companion-matrix eigenproblem, which
    is robust at the degrees used here.
    """
    import numpy as np

    p = params.p
    if p == 1:
        return SpectrumReport(1, (), 0.0, True, (0.0 + 0.0j,), 0.0)
    coeffs = [(p - j) / p for j in range(p)]  # leading 1, then (p-1)/p ... 1/p
    try:
        roots = np.roots(coeffs)
        dm = mean_centering_matrix(p) @ averaging_matrix(p)
        dm_eig = np.linalg.eigvals(dm)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc
    roots = tuple(sorted(map(complex, roots), key=lambda z: (z.real, z.imag)))
    max_modulus = max(abs(z) for z in roots)
    distinct = all(
        abs(roots[i] - roots[j]) > _DISTINCT
        for i in range(len(roots))
        for j in range(i + 1, len(roots))
    )
    # match the multiset {0} + roots against the computed eigenvalues
    expected = [0j] + list(roots)
    eig = sorted(map(complex, dm_eig), key=lambda z: (z.real, z.imag))
    err = _multiset_distance(expected, eig)
    return SpectrumReport(p, roots, float(max_modulus), distinct, tuple(eig), err)


def _multiset_distance(expected: list[complex], got: list[complex]) -> float:
    """Greedy nearest matching; adequate for well-separated eigenvalues."""
    remaining = list(got)
    worst = 0.0
    for z in expected:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - z))
        worst = max(worst, abs(remaining[best] - z))
        remaining.pop(best)
    return worst
