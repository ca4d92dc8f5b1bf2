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

The consecutive differences of the shot vector evolve as the averaging
system on Z^p,

    Y_{n+1} = shift up, append mean(Y_n) + b_n / p,

whose state Y_n holds a_{i+1} - a_i for i = n-p .. n-1, so `trajectory_of`
reads each Y_n off them: sum(Y_n) + b_n = p (a_{n+1} - a_n) is the identity
above, which it checks once.
All dynamics here stay in exact integer arithmetic.  So do the claims
behind the contraction argument (the roots of R are distinct, their
modulus is at most (p-1)/p, and with 0 they are the mean-centered step
matrix's eigenvalues), which `failed_claim` proves in integers, with
Fractions only for coefficients other than R's; floating point appears only
in the roots `spectrum` reports.
"""

from __future__ import annotations

from .core import Configuration, DEFAULT_WORK_LIMIT, Params, _Value, _single_pile, check_grains
from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    NonIntegral,
    NumericalFailure,
)


class ShotVector(_Value):
    """Per-column firing counts for the pile of `grains` on column 0."""

    __slots__ = ("counts", "grains", "params")
    def __init__(self, counts: tuple[int, ...], grains: int, params: Params) -> None:
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "grains", grains)
        object.__setattr__(self, "params", params)

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

    def avg_vector(self, n: int) -> "AvgVector":
        """Y_n: the differences a_{i+1} - a_i for i = n-p .. n-1."""
        p = self.params.p
        a = [self.a(n - p + j) for j in range(p + 1)]
        return AvgVector(tuple(y - x for x, y in zip(a, a[1:])))


class AvgVector(_Value):
    """Consecutive shot-vector differences (may be negative)."""

    __slots__ = ("entries",)
    def __init__(self, entries: tuple[int, ...]) -> None:
        object.__setattr__(self, "entries", entries)

    def is_constant(self) -> bool:
        return len(set(self.entries)) <= 1

    def mean_numerator(self) -> int:
        """Sum of entries: the mean times p, kept exact."""
        return sum(self.entries)


class SpectrumReport(_Value):
    """The roots of R for one p in floats, and their largest modulus."""

    __slots__ = ("p", "roots", "max_modulus")
    def __init__(self, p: int, roots: tuple[complex, ...], max_modulus: float) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "max_modulus", max_modulus)


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


def r_coefficients(p: int) -> list[int]:
    """c_k = k + 1 for k < p: P(x) = sum c_k x^k = p R(x), low to high."""
    return list(range(1, p + 1))


def failed_claim(c: list[int]) -> str | None:
    """The first claim about P(x) = sum c_k x^k, p = len(c) >= 2, that fails,
    in exact arithmetic; None when all three hold.  For c = r_coefficients(p)
    they say that the p - 1 roots of R are distinct, have modulus at most
    (p-1)/p, and with 0 are the eigenvalues of the centered step matrix
    DM = (I - J/p) A, A the averaging step's linear part (shift up, last row
    all 1/p), so the averaging system contracts.  InvalidParameter unless c
    is a list of at least two ints.

    Distinct roots: when (x - 1) P(x) = p x^p - (x^{p-1} + ... + 1), checked
    first in O(p), F = (x - 1)^2 P(x) = p x^{p+1} - (p+1) x^p + 1 has
    F' = p (p+1) x^{p-1} (x - 1).  A repeated root of P is a root of F' too,
    so 0 or 1; but P(0) = 1 and P(1) = p (p+1) / 2.  For other coefficients,
    gcd(P, P') is a nonzero constant, by Euclid in Fractions
    (`_repeated_root`).

    Modulus: 0 < c_0 <= ... <= c_{p-1}, and b = max c_k / c_{k+1} is (p-1)/p,
    compared by integer cross-multiplication.
    By the Enestrom-Kakeya theorem (Anderson, Saff & Varga, "On the
    Enestrom-Kakeya theorem and its sharpness") every root z has |z| <= b.
    Proof: Q(z) = P(b z) has coefficients d_k = c_k b^k, and b >= c_k / c_{k+1}
    gives 0 < d_0 <= ... <= d_n, n = p - 1.  (1 - z) Q(z) is
    d_0 + sum_{k=1}^{n} (d_k - d_{k-1}) z^k - d_n z^{n+1}, and for |z| > 1 all
    but the last term sum to modulus at most d_n |z|^n < |d_n z^{n+1}|, so Q
    has no root there.  At p = 2 the root -1/2 attains the bound.

    Centered step matrix: (x - 1) P(x) = p x^p - (x^{p-1} + ... + 1), which
    is p det(xI - A), A being a companion matrix.  A 1 = 1 and 1^T A 1 = p,
    so by the matrix determinant lemma, for DM = A - 1 (1^T A) / p,
    det(xI - DM) = det(xI - A) (1 + 1^T A (xI - A)^{-1} 1 / p)
                 = det(xI - A) x / (x - 1) = x R(x).
    """
    if type(c) is not list or len(c) < 2 or any(type(v) is not int for v in c):
        raise InvalidParameter(f"coefficients must be a list of at least two ints, got {c!r}")
    p = len(c)
    closed_form = [x - y for x, y in zip([0, *c], [*c, 0])] == [-1] * p + [p]
    if not closed_form and _repeated_root(c):
        return "repeated root: gcd(P, P') is not a nonzero constant"
    if not 0 < c[0] or any(x > y for x, y in zip(c, c[1:])):
        return "coefficients not positive and nondecreasing"
    x, y = c[0], c[1]  # the largest ratio x / y so far; every c_k > 0
    for u, v in zip(c[1:], c[2:]):
        if u * y > x * v:
            x, y = u, v
    if x * p != (p - 1) * y:
        from fractions import Fraction

        return f"modulus bound max c_k/c_(k+1) = {Fraction(x, y)}, not (p-1)/p"
    if not closed_form:
        return "(x-1) P(x) is not p x^p - (x^(p-1) + ... + 1)"
    return None


def _repeated_root(c: list[int]) -> bool:
    """Whether gcd(P, P') is not a nonzero constant, by Euclid in Fractions."""
    from fractions import Fraction

    a = [Fraction(v) for v in c]
    b = [k * v for k, v in enumerate(a)][1:]  # P'
    while any(b):
        while not b[-1]:
            b.pop()
        while len(a) >= len(b):  # a becomes a mod b, one leading term at a time
            q = a.pop() / b[-1]
            for k, v in enumerate(b[:-1], len(a) + 1 - len(b)):
                a[k] -= q * v
        a, b = b, a
    return len(a) != 1


def spectrum(params: Params) -> SpectrumReport:
    """The roots of R(x) = x^{p-1} + ((p-1)/p) x^{p-2} + ... + 1/p in floats,
    from the companion-matrix eigenproblem, sorted, with their largest
    modulus; `failed_claim` proves what they satisfy in exact arithmetic."""
    import numpy as np

    try:
        roots = np.roots(r_coefficients(params.p)[::-1])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc
    roots = tuple(sorted(map(complex, roots), key=lambda z: (z.real, z.imag)))
    return SpectrumReport(params.p, roots, max(map(abs, roots), default=0.0))
