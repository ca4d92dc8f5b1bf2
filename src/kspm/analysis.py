"""Pattern structure of fixed points: waves, plateaus and support.

A *wave* is the height-difference pattern p, p-1, ..., 2, 1.  Stable
piles eventually decompose into waves; two suffix languages capture this:

  * loose form: repetitions of (up to p+1 zeros, then one wave), then the
    all-zero tail;
  * tight form: waves packed back to back, with at most one single zero
    separating two wave blocks, then the all-zero tail.

`match_theorem1` / `match_theorem2` return the smallest suffix start
matching the loose/tight form.  One stability check and one wave table
serve both forms, and each form is one right-to-left pass (a hand-rolled
scan beats a regex engine on the fixed alphabet 0..p).  A wave starts with
p != 0, so the loose form from j must open with the whole zero run r(j)
starting at j:  ok[j] = r(j) <= p+1 and wave[j+r(j)] and ok[j+r(j)+p].
The tight form tracks two flags per column (`pure`: waves to the tail;
`tail`: the lone zero still available).  Index `width` starts the all-zero
tail, which matches both forms, so on a stable pile a match always exists
and the matchers return a plain `int`; `WaveReport.nontrivial` records
whether the loose match covers at least one wave.

The tight form deliberately requires the isolated zero to sit strictly
between two wave blocks (a leading lone zero does not count); a zero
adjacent to the tail merges with it, so nothing is lost on that side.

Plateaus (runs of equal-height non-empty columns) and the support width
give the complementary coarse checks: no reachable pile has a plateau
longer than p+1, and the fixed-point width sits strictly between
sqrt(N)/p - 1 and (p+1)*sqrt(N) + p + 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .core import Configuration, DEFAULT_WORK_LIMIT, HeightProfile, Params, check_index, fixed_point
from .errors import NoMatch, NotStable


@dataclass(frozen=True)
class WaveReport:
    """Wave structure of a stable configuration's suffix."""

    theorem1_index: int
    theorem2_index: int
    decomposition: tuple[tuple[int, int], ...]  # (zero-run, wave count) pairs
    nontrivial: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


@dataclass(frozen=True)
class SupportReport:
    """Fixed-point width against its square-root bounds."""

    grains: int
    width: int
    lower: float
    upper: float

    @property
    def holds(self) -> bool:
        return self.lower < self.width < self.upper

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "holds": self.holds}, separators=(",", ":"))


def _wave_table(diffs: Sequence[int], p: int) -> list[bool]:
    """wave[j]: the p symbols starting at j are exactly p, p-1, ..., 1."""
    m = len(diffs)
    wave = [False] * (m + 1)
    for j in range(m - p + 1):
        if diffs[j] == p:  # explicit loop: all() is slower, and check_density runs this per grain
            for t in range(1, p):
                if diffs[j + t] != p - t:
                    break
            else:
                wave[j] = True
    return wave


def _scan(c: Configuration) -> tuple[tuple[int, ...], int, list[bool]]:
    """(diffs, p, wave table) of a stable configuration; both forms read it."""
    if not c.is_stable():
        raise NotStable("pattern matching is defined on stable configurations")
    b = c.diffs
    p = c.params.p
    return b, p, _wave_table(b, p)


def _loose(b: Sequence[int], p: int, wave: list[bool]) -> list[bool]:
    """ok[j]: the suffix from j (j <= len(b)) has the loose form."""
    m = len(b)
    ok = [False] * m + [True]
    run = 0  # zeros starting at j
    for j in range(m - 1, -1, -1):
        run = run + 1 if b[j] == 0 else 0
        ok[j] = run <= p + 1 and wave[j + run] and ok[j + run + p]
    return ok


def _tight(b: Sequence[int], p: int, wave: list[bool]) -> int:
    """Smallest suffix start of the tight form."""
    m = len(b)
    pure = [False] * m + [True]  # waves straight to the tail
    tail = [False] * m + [True]  # waves with the lone zero still available
    for j in range(m - 1, -1, -1):
        pure[j] = wave[j] and pure[j + p]
        tail[j] = pure[j] or (b[j] == 0 and pure[j + 1]) or (wave[j] and tail[j + p])
    for j in range(m):
        if pure[j] or (wave[j] and tail[j + p]):
            return j
    return m


def _decompose(b: Sequence[int], p: int, wave: list[bool], n: int) -> tuple[tuple[int, int], ...]:
    m = len(b)
    out: list[tuple[int, int]] = []
    j = n
    while j < m:
        zeros = j
        while j < m and b[j] == 0:
            j += 1
        waves = j
        while j < m and wave[j]:
            j += p
        if j == waves:
            raise NoMatch(f"no wave at column {j}")
        out.append((waves - zeros, (j - waves) // p))
    return tuple(out)


def match_theorem1(c: Configuration) -> int:
    """Smallest n whose suffix is (up to p+1 zeros, then a wave)* then 0^omega."""
    return _loose(*_scan(c)).index(True)


def match_theorem2(c: Configuration) -> int:
    """Smallest n whose suffix is waves, at most one lone zero between two
    wave blocks, waves again, then 0^omega."""
    return _tight(*_scan(c))


# the density bound's name for the tight index; an alias, not a wrapper, since
# check_density calls it once per grain
emergence_index = match_theorem2


def decompose_suffix(c: Configuration, n: int) -> tuple[tuple[int, int], ...]:
    """(zero-run length, wave count) pairs covering the suffix from n.

    Raises NoMatch when the suffix does not parse into zero runs and
    waves, i.e. when n is not a match index of the loose form,
    InvalidParameter when n is not an int and IndexOutOfRange when n < 0.
    """
    check_index(n, "suffix index")
    return _decompose(*_scan(c), n)


def matches_theorem1_at(c: Configuration, n: int) -> bool:
    """Whether the suffix from n (not necessarily minimal) has the loose form."""
    check_index(n, "suffix index")
    ok = _loose(*_scan(c))
    return ok[min(n, len(ok) - 1)]


def wave_report(c: Configuration) -> WaveReport:
    b, p, wave = _scan(c)
    i1 = _loose(b, p, wave).index(True)
    i2 = _tight(b, p, wave)
    return WaveReport(i1, i2, _decompose(b, p, wave, i2), i1 < len(b))


def max_plateau(h: HeightProfile) -> int:
    """Longest run of equal-height non-empty columns (1 when none)."""
    hs = h.heights
    best = 1
    run = 1
    for i in range(1, len(hs)):
        if hs[i] == hs[i - 1] and hs[i]:
            run += 1
            if run > best:
                best = run
        else:
            run = 1
    return best


def support_report(
    grains: int, params: Params, work_limit: int = DEFAULT_WORK_LIMIT
) -> SupportReport:
    width = fixed_point(grains, params, work_limit).width()
    return support_bounds(grains, params.p, width)


def support_bounds(grains: int, p: int, width: int) -> SupportReport:
    root = math.sqrt(grains)
    return SupportReport(grains, width, root / p - 1.0, (p + 1) * root + p + 1.0)

