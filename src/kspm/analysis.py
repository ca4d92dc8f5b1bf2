"""Pattern structure of fixed points: waves, plateaus and support.

A *wave* is the height-difference pattern p, p-1, ..., 2, 1.  Stable
piles eventually decompose into waves; two suffix languages capture this:

  * loose form: repetitions of (up to p+1 zeros, then one wave), then the
    all-zero tail;
  * tight form: waves packed back to back, with at most one single zero
    separating two wave blocks, then the all-zero tail.

`match_theorem1` / `match_theorem2` return the smallest suffix start
matching the loose/tight form.  Both are decided for every suffix in one
right-to-left pass over the configuration (the alphabet is 0..p and the
languages are fixed-shape, so a hand-rolled scan beats a regex engine and
gives minimal-index semantics for free).  For a stable pile a match
always exists, at worst at the all-zero tail; `WaveReport.nontrivial`
records whether the loose match covers at least one wave.

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
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Configuration, DEFAULT_WORK_LIMIT, HeightProfile, Params, fixed_point
from .errors import NoMatch, NotStable


@dataclass(frozen=True)
class WaveReport:
    """Wave structure of a stable configuration's suffix."""

    theorem1_index: Optional[int]
    theorem2_index: Optional[int]
    decomposition: tuple[tuple[int, int], ...]  # (zero-run, wave count) pairs
    nontrivial: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem1_index": self.theorem1_index,
                "theorem2_index": self.theorem2_index,
                "decomposition": [list(pair) for pair in self.decomposition],
                "nontrivial": self.nontrivial,
            },
            separators=(",", ":"),
        )


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
        return json.dumps(
            {
                "grains": self.grains,
                "width": self.width,
                "lower": self.lower,
                "upper": self.upper,
                "holds": self.holds,
            },
            separators=(",", ":"),
        )


def _wave_table(diffs: Sequence[int], p: int) -> list[bool]:
    """wave[j]: the p symbols starting at j are exactly p, p-1, ..., 1."""
    m = len(diffs)
    wave = [False] * (m + 1)
    for j in range(m - p + 1):
        if diffs[j] == p:
            ok = True
            for t in range(1, p):
                if diffs[j + t] != p - t:
                    ok = False
                    break
            wave[j] = ok
    return wave


def _require_stable(c: Configuration) -> None:
    if not c.is_stable():
        raise NotStable("pattern matching is defined on stable configurations")


def match_theorem1(c: Configuration) -> Optional[int]:
    """Smallest n whose suffix is (up to p+1 zeros, then a wave)* then 0^omega."""
    _require_stable(c)
    b = c.diffs
    p = c.params.p
    m = len(b)
    wave = _wave_table(b, p)
    ok = [False] * (m + p + 2)
    ok[m] = True
    for j in range(m - 1, -1, -1):
        z = 0
        hit = False
        while z <= p + 1 and j + z < m:
            if z and b[j + z - 1] != 0:
                break
            if wave[j + z] and ok[j + z + p]:
                hit = True
                break
            z += 1
        ok[j] = hit
    for j in range(m + 1):
        if ok[j]:
            return j
    return None


def match_theorem2(c: Configuration) -> Optional[int]:
    """Smallest n whose suffix is waves, at most one lone zero between two
    wave blocks, waves again, then 0^omega."""
    _require_stable(c)
    b = c.diffs
    p = c.params.p
    m = len(b)
    wave = _wave_table(b, p)
    pure = [False] * (m + p + 2)  # waves straight to the tail
    tail = [False] * (m + p + 2)  # waves with the lone zero still available
    for j in range(m, m + p + 2):
        pure[j] = tail[j] = True
    for j in range(m - 1, -1, -1):
        pure[j] = wave[j] and pure[j + p]
        tail[j] = pure[j] or (b[j] == 0 and pure[j + 1]) or (wave[j] and tail[j + p])
    for j in range(m + 1):
        if pure[j] or (wave[j] and tail[j + p]):
            return j
    return None


def decompose_suffix(c: Configuration, n: int) -> tuple[tuple[int, int], ...]:
    """(zero-run length, wave count) pairs covering the suffix from n.

    Raises NoMatch when the suffix does not parse into zero runs and
    waves, i.e. when n is not a match index of the loose form.
    """
    _require_stable(c)
    b = c.diffs
    p = c.params.p
    m = len(b)
    wave = _wave_table(b, p)
    out: list[tuple[int, int]] = []
    j = n
    while j < m:
        z = 0
        while j < m and b[j] == 0:
            z += 1
            j += 1
        if j >= m:
            raise NoMatch(f"trailing zeros inside the support at {j}")
        w = 0
        while j < m and wave[j]:
            w += 1
            j += p
        if not w:
            raise NoMatch(f"no wave at column {j}")
        out.append((z, w))
    return tuple(out)


def matches_theorem1_at(c: Configuration, n: int) -> bool:
    """Whether the suffix from n (not necessarily minimal) has the loose form."""
    try:
        parts = decompose_suffix(c, n)
    except NoMatch:
        return False
    return all(z <= c.params.p + 1 for z, _ in parts)


def wave_report(c: Configuration) -> WaveReport:
    i1 = match_theorem1(c)
    i2 = match_theorem2(c)
    decomposition = decompose_suffix(c, i2) if i2 is not None else ()
    nontrivial = i1 is not None and i1 < c.width()
    return WaveReport(i1, i2, decomposition, nontrivial)


def emergence_index(c: Configuration) -> int:
    """Smallest suffix start matching the tight wave form."""
    i2 = match_theorem2(c)
    if i2 is None:
        raise NoMatch("no suffix matches the tight wave form")
    return i2


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

