"""Incremental fixed-point computation through leftmost avalanches.

Instead of collapsing a pile of N grains in one go, the fixed points
pi(1), pi(2), ... can be built one grain at a time: add a grain on
column 0 of pi(k-1), then fire leftmost until stable, which lands exactly
on pi(k).  The firing sequence of that relaxation is the k-th avalanche;
it fires each column at most once.

A *hole* of an avalanche is a skipped column with a fired right neighbor.
The density column L'(p,k) is where the avalanche stops skipping: from
L'(p,k) up to its largest column everything fires.  L(p,N) aggregates the
maximum of L'(p,k) over k <= N.

`steps` is the one grain-by-grain loop, on the `_engine.avalanche` kernel,
which fires the dense tail (max(head), last] in one step and returns L'
as the start of its last fired block; a byte mask of the cells at p lives
beside the pile across grains, so the kernel finds each tail's end with
one search.  `ROWS`, one row formatter per format, works on a step
(k, head, lp, last, b) and p; a full firing list is a head with an empty
tail (last = max(fired)) and its L', the int `density_column` returns.
`incremental_scan` sums the firings and L(p, N), streams one record per
grain to an optional sink, and keeps only the current pile in memory, so
scans up to millions of grains need memory proportional to the support
width, not to N.  The sink runs on the scan's own thread of control and
must not assume reentrancy; the scan itself is inherently sequential in k,
but distinct scans are independent and can run concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, IO, Iterator, Optional, Sequence

from . import _engine
from .core import Configuration, DEFAULT_WORK_LIMIT, Params, check_grains, check_limit
from .errors import InvalidParameter, NotStable, WorkLimitExceeded


@dataclass(frozen=True)
class Avalanche:
    """Columns fired (in order) while absorbing the k-th grain."""

    k: int
    fired: tuple[int, ...]

    @property
    def max_fired(self) -> Optional[int]:
        return max(self.fired) if self.fired else None

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "fired": list(self.fired)}, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "Avalanche":
        try:
            obj = json.loads(payload)
            k, fired = obj["k"], tuple(obj["fired"])
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidParameter(f'expected a JSON object with "k" and "fired": {exc}') from exc
        # not core._naturals: that trims trailing zeros, and column 0 may fire last
        if type(k) is not int or k < 1 or not all(type(v) is int and v >= 0 for v in fired):
            raise InvalidParameter("k must be an int >= 1 and fired a list of non-negative ints")
        if len(set(fired)) != len(fired):
            raise InvalidParameter("an avalanche fires each column at most once")
        return cls(k, fired)


@dataclass(frozen=True)
class ScanSummary:
    l_global: int
    total_firings: int
    final: Configuration


def add_grain(c: Configuration) -> Configuration:
    """One more grain on column 0 (b_0 + 1)."""
    check_grains(c.grain_count() + 1, p=c.params.p)
    b = (c.diffs[0] + 1,) + c.diffs[1:] if c.diffs else (1,)
    return Configuration._trusted(b, c.params)


def run_avalanche(
    c: Configuration, k: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> tuple[Avalanche, Configuration]:
    """Add a grain to the stable pile `c` and relax leftmost.

    When c = pi(k-1) the result is (k-th avalanche, pi(k)).
    """
    if type(k) is not int or k < 1:
        raise InvalidParameter(f"k must be an int >= 1, got {k!r}")
    if not c.is_stable():
        raise NotStable("avalanches start from a stable configuration")
    check_limit(work_limit)
    p = c.params.p
    b = list(add_grain(c).diffs)
    head, _, last = _engine.avalanche(b, p) if b[0] > p else ([], 0, -1)
    fired = _engine.firing_order(b, p, head, last)
    if len(fired) > work_limit:
        raise WorkLimitExceeded(f"firing budget {work_limit} exceeded")
    return Avalanche(k, tuple(fired)), Configuration._trusted(tuple(b), c.params)


def holes(a: Avalanche) -> list[int]:
    """Ascending positions i with i not fired but i+1 fired."""
    cols = sorted(set(a.fired))
    return [v - 1 for j, v in enumerate(cols) if v and (j == 0 or cols[j - 1] != v - 1)]


def density_column(a: Avalanche) -> int:
    """L'(p,k): one past the largest hole (0 when the avalanche has none)."""
    hs = holes(a)
    return hs[-1] + 1 if hs else 0


def steps(
    grains: int, p: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> Iterator[tuple[int, list[int], int, int, list[int]]]:
    """Yield (k, head, lp, last, b) for k = 1 .. grains: the k-th avalanche and pi(k).

    `head` lists the columns fired one at a time while absorbing grain k, in
    order; each column of (max(head), last] fired once after them, and
    lp = L'(p, k) (an empty avalanche is ([], 0, -1)).  `b` is the live
    pile, which the next step mutates: copy it, or read the whole firing
    order off it with `_engine.firing_order`, before resuming.  The
    kernel's mask of the cells at p lives beside b across grains.  The
    firing budget covers the whole scan and is charged after each avalanche.
    """
    Params(p)
    check_grains(grains, 1, p)
    check_limit(work_limit)
    b = [0]
    mask = bytearray(1)  # mask[x] == (b[x] == p)
    budget = work_limit
    for k in range(1, grains + 1):
        b[0] += 1
        head, lp, last = _engine.avalanche(b, p, mask) if b[0] > p else ([], 0, -1)
        budget -= len(head) + last - max(head) if head else 0
        if budget < 0:
            raise WorkLimitExceeded(f"firing budget {work_limit} exceeded")
        yield k, head, lp, last, b


def incremental_scan(
    grains: int,
    params: Params,
    sink: Optional[Callable[[int, Avalanche, Configuration], None]] = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> ScanSummary:
    """Build pi(1) .. pi(grains) one grain at a time.

    Streams (k, k-th avalanche, pi(k)) to `sink` when given.  The summary
    carries L(p, N) and aggregate statistics; the per-k data exists only
    transiently.
    """
    l_global = 0
    total = 0
    for k, head, lp, last, b in steps(grains, params.p, work_limit):
        total += len(head) + last - max(head) if head else 0
        if lp > l_global:
            l_global = lp
        if sink is not None:
            sink(k, Avalanche(k, tuple(_engine.firing_order(b, params.p, head, last))),
                 Configuration._trusted(tuple(b), params))
    final = Configuration._trusted(tuple(b), params)
    return ScanSummary(l_global, total, final)


class ScanCsvWriter:
    """A sink that writes `CSV_HEADER`, then one CSV row per grain."""

    def __init__(self, stream: IO[str]):
        self._write = stream.write
        self._write(CSV_HEADER + "\n")

    def __call__(self, k: int, a: Avalanche, c: Configuration) -> None:
        lp, last = density_column(a), max(a.fired, default=-1)
        self._write(ROWS["csv"](k, a.fired, lp, last, c.diffs, c.params.p) + "\n")


# max_fired is left empty for an avalanche that fired nothing
CSV_HEADER = "k,fired_count,max_fired,l_prime,support_width"

# output format -> one row over a step (k, head, lp, last, b) and p, without the newline
ROWS: dict[str, Callable[[int, Sequence[int], int, int, Sequence[int], int], str]] = {
    "csv": lambda k, h, lp, last, b, p: (
        f"{k},{len(h) + last - max(h)},{last},{lp},{len(b)}" if h else f"{k},0,,0,{len(b)}"
    ),
    "json": lambda k, h, lp, last, b, p: (
        f'{{"k":{k},"fired":[{",".join(map(str, _engine.firing_order(b, p, h, last)))}]}}'
    ),
    "text": lambda k, h, lp, last, b, p: (
        f"{k}: {' '.join(map(str, _engine.firing_order(b, p, h, last)))}"
    ),
}
