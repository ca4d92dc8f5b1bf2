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
which fires the dense tail (max(head), last] in one step.  Counts, L' and csv
rows read off (k, head, last, b); only a full firing order rebuilds the tail
from the pile.  `ROWS` formats one avalanche as a csv, json or text row, and
`scan_rows` a scan.  `incremental_scan` streams one record per grain to an
observer and keeps only the current pile in memory, so scans up to millions
of grains need memory proportional to the support width, not to N.  Observer
callbacks run on the scan's own thread of control and must not assume
reentrancy; the scan itself is inherently sequential in k, but distinct
scans are independent and can run concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, IO, Iterator, Optional, Sequence

from . import _engine
from .core import Configuration, DEFAULT_WORK_LIMIT, Params, check_grains
from .errors import InvalidParameter, NotStable, WorkLimitExceeded


@dataclass(frozen=True)
class Avalanche:
    """Columns fired (in order) while absorbing the k-th grain."""

    k: int
    fired: tuple[int, ...]

    @property
    def fired_set(self) -> frozenset[int]:
        return frozenset(self.fired)

    @property
    def max_fired(self) -> Optional[int]:
        return max(self.fired) if self.fired else None

    def to_json(self) -> str:
        return ROWS["json"](self.k, self.fired, 0)

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
        return cls(k, fired)


@dataclass(frozen=True)
class DensityReport:
    """Where the k-th avalanche becomes a dense block of firings."""

    k: int
    l_prime: int
    max_fired: Optional[int]


@dataclass(frozen=True)
class ScanSummary:
    grains: int
    params: Params
    l_global: int
    total_firings: int
    max_avalanche: int
    final: Configuration


Observer = Callable[[int, Avalanche, Configuration], None]


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
    p = c.params.p
    b = list(add_grain(c).diffs)
    head, last = _engine.avalanche(b, p) if b[0] > p else ([], -1)
    fired = _fired(head, last, b, p)
    if len(fired) > work_limit:
        raise WorkLimitExceeded(f"firing budget {work_limit} exceeded")
    return Avalanche(k, tuple(fired)), Configuration._trusted(tuple(b), c.params)


def holes(a: Avalanche) -> list[int]:
    """Ascending positions i with i not fired but i+1 fired."""
    if not a.fired:
        return []
    cols = sorted(a.fired)
    return [v - 1 for j, v in enumerate(cols) if v and (j == 0 or cols[j - 1] != v - 1)]


def density_column(a: Avalanche) -> DensityReport:
    """L'(p,k): one past the largest hole (0 when the avalanche has none)."""
    return DensityReport(a.k, _lprime(a.fired), a.max_fired)


def _lprime(fired) -> int:
    # start of the rightmost maximal run of consecutive fired columns
    if not fired:
        return 0
    cols = sorted(fired)
    start = cols[-1]
    for v in reversed(cols[:-1]):
        if v != start - 1:
            break
        start = v
    return start


def _fired(head: list[int], last: int, b: list[int], p: int) -> list[int]:
    # the whole firing order; b must be the pile the avalanche just left
    return head + _engine.tail(b, p, max(head), last) if head else head


def steps(
    grains: int, p: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> Iterator[tuple[int, list[int], int, list[int]]]:
    """Yield (k, head, last, b) for k = 1 .. grains: the k-th avalanche and pi(k).

    `head` lists the columns fired one at a time while absorbing grain k, in
    order; each column of (max(head), last] fired once after them (last = -1
    when none fired).  `b` is the live pile, which the next step mutates:
    copy it, or rebuild the tail's order from it, before resuming.  The
    firing budget covers the whole scan and is charged after each avalanche.
    """
    check_grains(grains, 1, p)
    b = [0]
    budget = work_limit
    for k in range(1, grains + 1):
        b[0] += 1
        head, last = _engine.avalanche(b, p) if b[0] > p else ([], -1)
        budget -= len(head) + last - max(head) if head else 0
        if budget < 0:
            raise WorkLimitExceeded(f"firing budget {work_limit} exceeded")
        yield k, head, last, b


def incremental_scan(
    grains: int,
    params: Params,
    sink: Optional[Observer] = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> ScanSummary:
    """Build pi(1) .. pi(grains) one grain at a time.

    Streams (k, k-th avalanche, pi(k)) to `sink` when given.  The summary
    carries L(p, N) and aggregate statistics; the per-k data exists only
    transiently.
    """
    l_global = 0
    total = 0
    max_avalanche = 0
    for k, head, last, b in steps(grains, params.p, work_limit):
        size = len(head) + last - max(head) if head else 0
        total += size
        if size > max_avalanche:
            max_avalanche = size
        lp = _lprime(head)
        if lp > l_global:
            l_global = lp
        if sink is not None:
            sink(k, Avalanche(k, tuple(_fired(head, last, b, params.p))),
                 Configuration._trusted(tuple(b), params))
    final = Configuration._trusted(tuple(b), params)
    return ScanSummary(grains, params, l_global, total, max_avalanche, final)


class ScanCsvWriter:
    """Observer that appends one CSV row per grain.

    Columns: k, fired_count, max_fired, l_prime, support_width; max_fired
    is left empty for an avalanche that fired nothing.
    """

    HEADER = ("k", "fired_count", "max_fired", "l_prime", "support_width")

    def __init__(self, stream: IO[str]):
        self._write = stream.write
        self._write(",".join(self.HEADER) + "\n")

    def __call__(self, k: int, a: Avalanche, c: Configuration) -> None:
        self._write(ROWS["csv"](k, a.fired, c.width()) + "\n")


def scan_rows(fmt: str, grains: int, p: int, work_limit: int = DEFAULT_WORK_LIMIT) -> Iterator[str]:
    """One `ROWS[fmt]` row per grain of a scan; csv rows never build the dense tail."""
    scan = steps(grains, p, work_limit)
    if fmt == "csv":  # the dense tail extends head's rightmost run, so L' is head's
        return (f"{k},{len(h) + last - max(h)},{last},{_lprime(h)},{len(b)}"
                if h else f"{k},0,,0,{len(b)}" for k, h, last, b in scan)
    return (ROWS[fmt](k, _fired(head, last, b, p), len(b)) for k, head, last, b in scan)


# output format -> one row over (k, fired columns, width), without the newline
ROWS: dict[str, Callable[[int, Sequence[int], int], str]] = {
    "csv": lambda k, f, w: f"{k},{len(f)},{max(f)},{_lprime(f)},{w}" if f else f"{k},0,,0,{w}",
    "json": lambda k, f, w: f'{{"k":{k},"fired":[{",".join(map(str, f))}]}}',
    "text": lambda k, f, w: f"{k}: {' '.join(map(str, f))}",
}
