"""The benchmark's workloads: CLI commands, correctness gates, traced layer calls.

Each workload is a fixed list of `kspm` command lines built from the seed.
For every command there are two more pieces:

* a gate, run on the captured output outside the timed region, which raises
  `GateError` unless the output passes checks that do not trust the code
  under test (exact recurrences, grain counts, and firing totals from a
  second engine), and returns the command's deterministic counters;
* its layer calls, run only in the traced pass: the public functions the
  command is built from, called directly, each inside a span.

Which layer metric should move which end-to-end metric is listed in
`bench/README.md`.
"""

from __future__ import annotations

import io
import json
import random
import time
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable

from kspm import analysis, avalanche, core, dds, verify
from kspm.core import Params

from tracer import Tracer


class GateError(Exception):
    """A command's output failed its correctness gate."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # (exit code, stdout, per-pass context) -> counters; raises GateError
    check: Callable[[int, str, dict], dict[str, int]]
    # (tracer, per-pass state, stdout of the CLI run) -> None
    layer_calls: Callable[[Tracer, dict, str], None]


def _check_pile(b: list[int], p: int, grains: int) -> None:
    """A trimmed, stable height-difference list holding exactly `grains`."""
    require(all(type(v) is int and 0 <= v <= p for v in b), "difference outside 0..p")
    require(not b or b[-1] != 0, "trailing zero difference")
    require(sum((i + 1) * v for i, v in enumerate(b)) == grains, "grain count changed")


def _trim(values: list[int]) -> list[int]:
    end = len(values)
    while end and not values[end - 1]:
        end -= 1
    return values[:end]


class PileLarge:
    """Single large piles, each command dominated by the batched relaxation."""

    name = "pile_large"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        base = 5000 if tiny else 1 << 17
        self.n = {p: base + rng.randrange(512) for p in (2, 3, 4)}
        n2 = self.n[2]
        self.commands = [
            Command(("fixpoint", "--p", str(p), "--n", str(n), "--format", "json"),
                    partial(self._check_fixpoint, p, n), partial(self._trace_fixpoint, p, n))
            for p, n in self.n.items()
        ]
        self.commands.append(Command(
            ("figure-data", "--p", "2", "--n", str(n2), "--which", "diffs"),
            partial(self._check_diffs, 2, n2), partial(self._trace_diffs, 2, n2)))
        self.commands.append(Command(
            ("verify", "waves", "--p", "2", "--n", str(n2)),
            partial(self._check_waves, 2, n2), partial(self._trace_waves, 2, n2)))

    @staticmethod
    def _check_fixpoint(p, n, rc, out, ctx):
        require(rc == 0, f"exit code {rc}")
        require(out.count("\n") == 1, "expected one JSON line")
        obj = json.loads(out)
        require(obj["p"] == p and obj["N"] == n, "wrong (p, N) echoed")
        b, h, a = obj["diffs"], obj["heights"], obj["shot_vector"]
        _check_pile(b, p, n)
        require(all(type(v) is int and v >= 0 for v in a), "negative shot count")

        def shots(i):
            if i < 0:
                return n if i == -p else 0
            return a[i] if i < len(a) else 0

        for i in range(len(b) + p + 1):
            bi = b[i] if i < len(b) else 0
            require(bi == shots(i - p) - (p + 1) * shots(i) + p * shots(i + 1),
                    f"b_{i} disagrees with the shot vector")
        suffix, acc = [], 0
        for v in reversed(b):
            acc += v
            suffix.append(acc)
        require(h == suffix[::-1], "heights are not the suffix sums of the differences")
        ctx[(p, n)] = (b, sum(a))
        return {"engine.firings": sum(a), "engine.width": len(b)}

    @staticmethod
    def _check_diffs(p, n, rc, out, ctx):
        require(rc == 0, f"exit code {rc}")
        lines = out.splitlines()
        header = ["n", *(f"y{j}" for j in range(p)), "mean_numerator", "b_n"]
        require(lines and lines[0].split(",") == header, "bad header")
        rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
        require(all(len(r) == p + 3 and r[0] == i for i, r in enumerate(rows)), "bad row")
        ys = [r[1:p + 1] for r in rows]
        require(all(r[p + 1] == sum(y) for r, y in zip(rows, ys)), "mean_numerator != sum(y)")
        b_col = [r[p + 2] for r in rows]
        b = _trim(b_col)
        _check_pile(b, p, n)
        require(ys[0][:-1] == [-n] + [0] * (p - 2) and ys[0][-1] > 0, "Y_0 is not (-N, 0.., a_0)")
        for i in range(len(rows) - 1):
            num = sum(ys[i]) + b_col[i]
            require(num % p == 0 and ys[i + 1] == ys[i][1:] + [num // p],
                    f"averaging step fails at n={i}")
        require(not any(ys[-1]) and len(rows) == len(b) + p + 1, "trajectory does not end at 0")
        shots, a = 0, 0  # a_{-1} = 0 for p >= 2
        for y in ys:
            a += y[-1]
            require(a >= 0, "negative shot count")
            shots += a
        if (p, n) in ctx:
            require(ctx[(p, n)] == (b, shots), "differs from the fixpoint output")
        return {"engine.firings": shots, "engine.width": len(b)}

    @staticmethod
    def _check_waves(p, n, rc, out, ctx):
        require(rc == 0, f"exit code {rc}")
        lines = out.splitlines()
        require(len(lines) == 1 and lines[0].startswith(f"PASS: waves p={p} N={n} "),
                "expected one PASS line")
        b, shots = ctx.get((p, n), ([], 0))
        return {"engine.firings": shots, "engine.width": len(b), "verify.cells": 1}

    @staticmethod
    def _trace_fixpoint(p, n, tracer, state, out):
        params = Params(p)
        with tracer.span("core.fixed_point") as fp:
            pi = core.fixed_point(n, params)
        with tracer.span("dds.shot_vector") as sv_span:
            sv = dds.shot_vector(n, params)
        with tracer.span("core.heights"):
            pi.heights()
        require(sv.fixed_point() == pi, "shot vector does not rebuild the fixed point")
        state[(p, n)] = pi
        # both wrappers add O(width) to the same engine run: the faster one
        # is the better estimate of the engine's own time
        state["pile_s"] = state.get("pile_s", 0.0) + min(fp.duration, sv_span.duration)
        state["pile_firings"] = state.get("pile_firings", 0) + sum(sv.counts)
        state[("pile_s", p, n)] = min(fp.duration, sv_span.duration)

    @staticmethod
    def _trace_diffs(p, n, tracer, state, out):
        params = Params(p)
        with tracer.span("dds.avg_trajectory") as traj:
            dds.avg_trajectory(n, params)
        with tracer.span("core.fixed_point"):
            core.fixed_point(n, params)
        state["trajectory_self_s"] = traj.duration - state[("pile_s", p, n)]

    @staticmethod
    def _trace_waves(p, n, tracer, state, out):
        pi = state[(p, n)]
        with tracer.span("verify.check_waves"):
            result = verify.check_waves(p, n)
        with tracer.span("analysis.wave_report"):
            report = analysis.wave_report(pi)
        with tracer.span("analysis.emergence_index"):
            index = analysis.emergence_index(pi)
        require(result.passed and index == report.theorem2_index, "traced wave check failed")

    @staticmethod
    def layer_metrics(tracer: Tracer, state: dict) -> dict[str, float]:
        return {
            "engine.pile_s": state["pile_s"],
            "engine.firings_per_s": state["pile_firings"] / state["pile_s"],
            "dds.shot_vector_s": tracer.total("dds.shot_vector"),
            "dds.trajectory_self_s": state["trajectory_self_s"],
            "core.fixed_point_s": tracer.total("core.fixed_point"),
            "core.heights_s": tracer.total("core.heights"),
            "analysis.wave_report_s": tracer.total("analysis.wave_report"),
            "analysis.emergence_index_s": tracer.total("analysis.emergence_index"),
            "verify.waves_s": tracer.total("verify.check_waves"),
        }


class ScanStream:
    """One grain-by-grain scan streamed as CSV; the batched relaxation never runs."""

    name = "scan_stream"
    p = 2

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.n = (300 if tiny else 100_000) + rng.randrange(100)
        self.commands = [Command(
            ("avalanche", "--p", str(self.p), "--upto", str(self.n), "--format", "csv"),
            self._check, self._trace)]
        self._oracle: tuple[int, int] | None = None

    def oracle(self) -> tuple[int, int]:
        """(total firings, final width) of pi(N) from the single-pile engine."""
        if self._oracle is None:
            params = Params(self.p)
            self._oracle = (sum(dds.shot_vector(self.n, params).counts),
                            core.fixed_point(self.n, params).width())
        return self._oracle

    def _check(self, rc, out, ctx):
        require(rc == 0, f"exit code {rc}")
        lines = out.split("\n")
        require(lines[0] == "k,fired_count,max_fired,l_prime,support_width" and lines[-1] == "",
                "bad header or unterminated output")
        require(len(lines) == self.n + 2, f"expected {self.n} rows")
        total = max_fc = l_global = width = 0
        for k in range(1, self.n + 1):
            ks, fc, mf, lp, w = lines[k].split(",")
            fc, lp, width = int(fc), int(lp), int(w)
            require(int(ks) == k, f"row {k} out of order")
            if fc:
                require(0 <= lp <= int(mf) < width, f"row {k}: inconsistent columns")
            else:
                require(mf == "" and lp == 0, f"row {k}: empty avalanche with columns")
            total += fc
            max_fc = max(max_fc, fc)
            l_global = max(l_global, lp)
        firings, final_width = self.oracle()
        require(total == firings, f"sum of fired_count {total} != shot-vector total {firings}")
        require(width == final_width, f"last support_width {width} != fixed-point width {final_width}")
        return {"engine.firings": total, "engine.width": width, "avalanche.firings": total,
                "avalanche.max_avalanche": max_fc, "avalanche.l_global": l_global}

    def _trace(self, tracer, state, out):
        buf = io.StringIO()
        writer = avalanche.ScanCsvWriter(buf)
        starts, ends = array("d"), array("d")
        clock = time.perf_counter

        def sink(k, record, config):
            starts.append(clock())
            writer(k, record, config)
            ends.append(clock())

        with tracer.span("avalanche.incremental_scan") as scan:
            summary = avalanche.incremental_scan(self.n, Params(self.p), sink)
        sink_s = sum(e - s for s, e in zip(starts, ends))
        scan.covered += sink_s
        gaps = sorted(s - e for s, e in zip(starts, [scan.start, *ends[:-1]]))
        require(buf.getvalue() == out, "traced scan output differs from the CLI output")
        require(summary.total_firings == self.oracle()[0], "traced scan firing total differs")
        state.update(scan_s=scan.duration, sink_s=sink_s, gaps=gaps)

    def layer_metrics(self, tracer: Tracer, state: dict) -> dict[str, float]:
        gaps = state["gaps"]
        driver_s = state["scan_s"] - state["sink_s"]
        return {
            "engine.firings_per_s": self.oracle()[0] / driver_s,
            "avalanche.scan_s": state["scan_s"],
            "avalanche.sink_s": state["sink_s"],
            "avalanche.driver_s": driver_s,
            "avalanche.grains_per_s": self.n / state["scan_s"],
            "avalanche.grain_p50_us": gaps[len(gaps) // 2] * 1e6,
            "avalanche.grain_p999_us": gaps[-(-999 * len(gaps) // 1000) - 1] * 1e6,
        }


# suite -> (smallest p the CLI sweeps, --p-max, --n-max at full size, at tiny size)
_SUITES = {
    "confluence": (1, 5, 100, 10),
    "plateau": (2, 6, 600, 30),
    "support": (2, 6, 10000, 200),
    "density": (2, 5, 2500, 100),
    "linkage": (2, 4, 250, 20),
    "recurrence": (2, 4, 250, 20),
    "spectrum": (2, 64, None, None),
}
_CONFLUENCE_SEEDS = 10  # random strategies per pile in `kspm verify confluence`


class VerifySweep:
    """Every invariant suite but waves, over thousands of tiny piles."""

    name = "verify_sweep"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.seed = seed
        self.commands = []
        self._prefix: dict[int, list[int]] = {}
        self._expected: dict[str, dict[str, int]] = {}
        for suite, (p_lo, p_max, full, small) in _SUITES.items():
            if suite == "spectrum":
                p_max = 8 if tiny else p_max
                argv = ("verify", suite, "--p-max", str(p_max))
                n_max = None
            else:
                base = small if tiny else full
                n_max = base + rng.randrange(max(1, base // 100))
                argv = ("verify", suite, "--p-max", str(p_max), "--n-max", str(n_max))
                if suite == "confluence":
                    argv += ("--seed", str(seed))
            ps = range(p_lo, p_max + 1)
            self.commands.append(Command(argv, partial(self._check, suite, ps, n_max),
                                         partial(self._trace, suite, ps, n_max)))

    def _totals(self, p: int, n: int) -> list[int]:
        """T[N] = firings from the single pile of N grains, for N = 0..n."""
        have = self._prefix.get(p, [])
        if len(have) <= n:
            sizes = [0]
            avalanche.incremental_scan(n, Params(p), lambda k, a, c: sizes.append(len(a.fired)))
            have = [0]
            for s in sizes[1:]:
                have.append(have[-1] + s)
            self._prefix[p] = have
        return have[: n + 1]

    def _firings(self, suite: str, p: int, n: int) -> int:
        """Firings the suite's definition asks for at (p, n_max)."""
        if suite in ("support", "density"):  # one scan to n_max
            return sum(dds.shot_vector(n, Params(p)).counts)
        t = self._totals(p, n)
        if suite == "confluence":  # leftmost, rightmost and the random strategies
            return (2 + _CONFLUENCE_SEEDS) * sum(t)
        if suite == "recurrence":  # stepped pile plus every pile from scratch
            return t[n] + sum(t)
        return sum(t)  # plateau, linkage: one run per pile

    def _check(self, suite, ps, n_max, rc, out, ctx):
        require(rc == 0, f"exit code {rc}")
        lines = out.splitlines()
        expected = 1 if suite == "spectrum" else len(ps)
        require(len(lines) == expected, f"expected {expected} result lines, got {len(lines)}")
        prefix = "PASS: spectrum p<=" if suite == "spectrum" else f"PASS: {suite} p="
        require(all(line.startswith(prefix) for line in lines), "a check did not PASS")
        if suite not in self._expected:
            self._expected[suite] = {"verify.cells": len(ps)} if suite == "spectrum" else {
                "verify.cells": len(ps) * n_max,
                "engine.firings": sum(self._firings(suite, p, n_max) for p in ps),
                "engine.width": max(core.fixed_point(n_max, Params(p)).width() for p in ps),
            }
        return self._expected[suite]

    def _trace(self, suite, ps, n_max, tracer, state, out):
        with tracer.span(f"verify.check_{suite}"):
            if suite == "spectrum":
                results = [verify.check_spectrum(ps[-1])]
            elif suite == "confluence":
                results = [verify.check_confluence(p, n_max, _CONFLUENCE_SEEDS, self.seed) for p in ps]
            elif suite == "linkage":
                results = [verify.check_linkage(p, range(1, n_max + 1)) for p in ps]
            else:
                check = getattr(verify, f"check_{suite}")
                results = [check(p, n_max) for p in ps]
        require(all(r.passed for r in results), f"traced {suite} check failed")
        if suite == "spectrum":
            with tracer.span("dds.spectrum"):
                for p in ps:
                    dds.spectrum(Params(p))

    @staticmethod
    def layer_metrics(tracer: Tracer, state: dict) -> dict[str, float]:
        out = {f"verify.{suite}_s": tracer.total(f"verify.check_{suite}") for suite in _SUITES}
        out["dds.spectrum_s"] = tracer.total("dds.spectrum")
        return out


WORKLOADS = {w.name: w for w in (PileLarge, ScanStream, VerifySweep)}
