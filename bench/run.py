"""Benchmark of the `kspm` command-line tool.

One run measures one workload:

    python3 bench/run.py --workload pile_large --seed 1 --seconds 20 --trace 0

It drives `kspm.cli.main(argv)` in this process, with stdout captured in
memory, repeating the workload's command list until `--seconds` have passed.
Every command's output goes through a correctness gate outside the timed
region.  `--trace 0` reports the end-to-end metrics listed in BENCHMARK.json,
with times scaled to a reference host speed (see `reference_s`);
`--trace 1` alternates untraced passes with traced ones and reports the
per-layer metrics.  The last line of stdout is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it give
the same figures for people, the environment, the counters and any gate
failures.  Full results and spans go to `.bench_out/`.

`--workload all` runs every workload, untraced and traced, in child
processes one after another, prints every metric by name and unit, and
writes `.bench_out/BENCH_<label>.json`.

The program under test is the `src/` tree of the checkout this file sits
in; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
# Median time of `reference_s()` on the host the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).  End-to-end times are
# scaled to this host speed; see `reference_s`.
REFERENCE_S = 0.006

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import kspm.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def use_checkout_src() -> None:
    """Import kspm from this checkout's src/, never from anywhere else."""
    if not (SRC / "kspm" / "cli.py").is_file():
        raise SystemExit(f"bench: no kspm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kspm

    if Path(kspm.__file__).resolve().parent != SRC / "kspm":
        raise SystemExit(f"bench: kspm imported from {kspm.__file__}, not from {SRC}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("kspm/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
        "code_hash": code_hash(),
    }


# -- set-up --------------------------------------------------------------


def measure_setup(split: bool) -> list[tuple[float, float, float]]:
    """(import kspm.cli seconds, numpy share, reference_s() right after) for
    SETUP_RUNS fresh interpreters.

    The numpy share comes from `-X importtime` and is only measured when
    `split` is set, since that flag slows the import it reports on.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *(("-X", "importtime") if split else ()), "-c", _IMPORT_PROBE]
    samples = []
    for i in range(SETUP_RUNS + 1):  # the first run may write bytecode caches
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        numpy_s = 0.0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_s = int(fields[1]) / 1e6
        if i:
            samples.append((float(proc.stdout.split()[-1]), numpy_s, reference_s()))
    return samples


# -- passes --------------------------------------------------------------


def invoke(cli, argv: tuple[str, ...]) -> tuple[int, str, str, float]:
    """Run one CLI command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = -1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


# Counters recorded on every run; they must repeat exactly for one seed.
COUNTERS = (
    "engine.firings",
    "engine.width",
    "avalanche.firings",
    "avalanche.max_avalanche",
    "avalanche.l_global",
    "verify.cells",
    "cli.out_bytes",
)
_MAX_COUNTERS = {"engine.width", "avalanche.max_avalanche", "avalanche.l_global"}


class Runner:
    """Runs passes of one workload and gates their outputs."""

    def __init__(self, workload, tamper=None):
        from kspm import cli

        self.cli = cli
        self.workload = workload
        self.tamper = tamper  # test hook: (command index, stdout) -> stdout
        self.attempted = 0
        self.failures: list[str] = []  # one per command run that failed
        self.first_counters: dict[str, int] | None = None
        self.counter_flags: list[str] = []

    def run_pass(self, tracer: Tracer | None = None) -> tuple[float, dict[str, float], dict]:
        """One pass over the command list; returns (wall, per-command, state).

        Without a tracer, only the CLI calls run.  With one, each command's
        CLI call is a span and its layer calls follow, sharing its trace id.
        """
        walls: dict[str, float] = {}
        results = []
        state: dict = {}
        for index, command in enumerate(self.workload.commands):
            name = command.argv[0]
            traced_error = None
            if tracer is None:
                state.setdefault("refs", []).append(reference_s())
                rc, out, err, dt = invoke(self.cli, command.argv)
            else:
                tracer.trace = index
                with tracer.span(f"cli.{name}") as s:
                    rc, out, err, _ = invoke(self.cli, command.argv)
                dt = s.duration
                try:
                    command.layer_calls(tracer, state, out)
                except Exception as exc:  # counted as a failure of this command
                    traced_error = f"traced calls: {exc!r}"
            walls[name] = walls.get(name, 0.0) + dt
            results.append((command, rc, out, err, traced_error))
        self.gate(results)
        return sum(walls.values()), walls, state

    def gate(self, results) -> None:
        counters = dict.fromkeys(COUNTERS, 0)
        ctx: dict = {}
        for index, (command, rc, out, err, traced_error) in enumerate(results):
            self.attempted += 1
            if self.tamper is not None:
                out = self.tamper(index, out)
            counters["cli.out_bytes"] += len(out.encode())
            try:
                for key, value in command.check(rc, out, ctx).items():
                    counters[key] = (max(counters[key], value) if key in _MAX_COUNTERS
                                     else counters[key] + value)
                if traced_error:
                    raise RuntimeError(traced_error)
            except Exception as exc:  # GateError, or a parse error on mangled output
                tail = err.strip().splitlines()[-1:]
                self.failures.append(f"{' '.join(command.argv)}: {exc!r} {' '.join(tail)}")
        if self.first_counters is None:
            self.first_counters = counters
        elif counters != self.first_counters:
            self.counter_flags.append(f"counters changed between passes: {counters}")

    def check_counters_across_runs(self, key: str) -> None:
        """Compare with the first run of this seed and code, or record it."""
        path = OUT_DIR / "counters" / f"{key}.json"
        if path.is_file():
            first = json.loads(path.read_text())
            if first != self.first_counters:
                self.counter_flags.append(f"counters differ from the first run with this seed: {first}")
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".part")
        tmp.write_text(json.dumps(self.first_counters))
        tmp.replace(path)


def reference_s() -> float:
    """Time a fixed pure-Python and numpy kernel that involves no kspm code.

    The host's speed drifts by up to a third within minutes, and pure-Python
    and numpy code slow down with it.  The kernel runs before every command
    of an untraced pass, and each pass's wall time is scaled by
    REFERENCE_S / (median kernel time of that pass), so that end-to-end times
    read as on a host of the reference speed.  Raw times are recorded too.
    """
    import numpy as np

    samples = []
    for _ in range(3):  # median of three, so one hiccup does not skew a pass
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        a = np.arange(4096, dtype=np.int64)
        for _ in range(130):
            a = (a * 3 + 1) % 1000003
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, tamper=None) -> dict:
    """Measure one workload; returns the full result record."""
    from workloads import WORKLOADS

    spec = load_spec()
    setup = measure_setup(split=trace)
    workload = WORKLOADS[name](seed, tiny)
    runner = Runner(workload, tamper)
    untraced: list[float] = []
    per_command: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    layers: list[dict[str, float]] = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    scaled: list[float] = []
    refs: list[float] = []
    while True:
        wall, walls, pass_state = runner.run_pass()
        untraced.append(wall)
        scaled.append(wall * REFERENCE_S / statistics.median(pass_state["refs"]))
        refs.extend(pass_state["refs"])
        per_command.append(walls)
        if trace:
            tracer = Tracer()
            traced_wall, _, state = runner.run_pass(tracer)
            tracers.append(tracer)
            traced_walls.append(traced_wall)
            values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
            with contextlib.suppress(KeyError, ZeroDivisionError):  # traced calls failed
                values.update(workload.layer_metrics(tracer, state))
            for command in {c.argv[0] for c in workload.commands}:
                values[f"cli.{command}_s"] = tracer.total(f"cli.{command}")
            layers.append(values)
        if time.perf_counter() - start >= seconds:
            break
    runner.check_counters_across_runs(f"{name}-seed{seed}-{'tiny' if tiny else 'full'}-{code_hash()}")
    counters = runner.first_counters
    wall_s = statistics.median(untraced)
    if trace:
        metrics = {key: statistics.median(v[key] for v in layers) for key in layers[0]}
        metrics.update({key: float(counters[key]) for key in counters})
        metrics["setup.import_numpy_s"] = statistics.median(n for _, n, _ in setup)
        metrics["setup.import_kspm_s"] = statistics.median(t - n for t, n, _ in setup)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(t for t, _, _ in setup) * REFERENCE_S
            / statistics.median(r for _, _, r in setup),
            "firings_per_s": counters["engine.firings"] / statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "commands": [" ".join(c.argv) for c in workload.commands],
        "passes": len(untraced),
        "wall_s_quartiles": quartiles(untraced),
        "command_s_median": {k: statistics.median(w[k] for w in per_command) for k in per_command[0]},
        "reference_s": statistics.median(refs),
        "setup_s_raw": statistics.median(t for t, _, _ in setup),
        "counters": counters,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "fail_frac": len(runner.failures) / runner.attempted,
        "correct": not runner.failures and not runner.counter_flags,
        "failures": runner.failures + runner.counter_flags,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if trace:
        record["traced_passes"] = [
            {"layer_self_s": t.layer_self_times(), "spans": [vars(s) for s in t.spans]}
            for t in tracers
        ]
    return record


def write_record(record: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".part")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    tmp.replace(path)


def report(record: dict) -> None:
    w = record["workload"]
    print(f"kspm bench: workload={w} seed={record['env']['seed']} trace={record['trace']} "
          f"passes={record['passes']}")
    print("env " + json.dumps(record["env"]))
    q1, q2, q3 = record["wall_s_quartiles"]
    print(f"untraced pass wall (raw): median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s "
          f"over {record['passes']} passes")
    for command, secs in record["command_s_median"].items():
        print(f"  {command:<12} {secs:.4f} s (median per pass)")
    print(f"reference kernel: median {record['reference_s']:.5f} s over the run "
          f"(end-to-end times are scaled by {REFERENCE_S} s / this); "
          f"raw setup {record['setup_s_raw']:.4f} s")
    print("counters " + json.dumps(record["counters"]))
    print(f"fail_frac {record['fail_frac']:.4f} ({record['failed']} of {record['attempted']} commands)")
    for failure in record["failures"]:
        print("FAIL " + failure)
    for name, m in record["metrics"].items():
        print(f"{name:<28} {m['value']:>18.6f} {m['unit']}")


def run_all(seed: int, seconds: int, label: str) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    spec = load_spec()
    results = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append({"workload": workload["name"], "trace": trace, **last})
            print(f"== {workload['name']} trace={trace}: correct={last['correct']} "
                  f"fail_frac={last['failed'] / last['attempted']:.4f}")
            for name, m in last["metrics"].items():
                print(f"   {name:<28} {m['value']:>18.6f} {m['unit']}")
    path = OUT_DIR / f"BENCH_{label}.json"
    write_record({"label": label, "env": environment(seed), "seconds": seconds,
                  "results": results}, path)
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="local", help="names the --workload all report")
    args = parser.parse_args(argv)
    use_checkout_src()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.label)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    write_record(record, OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
