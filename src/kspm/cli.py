"""Command-line front end.

Subcommands wrap the library one-to-one and keep no numerics of their
own: `fixpoint` prints a pile's fixed point, `avalanche` single records
or streamed scans, `verify` the invariant sweeps, and `figure-data` the
plot-ready CSV datasets (diffs by one averaging step per row).  A
handler returns (exit code, *blocks of lines); `main` writes every
command's output, through `_open_out`, in writes of about 64 KiB, each
sized in lines from the one before.
Output is deterministic for identical invocations (seeds included);
`--out` replaces a regular file through a temp file and a rename, so
failures never leave partial files behind; a file with more than one hard
link is written in place instead, so that every name sees the output.
Every command, and each `verify` suite, takes only the flags it reads
(`_SUITES`); any other flag, an abbreviated one, `--p` with `--p-max`, or
`--negate` without `--which diffs` is an argument error.

Exit codes: 0 success, 1 failed checks or internal anomalies (or a reader
that closed the output pipe early), 2 bad arguments.  The environment
variable KSPM_WORK_LIMIT overrides the firing budget used by every
simulation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import stat
import sys
import tempfile
from typing import IO, Iterator

from . import avalanche, dds, verify
from .core import DEFAULT_WORK_LIMIT, Params, check_grains, check_limit
from .errors import InvalidParameter, KSPMError

FORMATS = ("text", "json", "csv")
WHICH = ("heights", "shot", "diffs")

# suite -> (smallest p swept, default --p-max, size flag or None, default size or None)
_SUITES = {
    "confluence": (1, 5, "--n-max", 200),
    "plateau": (2, 6, "--n-max", 300),
    "support": (2, 6, "--n-max", 2000),
    "spectrum": (2, 64, None, None),
    "waves": (2, 4, "--n", None),
    "linkage": (2, 4, "--n-max", 200),
    "density": (2, 5, "--n-max", 1000),
    "recurrence": (2, 4, "--n-max", 200),
}


def _work_limit() -> int:
    raw = os.environ.get("KSPM_WORK_LIMIT")
    if raw is None:
        return DEFAULT_WORK_LIMIT
    try:
        value = int(raw)
        check_limit(value)
    except ValueError:
        raise InvalidParameter(f"KSPM_WORK_LIMIT must be a positive integer, got {raw!r}")
    return value


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    """Stdout; the FIFO, device or hard-linked file at `path`, written in
    place (every name of a linked file sees the new output); or the regular
    file `path` resolves to, by a temp file renamed over it (no partial
    output on failure) with the old file's mode, or 0o666 less the umask."""
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
        mode, links = st.st_mode, st.st_nlink
    except OSError:  # nothing there yet, or no way there: mkstemp reports which
        umask = os.umask(0)
        os.umask(umask)
        mode, links = stat.S_IFREG | 0o666 & ~umask, 1
    atomic = stat.S_ISREG(mode) and links == 1
    try:
        if atomic:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".kspm-", suffix=".part")
        else:  # a directory fails here
            stream = open(target, "w", newline="")
    except OSError as exc:
        raise InvalidParameter(f"cannot write {path}: {exc.strerror}") from None
    if not atomic:
        with stream:
            yield stream
        return
    try:
        os.fchmod(fd, stat.S_IMODE(mode))
        with os.fdopen(fd, "w", newline="") as stream:
            yield stream
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise InvalidParameter(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kspm", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name: str, run, **kwargs) -> argparse.ArgumentParser:
        """A command or suite parser: strict flags, its handler, and `--out`."""
        lp = parent.add_parser(name, allow_abbrev=False, **kwargs)
        lp.set_defaults(run=run)
        lp.add_argument("--out", default=None)
        return lp

    fp = leaf(sub, "fixpoint", cmd_fixpoint, help="fixed point, heights, and shot vector of a pile")
    fp.add_argument("--p", type=int, required=True)
    fp.add_argument("--n", type=int, required=True)
    fp.add_argument("--format", choices=FORMATS, default="text")

    av = leaf(sub, "avalanche", cmd_avalanche, help="single avalanche records or streamed scans")
    av.add_argument("--p", type=int, required=True)
    group = av.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="report the k-th avalanche only")
    group.add_argument("--upto", type=int, help="stream avalanches for k = 1..UPTO")
    av.add_argument("--format", choices=FORMATS, default="text")

    ve = sub.add_parser(
        "verify", allow_abbrev=False, help="run an invariant suite; exit 0 iff all checks pass"
    )
    suites = ve.add_subparsers(dest="suite", required=True)
    for suite, (_, p_max, size_flag, size) in _SUITES.items():
        sp = leaf(suites, suite, cmd_verify)
        group = sp.add_mutually_exclusive_group()
        if suite != "spectrum":
            group.add_argument("--p", type=int)
        group.add_argument("--p-max", type=int, default=p_max)
        if size_flag is not None:
            sp.add_argument(size_flag, dest="size", type=int, default=size)
        if suite == "confluence":
            sp.add_argument("--seed", type=int, default=0)

    fd = leaf(sub, "figure-data", cmd_figure_data, help="plot-ready datasets for one fixed point")
    fd.add_argument("--p", type=int, required=True)
    fd.add_argument("--n", type=int, required=True)
    fd.add_argument("--which", choices=WHICH, required=True)
    fd.add_argument("--negate", action="store_true",
                    help="flip difference signs to the a_n - a_{n+1} plotting convention")

    return parser


def cmd_fixpoint(args: argparse.Namespace, limit: int) -> tuple:
    params = Params(args.p)
    pi, sv = dds.pile(args.n, params, limit)
    if args.format == "text":
        return 0, [pi.to_text()] if pi.diffs else []
    heights = pi.heights().heights
    if args.format == "json":
        return 0, [json.dumps(
            {
                "p": args.p,
                "N": args.n,
                "diffs": list(pi.diffs),
                "heights": list(heights),
                "shot_vector": list(sv.counts),
            },
            separators=(",", ":"),
        )]
    rows = (f"{n},{pi.diffs[n]},{heights[n]},{sv.a(n)}" for n in range(pi.width()))
    return 0, ["n,b_n,h_n,a_n"], rows


def cmd_avalanche(args: argparse.Namespace, limit: int) -> tuple:
    Params(args.p)
    row = avalanche.ROWS[args.format](args.p)
    header = [avalanche.CSV_HEADER] if args.format == "csv" else []
    if args.k is None:
        if args.upto < 1:
            raise InvalidParameter(f"--upto must be >= 1, got {args.upto}")
        return 0, header, itertools.starmap(row, avalanche.steps(args.upto, args.p, limit))
    if args.k < 1:
        raise InvalidParameter(f"--k must be >= 1, got {args.k}")
    step = next(avalanche.steps(1, args.p, limit, args.k - 1))
    if args.format == "text":  # a single record prints its columns only, and nothing when empty
        return 0, [row(*step).partition(": ")[2]] if step[1] else []
    return 0, header, [row(*step)]


def cmd_verify(args: argparse.Namespace, limit: int) -> tuple:
    p_lo, _, size_flag, _ = _SUITES[args.suite]
    # an empty range would check nothing and report PASS
    if args.p_max < p_lo:
        raise InvalidParameter(f"--p-max must be >= {p_lo}, got {args.p_max}")
    Params(args.p_max)  # before any suite runs: a sweep past the bound would fail only at its end
    # looked up per call, not stored in _SUITES, so a patched verify.check_* is the one run
    check = getattr(verify, f"check_{args.suite}")
    if args.suite == "spectrum":
        results = [check(args.p_max)]
    elif args.size is None:
        raise InvalidParameter(f"verify {args.suite} needs {size_flag}")
    elif args.size < 1:
        raise InvalidParameter(f"{size_flag} must be >= 1, got {args.size}")
    else:
        ps = [args.p] if args.p is not None else range(p_lo, args.p_max + 1)
        if args.suite == "confluence":
            results = [check(p, args.size, base_seed=args.seed, work_limit=limit) for p in ps]
        elif args.suite == "linkage":
            results = [check(p, range(1, args.size + 1), limit) for p in ps]
        else:
            results = [check(p, args.size, limit) for p in ps]
    lines = []
    for r in results:
        lines.append(r.line())
        if not r.passed and r.counterexample is not None:
            lines.append("counterexample: " + json.dumps(r.counterexample, separators=(",", ":")))
    return (0 if all(r.passed for r in results) else 1), lines


def cmd_figure_data(args: argparse.Namespace, limit: int) -> tuple:
    if args.negate and args.which != "diffs":
        raise InvalidParameter("--negate needs --which diffs")
    params = Params(args.p)
    pi, sv = dds.pile(args.n, params, limit)
    if args.which == "heights":
        return 0, ["n,height"], (f"{n},{h}" for n, h in enumerate(pi.heights().heights))
    if args.which == "shot":
        return 0, ["n,shots"], (f"{n},{sv.a(n)}" for n in range(pi.width()))
    check_grains(args.n, 1)  # Y_0 = (-N, 0, ..., 0, a_0) needs a grain
    sign = -1 if args.negate else 1
    header = ",".join(("n", *(f"y{j}" for j in range(args.p)), "mean_numerator", "b_n"))
    b = pi.diffs + (0,) * (args.p + 1)  # b_n = 0 past the support, up to Y_{width + p}
    states = itertools.accumulate(
        b, lambda y, b_n: dds.avg_step(y, b_n, params), initial=sv.avg_vector(0)
    )
    rows = (
        ",".join(map(str, (n, *(sign * v for v in y.entries), sign * y.mean_numerator(), b_n)))
        for n, (b_n, y) in enumerate(zip(b, states))
    )
    return 0, [header], rows


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, *blocks = args.run(args, _work_limit())
        with _open_out(args.out) as out:
            n = 1  # lines in the next write, sized from the last one to about 64 KiB
            for block in blocks:
                lines = iter(block)
                while chunk := list(itertools.islice(lines, n)):
                    text = "\n".join(chunk) + "\n"
                    out.write(text)
                    n = len(chunk) * 65536 // len(text) + 1
        return code
    except InvalidParameter as exc:
        print(f"kspm: {exc}", file=sys.stderr)
        return 2
    except KSPMError as exc:
        print(f"kspm: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`); point stdout at devnull so
        # the interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
