"""Command-line behavior: formats, exit codes, atomic output, determinism."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

import kspm
from kspm.cli import _parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFixpoint:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "fixpoint", "--p", "2", "--n", "24", "--format", "text")
        assert code == 0
        assert out == "2 1 2 1 2\n"

    def test_pile2000_sequence(self, capsys):
        code, out, _ = run(capsys, "fixpoint", "--p", "4", "--n", "2000")
        assert code == 0
        assert out == (
            "4 0 4 1 3 2 4 1 1 3 4 3 4 2 0 1 4 2 2 1 "
            "4 3 2 1 0 4 3 2 1 4 3 2 1 4 3 2 1 4 3 2 1\n"
        )

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "fixpoint", "--p", "3", "--n", "0")
        assert code == 0
        assert out == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fixpoint", "--p", "2", "--n", "24", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["diffs"] == [2, 1, 2, 1, 2]
        assert obj["heights"] == [8, 6, 5, 3, 2]
        assert obj["shot_vector"] == [8, 1, 2]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "fixpoint", "--p", "2", "--n", "24", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,b_n,h_n,a_n"
        assert lines[1] == "0,2,8,8"
        assert len(lines) == 6

    def test_budget_is_the_shot_vector_sum(self, capsys, monkeypatch):
        argv = ("fixpoint", "--p", "2", "--n", "16385")
        _, out, _ = run(capsys, *argv)
        total = sum(json.loads(run(capsys, *argv, "--format", "json")[1])["shot_vector"])
        monkeypatch.setenv("KSPM_WORK_LIMIT", str(total))
        assert run(capsys, *argv) == (0, out, "")
        monkeypatch.setenv("KSPM_WORK_LIMIT", str(total - 1))
        assert run(capsys, *argv) == (1, "", f"kspm: firing budget {total - 1} exceeded\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("fixpoint", "--p", "2000", "--n", "2001"),
            ("avalanche", "--p", "2000", "--upto", "2001"),
            ("verify", "plateau", "--p", "2000", "--n-max", "2001"),
        ],
    )
    def test_p_wider_than_cell_limit_exits_2(self, capsys, monkeypatch, argv):
        from kspm import _engine

        monkeypatch.setattr(_engine, "_RELAX_MAX_CELLS", 1000)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "columns" in err


class TestAvalanche:
    def test_single_text(self, capsys):
        code, out, _ = run(capsys, "avalanche", "--p", "2", "--k", "25")
        assert code == 0
        assert out == "0 2 1 4 3\n"

    def test_single_json(self, capsys):
        code, out, _ = run(capsys, "avalanche", "--p", "2", "--k", "25", "--format", "json")
        assert json.loads(out) == {"k": 25, "fired": [0, 2, 1, 4, 3]}

    def test_upto_one_quiet(self, capsys):
        code, out, _ = run(capsys, "avalanche", "--p", "2", "--upto", "1")
        assert code == 0
        assert out == "1: \n" or out == "1:\n"

    def test_upto_csv(self, capsys):
        code, out, _ = run(capsys, "avalanche", "--p", "2", "--upto", "25", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "k,fired_count,max_fired,l_prime,support_width"
        assert len(lines) == 26
        assert all(len(line.split(",")) == 5 for line in lines[1:])
        assert lines[25].startswith("25,5,4,0,")

    def test_upto_json_lines(self, capsys):
        code, out, _ = run(capsys, "avalanche", "--p", "2", "--upto", "5", "--format", "json")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["k"] for r in records] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("flag", ["--k", "--upto"])
    def test_grains_past_the_limit_exit_2_before_relaxing(self, capsys, monkeypatch, flag):
        """--k 2**40 + 1 is checked before pi(2**40) is built, as --upto is before its scan."""
        from kspm import _engine

        monkeypatch.setattr(_engine, "pile_with_shots", None)  # a relaxation would raise TypeError
        argv = ("avalanche", "--p", "2", flag, str(2**40 + 1))
        err = "kspm: grain count 1099511627777 exceeds limit 2**40\n"
        assert run(capsys, *argv) == (2, "", err)

    def test_k_and_upto_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["avalanche", "--p", "2", "--k", "3", "--upto", "5"])
        assert exc.value.code == 2



def library_scan(n, p):
    """`avalanche --upto n` output per format, from incremental_scan and its sinks."""
    import io

    from kspm import Params, ScanCsvWriter, incremental_scan

    bufs = {fmt: io.StringIO() for fmt in ("csv", "json", "text")}
    csv_sink = ScanCsvWriter(bufs["csv"])

    def sink(k, a, c):
        csv_sink(k, a, c)
        bufs["json"].write(a.to_json() + "\n")
        bufs["text"].write(f"{k}: {' '.join(map(str, a.fired))}\n")

    incremental_scan(n, Params(p), sink)
    return {fmt: buf.getvalue() for fmt, buf in bufs.items()}


class TestScanOutput:
    """`avalanche --upto` writes in chunks; N crosses the chunk boundary."""

    @pytest.mark.parametrize(
        "p, n", [(p, n) for p in (1, 2, 3) for n in sorted({1, p, 4095, 4096, 4097, 9000})]
    )
    def test_matches_library_scan(self, capsys, tmp_path, p, n):
        expected = library_scan(n, p)
        for fmt, text in expected.items():
            argv = ("avalanche", "--p", str(p), "--upto", str(n), "--format", fmt)
            assert run(capsys, *argv) == (0, text, "")
            target = tmp_path / f"scan.{fmt}"
            assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
            assert target.read_bytes().decode() == text

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_single_k_formats(self, capsys, p):
        from kspm import Params, fixed_point, run_avalanche

        # from 4097 on, pi(k - 1) is relaxed in batch (from 1025 at p = 1)
        for k in (1, 2, 3, 25, 300, 4097, 9000):
            record, result = run_avalanche(fixed_point(k - 1, Params(p)))
            fired = list(record.fired)
            # L': one past the largest hole (unfired column with a fired right neighbor)
            lp = max((i + 1 for i in range(-1, len(result.diffs))
                      if i not in fired and i + 1 in fired), default=0)
            mf = max(fired) if fired else ""
            expected = {
                "text": " ".join(map(str, fired)) + "\n" if fired else "",
                "json": json.dumps({"k": k, "fired": fired}, separators=(",", ":")) + "\n",
                "csv": "k,fired_count,max_fired,l_prime,support_width\n"
                f"{k},{len(fired)},{mf},{lp},{result.width()}\n",
            }
            for fmt, text in expected.items():
                argv = ("avalanche", "--p", str(p), "--k", str(k), "--format", fmt)
                assert run(capsys, *argv) == (0, text, "")

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [4097, 9000])
    def test_csv_fields_from_json_rows(self, capsys, p, n):
        """csv counts, largest column and L' recomputed from the json firing lists alone."""
        from kspm import Params, fixed_point

        scan = ("avalanche", "--p", str(p), "--upto", str(n), "--format")
        code, csv_out, _ = run(capsys, *scan, "csv")
        assert code == 0
        code, json_out, _ = run(capsys, *scan, "json")
        assert code == 0
        header, *rows = csv_out.splitlines()
        assert header == "k,fired_count,max_fired,l_prime,support_width"
        records = [json.loads(line) for line in json_out.splitlines()]
        assert len(rows) == len(records) == n
        for row, record in zip(rows, records):
            k, count, max_fired, l_prime, _ = row.split(",")
            cols = sorted(record["fired"])
            start = len(cols) - 1  # start of the last run of consecutive columns
            while start > 0 and cols[start - 1] == cols[start] - 1:
                start -= 1
            expected = (len(cols), str(cols[-1]), cols[start]) if cols else (0, "", 0)
            assert int(k) == record["k"]
            assert (int(count), max_fired, int(l_prime)) == expected
        assert int(rows[-1].split(",")[-1]) == fixed_point(n, Params(p)).width()

    @pytest.mark.parametrize("p, n", [(1, 300), (2, 9000)])
    def test_budget_is_the_scan_total(self, capsys, monkeypatch, p, n):
        full = library_scan(n, p)["csv"]
        total = sum(int(row.split(",")[1]) for row in full.splitlines()[1:])
        argv = ("avalanche", "--p", str(p), "--upto", str(n), "--format", "csv")
        monkeypatch.setenv("KSPM_WORK_LIMIT", str(total))
        assert run(capsys, *argv) == (0, full, "")
        monkeypatch.setenv("KSPM_WORK_LIMIT", str(total - 1))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == f"kspm: firing budget {total - 1} exceeded\n"
        # whole rows written before the failing grain's chunk, nothing else
        assert full.startswith(out) and out.endswith("\n")

    def test_single_k_budget_covers_the_pile_before_it(self, capsys, monkeypatch):
        # pi(K - 1) and the K-th avalanche fire Σu(K) in all, charged to one budget
        argv = ("avalanche", "--p", "2", "--k", "5007", "--format", "csv")
        _, out, _ = run(capsys, *argv)
        total = sum(json.loads(run(capsys, "fixpoint", "--p", "2", "--n", "5007",
                                   "--format", "json")[1])["shot_vector"])
        assert int(out.splitlines()[1].split(",")[1]) > 1  # Σu(K - 1) < Σu(K) - 1
        monkeypatch.setenv("KSPM_WORK_LIMIT", str(total))
        assert run(capsys, *argv) == (0, out, "")
        monkeypatch.setenv("KSPM_WORK_LIMIT", str(total - 1))
        assert run(capsys, *argv) == (1, "", f"kspm: firing budget {total - 1} exceeded\n")


class TestVerify:
    def test_waves(self, capsys):
        code, out, _ = run(capsys, "verify", "waves", "--p", "4", "--n", "2000")
        assert code == 0
        assert "theorem2_index=20" in out
        assert out.startswith("PASS")

    def test_spectrum(self, capsys):
        code, out, _ = run(capsys, "verify", "spectrum", "--p-max", "8")
        assert code == 0
        assert out.startswith("PASS: spectrum")

    def test_plateau(self, capsys):
        code, out, _ = run(capsys, "verify", "plateau", "--p", "2", "--n-max", "100")
        assert code == 0
        assert "PASS" in out

    def test_confluence(self, capsys):
        code, out, _ = run(
            capsys, "verify", "confluence", "--p", "2", "--n-max", "40", "--seed", "3"
        )
        assert code == 0

    def test_support(self, capsys):
        code, out, _ = run(capsys, "verify", "support", "--p", "3", "--n-max", "500")
        assert code == 0

    def test_density(self, capsys):
        code, out, _ = run(capsys, "verify", "density", "--p", "2", "--n-max", "200")
        assert code == 0

    def test_linkage(self, capsys):
        code, out, _ = run(capsys, "verify", "linkage", "--p", "2", "--n-max", "60")
        assert code == 0

    def test_recurrence(self, capsys):
        code, out, _ = run(capsys, "verify", "recurrence", "--p", "2", "--n-max", "40")
        assert code == 0

    def test_waves_requires_n(self, capsys):
        code, _, err = run(capsys, "verify", "waves", "--p", "4")
        assert code == 2
        assert "needs --n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("confluence", "--p", "0"),
            ("confluence", "--p", "-1"),
            ("plateau", "--p", "0"),
            ("plateau", "--p", "-1"),
            ("support", "--p", "0"),
            ("density", "--p", "-1"),
            ("confluence", "--n-max", "0"),
            ("support", "--n-max", "-5"),
            ("linkage", "--n-max", "0"),
            ("density", "--p", "2", "--n-max", "0"),
            ("recurrence", "--n-max", "0"),
            ("plateau", "--n-max", "0"),
            ("support", "--p-max", "1"),
            ("confluence", "--p-max", "0"),
            ("spectrum", "--p-max", "1"),
            ("waves", "--p", "2", "--n", "0"),
        ],
    )
    def test_invalid_or_empty_range_exits_2(self, capsys, monkeypatch, argv):
        # a small budget makes a run that ignores a bad p fail fast, not hang
        monkeypatch.setenv("KSPM_WORK_LIMIT", "1000")
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--p", "5"),
            ("spectrum", "--n-max", "3"),
            ("recurrence", "--n", "7"),
            ("waves", "--p", "2", "--n", "30", "--n-max", "5"),
            ("plateau", "--seed", "4"),
            ("support", "--p", "2", "--p-max", "3"),
            ("linkage", "--seed", "1"),
            ("density", "--n", "50"),
            ("confluence", "--n-m", "9"),
        ],
    )
    def test_unread_combined_or_abbreviated_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_failure_prints_counterexample_and_exits_1(self, capsys, monkeypatch):
        import kspm.verify as verify_mod

        fail = verify_mod.CheckResult(
            "spectrum p<=4", False, "synthetic failure", {"p": 3}
        )
        monkeypatch.setattr(verify_mod, "check_spectrum", lambda *a, **k: fail)
        code, out, _ = run(capsys, "verify", "spectrum", "--p-max", "4")
        assert code == 1
        assert out.splitlines()[0] == "FAIL: spectrum p<=4 synthetic failure"
        assert 'counterexample: {"p":3}' in out

    def test_spectrum_failure_counterexample_is_json(self, capsys, monkeypatch):
        from kspm import dds

        monkeypatch.setattr(dds, "r_coefficients", lambda p: [2 * k for k in range(1, p + 1)])
        code, out, _ = run(capsys, "verify", "spectrum", "--p-max", "4")
        assert code == 1
        first, second = out.splitlines()
        assert first == "FAIL: spectrum p<=4 (x-1) P(x) is not p x^p - (x^(p-1) + ... + 1) at p=2"
        assert second.startswith("counterexample: ")
        counterexample = json.loads(second[len("counterexample: "):])
        assert counterexample == {"p": 2, "coefficients": [2, 4]}
        assert all(type(v) is int for v in [counterexample["p"], *counterexample["coefficients"]])


class TestFigureData:
    def test_heights_row_count(self, capsys):
        code, out, _ = run(capsys, "figure-data", "--p", "4", "--n", "2000", "--which", "heights")
        lines = out.splitlines()
        assert lines[0] == "n,height"
        assert len(lines) == 42  # header + 41 support columns

    def test_shot(self, capsys):
        code, out, _ = run(capsys, "figure-data", "--p", "2", "--n", "24", "--which", "shot")
        assert out.splitlines()[1:] == ["0,8", "1,1", "2,2", "3,0", "4,0"]

    def test_diffs_negate_parity(self, capsys):
        code, plain, _ = run(capsys, "figure-data", "--p", "4", "--n", "100", "--which", "diffs")
        code, negated, _ = run(
            capsys, "figure-data", "--p", "4", "--n", "100", "--which", "diffs", "--negate"
        )
        rows_p = [line.split(",") for line in plain.splitlines()[1:]]
        rows_n = [line.split(",") for line in negated.splitlines()[1:]]
        for rp, rn in zip(rows_p, rows_n):
            assert rp[0] == rn[0]  # n
            assert rp[-1] == rn[-1]  # b_n untouched
            for a, b in zip(rp[1:-1], rn[1:-1]):
                assert int(a) == -int(b)

    def test_degenerate_p1(self, capsys):
        code, out, _ = run(capsys, "figure-data", "--p", "1", "--n", "10", "--which", "shot")
        assert code == 0
        assert out.splitlines()[0] == "n,shots"

    @pytest.mark.parametrize("negate", [(), ("--negate",)], ids=["plain", "negate"])
    def test_diffs_of_no_grains_exits_2(self, capsys, negate):
        """Y_0 = (-N, 0, ..., 0, a_0) needs a grain, so N = 0 has no rows, not even a header."""
        argv = ("figure-data", "--p", "2", "--n", "0", "--which", "diffs", *negate)
        assert run(capsys, *argv) == (2, "", "kspm: grain count must be an int >= 1, got 0\n")

    def test_diffs_rows_are_streamed(self, tmp_path):
        """At p = 500, N = 1 the rows come one state at a time, not from all 502 states of
        500 entries at once: traced peaks 1.56 MB streamed, 2.66 MB held (Python 3.11,
        writes of 4,096 rows)."""
        _parser()  # built once per process, outside the traced run
        tracemalloc.start()
        try:
            code = main(["figure-data", "--p", "500", "--n", "1", "--which", "diffs",
                         "--out", str(tmp_path / "diffs.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_040_000

    def test_writes_are_bounded_in_bytes(self, tmp_path):
        """At p = 1000, N = 1 the 1,002 rows of about 2 kB each (2.0 MB in all) go out
        in writes of about 64 KiB: traced peak 0.31 MB, against 6.1 MB for writes of
        4,096 rows (Python 3.11)."""
        _parser()
        tracemalloc.start()
        try:
            code = main(["figure-data", "--p", "1000", "--n", "1", "--which", "diffs",
                         "--out", str(tmp_path / "diffs.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert (tmp_path / "diffs.csv").stat().st_size > 2_000_000
        assert peak < 1_000_000


class TestStrictFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fixpoint", "--p", "2", "--n", "24", "--form", "json"),
            ("fixpoint", "--p", "2", "--n", "24", "--o", "x"),
            ("avalanche", "--p", "2", "--up", "3"),
            ("avalanche", "--p", "2", "--k", "3", "--form", "csv"),
            ("figure-data", "--p", "2", "--n", "24", "--wh", "shot"),
            ("figure-data", "--p", "2", "--n", "24", "--which", "diffs", "--neg"),
            ("figure-data", "--p", "2", "--n", "24", "--which", "shot", "--negate"),
            ("figure-data", "--p", "2", "--n", "24", "--which", "heights", "--negate"),
        ],
    )
    def test_abbreviated_or_unread_flag_exits_2(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)  # an expanded `--o x` must not litter the checkout
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects abbreviations
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""


class TestOutputFile:
    def test_out_writes_atomically(self, tmp_path, capsys):
        target = tmp_path / "pile.txt"
        code, out, _ = run(
            capsys, "fixpoint", "--p", "2", "--n", "24", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "2 1 2 1 2\n"
        assert not list(tmp_path.glob(".kspm-*"))

    def test_no_partial_file_on_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KSPM_WORK_LIMIT", "3")
        target = tmp_path / "pile.txt"
        code, _, err = run(
            capsys, "fixpoint", "--p", "2", "--n", "1000", "--out", str(target)
        )
        assert code == 1
        assert "budget" in err
        assert not target.exists()
        assert not list(tmp_path.glob(".kspm-*"))

    @pytest.mark.parametrize("target", ["missing/pile.txt", "dir"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        (tmp_path / "dir").mkdir()
        out_path = tmp_path / target  # inside a missing directory, or a directory
        code, out, err = run(
            capsys, "fixpoint", "--p", "2", "--n", "24", "--out", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"kspm: cannot write {out_path}")
        assert not list(tmp_path.rglob(".kspm-*"))

    def test_out_through_symlink_writes_its_target(self, tmp_path, capsys):
        real, link = tmp_path / "real.txt", tmp_path / "link.txt"
        real.write_text("stale\n")
        link.symlink_to(real)
        assert run(capsys, "fixpoint", "--p", "2", "--n", "24", "--out", str(link)) == (0, "", "")
        assert link.is_symlink()
        assert real.read_text() == "2 1 2 1 2\n"
        assert not list(tmp_path.glob(".kspm-*"))

    def test_out_modes(self, tmp_path, capsys):
        """A new file gets 0o666 less the umask; an existing file keeps its mode."""
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("stale\n")
        old.chmod(0o604)
        umask = os.umask(0o027)
        try:
            for target in (new, old):
                argv = ("fixpoint", "--p", "2", "--n", "24", "--out", str(target))
                assert run(capsys, *argv) == (0, "", "")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert old.read_text() == "2 1 2 1 2\n"

    def test_out_to_hard_linked_file_writes_in_place(self, tmp_path, capsys):
        """Both names of a twice-linked file read the new output, with the old mode."""
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        first.write_text("a longer stale file\n" * 10)
        first.chmod(0o604)
        os.link(first, second)
        argv = ("fixpoint", "--p", "2", "--n", "24", "--out", str(first))
        assert run(capsys, *argv) == (0, "", "")
        for name in (first, second):
            assert name.read_text() == "2 1 2 1 2\n"
            assert stat.S_IMODE(name.stat().st_mode) == 0o604
            assert name.stat().st_nlink == 2
        assert first.stat().st_ino == second.stat().st_ino
        assert not list(tmp_path.glob(".kspm-*"))

    def test_out_to_single_link_file_is_replaced_atomically(self, tmp_path, capsys):
        """A file with one link is replaced by a new one: a reader of the old keeps it."""
        target = tmp_path / "pile.txt"
        target.write_text("stale\n")
        inode = target.stat().st_ino
        with open(target) as old:
            argv = ("fixpoint", "--p", "2", "--n", "24", "--out", str(target))
            assert run(capsys, *argv) == (0, "", "")
            assert old.read() == "stale\n"
        assert target.read_text() == "2 1 2 1 2\n"
        assert target.stat().st_ino != inode
        assert not list(tmp_path.glob(".kspm-*"))

    def test_out_to_fifo_writes_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # a non-blocking reader: opening it cannot hang, and the writer finds a reader
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        argv = ("fixpoint", "--p", "2", "--n", "24", "--out", str(fifo))
        try:
            assert run(capsys, *argv) == (0, "", "")
            assert os.read(reader, 4096) == b"2 1 2 1 2\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert not list(tmp_path.glob(".kspm-*"))

    def test_support_spill_exits_1(self, capsys, monkeypatch):
        from kspm import Params, _engine, fixed_point
        from kspm.errors import Inconsistent

        # above the plain-loop cutoff, with room for far too few columns
        monkeypatch.setattr(_engine, "support_cap", lambda grains, p: 16)
        with pytest.raises(Inconsistent):
            fixed_point(5000, Params(2))
        code, out, err = run(capsys, "fixpoint", "--p", "2", "--n", "5000")
        assert code == 1
        assert out == ""
        assert "support bound" in err

    def test_work_limit_validation(self, capsys, monkeypatch):
        for raw in ("zero", "0", "-3", "1.5"):
            monkeypatch.setenv("KSPM_WORK_LIMIT", raw)
            code, _, err = run(capsys, "fixpoint", "--p", "2", "--n", "4")
            assert code == 2
            assert f"KSPM_WORK_LIMIT must be a positive integer, got {raw!r}" in err


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "avalanche", "--p", "3", "--upto", "50", "--format", "csv")
        _, second, _ = run(capsys, "avalanche", "--p", "3", "--upto", "50", "--format", "csv")
        assert first == second

    def test_verify_deterministic(self, capsys):
        args = ("verify", "confluence", "--p", "2", "--n-max", "25", "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestLibraryParity:
    def test_scan_csv_matches_library_writer(self, capsys):
        import io

        from kspm import Params, ScanCsvWriter, incremental_scan

        _, cli_out, _ = run(capsys, "avalanche", "--p", "2", "--upto", "40", "--format", "csv")
        buf = io.StringIO()
        incremental_scan(40, Params(2), ScanCsvWriter(buf))
        assert cli_out == buf.getvalue()

    def test_figure_diffs_match_trajectory(self, capsys):
        from kspm import Params, avg_trajectory

        _, out, _ = run(capsys, "figure-data", "--p", "3", "--n", "200", "--which", "diffs")
        traj = avg_trajectory(200, Params(3))
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == len(traj)
        for n, row in enumerate(rows):
            assert tuple(int(v) for v in row[1:4]) == traj[n].entries
            assert int(row[4]) == traj[n].mean_numerator()


class TestCsvBytes:
    """CLI csv against rows that the standard `csv` module writes from library values."""

    @staticmethod
    def table(header, rows):
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()

    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 24, 2000])
    def test_matches_csv_writer(self, capsys, p, n):
        from kspm import Params, dds

        params = Params(p)
        pi, sv = dds.pile(n, params)
        heights = pi.heights().heights
        traj = dds.trajectory_of(pi, sv, params)
        b = [pi.diffs[i] if i < pi.width() else 0 for i in range(len(traj))]
        diffs_header = ("n", *(f"y{j}" for j in range(p)), "mean_numerator", "b_n")
        expected = {
            ("fixpoint", "--format", "csv"): self.table(
                ("n", "b_n", "h_n", "a_n"),
                [(i, pi.diffs[i], heights[i], sv.a(i)) for i in range(pi.width())],
            ),
            ("figure-data", "--which", "heights"): self.table(("n", "height"), enumerate(heights)),
            ("figure-data", "--which", "shot"): self.table(
                ("n", "shots"), [(i, sv.a(i)) for i in range(pi.width())]
            ),
            ("figure-data", "--which", "diffs"): self.table(
                diffs_header,
                [(i, *y.entries, y.mean_numerator(), b[i]) for i, y in enumerate(traj)],
            ),
            ("figure-data", "--which", "diffs", "--negate"): self.table(
                diffs_header,
                [(i, *(-v for v in y.entries), -y.mean_numerator(), b[i])
                 for i, y in enumerate(traj)],
            ),
        }
        for (command, *rest), text in expected.items():
            assert run(capsys, command, "--p", str(p), "--n", str(n), *rest) == (0, text, "")
        # negative values reach the output: Y_0 = (a_0 - N) at p = 1, (-N, ..., a_0) above
        diffs = ("figure-data", "--which", "diffs")
        assert ",-" in expected[diffs] + expected[(*diffs, "--negate")]


class TestEntryPoint:
    # each child imports the package under test, with or without PYTHONPATH or an install
    SRC = os.path.dirname(os.path.dirname(os.path.abspath(kspm.__file__)))
    ENV = dict(os.environ, PYTHONPATH=SRC)

    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kspm.cli", "fixpoint", "--p", "2", "--n", "24"],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2 1 2 1 2\n"

    def test_closed_pipe_exits_1_quietly(self):
        # like `kspm avalanche ... | head -1`: the reader leaves mid-scan
        proc = subprocess.Popen(
            [sys.executable, "-m", "kspm.cli", "avalanche", "--p", "2", "--upto", "200000",
             "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.ENV,
        )
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_bad_args_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kspm.cli", "fixpoint", "--n", "24"],
            capture_output=True,
            text=True,
            env=self.ENV,
        )
        assert proc.returncode == 2
