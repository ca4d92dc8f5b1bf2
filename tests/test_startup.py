"""Start-up: in the CLI, only a relaxed pile loads numpy.

Each test runs a fresh interpreter with `sys.modules["numpy"] = None`, so
any `import numpy` raises, and compares its stdout byte for byte with the
same command run in this process, where numpy is available.
"""

import os
import subprocess
import sys

import pytest

import kspm
from kspm.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kspm.__file__)))

# the CLI in a fresh interpreter whose every `import numpy` raises
WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from kspm import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def without_numpy(*args: str, code: str = WITHOUT_NUMPY) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=env, timeout=120
    )


def test_import_without_numpy():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import kspm, kspm.cli, kspm.analysis, kspm.avalanche, kspm.dds, kspm.verify\n"
    )
    proc = without_numpy(code=code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""


def test_import_loads_no_heavy_modules():
    """`import kspm, kspm.cli` adds none of these modules to those the interpreter
    (with whatever `site` loads) already holds; `verify spectrum` imports `fractions` late."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kspm, kspm.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = without_numpy(code=code)
    assert proc.returncode == 0, proc.stderr.decode()
    added = set(proc.stdout.decode().split())
    assert "kspm.cli" in added
    assert added & {"dataclasses", "inspect", "numpy", "fractions"} == set()


def test_relaxed_pile_needs_numpy():
    """The block works: the first pile at the cutoff relaxes, and its import fails."""
    proc = without_numpy("fixpoint", "--p", "2", "--n", "4096")
    assert proc.returncode != 0
    assert b"numpy" in proc.stderr


COMMANDS = [
    ("avalanche", "--p", "2", "--upto", "300", "--format", "csv"),
    ("avalanche", "--p", "3", "--upto", "300", "--format", "json"),
    ("avalanche", "--p", "1", "--upto", "300", "--format", "text"),
    ("avalanche", "--p", "2", "--k", "200", "--format", "csv"),
    # the last sizes below the relax cutoff
    ("fixpoint", "--p", "1", "--n", "1023", "--format", "csv"),
    ("fixpoint", "--p", "2", "--n", "4095", "--format", "json"),
    ("figure-data", "--p", "2", "--n", "500", "--which", "heights"),
    ("figure-data", "--p", "3", "--n", "500", "--which", "shot"),
    ("figure-data", "--p", "2", "--n", "500", "--which", "diffs"),
    ("verify", "confluence", "--p-max", "3", "--n-max", "30"),
    ("verify", "plateau", "--p-max", "3", "--n-max", "60"),
    ("verify", "support", "--p-max", "3", "--n-max", "200"),
    ("verify", "density", "--p-max", "3", "--n-max", "200"),
    ("verify", "recurrence", "--p-max", "3", "--n-max", "40"),
    ("verify", "linkage", "--p-max", "3", "--n-max", "40"),
    ("verify", "waves", "--p-max", "3", "--n", "4095"),
    ("verify", "spectrum", "--p-max", "64"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_without_numpy(argv, capsys):
    assert main(list(argv)) == 0
    expected = capsys.readouterr().out.encode()
    assert expected
    proc = without_numpy(*argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == expected
