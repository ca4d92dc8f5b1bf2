"""The package doctests, the README library example, its quoted CLI outputs and its
`verify` suite table hold as written."""

import contextlib
import doctest
import io
import pathlib
import re

import kspm
from kspm.cli import _SUITES, _parser, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_examples() -> list[tuple[list[str], str]]:
    """(argv, comment) for each line of the README's CLI block that has a comment."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [(cmd.split()[1:], comment.strip()) for cmd, _, comment in
            (line.partition("#") for line in block.splitlines()) if comment]


def test_package_doctests():
    result = doctest.testmod(kspm)
    assert result.attempted >= 1
    assert result.failed == 0


def test_readme_library_example():
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 4
    # each print's comment states its output: "head ... tail", or the value before a ":"
    for got, comment in zip(printed, comments):
        if " ... " in comment:
            head, tail = comment.split(" ... ")
            assert got.startswith(head) and got.endswith(tail)
        else:
            assert got == comment.split(":")[0]
    to_text, a9, index, entries = printed
    assert to_text.startswith("4 0 4 1 3 2") and to_text.endswith("4 3 2 1")
    assert a9 == "103"
    assert index == "20"
    assert entries == "(-3, -5, -7, -7)"


def test_readme_cli_outputs(capsys):
    """A quoted comment is the whole output, a comma-separated header its first
    line; a key=value comment is part of it."""
    checked = []
    for argv, comment in cli_examples():
        quoted = re.fullmatch(r'"(.*)"', comment)
        header = re.fullmatch(r"\w+(,\w+)+", comment)
        if not quoted and not header and not re.fullmatch(r"\w+=\S+", comment):
            continue  # a description, not an output
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if quoted:
            assert out == quoted.group(1) + "\n", argv
        elif header:
            assert out.split("\n", 1)[0] == comment, argv
        else:
            assert comment in out.split(), argv
        checked.append(" ".join(argv))
    assert checked == [
        "fixpoint --p 2 --n 24",
        "avalanche --p 2 --k 25",
        "avalanche --p 2 --upto 1000 --format csv",
        "verify spectrum --p-max 64",
        "verify waves --p 4 --n 2000",
    ]


def test_readme_suite_table_matches_cli():
    """Each row of the README's `verify` table states the suite's p range, size
    flag and default, and other flags as the CLI parses them."""
    text = README.read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", text, re.M))
    assert list(rows) == list(_SUITES)
    for suite, (p_lo, _, size_flag, _) in _SUITES.items():
        args = vars(_parser().parse_args(["verify", suite]))
        swept = f"{p_lo}..{args['p_max']}" + ("" if "p" in args else ", no `--p`")
        if size_flag is None:
            size = "none"
        else:
            size = f"`{size_flag}` ({'required' if args['size'] is None else args['size']})"
        other = f"`--seed` ({args['seed']})" if "seed" in args else ""
        assert [cell.strip() for cell in rows[suite].split("|")] == [swept, size, other], suite
