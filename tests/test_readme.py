"""The README's examples run, and print what it says they print."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from logstair.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def _documented_value(comment: str):
    """(value, approximate) from a tour comment such as `# 'blocked'`,
    `# True (both fail near t = 1/3)` or `# ≈ 0.693147 + 1.570796j`."""
    text = comment.strip()
    approximate = text.startswith("≈")
    text = text.lstrip("≈ ").split(" (")[0].strip()
    return ast.literal_eval(text), approximate


@pytest.mark.parametrize("block", range(2))
def test_library_tour_runs_as_documented(block):
    source = _blocks("python")[block]
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        want, approximate = _documented_value(lines[stmt.lineno - 1].split("#", 1)[1])
        if approximate:
            assert got == pytest.approx(want, abs=1e-6)
        else:
            assert got == want
        checked += 1
    assert checked >= 2


def _console_examples():
    """(argv, expected stdout lines) for each `$ logstair ...` example."""
    examples = []
    for block in _blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *out = chunk.rstrip("\n").split("\n")
            argv = shlex.split(command)
            assert argv[0] == "logstair"
            examples.append((argv[1:], [line for line in out if line]))
    return examples


def test_console_examples_print_as_documented(tmp_path):
    examples = {ex[0][0]: ex for ex in _console_examples()}
    # wind reads a loop.json the README does not give; reach writes the
    # route.json that oracle then reads
    assert set(examples) == {"wind", "classify", "reach", "oracle", "demo-expexp"}
    route = str(tmp_path / "route.json")
    for name in ("classify", "reach", "oracle", "demo-expexp"):
        argv, want = examples[name]
        argv = [route if a == "route.json" else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue().splitlines() == want
