"""Consistency checks in the package survive ``python -O``.

``assert`` statements vanish under ``-O``, so the package writes its checks
as ``errors.check(condition, what)``, which raises ``InternalError``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pmvroots"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_guard_finds_an_assert():
    source = '"""assert in a docstring"""\nx = 1\nif x:\n    assert x, "nested"\n'
    assert assert_lines(source) == [4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_verify_paper_passes_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pmvroots.cli", "verify-paper", "--json"],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert (payload["passed"], payload["total"], payload["failed"]) == (28, 28, 0)
