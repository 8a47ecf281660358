"""A one-shot CLI call pays for its imports: the CLI loads neither
``dataclasses`` nor ``inspect``, which together took about a third of
``import pmvroots.cli``, nor ``argparse`` and the ``gettext`` it pulls in,
about 1 ms more.

The probe runs in a fresh ``python -E -s`` interpreter, imports the CLI and
runs one small request of every verb through ``cli.main``.
"""

import functools
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

ARGVS = [
    ["analyze", "M(2)"],
    ["sqrt", "M(3)", "1/3"],
    ["sqrt", "gamma(twist3(Z))", "(1,-2,2)", "--json"],
    ["sqrtmap", "gamma(Z/3)"],
    ["ideals", "prod(M(1),M(2))"],
    ["closure", "gamma(prod(Z/2,quad(-1+1*sqrt(2))))", "--kind", "sqrt"],
    ["closure", "gamma(lex(Z/1,Z/3))"],
    ["member", "gamma(Q)", "1/2"],
    ["decompose", "M(2)", "1/2"],
    ["greatest", "M(4)", "--quantifier", "relative"],
    ["verify-paper"],
]

PROBE = f"""
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import pmvroots.cli as cli
codes = []
for argv in {ARGVS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(codes)
print(" ".join(m for m in ("dataclasses", "inspect") if m in sys.modules))
print(" ".join(m for m in ("argparse", "gettext") if m in sys.modules))
"""


@functools.cache
def probe() -> list[str]:
    return subprocess.run([sys.executable, "-E", "-s", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=300, check=True).stdout.split("\n")


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    out = probe()
    assert out[0] == str([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0])
    assert out[1] == ""


def test_the_cli_loads_neither_argparse_nor_gettext():
    assert probe()[2] == ""
