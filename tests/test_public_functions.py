"""Every public top-level function of the package has a user.

A function whose name does not start with ``_`` is either referenced
somewhere in ``src/pmvroots`` (called, passed or listed, in its own module
or another) or named as ``module.function`` in the README's "Library use"
section.  A function used only by the tests belongs in the tests.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pmvroots"
MODULES = sorted(SRC.glob("*.py"))


def library_use(readme: str) -> str:
    """The text of the README's "Library use" section."""
    return readme.split("## Library use", 1)[1].split("\n## ", 1)[0]


def unused_public_functions(sources: dict[str, str], documented: str) -> list[str]:
    """``module.function`` for each public top-level function of ``sources``
    (module name -> source text) that no module references and
    ``documented`` does not name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    named = set(re.findall(r"\b(\w+\.\w+)\b", documented))
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in referenced
        and f"{module}.{node.name}" not in named
    ]


def test_the_guard_finds_an_unused_function():
    sources = {
        "a": "def used():\n    pass\n\ndef unused():\n    pass\n\ndef _private():\n    pass\n\nx = used\n",
        "b": "from . import a\n\ndef documented():\n    a.called()\n\ndef called():\n    pass\n",
    }
    assert unused_public_functions(sources, "b.documented() returns") == ["a.unused"]


def test_the_library_use_section_is_found():
    section = library_use((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "dsl.parse_algebra" in section and "## " not in section


def test_every_public_function_has_a_user():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    documented = library_use((ROOT / "README.md").read_text(encoding="utf-8"))
    assert unused_public_functions(sources, documented) == []

