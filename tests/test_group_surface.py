"""The group layer has one surface: the public payload laws of the
descriptor classes and the functions of ``ogroups`` on payloads.

No module of the package but ``ogroups`` reads an attribute whose name is
that of an underscore method of an ``ogroups`` class, and no module names
``GroupElement``: a group element is a bare payload.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pmvroots"
MODULES = sorted(SRC.glob("*.py"))


def private_methods(source: str) -> set[str]:
    """The underscore, non-dunder method names defined by the classes of ``source``."""
    return {
        node.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _names(node) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    return []


def surface_violations(sources: dict[str, str]) -> list[str]:
    """``module:line: what`` for each read of a private ``ogroups`` method
    outside ``ogroups`` and each mention of ``GroupElement``, in ``sources``
    (module name -> source text)."""
    private = private_methods(sources["ogroups"])
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if module != "ogroups" and isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{module}:{node.lineno}: .{node.attr}")
            if "GroupElement" in _names(node):
                found.append(f"{module}:{getattr(node, 'lineno', '?')}: GroupElement")
    return found


def test_the_guard_finds_private_laws_and_boxes():
    sources = {
        "ogroups": (
            "class G:\n"
            "    def _add(self, p, q):\n        return self._add(p, q)\n"
            "    def add(self, p, q):\n        return p\n"
            "    def __repr__(self):\n        return 'G'\n"
        ),
        "pmv": "def f(d, p):\n    return d._add(p, p), d.add(p, p), d.__repr__()\n",
        "closures": "from .ogroups import GroupElement\n",
    }
    assert private_methods(sources["ogroups"]) == {"_add"}
    assert surface_violations(sources) == ["pmv:2: ._add", "closures:1: GroupElement"]


def test_the_package_uses_the_group_layer_through_its_surface():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert surface_violations(sources) == []
