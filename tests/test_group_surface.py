"""The group and algebra layers each have one surface.

The group layer's is the public payload laws of the descriptor classes and
the functions of ``ogroups`` on payloads: no module of the package but
``ogroups`` reads an attribute whose name is that of an underscore method
of an ``ogroups`` class, and no module names ``GroupElement``: a group
element is a bare payload.

The algebra layer's is the public names of ``pmv``: no module but ``pmv``
reads or imports an underscore name that ``pmv`` defines, whether a
function, a class, a constant, a method or an instance attribute.

Every other module keeps its own private names too: no module reads through
a module alias, or imports, an underscore top-level name that another
module of the package defines.

Neither layer writes values: no class of ``ogroups`` or ``pmv`` defines
``format``, as ``scalars.format_value`` is the one function that does.

The closure facts, the root rules and the DSL text are part of the group
layer's surface too: ``flat``, ``top_factors``, ``strict_closure``,
``has_boolean_quotient``, ``doubling_plan``, ``missing_from``,
``unreachable_from``, ``rootless``, ``root`` and ``__str__`` are methods of
the descriptor classes, and ``boolean`` is a flag beside ``linear``.  So no
module but ``ogroups`` tests a group family with ``isinstance``, and no
module but ``ogroups`` and ``worked_examples`` compares a group with ``==``
or ``!=`` to a family instance that it builds, except the input guard of
``roots.twist3_bounded_check``, a procedure defined on that one group.

The algebra kinds share one surface too: ``root``, ``zero`` and ``unit``
are methods and fields of both, so ``roots`` and ``pmv.zero_elem`` and
``pmv.one_elem`` call ``isinstance`` on an algebra class only in the test
of an ``if`` that raises, the input guard of a procedure defined on one
kind (``sqrt_element_finite``, ``twist3_bounded_check``, ``sqrt_map``).

The modules are layered, lowest first: ``errors`` and ``records``;
``scalars``; ``ogroups``; ``pmv``; ``roots``, ``ideals``, ``closures`` and
``dsl``; ``worked_examples``; ``cli``.  A module imports only from lower
layers, in a function body too.
"""

import ast
import pathlib

from pmvroots import ogroups as og
from pmvroots import pmv

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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names(source: str) -> set[str]:
    """The underscore, non-dunder names that ``source`` defines: functions,
    classes, methods, assigned names and assigned attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return set(filter(_is_private, found))


def algebra_surface_violations(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each attribute read or import, outside
    ``pmv``, of an underscore name that ``pmv`` defines, in ``sources``
    (module name -> source text)."""
    private = private_names(sources["pmv"])
    found = []
    for module, text in sources.items():
        if module == "pmv":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{module}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "pmv":
                found += [f"{module}:{node.lineno}: {a.name}" for a in node.names if a.name in private]
    return found


def test_the_guard_finds_private_algebra_names():
    sources = {
        "pmv": (
            "_LIMIT = 3\n"
            "def _helper(A):\n    return A\n"
            "class F:\n"
            "    def _set(self, v):\n        self._hash = hash(v)\n"
            "    def oplus(self, i, j):\n        return i\n"
            "    def __hash__(self):\n        return self._hash\n"
        ),
        "roots": (
            "from . import pmv\nfrom .pmv import F, _helper\n"
            "def f(A, _local):\n    return pmv._helper(A), A._hash, A.oplus(1, 2), A.__hash__(), _local\n"
        ),
        "ideals": "from .pmv import oplus as _oplus\nx = pmv._LIMIT\n",
    }
    assert private_names(sources["pmv"]) == {"_LIMIT", "_helper", "_set", "_hash"}
    assert algebra_surface_violations(sources) == [
        "roots:2: _helper", "roots:4: ._hash", "roots:4: ._helper", "ideals:2: ._LIMIT"
    ]


def test_the_package_uses_the_algebra_layer_through_its_surface():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert algebra_surface_violations(sources) == []


def top_level_private_names(source: str) -> set[str]:
    """The underscore, non-dunder names that the top level of ``source``
    binds: functions, classes and assigned names."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return set(filter(_is_private, found))


def module_privacy_violations(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each import, and each read through a module
    alias, of an underscore top-level name that another module of
    ``sources`` (module name -> source text) defines; sorted."""
    private = {module: top_level_private_names(text) for module, text in sources.items()}
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        aliases = {}  # local name -> package module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = (node.module or "").split(".")[-1]
            if origin in sources and origin != module:
                found += [f"{module}:{node.lineno}: {a.name}" for a in node.names if a.name in private[origin]]
            elif origin in ("", "pmvroots"):
                aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in sources)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                origin = aliases.get(node.value.id)
                if origin not in (None, module) and node.attr in private[origin]:
                    found.append(f"{module}:{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_the_guard_finds_private_module_names():
    sources = {
        "closures": (
            "_LIMIT: int = 3\n"
            "def _helper():\n    pass\n"
            "def public():\n    return _helper()\n"
            "class _Profile:\n    def _own(self):\n        pass\n"
        ),
        "worked": (
            "from . import closures as cl\nfrom .closures import _helper, public\n"
            "def f(x):\n    return cl._helper(), cl._LIMIT, cl.public(), x._helper(), cl._Profile._own\n"
        ),
        "roots": (
            "from pmvroots import closures\n"
            "def _helper():\n    pass\n"
            "def g():\n    return closures._helper(), _helper()\n"
        ),
    }
    assert top_level_private_names(sources["closures"]) == {"_LIMIT", "_helper", "_Profile"}
    assert module_privacy_violations(sources) == [
        "roots:5: closures._helper",
        "worked:2: _helper",
        "worked:4: cl._LIMIT",
        "worked:4: cl._Profile",
        "worked:4: cl._helper",
    ]


def test_no_module_reads_another_modules_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert module_privacy_violations(sources) == []


def format_definitions(source: str) -> list[str]:
    """``Class:line`` for each class of ``source`` whose body defines or
    assigns ``format``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if "format" in names:
                found.append(f"{cls.name}:{node.lineno}")
    return found


def test_the_guard_finds_format_laws():
    source = (
        "class G:\n"
        "    def format(self, p):\n        return str(p)\n"
        "    def add(self, p, q):\n        return p\n"
        "class H:\n"
        "    format = G.format\n"
        "def format(p):\n    return str(p)\n"
    )
    assert format_definitions(source) == ["G:2", "H:7"]


def test_no_group_or_algebra_class_writes_values():
    for module in ("ogroups", "pmv"):
        assert format_definitions((SRC / f"{module}.py").read_text(encoding="utf-8")) == [], module


# the eight group families: the public concrete descriptor classes
FAMILIES = frozenset(
    name for name, c in vars(og).items()
    if isinstance(c, type) and issubclass(c, og.GroupDescriptor) and c is not og.GroupDescriptor
    and not name.startswith("_")
)


def isinstance_classes(node) -> list[str]:
    """The names in the class argument of an ``isinstance`` call, alone or
    in a tuple; none for any other node."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
        return []
    classes = node.args[1:2]
    if classes and isinstance(classes[0], ast.Tuple):
        classes = classes[0].elts
    return [n for c in classes for n in _names(c)]


def family_tests(source: str) -> list[str]:
    """``line: Family`` for each ``isinstance`` call of ``source`` whose class
    argument names a group family, alone or in a tuple."""
    return [
        f"{node.lineno}: {n}" for node in ast.walk(ast.parse(source)) for n in isinstance_classes(node) if n in FAMILIES
    ]


def family_comparisons(source: str) -> list[tuple[str, int, str]]:
    """``(function, line, Family)`` for each ``==`` or ``!=`` of ``source``
    with an operand that calls a group family's constructor; the function is
    the innermost ``def`` around it, or ``<module>``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in child.ops):
                calls = [c for c in (child.left, *child.comparators) if isinstance(c, ast.Call)]
                found.extend((function, child.lineno, n) for c in calls for n in _names(c.func) if n in FAMILIES)
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_guard_finds_family_tests():
    source = (
        "from . import ogroups as og\nfrom .ogroups import Lex\n"
        "def f(d, A):\n"
        "    if isinstance(d, og.ScaledInt) or isinstance(d, (og.Rationals, og.GroupDescriptor)):\n"
        "        return isinstance(A, pmv.GammaAlgebra)\n"
        "    return isinstance(d, Lex), isinstance(d.tail, og.ProductGroup), d == og.Twist3('Z')\n"
        "UNIT = og.ScaledInt(1)\n"
        "same = [d != Lex(UNIT, UNIT) for d in ()], UNIT == og.ScaledInt(1), d.n == og.ScaledInt(1).n\n"
    )
    assert len(FAMILIES) == 8
    assert family_tests(source) == ["4: ScaledInt", "4: Rationals", "6: Lex", "6: ProductGroup"]
    assert family_comparisons(source) == [("f", 6, "Twist3"), ("<module>", 8, "Lex"), ("<module>", 8, "ScaledInt")]


def test_no_module_but_ogroups_tests_a_group_family():
    for path in MODULES:
        if path.stem != "ogroups":
            assert family_tests(path.read_text(encoding="utf-8")) == [], path.stem


def test_only_the_twist3_box_compares_with_a_family_instance():
    found = [
        (path.stem, function, family)
        for path in MODULES
        if path.stem not in ("ogroups", "worked_examples")
        for function, _, family in family_comparisons(path.read_text(encoding="utf-8"))
    ]
    assert found == [("roots", "twist3_bounded_check", "Twist3")]


# the algebra kinds: the classes of pmv that derive from its Algebra
ALGEBRAS = frozenset(
    name for name, c in vars(pmv).items() if isinstance(c, type) and issubclass(c, pmv.Algebra)
)


def algebra_tests(source: str) -> list[tuple[str, int, bool]]:
    """``(function, line, guard)`` for each ``isinstance`` call of ``source``
    whose class argument names an algebra kind; ``guard`` tells whether it
    lies in the test of an ``if`` with no ``else`` whose body only raises.
    The function is the innermost ``def`` around it, or ``<module>``."""
    found = []

    def visit(node, function, guard):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if ALGEBRAS.intersection(isinstance_classes(node)):
            found.append((function, node.lineno, guard))
        if isinstance(node, ast.If):
            raises = not node.orelse and all(isinstance(s, ast.Raise) for s in node.body)
            visit(node.test, function, raises)
            children = node.body + node.orelse
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, function, guard)

    visit(ast.parse(source), "<module>", False)
    return found


def test_the_guard_finds_algebra_kind_switches():
    source = (
        "def f(A):\n"
        "    if not isinstance(A, FiniteAlgebra) or A.size > 2:\n        raise ParameterError('finite')\n"
        "    if isinstance(A, pmv.GammaAlgebra):\n        return A.zero\n"
        "    if isinstance(A, (int, Algebra)):\n        raise ValueError\n    else:\n        pass\n"
        "    def g(B):\n        return isinstance(B, FiniteAlgebra), isinstance(B, og.ScaledInt)\n"
        "    return [x for x in A if isinstance(x, GammaAlgebra)]\n"
        "KIND = isinstance(None, Algebra)\n"
    )
    assert ALGEBRAS == {"Algebra", "FiniteAlgebra", "GammaAlgebra"}
    assert algebra_tests(source) == [
        ("f", 2, True), ("f", 4, False), ("f", 6, False), ("g", 11, False), ("f", 12, False), ("<module>", 13, False),
    ]


def test_roots_and_the_units_switch_on_no_algebra_kind():
    found = algebra_tests((SRC / "roots.py").read_text(encoding="utf-8"))
    assert [f for f, _, guard in found if not guard] == []
    assert sorted(f for f, _, _ in found) == ["sqrt_element_finite", "sqrt_map", "twist3_bounded_check"]
    found = algebra_tests((SRC / "pmv.py").read_text(encoding="utf-8"))
    assert [f for f, _, _ in found if f in ("zero_elem", "one_elem")] == []


# the layers of the package, lowest first; scalars raises the errors of
# errors and its values are records, so it sits above both
LAYERS = (
    ("errors", "records"), ("scalars",), ("ogroups",), ("pmv",),
    ("roots", "ideals", "closures", "dsl"), ("worked_examples",), ("cli",),
)


def upward_imports(sources: dict[str, str]) -> list[str]:
    """``module:line: imported`` for each import, at any depth of ``sources``
    (module name -> source text), of a module of the package whose layer is
    not below the importer's; sorted."""
    rank = {module: i for i, layer in enumerate(LAYERS) for module in layer}
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                origin = (node.module or "").split(".")[-1]
                # from . import pmv, or from .pmv import Element
                imported = [a.name for a in node.names] if origin in ("", "pmvroots") else [origin]
            elif isinstance(node, ast.Import):
                imported = [a.name.split(".")[-1] for a in node.names if a.name.startswith("pmvroots.")]
            else:
                continue
            found += [f"{module}:{node.lineno}: {m}" for m in imported if m in rank and rank[m] >= rank[module]]
    return sorted(found)


def test_the_guard_finds_upward_imports():
    sources = {
        "scalars": "from .errors import DslError\nfrom .records import Record\n",
        "ogroups": "from .scalars import QuadValue\nfrom .pmv import Element\n",
        "pmv": "from . import ogroups as og\ndef f():\n    from .dsl import format_group\n",
        "closures": "import itertools\nimport pmvroots.cli\nfrom . import dsl, pmv\n",
        "cli": "import pmvroots.worked_examples\nfrom pmvroots import cli\n",
    }
    assert upward_imports(sources) == [
        "cli:2: cli", "closures:2: cli", "closures:3: dsl", "ogroups:2: pmv", "pmv:3: dsl",
    ]


def test_each_module_imports_only_from_lower_layers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES if p.stem != "__init__"}
    assert sorted(sources) == sorted(m for layer in LAYERS for m in layer)
    assert upward_imports(sources) == []
