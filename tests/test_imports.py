"""No module of the package imports a name it never uses, defines a
private name nothing reads, defines a public function or class that no
package module reads, or carries a dataclass field nothing reads; and no
test reference (`tests/references.py`) is left that no test reads.

No linter runs on this repository, so these are the checks that catch an
import, a private helper or a result field left behind when the code that
used it goes.  `__init__.py` imports only to re-export, so its imports are
not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "igclab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import os, numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == [(1, "os"), (2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert MODULES and unused_imports(path.read_text()) == []


def unused_private_names(sources):
    """(module, line, name) of every module-level `_private` def, class or
    assignment that no module of `sources` (name -> text) reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_the_check_sees_an_unused_private_name():
    sources = {"a": "_X, _Y = 1, 2\ndef _f():\n    return _X\nclass _C: pass\n"
                    "__all__ = []\n",
               "b": "from a import _C\nimport a\nprint(a._f)\n_Z: int = 3\n"}
    assert unused_private_names(sources) == [("a", 1, "_Y"), ("b", 4, "_Z")]


def test_no_unused_private_name():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert len(sources) > 1 and unused_private_names(sources) == []


def unread_public_names(sources):
    """(module, line, name) of every module-level public def or class of
    `sources` (name -> text) that no module reads outside its own definition."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined.append((module, node.lineno, own))
            here = {sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            here |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            read |= here - {own}
    return sorted(d for d in defined if d[2] not in read)


def test_the_check_sees_an_unread_public_name():
    sources = {"a": "import b\nprint(b.k)\ndef f():\n    return f()\nclass C: pass\n"
                    "def g(): pass\ndef _h(): pass\n",
               "b": "import a\nprint(a.C)\nfrom a import g\ndef k():\n    return k()\n"}
    assert unread_public_names(sources) == [("a", 3, "f"), ("a", 6, "g")]


def test_every_public_name_is_read_by_the_package():
    sources = {p.name: p.read_text() for p in MODULES}
    assert len(sources) > 1 and unread_public_names(sources) == []


def test_every_test_reference_is_read_by_a_test():
    # the independent references live with the tests; none may outlive its test
    tests = {p.name: p.read_text() for p in (ROOT / "tests").glob("test_*.py")}
    refs = (ROOT / "tests" / "references.py").read_text()
    assert len(tests) > 1
    unread = unread_public_names({"references.py": refs, **tests})
    assert [d for d in unread if d[0] == "references.py"] == []


def unread_fields(package, readers):
    """(module, class, field) of every annotated field of a `@dataclass` in
    `package` (name -> text) that no text of `readers` loads as an attribute."""
    loaded = {node.attr for source in readers for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, source in package.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list):
                unread += [(module, cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and node.target.id not in loaded]
    return sorted(unread)


def test_the_check_sees_an_unread_field():
    package = {"a": "@dataclass\nclass R:\n    x: int\n    y: int = 0\n"
                    "@dataclass(frozen=True)\nclass S:\n    z: int\n"
                    "class T:\n    w: int\n"}
    readers = ["print(R(1).x)\ns = S(z=1)\ns.z = 2\n"]     # a store is no read
    assert unread_fields(package, readers) == [("a", "R", "y"), ("a", "S", "z")]


def test_no_unread_field():
    readers = [p.read_text() for d in (SRC, ROOT / "tests", ROOT / "perfbench")
               for p in sorted(d.glob("*.py"))]
    package = {p.name: p.read_text() for p in PACKAGE}
    assert len(readers) > len(package) and unread_fields(package, readers) == []
