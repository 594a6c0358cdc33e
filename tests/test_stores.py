"""What the library keeps has one owner per store.

A store is a private attribute the library fills on a ``DgModule``, a
``DgAlgebra``, a ``SmallCategory`` or a ``TruncatedRing`` after building it
(the list is in the ``DgModule`` docstring).  This walks the source of
``dgcomplete`` and fails on:

- any read of ``__dict__``;
- any ``getattr``, ``hasattr``, ``setattr`` or ``delattr`` of a private
  name;
- any ``nonlocal`` or ``global``: a name rebound from an inner scope is a
  store hidden in a closure or a module;
- a private attribute set or filled (an item assigned or deleted, or a
  mutating method such as ``setdefault`` called on it) on another object
  that is not declared in the ``__init__`` of one of those four classes,
  or on ``self`` in a method when neither its class's ``__init__`` nor a
  base's declares it;
- a store of those four classes written from more than one function,
  its declaration on ``self`` in ``__init__`` aside.

The check goes by name: a store filled through a local alias is not seen,
so the library writes each store through its attribute.
"""
import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "dgcomplete"
OWNERS = ("DgModule", "DgAlgebra", "SmallCategory", "TruncatedRing")
FILLS = {"add", "append", "clear", "discard", "extend", "insert", "pop",
         "popitem", "remove", "setdefault", "update"}
REFLECTION = {"getattr", "hasattr", "setattr", "delattr"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


class _Scan(ast.NodeVisitor):
    """Per module: each class's bases and ``__init__`` declarations, every
    private attribute written, and every violation of the first three rules."""

    def __init__(self, module: str):
        self.module = module
        self.classes: Dict[str, Tuple[List[str], Set[str]]] = {}
        # (class or None, top-level function, on self, attribute, line)
        self.writes: List[Tuple[Optional[str], str, bool, str, int]] = []
        self.reflection: List[str] = []
        self.cls: Optional[str] = None
        self.func: Optional[str] = None

    def where(self, node: ast.AST) -> str:
        return f"{self.module}.py:{node.lineno}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self.cls = self.cls, node.name
        self.classes[node.name] = (
            [b.id for b in node.bases if isinstance(b, ast.Name)], set())
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self.func is not None:  # a nested function belongs to its outer one
            self.generic_visit(node)
            return
        self.func = node.name
        self.generic_visit(node)
        self.func = None

    def write(self, target: ast.AST, node: ast.AST) -> None:
        """Record target, when it is a private attribute or an item of one."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.write(elt, node)
            return
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and _private(target.attr):
            on_self = isinstance(target.value, ast.Name) and target.value.id == "self"
            if on_self and self.func == "__init__" and self.cls is not None:
                self.classes[self.cls][1].add(target.attr)
            else:
                func = ".".join(filter(None, (self.module, self.cls, self.func)))
                self.writes.append((self.cls, func, on_self, target.attr, node.lineno))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.write(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.write(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.write(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self.write(target, node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "__dict__":
            self.reflection.append(f"{self.where(node)}: reads __dict__")
        self.generic_visit(node)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.reflection.append(f"{self.where(node)}: nonlocal {', '.join(node.names)}")

    def visit_Global(self, node: ast.Global) -> None:
        self.reflection.append(f"{self.where(node)}: global {', '.join(node.names)}")

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Name) and f.id in REFLECTION and len(node.args) > 1:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str) \
                    and _private(name.value):
                self.reflection.append(f"{self.where(node)}: {f.id} of {name.value}")
        if isinstance(f, ast.Attribute) and f.attr in FILLS:
            self.write(f.value, node)
        self.generic_visit(node)


def scan(library: Path = LIBRARY) -> List[str]:
    """Every violation in the library's source, one line each."""
    scans = []
    for path in sorted(library.glob("*.py")):
        s = _Scan(path.stem)
        s.visit(ast.parse(path.read_text()))
        scans.append(s)
    classes = {name: c for s in scans for name, c in s.classes.items()}

    def declared(cls: Optional[str]) -> Set[str]:
        if cls not in classes:
            return set()
        bases, names = classes[cls]
        return names.union(*(declared(b) for b in bases))

    stores = set().union(*(declared(c) for c in OWNERS))
    out = [v for s in scans for v in s.reflection]
    writers: Dict[str, Set[str]] = {}
    for s in scans:
        for cls, func, on_self, attr, line in s.writes:
            if attr not in (declared(cls) if on_self else stores):
                owner = f"the __init__ of {cls}" if on_self else "a store class"
                out.append(f"{s.module}.py:{line}: {attr} is not declared in {owner}")
            elif attr in stores:
                writers.setdefault(attr, set()).add(func)
    out += [f"{attr} is written by {sorted(funcs)}"
            for attr, funcs in sorted(writers.items()) if len(funcs) > 1]
    return out


def test_every_store_is_declared_on_its_class_and_written_by_one_function():
    assert scan() == []


def test_the_scan_finds_each_kind_of_site(tmp_path):
    """A library that reaches its stores the old ways fails every rule."""
    (tmp_path / "dg.py").write_text(
        "class DgModule:\n"
        "    def __init__(self):\n"
        "        self._schemes = {}\n")
    (tmp_path / "bar.py").write_text(
        "def scheme(m):\n"
        "    kept = m.__dict__.setdefault('_kept', {})\n"
        "    m._objects = getattr(m, '_objects', None)\n"
        "    m._schemes[1] = kept\n"
        "def end(m):\n"
        "    m._schemes.pop(1)\n"
        "def recipe():\n"
        "    longest = None\n"
        "    def build():\n"
        "        nonlocal longest\n"
        "        global BUILT\n")
    found = scan(tmp_path)
    assert found == [
        "bar.py:2: reads __dict__",
        "bar.py:3: getattr of _objects",
        "bar.py:10: nonlocal longest",
        "bar.py:11: global BUILT",
        "bar.py:3: _objects is not declared in a store class",
        "_schemes is written by ['bar.end', 'bar.scheme']",
    ]
