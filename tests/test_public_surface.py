"""Every public function, class, method and instance attribute of the
library is used somewhere, and every name a library module imports is used
in that module.

A function, class or method counts as used when its name appears in src/,
tests/ or perfbench/ other than in its own definition: as a name, an
attribute, an imported name, or a string naming it (the benchmark's tracer
looks functions up by string).  An instance attribute is defined by
``self.<name> = ...`` in a library class and counts as used only when it is
read as ``x.<name>`` or named in a string; a bare local variable of the same
spelling does not count, and neither do writes through ``self``.

The check matches by name alone, so an unread attribute that shares its
spelling with an attribute read elsewhere still passes; such attributes
must be found by reading the code.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "dgcomplete"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _public_defs():
    """(module, qualified name, name) for module-level functions and
    classes and the methods of module-level classes."""
    defs = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs.append((path.stem, f"{node.name}.{item.name}",
                                     item.name))
    return [d for d in defs if not d[2].startswith("_")]


def _is_self_store(node):
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _public_attributes():
    """(module, qualified name, name) for each attribute a module-level
    class assigns through ``self``."""
    defs = set()
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if _is_self_store(sub):
                        defs.add((path.stem, f"{node.name}.{sub.attr}", sub.attr))
    return sorted(d for d in defs if not d[2].startswith("_"))


def _used_names(attributes_only=False):
    """Names used anywhere searched; with ``attributes_only``, only those
    read as attributes or named in strings."""
    used = set()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    if not attributes_only:
                        used.add(node.id)
                elif isinstance(node, ast.Attribute) and not _is_self_store(node):
                    used.add(node.attr)
                elif isinstance(node, ast.alias) and not attributes_only:
                    used.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(node.value.split("."))
    return used


def test_every_public_name_is_used():
    used = _used_names()
    unused = [f"{mod}.{qual}" for mod, qual, name in _public_defs()
              if name not in used]
    assert unused == []


def test_every_public_attribute_is_used():
    used = _used_names(attributes_only=True)
    unused = [f"{mod}.{qual}" for mod, qual, name in _public_attributes()
              if name not in used]
    assert unused == []


def _unused_imports(tree):
    """Names an import binds that the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_import_is_used():
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.stem}.{name}" for name in _unused_imports(tree)]
    assert unused == []
