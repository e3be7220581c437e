"""No public name in the package is reached only by the tests.

Every ``def`` and ``class`` under ``src/iterant_lab`` that is not a dunder
must be referenced somewhere in the package source.  One at the top of a
module counts as referenced only as a bare name in its own module, as
``from .module import name`` or as ``module.name``, so a same-named method or
attribute elsewhere does not keep it alive; a method or nested function
counts as referenced as any name, attribute or imported name.  A function
that only a test calls is dead code: wire it into a ``verify-all`` row or
delete it.  Likewise every dataclass field must be read as an attribute
somewhere in the package source.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "iterant_lab"

# the documented reader of the JSON witness inputs of the C04/C08 rows
ALLOWED = {"element_from_json"}

# a dataclass the CLI prints through asdict
ALLOWED_FIELDS: set[tuple[str, str]] = set()
ALLOWED_DATACLASSES = {"DispersionReport"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SOURCE.glob("*.py"))}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defs(nodes) -> list[ast.AST]:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not _is_dunder(node.name)]


def _module_references(trees) -> set[tuple[str, str]]:
    """(module, name) for each bare name in a module, each ``from .module
    import name`` and each ``module.name``."""
    out = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                out.add((node.value.id, node.attr))
    return out


def _any_references(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_def_and_class_is_referenced_in_the_package():
    trees = _trees()
    by_module, by_name = _module_references(trees), _any_references(trees)
    dead = []
    for module, tree in trees.items():
        top = _defs(tree.body)
        dead += [f"{module}.py:{node.name}" for node in top
                 if (module, node.name) not in by_module and node.name not in ALLOWED]
        inner = [node for node in _defs(ast.walk(tree)) if node not in top]
        dead += [f"{module}.py:{node.name}" for node in inner if node.name not in by_name]
    assert not dead, f"defined in src/ but referenced only by tests, if at all: {sorted(dead)}"


def _dataclass_fields(trees) -> dict[tuple[str, str], str]:
    """Each (class, field) of each dataclass, with its file."""
    out = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        out[node.name, item.target.id] = file
    return out


def _read_attributes(trees) -> set[str]:
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_in_the_package():
    trees = _trees()
    read = _read_attributes(trees)
    fields = _dataclass_fields(trees)
    unread = sorted(f"{file}.py:{cls}.{field}" for (cls, field), file in fields.items()
                    if field not in read and (cls, field) not in ALLOWED_FIELDS
                    and cls not in ALLOWED_DATACLASSES)
    assert not unread, f"dataclass fields that nothing in src/ reads: {unread}"
