"""No public name in the package is reached only by the tests.

Every ``def`` and ``class`` under ``src/iterant_lab`` that is not a dunder
must be referenced somewhere in the package source, as a name, an attribute
or an imported name.  A function that only a test calls is dead code: wire
it into a ``verify-all`` row or delete it.  Likewise every dataclass field
must be read as an attribute somewhere in the package source.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "iterant_lab"

# the documented reader of the JSON witness inputs of the C04/C08 rows
ALLOWED = {"element_from_json"}

# fields read outside the package: the per-criterion times, by the benchmark's
# tracing and the acceptance tests; and a dataclass the CLI prints through asdict
ALLOWED_FIELDS = {("VerifyReport", "seconds")}
ALLOWED_DATACLASSES = {"DispersionReport"}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SOURCE.glob("*.py"))}


def _defined(trees) -> dict[str, str]:
    """Each non-dunder def or class name, with the file that defines it."""
    out = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.setdefault(node.name, file)
    return out


def _referenced(trees) -> set[str]:
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
    referenced = _referenced(trees)
    dead = sorted(f"{file}:{name}" for name, file in _defined(trees).items()
                  if name not in referenced and name not in ALLOWED)
    assert not dead, f"defined in src/ but referenced only by tests, if at all: {dead}"


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
    unread = sorted(f"{file}:{cls}.{field}" for (cls, field), file in fields.items()
                    if field not in read and (cls, field) not in ALLOWED_FIELDS
                    and cls not in ALLOWED_DATACLASSES)
    assert not unread, f"dataclass fields that nothing in src/ reads: {unread}"
