"""No public name in the package is reached only by the tests.

Every ``def`` and ``class`` under ``src/iterant_lab`` that is not a dunder
must be referenced somewhere in the package source.  One at the top of a
module counts as referenced only as a bare name in its own module, as
``from .module import name`` or as ``module.name``, so a same-named method or
attribute elsewhere does not keep it alive; a method or nested function
counts as referenced as any name, attribute or imported name.  A function
that only a test calls is dead code: wire it into a ``verify-all`` row or
delete it.  Likewise every dataclass field, every name in a class's
``__slots__`` and every attribute a class's ``__init__`` assigns on ``self``
must be read as an attribute somewhere in the package source.
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


def _slots(trees) -> dict[tuple[str, str], str]:
    """Each (class, name) of each class's ``__slots__``, with its file."""
    return {(node.name, name): file
            for file, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.Assign) and getattr(item.targets[0], "id", "") == "__slots__"
            for name in ast.literal_eval(item.value)}


def _copies(trees) -> set[ast.Attribute]:
    """The values of ``a.x = b.x`` (or a tuple of such pairs): a slot copied
    into the same slot of another object is not read by the copy."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                out.update(v for t, v in pairs if isinstance(t, ast.Attribute)
                           and isinstance(v, ast.Attribute) and t.attr == v.attr)
    return out


def test_every_slot_is_read_in_the_package():
    """A slot name that is also another class's field or slot must be read
    as ``self.name`` in its own class: a read elsewhere may be the other's."""
    trees = _trees()
    copies = _copies(trees)
    slots = _slots(trees)
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and node not in copies}
    own_reads = {(cls.name, node.attr) for tree in trees.values() for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and getattr(node.value, "id", "") == "self" and node not in copies}
    declared = [*_dataclass_fields(trees), *slots]
    unread = sorted(
        f"{file}.py:{cls}.{name}" for (cls, name), file in slots.items()
        if (cls, name) not in own_reads
        and (name not in reads or any(n == name and c != cls for c, n in declared)))
    assert not unread, f"slots that nothing in src/ reads: {unread}"


def _init_attributes(trees) -> dict[tuple[str, str], str]:
    """Each (class, name) that a class's ``__init__`` assigns as ``self.name``,
    with its file."""
    out = {}
    for file, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                for node in ast.walk(init):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and getattr(node.value, "id", "") == "self"):
                        out[cls.name, node.attr] = file
    return out


def test_every_attribute_set_in_an_init_is_read_in_the_package():
    trees = _trees()
    read = _read_attributes(trees)
    unread = sorted(f"{file}.py:{cls}.{name}"
                    for (cls, name), file in _init_attributes(trees).items() if name not in read)
    assert not unread, f"attributes set in __init__ that nothing in src/ reads: {unread}"
