"""Only ``matrix.py`` turns entries into integer tables.

Every other module builds a matrix from its entries with
``matrix.from_entries`` (or from other matrices), so no module but
``matrix.py`` may name the table normaliser ``_from_tables``, under that name
or the public one it had before.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "iterant_lab"


def _names(tree: ast.Module) -> set[str]:
    """Every bare name, attribute and imported name in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_only_matrix_names_the_table_normaliser():
    naming = sorted(path.name for path in SOURCE.glob("*.py") if path.name != "matrix.py"
                    and {"_from_tables", "from_tables"} & _names(ast.parse(path.read_text())))
    assert not naming, f"modules that build integer tables themselves: {naming}"
