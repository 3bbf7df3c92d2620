"""No dead code: every top-level function and class of the package is exported or used by it."""

import ast
from pathlib import Path

import speechpolarity

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "speechpolarity"


def unreferenced_definitions(package: Path) -> set[str]:
    """``module.name`` of each top-level function or class of ``package`` that is neither in
    ``__all__`` nor read anywhere in its code as a name or an attribute (docstrings and
    import lists do not count)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    used = set(speechpolarity.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used}


def test_every_definition_is_exported_or_referenced():
    assert unreferenced_definitions(PACKAGE) == set()
