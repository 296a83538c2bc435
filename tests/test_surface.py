"""The public surface of the package is what the package, its CLI, the demos
and the scripts use, or what the README documents.

A public top-level function or class that only tests call is surface
nobody else needs: such a name is either used by the program or moved into
the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcegp"
USER_DIRS = ("src", "demos", "scripts")


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield f"{path.stem}.{node.name}", node.name


def _names_used():
    used = set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_public_definition_has_a_user_outside_the_tests():
    used = _names_used()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [
        qualified
        for qualified, name in _public_definitions()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == [], f"public but used only by tests: {unused}"
