"""The public surface of the package is what the package, its CLI, the demos
and the scripts use, or what the README documents.

A public top-level function or class that only tests call is surface
nobody else needs: such a name is either used by the program or moved into
the tests. The same holds for a public method or property of a public
class, which the program reaches as an attribute.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcegp"
USER_DIRS = ("src", "demos", "scripts")


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def _public_definitions():
    """(qualified name, name, is a member) of each public def, class and member."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for member in _public(node.body, ast.FunctionDef):
                    qualified = f"{path.stem}.{node.name}.{member.name}"
                    yield qualified, member.name, True


def _names_used():
    """(every name used, the names used as an attribute) outside the tests."""
    used, attributes = set(), set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
    return used | attributes, attributes


def test_every_public_definition_has_a_user_outside_the_tests():
    used, attributes = _names_used()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [
        qualified
        for qualified, name, member in _public_definitions()
        if name not in (attributes if member else used)
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == [], f"public but used only by tests: {unused}"
