"""Source checks: library code in src/ that only tests reach is dead weight.

Every module-level function or class of src/gravlab, and every method or
property of such a class, must be named somewhere in src/ or bench/: as a
name, an attribute, an import, or an identifier string (getattr, dispatch
tables).  Dunder methods are called by the interpreter and are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parsed(pattern):
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(ROOT.glob(pattern))}


def referenced_names(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def definitions(tree):
    """(qualified name, name) of each module-level def and class and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member.name


def test_every_library_definition_is_used_outside_tests():
    library = parsed("src/gravlab/*.py")
    used = referenced_names([*library.values(), *parsed("bench/*.py").values()])
    unused = [
        f"{path.relative_to(ROOT)}: {qualified}"
        for path, tree in library.items()
        for qualified, name in definitions(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unused == []
