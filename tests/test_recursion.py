"""Which library functions still call themselves.

Recursion bounds the depth of formula a walker handles by Python's stack.
Every function in `src/meetlogic` that calls itself by name must be on the
allowlist below with its reason; the list may only shrink.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "meetlogic"

ALLOWED = {
    "presets._ipl_norm": "normal form for the G4ip prover, one level per formula level",
    "presets._g4ip": "the G4ip proof search recurses per sequent rule",
    "presets._plug": "plugs keys into a normal form, one level per formula level",
}


def self_calling_functions():
    """Qualified names of functions whose body calls their own name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        todo = [(path.stem, node) for node in tree.body]
        while todo:
            prefix, node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{node.name}"
                if not isinstance(node, ast.ClassDef) and any(
                        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == node.name
                        for n in ast.walk(node)):
                    found.add(name)
                todo.extend((name, child) for child in node.body)
            else:
                todo.extend((prefix, child) for child in ast.iter_child_nodes(node))
    return found


def test_only_allowlisted_functions_recurse():
    assert self_calling_functions() == set(ALLOWED)


def test_no_tree_tool_recurses():
    assert not any(name.startswith("treetools.") for name in self_calling_functions())
