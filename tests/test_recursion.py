"""Which library functions still recurse.

Recursion bounds the depth of formula a walker handles by Python's stack.
Every function in `src/meetlogic` that lies on a call cycle, whether it
calls itself or calls another function that calls it back, nested
functions included, must be on the allowlist below with its reason; the
list may only shrink.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "meetlogic"

ALLOWED = {
    "presets._ipl_norm": "normal form for the G4ip prover, one level per formula level",
    "presets._g4ip": "the G4ip proof search recurses per sequent rule",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope(node):
    """The nodes inside `node` that belong to its own scope: nested function
    and class definitions are yielded, but not entered."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, _FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(n))


def call_graph(src):
    """Qualified function name -> the qualified names of the module's
    functions that its body names, whether it calls them or passes them on
    (as a callback to `map` or a `key=`), resolved as Python resolves bare
    names: its own nested functions, then its enclosing functions', then the
    module's (a class body's names are not visible to its methods)."""
    graph = {}
    for path in sorted(src.glob("*.py")):
        todo = [(ast.parse(path.read_text(), filename=str(path)), path.stem, {})]
        while todo:
            node, name, visible = todo.pop()
            nodes = list(_scope(node))
            local = {n.name: f"{name}.{n.name}" for n in nodes if isinstance(n, _FUNCTIONS)}
            inner = visible if isinstance(node, ast.ClassDef) else {**visible, **local}
            if isinstance(node, _FUNCTIONS):
                graph[name] = {inner[n.id] for n in nodes
                               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in inner}
            todo.extend((n, f"{name}.{n.name}", inner) for n in nodes if isinstance(n, _FUNCTIONS + (ast.ClassDef,)))
    return graph


def recursive_functions(src=SRC):
    """The functions that lie on a call cycle: those that some function they
    call leads back to."""
    graph = call_graph(src)
    found = set()
    for start, callees in graph.items():
        seen, todo = set(), list(callees)
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo.extend(graph.get(f, ()))
        if start in seen:
            found.add(start)
    return found


def test_only_allowlisted_functions_recurse():
    assert recursive_functions() == set(ALLOWED)


def test_no_tree_tool_recurses():
    assert not any(name.startswith("treetools.") for name in recursive_functions())


def test_mutual_recursion_between_nested_functions_is_found(tmp_path):
    """A cycle through two nested functions counts, as does a function
    calling itself or passing a nested function that calls it back as a
    callback; a method and a module function of one name do not."""
    (tmp_path / "m.py").write_text(
        "def outer():\n"
        "    def a():\n"
        "        b()\n"
        "    def b():\n"
        "        a()\n"
        "    a()\n"
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "def visit(n):\n"
        "    def go(c):\n"
        "        return visit(c)\n"
        "    return list(map(go, n.args))\n"
        "def order(xs):\n"
        "    def key(x):\n"
        "        return order(x)\n"
        "    return sorted(xs, key=key)\n"
        "class C:\n"
        "    def size(self):\n"
        "        return size(self)\n"
        "def size(c):\n"
        "    return 1\n")
    assert recursive_functions(tmp_path) == {"m.outer.a", "m.outer.b", "m.walk", "m.visit", "m.visit.go",
                                              "m.order", "m.order.key"}
