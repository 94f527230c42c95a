"""Layout guard: every top-level public function and class in src/knosim,
and every public method and property of a public class, is used by the
program itself, so API that only tests call does not creep back.

A definition counts as used when its name appears, outside its own body, as a
name, an attribute or a string constant (bench/spans.py patches by name) in a
module of src/knosim or bench/. __init__.py re-exports are not uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although src/ and bench/ do not call it
ALLOWED = {
    "instantaneous_eigenstate_fidelity": "acceptance criterion 6 reads the STA eigenstate fidelity",
    "WignerGrid.at_origin": "acceptance criterion 9 reads the Wigner value at the origin",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _public_defs(tree: ast.Module):
    """(qualified name, node) of each public top-level def or class, and of
    each public method or property of a public class."""
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced(package: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """module.name of each public definition in package (_public_defs) that
    no module of package or users names outside its own definition."""
    everywhere = [_names(tree) for tree in users]
    found = []
    for mod, tree in package.items():
        others = [_names(t) for m, t in package.items() if m != mod] + everywhere
        for qualified, node in _public_defs(tree):
            if node.name in _names(tree, skip=node) or any(node.name in s for s in others):
                continue
            found.append(f"{mod}.{qualified}")
    return found


def _parse(paths) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def test_src_has_no_test_only_api():
    package = _parse(p for p in sorted((ROOT / "src" / "knosim").glob("*.py"))
                     if p.name != "__init__.py")
    bench = list(_parse(sorted((ROOT / "bench").glob("*.py"))).values())
    found = unreferenced(package, bench)
    assert sorted(n.split(".", 1)[1] for n in found) == sorted(ALLOWED), found


def test_guard_flags_an_unused_helper():
    package = {
        "lib": ast.parse(
            "def used(): pass\ndef helper(): return helper\nclass Kept: pass\n"
            "class Tool:\n"
            "    def run(self): return self.step()\n"
            "    def step(self): pass\n"
            "    def spare(self): return self.spare()\n"
            "    @property\n"
            "    def size(self): return 1\n"
        ),
        "app": ast.parse("from .lib import used\nused()\nx: 'Kept'\nTool().run()\n"),
    }
    assert unreferenced(package, []) == ["lib.helper", "lib.Tool.spare", "lib.Tool.size"]
