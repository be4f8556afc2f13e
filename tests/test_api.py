"""Public surface: every exported name has a user inside the package.

A name in a module's `__all__` that nothing in `src/trigpos` reads is a
second route kept alive by tests alone.  The allowlist names the few public
names whose only users sit outside the package, each with its reason.
"""

import ast
from pathlib import Path

import trigpos

PACKAGE = Path(trigpos.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}

ALLOWED_UNUSED = {
    "series_reference": "perfbench imports it to build its pinned references",
    "closed_form_full_sum": "the independent oracle for engine.partial_sum",
    "certify_positive_trig": "perfbench's grid sweep and acceptance criterion 07 run it",
    "subordination_sector_check": "acceptance criterion 09 runs it",
    "weak_conjecture_check": "acceptance criterion 09 runs it",
}


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _references(node, name: str) -> int:
    """Loads of `name` (bare or as an attribute) outside its own definition;
    import statements and the `__all__` string do not count."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            and node.name == name:
        return 0
    here = isinstance(getattr(node, "ctx", None), ast.Load) and (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name))
    return here + sum(_references(child, name) for child in ast.iter_child_nodes(node))


def test_every_export_is_used_in_the_package():
    unused = []
    for module, tree in TREES.items():
        for name in _exports(tree):
            refs = sum(_references(t, name) for t in TREES.values())
            if refs == 0 and name not in ALLOWED_UNUSED:
                unused.append(f"{module}.{name}")
    assert not unused, f"exported but unused inside trigpos: {unused}"


def test_allowlist_is_current():
    exported = {name for tree in TREES.values() for name in _exports(tree)}
    for name in ALLOWED_UNUSED:
        assert name in exported, f"{name} is no longer exported"
        assert sum(_references(t, name) for t in TREES.values()) == 0, (
            f"{name} now has a user in the package; drop it from the allowlist")
