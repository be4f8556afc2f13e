"""Public surface: every name the package defines has a user inside it.

A name in a module's `__all__`, a module-level function or a method that
nothing in `src/trigpos` reads is a second route kept alive by tests alone;
a method counts as read only where an attribute of its name is, so a local
variable of the same name hides nothing.  The allowlist names the few whose
only users sit outside the package, each with its reason; methods are keyed
as `Class.method`.  Dunder methods, which operators and the runtime call,
must each be called by one of the CLI's cases.  Two module boundaries are
kept too: proofs apart from sampled estimates, and the Sturm plan the sole
owner of its target names.  And one conversion route: no module branches on
the type of an mpmath number by hand.
"""

import ast
import functools
import importlib
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import trigpos
from trigpos import cli, mustar, trigsums
from trigpos.trigsums import sturm_case_plan

PACKAGE = Path(trigpos.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}

ALLOWED_UNUSED = {
    "series_reference": "perfbench imports it to build its pinned references",
    "certify_positive_trig": "perfbench's grid sweep and acceptance criterion 07 run it",
    "subordination_sector_check": "acceptance criterion 09 runs it",
    "weak_conjecture_check": "acceptance criterion 09 runs it",
    "TrigSum.lipschitz": "perfbench's tracer wraps it by name; delete after ROADMAP item 1",
    "TrigSum.coeff_err": "perfbench's tracer wraps it by name; delete after ROADMAP item 1",
    "Polynomial.degree": "perfbench's tracer reads chain.p0.degree for its exact.degree_max counter",
    "SturmChain.p0": "perfbench's tracer reads chain.p0.degree; delete after ROADMAP item 1",
    "QuadResult.flagged": ("perfbench's tracer reads it for quadrature.flagged; "
                           "delete after ROADMAP item 1"),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _defined(tree) -> dict[str, str]:
    """Qualified name -> bare name of every `__all__` entry, module-level
    function and non-dunder method of one module."""
    names = {name: name for name in _exports(tree)}
    for node in tree.body:
        if isinstance(node, _DEFS):
            names[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            names.update((f"{node.name}.{sub.name}", sub.name) for sub in node.body
                         if isinstance(sub, _DEFS) and not sub.name.startswith("__"))
    return names


def _count_loads(node, enclosing: frozenset, names: Counter, attrs: Counter):
    """Loads of each name, bare (names) and as an attribute (attrs), outside
    a definition of that name; import statements and the `__all__` strings
    do not count."""
    if isinstance(node, (*_DEFS, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in enclosing:
        names[node.id] += 1
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
            and node.attr not in enclosing:
        attrs[node.attr] += 1
    for child in ast.iter_child_nodes(node):
        _count_loads(child, enclosing, names, attrs)


NAME_LOADS, ATTR_LOADS = Counter(), Counter()
for _tree in TREES.values():
    _count_loads(_tree, frozenset(), NAME_LOADS, ATTR_LOADS)
DEFINED = {f"{module}.{qual}": (qual, name) for module, tree in TREES.items()
           for qual, name in _defined(tree).items()}


def _reads(qual: str, name: str) -> int:
    """Reads of a definition: a method (`Class.method`) only as an attribute."""
    return ATTR_LOADS[name] + (0 if "." in qual else NAME_LOADS[name])


def test_every_export_is_used_in_the_package():
    unused = [key for key, (qual, name) in DEFINED.items()
              if _reads(qual, name) == 0 and qual not in ALLOWED_UNUSED]
    assert not unused, f"defined but unused inside trigpos: {unused}"


def test_allowlist_is_current():
    defined = {qual: name for qual, name in DEFINED.values()}
    for qual in ALLOWED_UNUSED:
        assert qual in defined, f"{qual} is no longer defined"
        assert _reads(qual, defined[qual]) == 0, (
            f"{qual} now has a user in the package; drop it from the allowlist")


# construction and repr run these, not an operator
_RUNTIME_DUNDERS = {"__init__", "__post_init__", "__repr__"}
ALLOWED_UNCALLED = {
    "Enclosure.__contains__": "acceptance criteria 01 and 02 test membership with `in`",
}
CLI_CASES = (
    (["verify", "thm-2-3", "--nmax", "20"], 0),
    (["verify", "thm-1-3", "--nmax", "5"], 0),
    (["verify", "sturm:all"], 1),  # sturm:P-near-0 fails by design
    (["verify", "bounds:all"], 0),
    (["verify", "gegenbauer"], 0),
    (["mustar", "2/3"], 0),
    (["mustar", "1"], 0),
)


def _class_dunders():
    """(module, class, dunder) for every dunder method a class body in the
    package defines or binds to another, the runtime's own dunders aside."""
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if isinstance(sub, _DEFS):
                    bound = [sub.name]
                elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name):
                    bound = [t.id for t in sub.targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in bound:
                    if name.startswith("__") and name.endswith("__") \
                            and name not in _RUNTIME_DUNDERS:
                        yield module, node.name, name


def test_every_operator_has_a_caller_in_the_cli_cases(monkeypatch, capsys):
    # wrap every dunder, run the CLI's cases in this process from cold
    # caches, and count the calls: an operator that none of them applies
    # is kept alive by tests alone
    calls = Counter()

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    dunders = list(_class_dunders())
    assert dunders, "no dunder found to wrap"
    for module, cls_name, name in dunders:
        cls = getattr(importlib.import_module(f"trigpos.{module}"), cls_name)
        monkeypatch.setattr(cls, name, counted(f"{cls_name}.{name}", getattr(cls, name)))
    monkeypatch.setattr(mustar, "_CACHE", {})
    monkeypatch.setattr(trigsums, "_TERM_LISTS", {})
    for argv, code in CLI_CASES:
        assert cli.main(argv) == code, argv
    capsys.readouterr()
    keys = {f"{cls_name}.{name}" for _, cls_name, name in dunders}
    uncalled = sorted(key for key in keys - set(ALLOWED_UNCALLED) if not calls[key])
    assert not uncalled, f"dunders no CLI case calls: {uncalled}"
    stale = sorted(key for key in ALLOWED_UNCALLED if key not in keys or calls[key])
    assert not stale, f"undefined or called by a CLI case; drop from ALLOWED_UNCALLED: {stale}"


def test_no_state_hides_in_an_instance_dict():
    # a value written into an object's __dict__ sits beside its fields, where
    # a frozen record's equality and hash do not see it; TrigTerm.float_bounds
    # is a cached_property and touches no __dict__ in the source
    found = [f"{module}.py:{node.lineno}" for module, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__dict__"
             or isinstance(node, ast.Constant) and node.value == "__dict__"
             or isinstance(node, ast.Name) and node.id == "vars"]
    assert not found, f"instance dict access in trigpos: {found}"


def _imported_modules(node) -> set[str]:
    """The modules one import statement may bind: `from a import b` may
    bind a submodule a.b."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
    return set()


def test_proofs_and_sampled_estimates_stay_apart():
    # engine's grid certificates are proofs and gegenbauer's disk scans are
    # sampled estimates: neither module imports anything from the other
    found = [f"{module}.py:{node.lineno}"
             for module, other in (("engine", "gegenbauer"), ("gegenbauer", "engine"))
             for node in ast.walk(TREES[module])
             if f"trigpos.{other}" in _imported_modules(node)]
    assert not found, f"imports between engine and gegenbauer: {found}"


def test_the_sturm_plan_alone_names_its_targets():
    # trigsums.sturm_case_plan owns the Sturm obligations: no other module
    # spells a target name (trigsums.STURM_NAMES, the names of the full
    # plan), and the plan points at no CLI name for a reason
    names = {target.name for target in sturm_case_plan(Fraction(4, 5))}
    found = [f"{module}.py:{node.lineno}" for module, tree in TREES.items() if module != "trigsums"
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in names]
    assert not found, f"Sturm target names outside trigsums: {found}"
    source = (PACKAGE / "trigsums.py").read_text(encoding="utf-8")
    assert not re.findall(r"\bcli\.\w+", source), "trigsums refers to the CLI"


def _mpmath_type_branches(module: str, node, func: str = "") -> list[str]:
    """`module.py:line` of every hasattr(v, "_mpi_") or hasattr(v, "_mpf_")
    at or below node, outside exact._as_fraction."""
    if isinstance(node, _DEFS):
        func = node.name
    hits = []
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "hasattr" and len(node.args) == 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in ("_mpi_", "_mpf_")
            and (module, func) != ("exact", "_as_fraction")):
        hits.append(f"{module}.py:{node.lineno}")
    for child in ast.iter_child_nodes(node):
        hits += _mpmath_type_branches(module, child, func)
    return hits


def test_one_conversion_route_for_mpmath_numbers():
    # quadrature._as_iv reads every argument as an iv box and
    # precision._as_mpf every point; exact._as_fraction alone reads an mpf's
    # bits, as the exact layer imports no mpmath
    found = [hit for module, tree in TREES.items() for hit in _mpmath_type_branches(module, tree)]
    assert not found, f"hand-rolled mpmath type branches: {found}"
