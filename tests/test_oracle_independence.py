"""The independent oracles name none of the fast paths they check.

`in_hull_oracle` checks `HullForm` and the simplex, and `bind_gcm_direct`
checks `bind_gcm`'s one Minkowski mixture per generator; a fault in a fast
path could hide in an oracle that called it.  Read from the source with `ast`,
so nothing is imported: each oracle, and every function of its own module it
names, in turn, names no fast path.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "convexchoice"

FAST_PATHS = {
    "HullForm",
    "_int_coords",
    "_functionals",
    "_simplex_feasible",
    "_pivot_feasible",
    "_pivot",
    "minkowski_vertices",
    "mix_necsets",
    "bind_gcm",
}

ORACLES = {"convexgeom.py": ["in_hull_oracle"], "gcm.py": ["bind_gcm_direct"]}


def _names(node):
    """Every identifier `node` reads: bare names and attribute names."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
    return found


def _fast_paths_named(source, roots):
    """`{function: fast paths it names}` for `roots` and the module functions they reach."""
    defs = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    named, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name not in named:
            names = _names(defs[name])
            named[name] = sorted(names & FAST_PATHS)
            todo.extend(n for n in names & defs.keys() if n != name)
    return named


def test_the_oracles_name_no_fast_path():
    reached = {}
    for module, roots in ORACLES.items():
        source = (PACKAGE / module).read_text(encoding="utf-8")
        reached.update(_fast_paths_named(source, roots))
    assert reached == {"in_hull_oracle": [], "_solve_exact": [], "bind_gcm_direct": []}


def test_the_guard_sees_a_fast_path_one_call_away():
    source = (
        "def oracle(x, gens):\n    return helper(x, gens)\n\n"
        "def helper(x, gens):\n    return HullForm(gens).contains(x)\n\n"
        "def other():\n    return _pivot\n"
    )
    assert _fast_paths_named(source, ["oracle"]) == {"oracle": [], "helper": ["HullForm"]}
