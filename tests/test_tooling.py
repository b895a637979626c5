"""The benchmark's traced mode wraps dcots attributes by name
(``perfbench/layers.py``); a rename on the solve path must fail here
rather than in ``perfbench/run.py --trace 1``, and a rename must not leave
a stale name in a module's ``__all__``.  The declared dependencies must
cover what ``src/dcots`` imports, importing the command line must not
load networkx, which only the tests use, nor the oracle and the scipy
modules that only the oracle imports, the oracle must not run the code
it checks and may take from the cuts only the names it checks, the
solver must reach the LP through one interface, one function must write
every cut row, the simplex engine must call no numpy
reduction through a Python wrapper, the solver's settings must stay the
three it has, only the network and the oracle may build a map of the
lines at each bus, no module may read the environment, every demo must run,
and every command line that README shows must parse."""

import ast
import dataclasses
import importlib
import os
import re
import runpy
import shlex
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from dcots.cli import build_parser
from dcots.solver import SolverConfig

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_traced_attribute_resolves():
    wraps = runpy.run_path(str(LAYERS))["WRAPS"]
    missing = [f"dcots.{module}.{attr}" for module, attr, _, _ in wraps
               if not hasattr(importlib.import_module(f"dcots.{module}"), attr)]
    assert wraps and missing == []


def test_every_exported_name_resolves():
    stems = sorted(path.stem for path in (SRC / "dcots").glob("*.py") if path.stem != "__init__")
    modules = [importlib.import_module(name) for name in ["dcots", *(f"dcots.{s}" for s in stems)]]
    missing = [f"{mod.__name__}.{attr}" for mod in modules for attr in mod.__all__
               if not hasattr(mod, attr)]
    assert len(modules) > 1 and missing == []


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in project["dependencies"]}
    imported = {name for path in sorted((SRC / "dcots").glob("*.py"))
                for name in _top_level_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"dcots"}
    assert third_party and third_party <= declared, sorted(third_party - declared)


def _env_with_src():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


ON_DEMAND = ("networkx", "dcots.oracle", "scipy.optimize", "scipy.sparse")


def test_the_cli_does_not_load_networkx():
    # nor the oracle, which only verify and gen subset-sum run, and what it loads
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, dcots.cli; print([m for m in {ON_DEMAND!r} if m in sys.modules])"],
        env=_env_with_src(), capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _imported_modules(node):
    """The modules the import statements under ``node`` name; ``from a
    import b`` names both ``a`` and ``a.b``."""
    for imp in ast.walk(node):
        if isinstance(imp, ast.Import):
            yield from (alias.name for alias in imp.names)
        elif isinstance(imp, ast.ImportFrom) and imp.level == 0:
            yield imp.module
            yield from (f"{imp.module}.{alias.name}" for alias in imp.names)


def test_only_the_oracle_imports_scipy_optimize_and_sparse():
    # and the cli imports the oracle only inside the commands that run it
    found = set()
    for path in sorted((SRC / "dcots").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            deferred = isinstance(top, (ast.FunctionDef, ast.ClassDef))
            found |= {(path.stem, name, deferred) for name in _imported_modules(top)
                      if name in ON_DEMAND}
    assert found == {("oracle", "scipy.optimize", False), ("oracle", "scipy.sparse", False),
                     ("cli", "dcots.oracle", True)}, sorted(found)


def _linprog_calls(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == "linprog"]


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_the_oracle_does_not_load_the_solver_and_calls_highs_in_one_place():
    # an oracle that ran the solver's code would agree with its bugs; the
    # bus cover rows are checked against it, so it must not build them
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dcots.oracle; print('dcots.solver' in sys.modules)"],
        env=_env_with_src(), capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
    tree = ast.parse((SRC / "dcots" / "oracle.py").read_text())
    site = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_solve_blocks")
    assert len(_linprog_calls(tree)) == len(_linprog_calls(site)) == 1
    assert "bus_cover_rows" not in set(_names(tree))
    # the name is live, so a rename cannot leave the check above vacuous
    assert "bus_cover_rows" in set(_names(ast.parse((SRC / "dcots" / "solver.py").read_text())))


def test_criterion_4_does_not_run_the_separators_it_checks():
    # both separators return [] when K_C <= 0, so a count of their cuts
    # there would be 0 by construction
    tree = ast.parse((SRC / "dcots" / "oracle.py").read_text())
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "cuts_under_nonpositive_k")
    names = set(_names(check))
    assert "_exhaustive_best_violation" in names
    assert not [name for name in names if name.startswith("separate_")]


def test_the_oracle_imports_from_the_cuts_only_what_it_checks():
    # Delta, for one, the oracle computes itself, so a wrong Delta in the
    # cuts cannot also shape the rows they are checked against
    tree = ast.parse((SRC / "dcots" / "oracle.py").read_text())
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dcots.cuts"
             for alias in node.names}
    assert taken == {"VIOL_TOL", "SeparationTable", "make_context", "separate_closed_form"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("dcots.cuts") for alias in node.names)]


def test_the_solver_uses_one_lp_interface():
    tree = ast.parse((SRC / "dcots" / "solver.py").read_text())
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dcots.lp"
             for alias in node.names}
    assert taken == {"SimplexError", "add_rows", "solve"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("dcots.lp") for alias in node.names)]


def test_one_function_writes_the_cut_rows():
    # a second row writer could drift from the cut record it writes
    tree = ast.parse((SRC / "dcots" / "cuts.py").read_text())
    writers = [(getattr(top, "name", None), node.lineno) for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Constant) and node.value == "<="]
    assert [name for name, _ in writers] == ["inequality_row"], writers


def _enclosing_functions(tree, match):
    return [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if match(node)]


def test_one_function_solves_and_counts_the_lps():
    # an LP solve outside the counted helper would be missing from stats
    tree = ast.parse((SRC / "dcots" / "solver.py").read_text())
    solves = _enclosing_functions(tree, lambda node: isinstance(node, ast.Call)
                                  and isinstance(node.func, ast.Name) and node.func.id == "solve")
    counts = _enclosing_functions(tree, lambda node: isinstance(node, ast.AugAssign)
                                  and isinstance(node.target, ast.Attribute)
                                  and node.target.attr == "lp_calls")
    assert solves == counts == ["_counted_solve"], (solves, counts)


def _builds_a_per_bus_map_of_lines(func) -> bool:
    """An empty list or set per bus (``{b.id: [] for b in net.buses}``)
    and an append or add at a line's ``from_bus`` or ``to_bus``."""
    empty_per_bus = any(isinstance(node, ast.DictComp) and ast.unparse(node.value) in ("[]", "set()")
                        and any(isinstance(gen.iter, ast.Attribute) and gen.iter.attr == "buses"
                                for gen in node.generators)
                        for node in ast.walk(func))
    fills_at_ends = any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("append", "add")
                        and any(isinstance(sub, ast.Attribute) and sub.attr in ("from_bus", "to_bus")
                                for sub in ast.walk(node.func.value))
                        for node in ast.walk(func))
    return empty_per_bus and fills_at_ends


def test_only_the_network_and_the_oracle_build_a_map_of_the_lines_at_each_bus():
    # every other module reads PowerNetwork.incident; the oracle keeps its
    # own structures, as it must not run the code it checks
    builders = {(path.stem, func.name) for path in sorted((SRC / "dcots").glob("*.py"))
                for func in ast.walk(ast.parse(path.read_text()))
                if isinstance(func, ast.FunctionDef) and _builds_a_per_bus_map_of_lines(func)}
    assert ("network", "incident") in builders
    assert {module for module, _ in builders} <= {"network", "oracle"}, sorted(builders)


def test_the_simplex_engine_calls_no_python_level_numpy_wrappers():
    # ndarray.sum/min/max/any/all and np.argmax/np.argmin run through
    # Python wrappers in numpy; in the pivot loops that call overhead is
    # most of a step's cost, so the engine calls the C reductions directly
    tree = ast.parse((SRC / "dcots" / "lp.py").read_text())
    engine = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                  and node.name == "_Engine")
    calls = [(node.func.attr, node.lineno) for node in ast.walk(engine)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and (node.func.attr in ("sum", "min", "max", "any", "all")
                  or node.func.attr in ("argmax", "argmin")
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "np")]
    assert not calls, calls


def test_the_solver_settings_are_three_fields():
    # a setting that only one value ever uses is a constant, not a field
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "rel_gap", "time_limit_s", "cycle_mode"]
    assert SolverConfig().strengthen_rounds == 5


def test_no_module_reads_the_environment():
    # a variable read at run time would be a switch that no option lists
    names = ("environ", "environb", "getenv")
    reads = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "dcots").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in names for alias in node.names)]
    assert reads == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], env=_env_with_src(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def _readme_commands():
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.splitlines():
            if line.startswith("dcots "):
                yield shlex.split(line, comments=True)[1:]


def test_every_readme_command_parses():
    commands = list(_readme_commands())
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    # a flag the parser lacks is caught, and so is one that a gen recipe does not read
    for argv in (["solve", "grid.json", "--seed", "1"],
                 ["gen", "subset-sum", "--a", "3,5,2", "--b", "8", "--base", "grid.json"],
                 ["gen", "relocate-gens", "--base", "grid.json", "--count", "7"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
