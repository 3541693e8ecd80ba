"""The benchmark's tracer must keep finding every name it wraps, the
README must advertise only flags the command line accepts, no module
imports a name it never uses, no module of the package imports another's
private name, only the extensive form names its big-M dispatch block, no
function in ``src/`` ignores one of its parameters, no parameter with a
default goes unpassed, and nothing defined in ``src/`` goes unnamed there.

``perfbench/tracing.py`` replaces entry points of the package by name; a
rename or deletion in ``src/`` would only surface in a traced benchmark run.
Installing and uninstalling it here catches that in the test suite.
"""

import argparse
import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import scaled_flow_limits
from floodmit.fixtures import make_fixture
from floodmit.grid_model import save_network
from floodmit.scenario_model import save_scenarios

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _write_tightened_fixture(name, out):
    """The fixture with halved flow limits: at its own limits the island
    bound's witness settles every dead set of tiny3 and star8, and no
    dispatch LP would run."""
    fx = make_fixture(name)
    out.mkdir(parents=True, exist_ok=True)
    save_network(scaled_flow_limits(fx.network, 0.5), out / "network.json")
    save_scenarios(fx.scenarios, out / "scenarios.json")


def test_tracer_installs_and_uninstalls():
    from floodmit import cli, recourse, simplex

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    originals = (simplex.solve_linear_program, simplex.spla, recourse.status_closure, cli.main)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert simplex.solve_linear_program is not originals[0]
    finally:
        tracer.uninstall()
    assert (simplex.solve_linear_program, simplex.spla, recourse.status_closure, cli.main) == originals


def test_traced_solve_reports_model_and_dispatch_counts(tmp_path):
    """The tracer reads ``ef.stats`` of whatever model ``cli`` builds; a
    builder without the keys it reads fails here, not in a traced run."""
    from floodmit import cli

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    _write_tightened_fixture("tiny3", tmp_path)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rc = cli.main([
            "solve", "--network", str(tmp_path / "network.json"),
            "--scenarios", str(tmp_path / "scenarios.json"), "--budget", "1",
            "--out-dir", str(tmp_path / "solve"),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.layer_metrics()
    assert metrics["extensive_form.variables"] > 0
    assert metrics["extensive_form.rows"] > 0
    assert metrics["recourse.dispatch_lps"] > 0


def test_traced_portfolio_counts_every_dispatch_lp_as_warm(tmp_path):
    """Every dispatch LP starts from the basis of its own island
    copper-plate dispatch, and no evaluator solves a no-flood reference LP:
    the tracer must see every LP as a dispatch LP, every dispatch LP as warm
    and none as cold."""
    from floodmit import cli

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    _write_tightened_fixture("star8", tmp_path)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rc = cli.main([
            "heuristic", "--portfolio", "--network", str(tmp_path / "network.json"),
            "--scenarios", str(tmp_path / "scenarios.json"), "--budget", "4",
            "--out", str(tmp_path / "portfolio"),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.layer_metrics()
    assert metrics["solver.solve_milp_calls"] == 0
    assert metrics["recourse.dispatch_lps"] > 1
    assert metrics["simplex.lp_solves"] == metrics["recourse.dispatch_lps"]
    assert metrics["simplex.lp_solves_warm"] == metrics["recourse.dispatch_lps"]
    assert metrics["simplex.lp_solves_cold"] == 0


def test_traced_portfolio_runs_one_greedy_pass_per_flow_weight(tmp_path):
    """A traced ``heuristic --portfolio`` request reaches the wrapped
    ``portfolio`` once, and its envelope counts one greedy pass per flow
    weight.  The passes run in lockstep inside ``portfolio``, so the
    tracer's ``heuristic.greedy_calls`` counts only single-weight requests;
    the pass count lives in the envelope's ``counters.greedy``."""
    import json

    from floodmit import cli
    from floodmit.heuristic import ETA_FLOW_GRID

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    fx = make_fixture("star8")
    save_network(fx.network, tmp_path / "network.json")
    save_scenarios(fx.scenarios, tmp_path / "scenarios.json")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rc = cli.main([
            "heuristic", "--portfolio", "--network", str(tmp_path / "network.json"),
            "--scenarios", str(tmp_path / "scenarios.json"), "--budget", "6",
            "--out", str(tmp_path / "portfolio"),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.layer_metrics()
    assert len(ETA_FLOW_GRID) == 7
    assert metrics["heuristic.portfolio_calls"] == 1
    counters = json.loads((tmp_path / "portfolio" / "envelope.json").read_text())["counters"]
    assert counters["greedy"]["passes"] == 7 * metrics["heuristic.portfolio_calls"]


def _traced_coastal40_sweep(tmp_path):
    """The traced layer metrics and the envelope counters of a coastal40
    ``sweep --max-budget 11``, the benchmark's sweep request."""
    import json

    from floodmit import cli

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    fx = make_fixture("coastal40")
    save_network(fx.network, tmp_path / "network.json")
    save_scenarios(fx.scenarios, tmp_path / "scenarios.json")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rc = cli.main([
            "sweep", "--network", str(tmp_path / "network.json"),
            "--scenarios", str(tmp_path / "scenarios.json"), "--rhat", "3",
            "--max-budget", "11", "--out", str(tmp_path / "sweep"),
        ])
    finally:
        tracer.uninstall()
    assert rc == 0
    counters = json.loads((tmp_path / "sweep" / "envelope.json").read_text())["counters"]
    return tracer.layer_metrics(), counters


def test_traced_sweep_builds_two_workspaces_and_reuses_lus(tmp_path, monkeypatch):
    """A coastal40 sweep over budgets 0..11 builds one workspace for all its
    budgets' node LPs and one for the dispatch LPs, and its warm starts
    reuse carried LUs, so it factorizes fewer times than it solves LPs.  The
    tracer counts ``splu`` through ``simplex.spla``, so a factorization that
    bypasses it would also read as too few here.  No LP starts cold: the
    budget-0 root starts from the model's start basis, and every later warm
    start is dual feasible and never restarts cold.  The tracer sees every
    second-stage request."""
    from floodmit import simplex

    real_cold_start = simplex._Solver.cold_start
    cold_starts = []

    def cold_start(self):
        cold_starts.append(self.iterations)
        return real_cold_start(self)

    monkeypatch.setattr(simplex._Solver, "cold_start", cold_start)
    metrics, counters = _traced_coastal40_sweep(tmp_path)
    assert metrics["simplex.workspaces"] == 2
    assert metrics["simplex.lp_solves_cold"] == 0
    assert cold_starts == []
    assert counters["simplex"]["cold_starts"] == 0
    # Greedy plans and earlier optima, deduplicated per budget.
    assert metrics["solver.warm_starts"] == 81
    assert 0 < metrics["simplex.lu_factorizations"] < metrics["simplex.lp_solves"]
    # The envelope counts the node LPs; the dispatch LPs are the rest.
    assert counters["simplex"]["workspaces"] == 1
    assert counters["simplex"]["lp_solves"] + counters["recourse"]["lp_solves"] == metrics["simplex.lp_solves"]
    assert counters["simplex"]["pivots"] + counters["recourse"]["lp_pivots"] == metrics["simplex.iterations"]
    assert counters["simplex"]["lu_factorizations"] < metrics["simplex.lu_factorizations"]
    # Every request to the second stage passes through the traced
    # ``scenario_outcome``.
    assert metrics["recourse.outcomes"] == counters["recourse"]["outcomes"] == 530


def test_sweep_search_work_stays_within_its_bounds(tmp_path):
    """The benchmark's sweep request, node LPs and dispatch LPs together,
    takes at most 20 nodes, 25 LP solves (at most 18 of them node LPs) and
    18 sparse LU factorizations: 18, 23 (18) and 17 measured, against 18,
    33 (28) and 20 before the zero plan's start basis and claims confirmed
    by a node, and 24, 39 and 35 before reduced-cost fixing and the lazy
    LU.  The bounds are upper bounds, so a stronger search may go lower."""
    metrics, counters = _traced_coastal40_sweep(tmp_path)
    assert metrics["solver.nodes"] <= 20
    assert metrics["simplex.lp_solves"] == counters["simplex"]["lp_solves"] + counters["recourse"]["lp_solves"] <= 25
    assert counters["simplex"]["lp_solves"] <= 18
    assert metrics["simplex.lu_factorizations"] <= 18


def test_cli_import_loads_no_graph_or_optimize_module():
    """Starting the command line must not import ``scipy.sparse.csgraph`` or
    ``scipy.optimize``: the benchmark's ``setup_s`` counts every import at
    start, and the program needs neither (islands are labelled with numpy
    alone; ``linprog`` is only a test oracle)."""
    probe = (
        "import sys, floodmit.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse.csgraph', 'scipy.optimize'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_readme_command_line_flags_are_accepted():
    """Every ``--flag`` on a ``floodmit <subcommand>`` line of the README's
    command-line block must be an option of that subcommand's parser."""
    from floodmit.cli import build_parser

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln.split() for ln in block.splitlines() if ln.startswith("floodmit ")]
    assert lines
    for words in lines:
        sub = subparsers[words[1]]
        flags = re.findall(r"(?<![\w-])--[a-z][a-z-]*", " ".join(words[2:]))
        assert flags, words
        unknown = [f for f in flags if f not in sub._option_string_actions]
        assert not unknown, (words[1], unknown)


def _unused_imports(path):
    """Names that ``path`` imports and never reads, as "file:line name".

    ``from __future__`` imports and import statements marked ``# noqa``
    (re-exports, and names the tracer wraps) are left out.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 20
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, unused


def _private_imports(module, source):
    """Underscore-prefixed names (dunders aside) that the package module
    ``module``, with text ``source``, imports from another module of the
    package, as "module:line other.name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("floodmit")):
            other = (node.module or "").rsplit(".", 1)[-1]
            found += [
                f"{module}:{node.lineno} {other}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    return found


def test_no_module_imports_a_private_name_of_another():
    """A helper that two modules share is public API of its module: its
    name says so, and the unused-definition guard then counts it."""
    package = ROOT / "src" / "floodmit"
    paths = sorted(package.glob("*.py"))
    assert len(paths) > 10
    found = [entry for path in paths for entry in _private_imports(path.stem, path.read_text(encoding="utf-8"))]
    assert not found, found
    source = (package / "scenario_model.py").read_text(encoding="utf-8")
    line = source.count("\n") + 1
    assert _private_imports("scenario_model", source + "from .grid_model import _objects\n") == [
        f"scenario_model:{line} grid_model._objects"
    ]


# The extensive form's big-M dispatch block and its status link rows.
ORACLE_BLOCK = {"add_dispatch_block", "alpha_link_rows"}


def _oracle_block_names(module, source):
    """The names of ``ORACLE_BLOCK`` that the package module ``module``,
    with text ``source``, uses, as "module name"."""
    return sorted(f"{module} {name}" for name in set(_named(ast.parse(source))) & ORACLE_BLOCK)


def test_only_the_extensive_form_names_its_dispatch_block():
    """The big-M dispatch block is the reference model's: the solve path
    gives every scenario a value table, and a model over the table limit is
    the extensive form built whole.  No other module names the block, so it
    cannot come back into the table builder."""
    package = ROOT / "src" / "floodmit"
    paths = [path for path in sorted(package.glob("*.py")) if path.stem != "extensive_form"]
    assert len(paths) > 10
    found = [entry for path in paths for entry in _oracle_block_names(path.stem, path.read_text(encoding="utf-8"))]
    assert not found, found
    source = (package / "value_table.py").read_text(encoding="utf-8")
    assert _oracle_block_names("value_table", source + "from .extensive_form import add_dispatch_block\n") == [
        "value_table add_dispatch_block"
    ]


def _ignored_parameters(path):
    """Parameters that a function of ``path`` never reads, as
    "file:line function(parameter)".

    ``self``, ``cls`` and every parameter of a ``def`` marked ``# noqa``
    are left out.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    ignored = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : max(node.lineno, node.body[0].lineno - 1)]):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        ignored += [
            f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({name})"
            for name in params
            if name not in ("self", "cls") and name not in read
        ]
    return ignored


def test_no_function_ignores_a_parameter():
    """A parameter the body never reads is a second source of a fact that
    the caller must still supply, and that may disagree with the one used."""
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert len(paths) > 10
    ignored = [entry for path in paths for entry in _ignored_parameters(path)]
    assert not ignored, ignored


# Defined in src/floodmit and named only by the tests, each for a reason.
TEST_ONLY_DEFINITIONS = {
    "enumerate_plans": "brute-force plan enumeration, the reference of acceptance criterion 02",
    "is_feasible": "first-stage feasibility, the reference of acceptance criterion 07",
    "solve_lp": "the LP relaxation whose strong duality acceptance criterion 11 checks",
}


def _named(tree):
    """Every name ``tree`` uses: plain names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _unnamed_definitions(paths):
    """Functions, classes, methods and properties of ``paths`` (dunders
    aside) whose name appears nowhere in ``paths`` outside their own
    definition, as "file:line name"."""
    named, definitions = Counter(), []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named.update(_named(tree))
        definitions += [
            (path, node) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ]
    return [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in definitions
        if named[node.name] == Counter(_named(node))[node.name]
    ]


def test_every_definition_is_named_by_the_package():
    """API that only tests call belongs in the tests: a definition that no
    code path of the package names is surface to delete, unless it is a
    listed reference that an acceptance criterion needs."""
    paths = sorted((ROOT / "src" / "floodmit").glob("*.py"))
    assert len(paths) > 10
    unnamed = _unnamed_definitions(paths)
    assert sorted(entry.rsplit(" ", 1)[1] for entry in unnamed) == sorted(TEST_ONLY_DEFINITIONS), unnamed


# Parameters with a default that no call passes, each for a reason.
UNPASSED_DEFAULTS = {
    "solve_linear_program(max_iter)": "tests pass it through test_simplex._solve(**kw), which the guard cannot see",
}


def _defaulted_parameters(path):
    """(function, parameter, position) of every parameter with a default of
    a function or method of ``path``; an ``__init__`` goes by its class's
    name, and the position (None for keyword-only) leaves out ``self`` and
    ``cls``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for owner in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        for node in owner.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            if owner is not tree and positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            name = owner.name if node.name == "__init__" else node.name
            first = len(positional) - len(a.defaults)
            yield from ((name, p, i) for i, p in enumerate(positional) if i >= first)
            yield from ((name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)


def _passed_arguments(paths):
    """Per called name in ``paths``: the keywords and the positions that
    some call passes (a ``*`` or ``**`` argument counts for nothing)."""
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                given = passed.setdefault(name, set())
                given.update(k.arg for k in node.keywords if k.arg)
                given.update(range(sum(not isinstance(x, ast.Starred) for x in node.args)))
    return passed


def test_every_parameter_with_a_default_is_passed_somewhere():
    """A default that no call in ``src/``, ``tests/`` or ``perfbench/``
    overrides is a knob nobody turns: its other values go untested, and the
    value it always takes belongs in the body."""
    callers = [p for part in ("src", "tests", "perfbench") for p in sorted((ROOT / part).rglob("*.py"))]
    passed = _passed_arguments(callers)
    unpassed = [
        f"{name}({param})"
        for path in sorted((ROOT / "src" / "floodmit").glob("*.py"))
        for name, param, position in _defaulted_parameters(path)
        if not {param, position} & passed.get(name, set())
    ]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS), unpassed
