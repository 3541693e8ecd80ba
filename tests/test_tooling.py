"""The benchmark's tracer must keep finding every name it wraps.

``perfbench/tracing.py`` replaces entry points of the package by name; a
rename or deletion in ``src/`` would only surface in a traced benchmark run.
Installing and uninstalling it here catches that in the test suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
