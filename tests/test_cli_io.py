import json
from pathlib import Path

import pytest

from floodmit import simplex
from floodmit.cli import main
from floodmit.fixtures import FIXTURE_NAMES


@pytest.fixture(scope="module")
def tiny3_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny3")
    assert main(["make-fixture", "tiny3", "--out-dir", str(out)]) == 0
    return out


def _net(tiny3_dir):
    return str(tiny3_dir / "network.json")


def _scen(tiny3_dir):
    return str(tiny3_dir / "scenarios.json")


def test_make_fixture_all_names(tmp_path):
    for name in FIXTURE_NAMES:
        out = tmp_path / name
        assert main(["make-fixture", name, "--out-dir", str(out)]) == 0
        assert (out / "network.json").exists()
        assert (out / "scenarios.json").exists()
        env = json.loads((out / "envelope.json").read_text())
        assert env["schema_version"] == 1
    assert (tmp_path / "coastal40" / "coastline.json").exists()


def test_unknown_fixture_name_fails(tmp_path, capsys):
    with pytest.raises(SystemExit):  # argparse rejects the bad choice
        main(["make-fixture", "nope", "--out-dir", str(tmp_path / "y")])


def test_validate_ok_and_envelope(tiny3_dir, tmp_path, capsys):
    env_path = tmp_path / "env.json"
    rc = main(["validate", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
               "--out", str(env_path)])
    assert rc == 0
    doc = json.loads(env_path.read_text())
    assert doc["result"]["valid"] is True
    # Envelope round-trips losslessly through JSON.
    assert json.loads(json.dumps(doc)) == doc


def test_validate_reports_violations(tmp_path, tiny3_dir, capsys):
    doc = json.loads(Path(_net(tiny3_dir)).read_text())
    doc["buses"][1]["reference"] = True  # second reference bus
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["validate", "--network", str(bad)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert any("multiple reference buses" in v for v in out["violations"])


def test_missing_file_is_error(tmp_path, capsys):
    rc = main(["validate", "--network", str(tmp_path / "ghost.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, out",
    [
        (["sweep"], "file"),  # FileExistsError
        (["heuristic", "--portfolio", "--budget", "2"], "file"),  # FileExistsError
        (["heuristic", "--budget", "2"], "dir"),  # IsADirectoryError
        (["eval", "--plan", "PLAN"], "file/envelope.json"),  # FileExistsError
        (["sweep"], "file/report"),  # NotADirectoryError
    ],
)
def test_unwritable_output_path_is_error(tiny3_dir, tmp_path, capsys, command, out):
    """An output path the command cannot write ends in an error message and
    exit 2, not a traceback after the work is done."""
    (tmp_path / "file").write_text("occupied\n")
    (tmp_path / "dir").mkdir()
    plan = tmp_path / "plan.json"
    plan.write_text('{"levels": {}}\n')
    command = [str(plan) if word == "PLAN" else word for word in command]
    rc = main([*command, "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
               "--rhat", "3", "--out", str(tmp_path / out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("floodmit: error: ")


def test_solve_envelope_matches_no_mitigation_loss(tiny3_dir, tmp_path):
    out = tmp_path / "solve0"
    rc = main([
        "solve", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--budget", "0", "--rhat", "3", "--out-dir", str(out),
    ])
    assert rc == 0
    env = json.loads((out / "envelope.json").read_text())
    assert env["result"]["objective"] == pytest.approx(1.0)  # cannot mitigate
    assert env["result"]["plan"] == {}
    assert json.loads((out / "plan.json").read_text()) == {"levels": {}}


def test_eval_of_heuristic_plan_cross_path(tiny3_dir, tmp_path):
    plan_path = tmp_path / "plan.json"
    rc = main([
        "heuristic", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--budget", "2", "--rhat", "3", "--out", str(plan_path),
    ])
    assert rc == 0
    h_env = json.loads(plan_path.with_suffix(".envelope.json").read_text())
    eval_path = tmp_path / "eval.json"
    rc = main([
        "eval", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--plan", str(plan_path), "--out", str(eval_path),
    ])
    assert rc == 0
    e_env = json.loads(eval_path.read_text())
    # The heuristic's internal evaluation and the eval pipeline agree.
    assert e_env["result"]["expected_loss"] == pytest.approx(
        h_env["result"]["expected_loss"], abs=1e-9
    )
    per_scenario = e_env["result"]["scenarios"]
    total = sum(s["probability"] * s["loss"] for s in per_scenario)
    assert total == pytest.approx(e_env["result"]["expected_loss"], abs=1e-12)


def test_heuristic_portfolio_mode(tiny3_dir, tmp_path):
    out = tmp_path / "folio"
    rc = main([
        "heuristic", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--budget", "2", "--rhat", "3", "--portfolio", "--out", str(out),
    ])
    assert rc == 0
    env = json.loads((out / "envelope.json").read_text())
    plans = env["result"]["plans"]
    assert plans == sorted(plans, key=lambda p: p["expected_loss"])
    for entry in plans:
        assert (out / entry["file"]).exists()


def test_ids_that_sanitize_alike_solve_like_tiny3(tiny3_dir, tmp_path):
    """Substations renamed ``S-1`` and ``S_1`` once shared the LP name
    ``x_S_1_1``; they now get distinct names and solve to tiny3's optimum."""
    rename = {"S1": "S-1", "S2": "S_1"}
    net = json.loads(Path(_net(tiny3_dir)).read_text())
    for sub in net["substations"]:
        sub["id"] = rename[sub["id"]]
    for bus in net["buses"]:
        bus["substation"] = rename[bus["substation"]]
    scen = json.loads(Path(_scen(tiny3_dir)).read_text())
    for s in scen["scenarios"]:
        s["levels"] = {rename[k]: v for k, v in s["levels"].items()}
    (tmp_path / "network.json").write_text(json.dumps(net))
    (tmp_path / "scenarios.json").write_text(json.dumps(scen))
    results = []
    for name, (network, scenarios) in {
        "tiny3": (_net(tiny3_dir), _scen(tiny3_dir)),
        "renamed": (tmp_path / "network.json", tmp_path / "scenarios.json"),
    }.items():
        out = tmp_path / name
        rc = main([
            "solve", "--network", str(network), "--scenarios", str(scenarios),
            "--budget", "1", "--rhat", "3", "--out-dir", str(out), "--export-lp",
        ])
        assert rc == 0
        results.append(json.loads((out / "envelope.json").read_text())["result"])
    assert results[1]["objective"] == results[0]["objective"]
    assert results[1]["plan"] == {rename[k]: v for k, v in results[0]["plan"].items()}
    lp = (tmp_path / "renamed" / "problem.lp").read_text().splitlines()
    bounds = lp[lp.index("Bounds") + 1:lp.index("Binaries")]
    names = [line.split(" <= ")[1] for line in bounds]
    rows = [line.split(":")[0] for line in lp[lp.index("Subject To") + 1:lp.index("Bounds")]]
    assert len(set(names)) == len(names) and len(set(rows)) == len(rows)
    assert {"x_S__2d_1_1", "x_S__5f_1_1"} <= set(names)


def test_check_unique_subcommand(tiny3_dir, tmp_path, capsys):
    out = tmp_path / "uniq.json"
    rc = main([
        "check-unique", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--budget", "1", "--rhat", "3", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["unique"] is False
    assert doc["result"]["witness"] is not None


def test_sweep_tables_and_determinism(tiny3_dir, tmp_path):
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        rc = main([
            "sweep", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
            "--rhat", "3", "--max-budget", "auto", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out)
    for table in ("objectives.csv", "plans.csv", "spared.csv", "transitions.csv"):
        a = (outs[0] / table).read_bytes()
        b = (outs[1] / table).read_bytes()
        assert a == b, f"{table} not byte-identical across reruns"
    lines = (outs[0] / "objectives.csv").read_text().splitlines()
    assert lines[0].startswith("budget,status,objective")
    assert len(lines) == 4  # header + budgets 0..2
    env = json.loads((outs[0] / "envelope.json").read_text())
    assert env["result"]["nested"] is True


def test_sweep_explicit_max_budget(tiny3_dir, tmp_path):
    out = tmp_path / "swp"
    rc = main([
        "sweep", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--rhat", "3", "--max-budget", "1", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "objectives.csv").read_text().splitlines()
    assert len(lines) == 3


def test_a_failed_budget_writes_an_error_row_of_what_was_measured(tiny3_dir, tmp_path, monkeypatch):
    """A budget whose solve fails keeps its budget and the greedy
    portfolio's best loss, and leaves empty every column that no solve
    measured: the search's nodes and pivots and both uniqueness columns.
    The budgets around it are solved as usual."""
    from floodmit import analysis, heuristic, solver
    from floodmit.grid_model import load_network
    from floodmit.mitigation import Budget, CostSchedule
    from floodmit.recourse import LossWeights, RecourseEvaluator
    from floodmit.scenario_model import load_scenarios

    real = analysis.solve_instance

    def fails_at_budget_1(ef, *args, **kwargs):
        if ef.budget.units == 1:
            raise solver.SolverError("budget 1: solver stopped with node-limit")
        return real(ef, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_instance", fails_at_budget_1)
    out = tmp_path / "swp"
    assert main([
        "sweep", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--max-budget", "2", "--check-unique", "--out", str(out),
    ]) == 0
    network = load_network(_net(tiny3_dir))
    scenarios = load_scenarios(_scen(tiny3_dir), network=network)
    levels = heuristic.LevelMatrix(network, scenarios, CostSchedule.for_network(network), 3)
    evaluator = RecourseEvaluator(network, scenarios, LossWeights())
    best = min(evaluator.evaluate(plan).expected_loss for plan in heuristic.portfolio(Budget(1), levels))
    rows = (out / "objectives.csv").read_text().splitlines()
    assert rows[2] == f"1,error,,,{best!r},,,,,"
    for row in (rows[1], rows[3]):
        assert row.split(",")[1] == "optimal" and "" not in row.split(",")[6:]


@pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
def test_sweep_rejects_a_max_budget_that_is_not_auto_or_a_count(tmp_path, capsys, value):
    """The parser rejects the value before any input file is read: the
    input paths here do not exist."""
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--network", str(tmp_path / "none.json"), "--scenarios", str(tmp_path / "none.json"),
            "--max-budget", value, "--out", str(tmp_path / "swp"),
        ])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-budget" in err and repr(value) in err


def test_sweep_uniqueness_probes_start_cold(tiny3_dir, tmp_path):
    """Each budget's uniqueness probe solves a cut problem with a matrix of
    its own and no start basis, so it starts at least one LP cold; the
    budgets' own searches start none."""
    out = tmp_path / "swp"
    assert main([
        "sweep", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--rhat", "3", "--max-budget", "auto", "--check-unique", "--out", str(out),
    ]) == 0
    probes = len((out / "objectives.csv").read_text().splitlines()) - 1
    counters = json.loads((out / "envelope.json").read_text())["counters"]["simplex"]
    assert probes == 3
    assert counters["cold_starts"] >= probes
    assert counters["workspaces"] == 1 + probes


def test_base_mva_enables_mw_reporting(tiny3_dir, tmp_path):
    doc = json.loads(Path(_net(tiny3_dir)).read_text())
    doc["base_mva"] = 100.0
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc), encoding="utf-8")
    plan = tmp_path / "plan.json"
    plan.write_text('{"levels": {}}', encoding="utf-8")
    out = tmp_path / "eval.json"
    rc = main([
        "eval", "--network", str(net), "--scenarios", _scen(tiny3_dir),
        "--plan", str(plan), "--out", str(out),
    ])
    assert rc == 0
    result = json.loads(out.read_text())["result"]
    assert result["expected_loss_mw"] == pytest.approx(result["expected_loss"] * 100.0)


def test_eval_rejects_plan_with_unknown_substation(tiny3_dir, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"levels": {"GHOST": 1}}', encoding="utf-8")
    rc = main([
        "eval", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir),
        "--plan", str(plan), "--out", str(tmp_path / "e.json"),
    ])
    assert rc == 2
    assert "GHOST" in capsys.readouterr().err


@pytest.mark.parametrize("rhat", ["0", "-2"])
@pytest.mark.parametrize(
    "command, extra",
    [
        ("heuristic", ["--budget", "2", "--out"]),
        ("solve", ["--budget", "2", "--out-dir"]),
        ("check-unique", ["--budget", "2", "--out"]),
        ("eval", ["--plan", "PLAN", "--out"]),
        ("sweep", ["--out"]),
    ],
)
def test_model_commands_reject_rhat_below_one(tiny3_dir, tmp_path, capsys, command, extra, rhat):
    """No plan can mean a cap below level 1, so every command that models
    one exits 2 before it writes anything."""
    plan = tmp_path / "plan.json"
    plan.write_text('{"levels": {}}', encoding="utf-8")
    out = tmp_path / "out"
    args = [command, "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir), "--rhat", rhat]
    args += [str(plan) if a == "PLAN" else a for a in extra] + [str(out)]
    assert main(args) == 2
    assert "r_hat must be >= 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


@pytest.mark.parametrize("level", [3, 9])
def test_eval_rejects_plan_level_at_or_above_rhat(tiny3_dir, tmp_path, capsys, level):
    """Level r̂ and above are beyond any barrier stack; a plan claiming one
    would cover every flood.  A level below r̂ still evaluates."""
    plan = tmp_path / "plan.json"
    out = tmp_path / "e.json"
    plan.write_text('{"levels": {"S2": %d}}' % level, encoding="utf-8")
    args = ["eval", "--network", _net(tiny3_dir), "--scenarios", _scen(tiny3_dir), "--rhat", "3", "--plan", str(plan)]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "S2" in err and f"level {level}" in err
    assert not out.exists()
    plan.write_text('{"levels": {"S2": 2}}', encoding="utf-8")
    assert main(args + ["--out", str(out)]) == 0
    assert out.exists()


def test_sweep_ring12_byte_determinism(tmp_path):
    fix = tmp_path / "ring12"
    assert main(["make-fixture", "ring12", "--out-dir", str(fix)]) == 0
    outs = []
    for run in ("x", "y"):
        out = tmp_path / run
        rc = main([
            "sweep", "--network", str(fix / "network.json"),
            "--scenarios", str(fix / "scenarios.json"),
            "--rhat", "3", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out)
    for table in ("objectives.csv", "plans.csv", "spared.csv", "transitions.csv"):
        assert (outs[0] / table).read_bytes() == (outs[1] / table).read_bytes()


def test_remap_cli(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("id,lon,lat\ns1,-95.0,29.0\n", encoding="utf-8")
    b.write_text("id,lon,lat\nt1,-95.2,29.1\nt2,-95.01,29.01\n", encoding="utf-8")
    out = tmp_path / "map.csv"
    rc = main(["remap", "--from", str(a), "--to", str(b), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[:2] == ["s1", "t2"]


@pytest.mark.parametrize("command", ["validate", "eval", "solve"])
def test_negative_gen_min_network_exits_2(tmp_path, capsys, command):
    from conftest import negative_gen_min_network
    from floodmit.grid_model import save_network, write_json
    from floodmit.scenario_model import FloodScenario, FloodScenarioSet, save_scenarios

    net, scen, plan = tmp_path / "network.json", tmp_path / "scenarios.json", tmp_path / "plan.json"
    save_network(negative_gen_min_network(), net)
    save_scenarios(FloodScenarioSet((FloodScenario("w0", 1.0, {}),), 3, 3), scen)
    write_json({"levels": {}}, plan)
    args = {
        "validate": ["--network", str(net)],
        "eval": ["--network", str(net), "--scenarios", str(scen), "--plan", str(plan),
                 "--out", str(tmp_path / "eval.json")],
        "solve": ["--network", str(net), "--scenarios", str(scen), "--budget", "0",
                  "--out-dir", str(tmp_path / "solve")],
    }[command]
    assert main([command] + args) == 2
    err = capsys.readouterr().err
    assert err == "floodmit: error: bus A: negative generation lower bound not supported\n", err


def test_gen_scenarios_cli_deterministic(tmp_path):
    c40 = tmp_path / "c40"
    assert main(["make-fixture", "coastal40", "--out-dir", str(c40)]) == 0
    outs = []
    for name in ("g1.json", "g2.json"):
        out = tmp_path / name
        rc = main([
            "gen-scenarios", "--network", str(c40 / "network.json"),
            "--coastline", str(c40 / "coastline.json"),
            "--count", "6", "--seed", "13", "--peak-depth", "0.9",
            "--decay-km", "25", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert len(doc["scenarios"]) == 6


def test_gen_scenarios_requires_coordinates(tiny3_dir, tmp_path, capsys):
    coast = tmp_path / "coast.json"
    coast.write_text('{"vertices": [[-97.0, 26.0], [-94.0, 29.0]]}', encoding="utf-8")
    rc = main([
        "gen-scenarios", "--network", _net(tiny3_dir), "--coastline", str(coast),
        "--count", "3", "--peak-depth", "0.9", "--decay-km", "25",
        "--out", str(tmp_path / "g.json"),
    ])
    assert rc == 2
    assert "coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["star8", "coastal40"])
def test_envelopes_report_recourse_counters(tmp_path, name):
    """``solve``, ``sweep``, ``heuristic`` and ``eval`` report what their
    recourse evaluator did under a top-level ``counters.recourse`` key,
    outside ``result``.  Every outcome after the first request of its mask
    is a cache hit.  New masks are settled in stacks (``batches``), and
    their islands each once, by the witness (``settled_without_lp``) or by
    a dispatch LP (``lp_solves``); ``lp_pivots`` sums the simplex pivots of
    those LPs.  The commands that run the greedy report its passes and the
    states it scored under ``counters.greedy``."""
    fx = tmp_path / "fx"
    assert main(["make-fixture", name, "--out-dir", str(fx)]) == 0
    common = ["--network", str(fx / "network.json"), "--scenarios", str(fx / "scenarios.json"), "--rhat", "3"]
    # The portfolio runs no MILP, so every LP it solves is a dispatch LP.
    real_solve = simplex.solve_linear_program
    pivots = []

    def counting_solve(*args, **kwargs):
        res = real_solve(*args, **kwargs)
        pivots.append(res.iterations)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "solve_linear_program", counting_solve)
        assert main(["heuristic", "--portfolio", *common, "--budget", "4", "--out", str(tmp_path / "h")]) == 0
    portfolio = json.loads((tmp_path / "h" / "envelope.json").read_text())["counters"]["recourse"]
    assert (portfolio["lp_solves"], portfolio["lp_pivots"]) == (len(pivots), sum(pivots))
    assert main(["eval", *common[:4], "--plan", str(tmp_path / "h" / "plan_00.json"),
                 "--out", str(tmp_path / "eval.json")]) == 0
    assert main(["solve", *common, "--budget", "4", "--out-dir", str(tmp_path / "solve")]) == 0
    assert main(["sweep", *common, "--max-budget", "3", "--out", str(tmp_path / "sweep")]) == 0
    for path in ("h/envelope.json", "eval.json", "solve/envelope.json", "sweep/envelope.json"):
        env = json.loads((tmp_path / path).read_text())
        counts = env["counters"]["recourse"]
        assert set(counts) == {"outcomes", "cache_hits", "settled_without_lp", "lp_solves", "lp_pivots", "batches"}
        assert "counters" not in env["result"]
        assert 0 < counts["batches"] <= counts["outcomes"] - counts["cache_hits"]
        if path == "eval.json":
            assert "greedy" not in env["counters"]
        else:
            greedy = env["counters"]["greedy"]
            assert set(greedy) == {"passes", "states_scored"}
            assert 0 < greedy["states_scored"]
        assert counts["settled_without_lp"] > 0
        assert (counts["lp_pivots"] > 0) == (counts["lp_solves"] > 0)
        if name == "star8":  # the witness settles every star8 island
            assert counts["lp_solves"] == 0
    sweep = json.loads((tmp_path / "sweep" / "envelope.json").read_text())["counters"]["recourse"]
    assert sweep["cache_hits"] > 0


def _first(entries, **changes):
    return [{**entries[0], **changes}, *entries[1:]]


MALFORMED = {
    "scenario-levels-list": ("scenarios", lambda d: {**d, "scenarios": _first(d["scenarios"], levels=[1, 2])},
                             ": levels must be an object"),
    "scenarios-object": ("scenarios", lambda d: {**d, "scenarios": {"w": d["scenarios"][0]}},
                         "scenario file: scenarios must be a list"),
    "scenario-entry-list": ("scenarios", lambda d: {**d, "scenarios": [[1, 2], *d["scenarios"][1:]]},
                            "scenario file: scenarios entry 0 must be an object"),
    "bus-entry-list": ("network", lambda d: {**d, "buses": [[1, 2], *d["buses"][1:]]},
                       "network: buses entry 0 must be an object"),
    "angle-limits-list": ("network", lambda d: {**d, "angle_limits": [1, 2]},
                          "network: angle_limits must be an object"),
    "plan-levels-list": ("plan", lambda d: {"levels": [1, 2]}, "plan: levels must be an object"),
    "vertices-number": ("coastline", lambda d: {"vertices": 5}, "coastline file: vertices must be a list"),
    "vertices-flat": ("coastline", lambda d: {"vertices": [1, 2]}, "coastline file: vertex 0 must be a [lon, lat] pair"),
    "vertex-short": ("coastline", lambda d: {"vertices": [[1], [2, 3]]},
                     "coastline file: vertex 0 must be a [lon, lat] pair"),
    "coastline-list": ("coastline", lambda d: [1, 2], "coastline document must be an object"),
    "vertex-null": ("coastline", lambda d: {"vertices": [[None, 0.0], [1.0, 0.0]]},
                    "coastline file: vertex 0 must be a number, not None"),
    "vertex-bool": ("coastline", lambda d: {"vertices": [[0.0, 0.0], [True, 0.0]]},
                    "coastline file: vertex 1 must be a number, not True"),
    "vertex-string": ("coastline", lambda d: {"vertices": [["-95", 0.0], [1.0, 0.0]]},
                      "coastline file: vertex 0 must be a number, not '-95'"),
    "vertex-nan": ("coastline", lambda d: {"vertices": [[0.0, float("nan")], [1.0, 0.0]]},
                   "coastline vertex 0 must be finite, not nan"),
    "probability-null": ("scenarios", lambda d: {**d, "scenarios": _first(d["scenarios"], probability=None)},
                         "scenario w1: probability must be a number, not None"),
    "scenario-level-list": ("scenarios", lambda d: {**d, "scenarios": _first(d["scenarios"], levels={"S1": [1]})},
                            "scenario w1: flood level at S1 must be a number, not [1]"),
    "level-count-object": ("scenarios", lambda d: {**d, "level_count": {}},
                           "scenario file: level_count must be a number, not {}"),
    "bus-load-null": ("network", lambda d: {**d, "buses": _first(d["buses"], load=None)},
                      "bus B1: load must be a number, not None"),
    "branch-flow-limit-list": ("network", lambda d: {**d, "branches": _first(d["branches"], flow_limit=[1.5])},
                               "branch L1: flow_limit must be a number, not [1.5]"),
    "angle-limit-null": ("network", lambda d: {**d, "angle_limits": {"abs_max_rad": None}},
                         "angle_limits: abs_max_rad must be a number, not None"),
    "plan-level-null": ("plan", lambda d: {"levels": {"S1": None}}, "plan: level at S1 must be a number, not None"),
    "scenario-level-fraction": ("scenarios", lambda d: {**d, "scenarios": _first(d["scenarios"], levels={"S1": 1.7})},
                                "scenario w1: flood level at S1 must be an integer, not 1.7"),
    "bus-reference-string": ("network", lambda d: {**d, "buses": _first(d["buses"], reference="false")},
                             "bus B1: reference must be true or false, not 'false'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_nested_input_is_a_format_error(tiny3_dir, tmp_path, capsys, case):
    """A container of the wrong type inside an input file, or a scalar
    field that is not a number, is a format error that names the entry
    (``floodmit: error:``, exit 2), not a traceback or a message about
    something else."""
    kind, mutate, message = MALFORMED[case]
    docs = {
        "network": json.loads(Path(_net(tiny3_dir)).read_text()),
        "scenarios": json.loads(Path(_scen(tiny3_dir)).read_text()),
        "plan": {"levels": {}},
        "coastline": {"vertices": [[0.0, 0.0], [1.0, 0.0]]},
    }
    docs[kind] = mutate(docs[kind])
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    inputs = ["--network", paths["network"], "--scenarios", paths["scenarios"]]
    if kind == "plan":
        argv = ["eval", *inputs, "--plan", paths["plan"], "--out", str(tmp_path / "eval.json")]
    elif kind == "coastline":
        argv = ["gen-scenarios", "--network", paths["network"], "--coastline", paths["coastline"],
                "--peak-depth", "1", "--decay-km", "10", "--out", str(tmp_path / "gen.json")]
    else:
        argv = ["validate", *inputs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("floodmit: error: ") and message in err, err


PINNED_RECOURSE = json.loads((Path(__file__).parent / "data" / "recourse_counters.json").read_text())


@pytest.mark.parametrize("request_name", sorted(PINNED_RECOURSE))
def test_second_stage_requests_match_the_pinned_counters(request_name, corridor_dir, tmp_path):
    """The recourse counters of the benchmark's requests, pinned: the
    requests, cache hits and stacks of new masks, and the islands settled
    by the witness or by a dispatch LP, with those LPs' pivots."""
    if request_name.startswith("coastal40"):
        fx = tmp_path / "fx"
        assert main(["make-fixture", "coastal40", "--out-dir", str(fx)]) == 0
        argv = ["sweep", "--max-budget", "11"]
    else:
        fx = corridor_dir
        argv = ["heuristic", "--portfolio", "--budget", request_name.rsplit(" ", 1)[1]]
    argv += ["--network", str(fx / "network.json"), "--scenarios", str(fx / "scenarios.json"), "--rhat", "3"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    counters = json.loads((tmp_path / "out" / "envelope.json").read_text())["counters"]["recourse"]
    assert counters == PINNED_RECOURSE[request_name]


def test_solve_sweep_and_check_unique_envelopes_report_simplex_counters(tmp_path):
    """``counters.simplex`` sits beside ``counters.recourse``, outside
    ``result`` and the CSVs, and counts the branch-and-bound LPs: their
    pivots are the ``lp_iterations`` the results report."""
    import csv

    fx = tmp_path / "fx"
    assert main(["make-fixture", "coastal40", "--out-dir", str(fx)]) == 0
    common = ["--network", str(fx / "network.json"), "--scenarios", str(fx / "scenarios.json"), "--rhat", "3"]
    assert main(["solve", *common, "--budget", "11", "--out-dir", str(tmp_path / "solve")]) == 0
    assert main(["check-unique", *common, "--budget", "11", "--out", str(tmp_path / "cu.json")]) == 0
    assert main(["sweep", *common, "--max-budget", "11", "--out", str(tmp_path / "sweep")]) == 0
    keys = {"lp_solves", "pivots", "lu_factorizations", "lu_reused", "cold_starts", "workspaces"}
    envs = {
        path: json.loads((tmp_path / path).read_text())
        for path in ("solve/envelope.json", "cu.json", "sweep/envelope.json")
    }
    for path, env in envs.items():
        counts = env["counters"]["simplex"]
        assert set(counts) == keys, path
        assert "simplex" not in json.dumps(env["result"])
        assert counts["lu_factorizations"] > 0
        # Child nodes warm-start from their parent's LU; a tree's root
        # starts from a basis with no LU yet.
        assert 0 < counts["lu_reused"] < counts["lp_solves"]
    # The roots start from the model's start basis; only the uniqueness
    # probe, whose cut problem has no start basis, starts cold.
    assert envs["solve/envelope.json"]["counters"]["simplex"]["cold_starts"] == 0
    assert envs["sweep/envelope.json"]["counters"]["simplex"]["cold_starts"] == 0
    assert envs["cu.json"]["counters"]["simplex"]["cold_starts"] >= 1
    solve = envs["solve/envelope.json"]
    assert solve["counters"]["simplex"]["pivots"] == solve["result"]["lp_iterations"]
    assert solve["counters"]["simplex"]["lp_solves"] >= solve["result"]["nodes"]
    assert solve["counters"]["simplex"]["workspaces"] == 1
    # The uniqueness probe's cut has its own matrix, so its own workspace.
    assert envs["cu.json"]["counters"]["simplex"]["workspaces"] == 2
    with open(tmp_path / "sweep" / "objectives.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sweep = envs["sweep/envelope.json"]["counters"]["simplex"]
    assert sweep["workspaces"] == 1
    assert sweep["lu_factorizations"] < sweep["lp_solves"]
    assert sweep["pivots"] == sum(int(r["lp_iterations"]) for r in rows)
    for name in ("objectives", "plans", "spared", "transitions"):
        header = (tmp_path / "sweep" / f"{name}.csv").read_text().splitlines()[0]
        assert not keys & set(header.split(",")), name


@pytest.fixture(scope="module")
def coastal40_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("coastal40")
    assert main(["make-fixture", "coastal40", "--out-dir", str(out)]) == 0
    (out / "plan.json").write_text('{"levels": {}}', encoding="utf-8")
    return out


NON_FINITE_OPTIONS = {
    "solve-lambda-shed-nan": (["solve", "--budget", "3", "--lambda-shed", "nan"],
                              "loss weight lambda_shed must be finite, not nan"),
    "solve-lambda-shed-inf": (["solve", "--budget", "3", "--lambda-shed", "inf"],
                              "loss weight lambda_shed must be finite, not inf"),
    "eval-lambda-over-nan": (["eval", "--lambda-over", "nan"], "loss weight lambda_over must be finite, not nan"),
    "heuristic-eta-flow-nan": (["heuristic", "--budget", "7", "--eta-flow", "nan"],
                               "attribute weight eta_flow must be finite, not nan"),
    "gen-peak-depth-nan": (["gen-scenarios", "--peak-depth", "nan", "--decay-km", "30"],
                           "inundation kernel peak_depth_m must be finite, not nan"),
    "gen-decay-km-nan": (["gen-scenarios", "--peak-depth", "4", "--decay-km", "nan"],
                         "inundation kernel decay_km must be finite, not nan"),
    "gen-decay-km-inf": (["gen-scenarios", "--peak-depth", "4", "--decay-km", "inf"],
                         "inundation kernel decay_km must be finite, not inf"),
    "gen-bearing-nan": (["gen-scenarios", "--peak-depth", "4", "--decay-km", "30", "--bearing", "nan"],
                        "inundation kernel track_bearing_deg must be finite, not nan"),
    "gen-cone-nmi-inf": (["gen-scenarios", "--peak-depth", "4", "--decay-km", "30", "--cone-nmi", "inf"],
                         "cone radius must be finite, not inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_OPTIONS))
def test_non_finite_option_exits_2_and_names_the_value(coastal40_dir, tmp_path, capsys, case):
    """A NaN or infinite numeric option is refused where its value is
    checked, not carried into a NaN objective, an empty plan or a scenario
    set that floods every substation alike."""
    args, message = NON_FINITE_OPTIONS[case]
    net, scen = str(coastal40_dir / "network.json"), str(coastal40_dir / "scenarios.json")
    inputs = {
        "solve": ["--network", net, "--scenarios", scen, "--out-dir", str(tmp_path / "solve")],
        "eval": ["--network", net, "--scenarios", scen, "--plan", str(coastal40_dir / "plan.json"),
                 "--out", str(tmp_path / "eval.json")],
        "heuristic": ["--network", net, "--scenarios", scen, "--out", str(tmp_path / "plan.json")],
        "gen-scenarios": ["--network", net, "--coastline", str(coastal40_dir / "coastline.json"),
                          "--out", str(tmp_path / "gen.json")],
    }[args[0]]
    assert main(args + inputs) == 2
    err = capsys.readouterr().err
    assert err.startswith("floodmit: error: ") and message in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("row, message", [
    ("a,nan,29.0", "point a: lon must be finite, not nan"),
    ("a,-95.0,inf", "point a: lat must be finite, not inf"),
], ids=["lon-nan", "lat-inf"])
def test_remap_refuses_a_non_finite_point(tmp_path, capsys, row, message):
    src, dst = tmp_path / "a.csv", tmp_path / "b.csv"
    src.write_text(f"id,lon,lat\n{row}\n", encoding="utf-8")
    dst.write_text("id,lon,lat\nt1,-95.2,29.1\n", encoding="utf-8")
    assert main(["remap", "--from", str(src), "--to", str(dst), "--out", str(tmp_path / "map.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("floodmit: error: ") and message in err, err


@pytest.mark.parametrize("row, count", [("a,-95.1", 2), ("a,-95.1,29,7", 4)], ids=["missing", "extra"])
def test_remap_refuses_a_row_without_three_fields(tmp_path, capsys, row, count):
    src, dst = tmp_path / "a.csv", tmp_path / "b.csv"
    src.write_text(f"id,lon,lat\ns0,-95.0,29.0\n{row}\n", encoding="utf-8")
    dst.write_text("id,lon,lat\nt1,-95.2,29.1\nt2,-95.3,29.2\n", encoding="utf-8")
    assert main(["remap", "--from", str(src), "--to", str(dst), "--out", str(tmp_path / "map.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"floodmit: error: {src}: line 3: expected 3 fields, got {count}\n", err
