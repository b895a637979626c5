"""Tests for the command-line interface."""

import csv
import json
import sys
from pathlib import Path

import pytest

from dcots.cli import load_instance, main, performance_profile
from dcots.cyclebasis import cycle_basis
from dcots.lp import SimplexError
from dcots.network import build_network, random_connected_network, serialize_native
from dcots.solver import CSV_HEADER, SolverConfig, solve_ots

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import ladder  # noqa: E402


def write_instance(tmp_path, name, seed, **kwargs):
    path = tmp_path / name
    path.write_text(serialize_native(random_connected_network(seed, **kwargs)))
    return str(path)


def test_solve_prints_result_json_and_exits_zero(tmp_path, capsys):
    path = write_instance(tmp_path, "net.json", 1, max_buses=4)
    code = main(["solve", path, "--gap", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["status"] == "optimal-within-gap"
    assert doc["instance"] == "net.json"
    assert doc["mode"] == "default"
    assert set(doc["x"]) == {str(ln.id) for ln in load_instance(path).lines}


def test_solve_without_flags_uses_the_default_config(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, "net.json", 1, max_buses=4)
    configs = []

    def recording(net, config, n_off=None):
        configs.append(config)
        return solve_ots(net, config, n_off=n_off)

    monkeypatch.setattr("dcots.cli.solve_ots", recording)
    assert main(["solve", path]) == 0
    capsys.readouterr()
    assert configs == [SolverConfig()]


def test_solve_exit_codes_for_infeasible_and_time_limit(tmp_path, capsys):
    main(["gen", "subset-sum", "--a", "2", "--b", "3", "--out",
          str(tmp_path / "no.json")])
    assert main(["solve", str(tmp_path / "no.json")]) == 2
    path = write_instance(tmp_path, "net.json", 1, max_buses=4)
    assert main(["solve", path, "--time-limit", "0"]) == 3
    capsys.readouterr()


def test_solve_exit_code_when_the_search_gives_up(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, "net.json", 1, max_buses=4)  # 3 buses, 4 lines
    # every integral candidate is cut off by the same cycle, forever
    monkeypatch.setattr("dcots.solver.lazy_kvl_check",
                        lambda net, x, f: cycle_basis(net).cycles[0])
    assert main(["solve", path]) == 5
    assert json.loads(capsys.readouterr().out)["status"] == "lazy-rows-stalled"

    def broken(lp, warm=None):
        raise SimplexError("singular basis at refactorization")

    monkeypatch.setattr("dcots.solver.solve", broken)
    assert main(["solve", path]) == 5
    assert json.loads(capsys.readouterr().out)["status"] == "numerical-error"


def test_solve_writes_the_result_file(tmp_path, capsys):
    path = write_instance(tmp_path, "net.json", 2, max_buses=4)
    out = tmp_path / "result.json"
    main(["solve", path, "--out", str(out), "--max-off", "0"])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["status"] == "optimal-within-gap"
    assert all(v == 1.0 for v in doc["x"].values())
    assert set(doc["stats"]) == {"lp_calls", "simplex_iterations", "cold_starts",
                                 "refactorizations", "tree_cuts", "lazy_rows",
                                 "first_incumbent_node", "first_incumbent_s"}
    assert doc["stats"]["lp_calls"] >= 1
    assert 1 <= doc["stats"]["first_incumbent_node"] <= doc["nodes"]
    assert 0.0 <= doc["stats"]["first_incumbent_s"] <= doc["wall_time_s"]


def test_gen_subset_sum_emits_the_reduction_network(tmp_path, capsys):
    out = tmp_path / "red.json"
    assert main(["gen", "subset-sum", "--a", "1,2", "--b", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    net = load_instance(str(out))
    assert len(net.buses) == 5 and len(net.lines) == 6
    assert net.generators[0].p_min == net.generators[0].p_max == 2.0


def test_gen_perturb_is_deterministic_per_seed(tmp_path, capsys):
    base = write_instance(tmp_path, "base.json", 3, max_buses=4)
    outs = []
    for name, seed in (("a.json", 9), ("b.json", 9), ("c.json", 10)):
        main(["gen", "perturb", "--base", base, "--seed", str(seed),
              "--out", str(tmp_path / name)])
        outs.append((tmp_path / name).read_text())
    capsys.readouterr()
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_gen_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "subset-sum", "--b", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "perturb"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_gen_requests_a_recipe_cannot_meet_are_usage_errors(tmp_path, capsys):
    base = write_instance(tmp_path, "base.json", 3, max_buses=4)
    for argv, says in ((["subset-sum", "--a", "0,2", "--b", "3"], "must be positive"),
                       (["subset-sum", "--a", "x", "--b", "3"], "'x'"),
                       (["add-cycle", "--base", base, "--cycle-len", "1"], "at least 2"),
                       (["add-cycle", "--base", base, "--cycle-len", "9"], "length 9")):
        with pytest.raises(SystemExit) as exc:
            main(["gen", *argv])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: dcots") and says in err, argv
        assert "Traceback" not in err


def test_duplicate_line_id_is_rejected_not_solved(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(serialize_native(build_network(
        [(0, 0.0), (1, 0.0), (2, 1.0)], [(0, 0.0, 2.0, 1.0)],
        [(0, 0, 1, 1.0, 1.0), (0, 1, 2, 1.0, 1.0), (1, 0, 2, 1.0, 1.0)])))
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dup.json" in captured.err and "duplicate line ids: [0]" in captured.err


def test_disconnected_network_is_rejected_in_basic_mode(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(serialize_native(build_network(
        [(0, 0.0), (1, 0.5), (2, 0.0), (3, 0.5)],
        [(0, 0.0, 1.0, 1.0), (2, 0.0, 1.0, 1.0)],
        [(0, 0, 1, 1.0, 1.0), (1, 2, 3, 1.0, 1.0)])))
    assert main(["solve", str(path), "--mode", "basic"]) == 4
    err = capsys.readouterr().err
    assert "split.json" in err and "not connected (2 components)" in err


def test_missing_key_is_exit_4_for_every_loading_command(tmp_path, capsys):
    doc = json.loads(serialize_native(random_connected_network(1, max_buses=4)))
    del doc["lines"]
    inst_dir = tmp_path / "insts"
    inst_dir.mkdir()
    path = inst_dir / "nolines.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve", str(path)], ["gen", "perturb", "--base", str(path)],
                 ["bench", str(inst_dir), "--out", str(tmp_path / "r.csv"),
                  "--profile", str(tmp_path / "p.csv")],
                 ["budget-sweep", str(path)]):
        assert main(argv) == 4, argv[0]
        captured = capsys.readouterr()
        assert "nolines.json" in captured.err
        assert "document: missing keys ['lines']" in captured.err
        assert "Traceback" not in captured.err
    assert not (tmp_path / "r.csv").exists()
    for bad, says in (([1], "document: expected an object, got list"),
                      ({**doc, "lines": [], "buses": [1]}, "buses[0]: expected an object, got int"),
                      ({**doc, "lines": [], "buses": {"id": 1}}, "buses: expected a list, got dict")):
        path.write_text(json.dumps(bad))
        assert main(["solve", str(path)]) == 4, bad
        assert says in capsys.readouterr().err
    short = tmp_path / "short.m"  # gen rows that stop at PMAX
    short.write_text("mpc.baseMVA = 100;\nmpc.bus = [1 3 0; 2 1 50];\n"
                     "mpc.gen = [1 0 0 0 0 1 100 1 200];\n"
                     "mpc.branch = [1 2 0 0.1 0 100 0 0 0 0 1];\n")
    assert main(["solve", str(short)]) == 4
    err = capsys.readouterr().err
    assert "short.m: gen[0]: needs at least 10 columns, got 9" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), -float("inf")])
def test_a_generator_cost_that_is_not_finite_is_exit_4(tmp_path, capsys, cost):
    inst = ladder.grid_instance(2, 4, 0)
    bus, lo, hi, _ = inst["gens"][0]
    inst["gens"][0] = (bus, lo, hi, cost)
    for name, text in (("grid.json", ladder.to_native(inst)),
                       ("grid.m", ladder.to_matpower(inst, "grid"))):
        path = tmp_path / name
        path.write_text(text)
        assert main(["solve", str(path)]) == 4, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name}: generator at bus {bus}: cost must be finite, got {cost}" in captured.err
        assert "Traceback" not in captured.err


def test_a_capacity_of_1e308_ends_in_a_status_not_a_traceback(tmp_path, capsys):
    doc = json.loads(serialize_native(random_connected_network(0)))
    doc["lines"][0]["capacity_mw"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) in (0, 5)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("key, value, says", [
    ("switchable", "false", "lines[1]: switchable must be bool, got 'false'"),
    ("id", 97.9, "lines[1]: id must be int, got 97.9"),
    ("capacity_mw", "80", "lines[1]: capacity_mw must be a number, got '80'"),
])
def test_a_line_field_of_the_wrong_type_is_exit_4(tmp_path, capsys, key, value, says):
    doc = json.loads(serialize_native(random_connected_network(1, max_buses=4)))
    doc["lines"][1][key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"typed.json: {says}" in captured.err and "Traceback" not in captured.err


def test_verify_suites_pass_and_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "facets", "reduction"]) == 0
    out = capsys.readouterr().out
    assert "PASS facets" in out and "PASS reduction" in out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_negative_controls_are_detected(capsys):
    assert main(["verify", "--negative-controls"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS negative-control") == 4


def test_bench_writes_sorted_rows_and_profile(tmp_path, capsys):
    inst_dir = tmp_path / "insts"
    inst_dir.mkdir()
    for seed in (1, 2):
        write_instance(inst_dir, f"net{seed}.json", seed, max_buses=4)
    results = tmp_path / "r.csv"
    profile = tmp_path / "p.csv"
    code = main(["bench", str(inst_dir), "--modes", "default,basic",
                 "--gap", "0", "--out", str(results),
                 "--profile", str(profile)])
    capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(results.read_text().splitlines()))
    assert rows[0] == CSV_HEADER
    keys = [(r[0], r[1]) for r in rows[1:]]
    assert keys == sorted(keys)
    assert len(keys) == 4
    prof = list(csv.reader(profile.read_text().splitlines()))
    assert prof[0] == ["tau", "fraction_within_tau_basic",
                       "fraction_within_tau_default"]
    assert float(prof[1][0]) == 1.0
    assert float(prof[-1][1]) == 1.0 and float(prof[-1][2]) == 1.0


@pytest.mark.parametrize("jobs, workers", [(10_000, 4), (3, 3)])
def test_bench_starts_no_more_workers_than_solves(tmp_path, capsys, monkeypatch,
                                                   jobs, workers):
    started = []

    class FakePool:  # records its size and runs the solves in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("dcots.cli.concurrent.futures.ProcessPoolExecutor", FakePool)
    inst_dir = tmp_path / "insts"
    inst_dir.mkdir()
    for seed in (1, 2):
        write_instance(inst_dir, f"net{seed}.json", seed, max_buses=4)
    code = main(["bench", str(inst_dir), "--modes", "default,basic", "--jobs", str(jobs),
                 "--out", str(tmp_path / "r.csv"), "--profile", str(tmp_path / "p.csv")])
    capsys.readouterr()
    assert code == 0
    assert started == [workers]  # 2 instances x 2 modes = 4 solves
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 5


def test_performance_profile_step_shapes():
    header, rows = performance_profile({"only": {"i1": 2.0}})
    assert header == ["tau", "fraction_within_tau_only"]
    assert rows == [["1.000000", "1.000000"]]
    _, rows = performance_profile({"a": {"i": 1.5}, "b": {"i": 1.5}})
    assert rows == [["1.000000", "1.000000", "1.000000"]]
    _, rows = performance_profile({"a": {"i1": 1.0, "i2": 2.0},
                                   "b": {"i1": None, "i2": None}})
    assert all(row[2] == "0.000000" for row in rows)
    assert rows[0][1] == "1.000000"


def test_budget_sweep_reports_infeasible_then_monotone_values(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main(["gen", "subset-sum", "--a", "1,2", "--b", "2",
          "--out", str(tmp_path / "braess.json")])
    code = main(["budget-sweep", str(tmp_path / "braess.json"),
                 "--gap", "0", "--n-values", "0,1,2,3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["N", "ip_value", "lp_value"]
    assert rows[1][1] == "infeasible"
    values = [float(r[1]) for r in rows[2:]]
    assert values == sorted(values, reverse=True)
    assert values[0] == pytest.approx(2.0)


def test_budget_sweep_writes_the_status_of_an_inconclusive_solve(tmp_path, capsys):
    path = write_instance(tmp_path, "net.json", 2, max_buses=6, max_extra_lines=3)
    assert main(["budget-sweep", path, "--n-values", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,3.885834,3.885834"
    assert main(["budget-sweep", path, "--time-limit", "0", "--n-values", "0,1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    # no incumbent within the limit proves nothing
    assert rows == ["N,ip_value,lp_value", "0,infeasible-unknown,3.885834",
                    "1,infeasible-unknown,3.885834"]


def test_csv_schema_is_stable():
    assert CSV_HEADER == ["instance", "mode", "status", "objective", "bound",
                          "gap", "nodes", "cuts", "z_LP", "z_LP_cuts",
                          "wall_time_s"]


@pytest.mark.parametrize("argv, says", [
    (["solve", "{net}", "--gap", "-1"], "nonnegative"),
    (["solve", "{net}", "--rounds", "-2"], "nonnegative"),
    (["solve", "{net}", "--gap", "nan"], "rel_gap and strengthen_rounds"),
    (["budget-sweep", "{net}", "--gap", "-1"], "nonnegative"),
    (["budget-sweep", "{net}", "--n-values", "x"], "comma-separated integers"),
    (["bench", "{dir}", "--modes", "bogus"], "cycle_mode must be one of"),
    (["bench", "{dir}", "--gap", "-1"], "nonnegative"),
    (["solve", "{net}", "--time-limit", "nan"], "time_limit_s"),
    (["solve", "{net}", "--time-limit", "-1"], "time_limit_s"),
    (["budget-sweep", "{net}", "--time-limit", "nan"], "time_limit_s"),
    (["bench", "{dir}", "--time-limit", "nan"], "time_limit_s"),
    (["bench", "{dir}", "--jobs", "0"], "--jobs must be at least 1"),
    (["solve", "{net}", "--max-off", "-1"], "--max-off must be nonnegative"),
    (["budget-sweep", "{net}", "--n-values", "0,-2"], "--n-values must be nonnegative"),
])
def test_bad_solver_flags_are_usage_errors(tmp_path, capsys, argv, says):
    net = write_instance(tmp_path, "net.json", 1, max_buses=4)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(net=net, dir=tmp_path) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dcots") and says in err
    assert "Traceback" not in err
