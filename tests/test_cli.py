"""Command-line interface: exit codes, flag placement, deterministic output."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regkit import cli
from regkit.cli import EXIT_BUG, EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from regkit.instances import (SIZE_CAPS, demo_polyopt_raw, generate_instance,
                              save_instance)


@pytest.fixture
def plain_file(tmp_path):
    path = tmp_path / "plain.json"
    save_instance(generate_instance("plain-lipschitz", 12, 0), str(path))
    return str(path)


@pytest.fixture
def evp_file(tmp_path):
    path = tmp_path / "evp.json"
    save_instance(generate_instance("evp", 40, 0), str(path))
    return str(path)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    save_instance(demo_polyopt_raw(), str(path))
    return str(path)


@pytest.fixture
def induct_file(tmp_path):
    raw = {
        "version": 1,
        "X": {"metric": "euclidean", "points": [0.0, 0.45, 0.9]},
        "Y": {"metric": "euclidean", "points": [0.0]},
        "map": {"ladder": [0.0, 1.0, 2.0],
                "graph": [[0, 2, 0], [1, 1, 0], [1, 2, 0], [2, 0, 0],
                          [2, 1, 0], [2, 2, 0]],
                "monotone": True},
        "sequences": {"a": {"kind": "explicit", "table": [2.0, 1.0]},
                      "b": {"kind": "explicit", "table": [0.5, 0.5]}},
    }
    path = tmp_path / "induct.json"
    save_instance(raw, str(path))
    return str(path)


def test_usage_errors_exit_2(tmp_path):
    assert main([]) == EXIT_INPUT
    assert main(["no-such-command"]) == EXIT_INPUT
    assert main(["load", str(tmp_path / "missing.json")]) == EXIT_INPUT


def test_regkit_errors_exit_2(tmp_path, capsys):
    # t off the ladder (LadderError), eps below f(x0) - inf f (EVPError),
    # point indices outside the space (PointIndexError), a NaN point
    # coordinate in the instance JSON (MetricError), policy overrides
    # outside their ranges (InstanceError), and an --epsilon of 0 or a NaN
    # --lambda (EVPError)
    pm, ev = str(tmp_path / "pm.json"), str(tmp_path / "e.json")
    assert main(["gen", "--kind", "param-monotone", "--size", "10",
                 "--seed", "3", "--out", pm]) == EXIT_PASS
    assert main(["gen", "--kind", "evp", "--size", "10", "--seed", "1",
                 "--out", ev]) == EXIT_PASS
    dm = str(tmp_path / "demo.json")
    save_instance(demo_polyopt_raw(), dm)
    nan_file = str(tmp_path / "nan.json")
    raw = generate_instance("plain-lipschitz", 12, 0)
    raw["X"]["points"][1] = float("nan")
    save_instance(raw, nan_file)
    capsys.readouterr()
    for argv in (["certify", pm, "--criterion", "decrease", "--x", "0",
                  "--y", "0", "--t", "0.33"],
                 ["ekeland", ev, "--epsilon", "1e-9"],
                 ["ekeland", ev, "--x0", "999"],
                 ["ekeland", ev, "--verify-only", "999"],
                 ["load", nan_file],
                 ["optcond", dm, "--task", "critical", "--seed", "-1"],
                 ["ekeland", ev, "--horizon", "0"],
                 ["ekeland", ev, "--epsilon", "0"],
                 ["ekeland", ev, "--lambda", "nan"]):
        assert main(argv) == EXIT_INPUT, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _drop_f(raw):
    del raw["evp"]["f"]


def _set(section, key, value):
    def mutate(raw):
        (raw[section] if section else raw)[key] = value
    return mutate


def _set_point(i, value):
    def mutate(raw):
        raw["X"]["points"][i] = value
    return mutate


def _set_map(key, value):
    def mutate(raw):
        raw["map"][key] = value
    return mutate


def _set_item(section, key, i, value):
    def mutate(raw):
        (raw[section] if section else raw)[key][i] = value
    return mutate


def _top_level_list(raw):
    return [1, 2]


@pytest.mark.parametrize("kind,mutate,pointer", [
    ("evp", _drop_f, "/evp/f"), ("evp", _set("evp", "f", "abc"), "/evp/f"),
    ("evp", _set(None, "X", []), "/X"), ("evp", _set(None, "evp", 5), "/evp"),
    ("evp", _set(None, "W", 5), "/W"), ("evp", _set(None, "nu", [[0, 1]]), "/nu"),
    ("evp", _set(None, "nu", 5), "/nu"),
    ("evp", _set(None, "nu", [[0, 1, "a"]]), "/nu"),
    ("evp", _set(None, "policy", [1, 2]), "/policy"),
    ("evp", _set("policy", "tol_strict", "abc"), "/policy/tol_strict"),
    ("evp", _set("policy", "horizon", "x"), "/policy/horizon"),
    ("plain-lipschitz", _set(None, "map", 5), "/map"),
    ("plain-lipschitz", _set_map("ladder", "abc"), "/map/ladder"),
    ("plain-lipschitz", _set_map("plain_graph", 5), "/map/plain_graph"),
    ("plain-lipschitz", _set(None, "mu", 5), "/mu"),
    ("plain-lipschitz", _set("mu", "kappa", "abc"), "/mu/kappa"),
    ("plain-lipschitz", _set("X", "points", [[]] * 20), "/X"),
    ("plain-lipschitz", _set_map("ladder", [0.0, float("nan")]), "/map/ladder"),
    ("plain-lipschitz", _set_map("embed", 5), "/map/embed"),
    ("plain-lipschitz", _set_map("embed", "Closed"), "/map/embed"),
    ("plain-lipschitz", _set(None, "scheme", 5), "/scheme"),
    ("param-monotone", _set_map("graph", 5), "/map/graph"),
    ("plain-lipschitz", _set_point(0, [1.0, 2.0]), "/X/points"),
    ("plain-lipschitz", _set_point(0, float("inf")), "/X"),
    ("plain-lipschitz", _set(None, "X", {"metric": "matrix",
                                          "dmatrix": [[0.0, 1.0], [1.0]]}),
     "/X/dmatrix"),
    ("plain-lipschitz", _set(None, "scheme", {"b_seq": "abc"}),
     "/scheme/b_seq"),
    ("plain-lipschitz", _set(None, "scheme", {"c_seq": ["x"]}),
     "/scheme/c_seq"),
    ("polyhedral-opt", _set("poly", "F_graph", {}), "/poly/F_graph/n_in"),
    ("polyhedral-opt", _set("poly", "C", 5), "/poly/C"),
    ("polyhedral-opt", _set("poly", "S", []), "/poly/S"),
    ("polyhedral-opt", _set("poly", "base", 5), "/poly/base"),
    ("polyhedral-opt", _set(None, "poly", 5), "/poly"),
    ("polyhedral-opt", _set("poly", "q", 2), "/poly/D/A"),
    ("polyhedral-opt", _set_item("poly", "base", 0, [0.0]), "/poly/base/0"),
    ("evp", _top_level_list, "/"),
    ("param-monotone", _set_item(None, "W", 0, [0, 10**9]), "/W/0"),
    ("param-monotone", _set_item(None, "W", 0, [0, -1]), "/W/0"),
    ("param-monotone", _set(None, "nu", [[0, 10**9, 1.0]]), "/nu/0"),
    ("evp", _set("policy", "seed", -1), "/policy/seed"),
    ("evp", _set("policy", "tol_strict", float("nan")), "/policy/tol_strict"),
    ("evp", _set("policy", "tol_strict", -1.0), "/policy/tol_strict"),
    ("evp", _set("policy", "horizon", -5), "/policy/horizon"),
    ("param-monotone", _set(None, "sequences", 5), "/sequences"),
    ("param-monotone", _set(None, "sequences", {"a": 5, "b": 5}),
     "/sequences/a"),
    ("param-monotone", _set(None, "sequences",
                            {"a": {"kind": "geometric", "ratio": 0.5},
                             "b": {"kind": "geometric", "first": 1.0,
                                   "ratio": 0.5}}), "/sequences/a/first"),
    ("plain-lipschitz", _set(None, "meta", 5), "/meta")],
    ids=["evp-f-missing", "evp-f-string", "X-list", "evp-int", "W-int",
         "nu-pair", "nu-int", "nu-string", "policy-list", "policy-tol-string",
         "policy-horizon-string", "map-int", "ladder-string", "plain-graph-int",
         "mu-int", "mu-kappa-string", "points-empty", "ladder-nan", "embed-int",
         "embed-capitalised", "scheme-int", "graph-int", "points-ragged",
         "points-inf", "dmatrix-ragged", "b_seq-string", "c_seq-string",
         "F_graph-empty", "C-int", "S-empty", "base-int", "poly-int", "q-2",
         "base0-short", "top-level-list", "W-index-huge", "W-index-negative",
         "nu-index-huge", "policy-seed-negative", "policy-tol-nan",
         "policy-tol-negative", "policy-horizon-negative", "sequences-int",
         "sequences-int-specs", "sequences-no-first", "meta-int"])
def test_malformed_instance_sections_exit_2(kind, mutate, pointer, tmp_path,
                                            capsys):
    raw = generate_instance(kind, min(20, SIZE_CAPS[kind]), 0)
    raw = mutate(raw) or raw
    path = str(tmp_path / "bad.json")
    save_instance(raw, path)
    capsys.readouterr()
    assert main(["load", path]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {pointer}: "), err
    assert err[0].count(": /") == 1, err        # one pointer per line


def test_commands_without_lps_never_import_scipy_optimize(plain_file):
    code = ("import sys\n"
            "import regkit.cli\n"
            f"assert regkit.cli.main(['load', {plain_file!r}]) == 0\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"


def test_other_exceptions_exit_3(plain_file, induct_file, tmp_path,
                                 monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_load", broken)
    assert main(["load", plain_file]) == EXIT_BUG
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError('boom')")
    assert "Traceback" in err
    # other subcommands keep their exit codes
    assert main(["regcheck", plain_file, "--setting",
                 "conventional"]) == EXIT_PASS
    assert main(["regcheck", plain_file + ".missing", "--setting",
                 "conventional"]) == EXIT_INPUT
    assert main(["no-such-command"]) == EXIT_INPUT
    raw = json.loads(Path(induct_file).read_text())
    raw["sequences"]["b"] = {"kind": "explicit", "table": [0.3, 0.3]}
    save_instance(raw, str(tmp_path / "bad.json"))
    assert main(["induct", str(tmp_path / "bad.json"), "--x", "0", "--y",
                 "0", "--t", "2.0"]) == EXIT_FAIL


def test_load_reports_to_stdout(plain_file, capsys):
    assert main(["load", plain_file]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "load"
    assert doc["summary"]["fail"] == 0


def test_global_flags_accepted_both_sides(plain_file, capsys):
    assert main(["--seed", "5", "load", plain_file]) == EXIT_PASS
    before = capsys.readouterr().out
    assert main(["load", plain_file, "--seed", "5"]) == EXIT_PASS
    after = capsys.readouterr().out
    assert before == after
    assert json.loads(before)["seed"] == 5


def test_out_flag_writes_deterministic_report(plain_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["load", plain_file, "--out", str(out1)]) == EXIT_PASS
    assert main(["load", plain_file, "--out", str(out2)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_and_demo_write_instances(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["gen", "--kind", "evp", "--size", "10",
                 "--out", str(out)]) == EXIT_PASS
    assert out.exists()
    assert main(["load", str(out)]) == EXIT_PASS
    capsys.readouterr()
    dm = tmp_path / "d.json"
    assert main(["demo", "--out", str(dm)]) == EXIT_PASS
    assert main(["load", str(dm)]) == EXIT_PASS


def test_gen_rejects_oversize(tmp_path):
    assert main(["gen", "--kind", "polyhedral-opt", "--size", "99",
                 "--out", str(tmp_path / "x.json")]) == EXIT_INPUT


def test_induct_certifies_and_fails(induct_file, tmp_path, capsys):
    assert main(["induct", induct_file, "--x", "0", "--y", "0",
                 "--t", "2.0"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    rows = {r["check_id"]: r for r in doc["rows"]}
    assert rows["induct/certified"]["verdict"] == "pass"
    # shrink the step budget below the actual chain steps: must fail
    raw = json.loads(Path(induct_file).read_text())
    raw["sequences"]["b"] = {"kind": "explicit", "table": [0.3, 0.3]}
    bad = tmp_path / "bad.json"
    save_instance(raw, str(bad))
    assert main(["induct", str(bad), "--x", "0", "--y", "0",
                 "--t", "2.0"]) == EXIT_FAIL


def test_regcheck_conventional(plain_file, capsys):
    assert main(["regcheck", plain_file, "--setting",
                 "conventional"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0
    assert any(r["check_id"] == "regcheck/agreement" for r in doc["rows"])


def test_ekeland_solve_and_verify(evp_file, capsys):
    assert main(["ekeland", evp_file]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    ids = {r["check_id"] for r in doc["rows"]}
    assert {"ekeland/solve", "ekeland/near", "ekeland/descent",
            "ekeland/stationary"} <= ids


def test_optcond_tasks_on_demo(demo_file, tmp_path, capsys):
    assert main(["optcond", demo_file, "--task", "cones",
                 "--validate"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    ids = {r["check_id"] for r in doc["rows"]}
    assert "optcond/tangent" in ids and "optcond/oracle-agreement" in ids
    assert main(["optcond", demo_file, "--task", "critical"]) == EXIT_PASS
    for task in ("multipliers", "cq", "claim2"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{task}-{tag}.json"
            assert main(["optcond", demo_file, "--task", task,
                         "--out", str(out)]) == EXIT_PASS, task
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], task


def test_run_plan(plain_file, capsys):
    assert main(["run", plain_file, "--plan",
                 "prop41_audit,t61_audit"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 0
    assert main(["run", plain_file, "--plan", "nonsense"]) == EXIT_INPUT


def test_reports_are_deterministic_across_commands(evp_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["ekeland", evp_file, "--out", str(a)]) == EXIT_PASS
    assert main(["ekeland", evp_file, "--out", str(b)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()
    # CSV export shares the determinism contract
    ac = tmp_path / "a.csv"
    bc = tmp_path / "b.csv"
    assert main(["ekeland", evp_file, "--out", str(ac)]) == EXIT_PASS
    assert main(["ekeland", evp_file, "--out", str(bc)]) == EXIT_PASS
    assert ac.read_bytes() == bc.read_bytes()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("argv, golden", [
    (["regcheck", "--setting", "conventional"],
     "plain_lipschitz_40_seed3_regcheck_conventional.json"),
    (["run", "--plan", "t61_audit,modulus_fit"],
     "plain_lipschitz_40_seed3_run_t61_modulus.json"),
])
def test_failing_conventional_reports_match_golden_bytes(argv, golden, tmp_path):
    # kappa scaled by 0.2: metric regularity, openness and Hölder all fail,
    # so each witness and each lhs/rhs pair is pinned byte for byte
    raw = generate_instance("plain-lipschitz", 40, 3)
    raw["mu"]["kappa"] *= 0.2
    inst, out = tmp_path / "inst.json", tmp_path / "report.json"
    save_instance(raw, str(inst))
    main([argv[0], str(inst), *argv[1:], "--out", str(out)])
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_modulus_fit_reads_the_run_tolerance(tmp_path):
    # d(y, F(x)) = 1e-9 counts as 0 under tol_strict = 1e-6, and x is at
    # distance 1 from F^{-1}(y), so no power modulus works: lam* = inf
    raw = {"version": 1, "policy": {"tol_strict": 1e-6},
           "X": {"metric": "euclidean", "points": [0.0, 1.0]},
           "Y": {"metric": "euclidean", "points": [0.0, 1e-9]},
           "map": {"plain_graph": [[0, 0], [1, 1]]},
           "mu": {"kind": "linear", "kappa": 1.0}, "W": [[0, 1]]}
    path, out = tmp_path / "tol.json", tmp_path / "report.json"
    save_instance(raw, str(path))
    for argv, row in ((["run", "--plan", "modulus_fit"], "modulus/tight"),
                      (["regcheck", "--setting", "conventional"],
                       "regcheck/modulus-fit")):
        assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == EXIT_FAIL
        rows = {r["check_id"]: r for r in json.loads(out.read_text())["rows"]}
        assert rows[row]["verdict"] == "fail" and rows[row]["margin"] == "inf"
        assert rows[row]["witness"] == [0, 1]
