"""Command-line interface: exit codes, flag placement, deterministic output."""
import json
import os
import subprocess
import sys

import pytest

from regkit import cli
from regkit.cli import EXIT_BUG, EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from regkit.instances import (demo_polyopt_raw, generate_instance,
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
    # point indices outside the space (PointIndexError) and a NaN point
    # coordinate in the instance JSON (MetricError)
    pm, ev = str(tmp_path / "pm.json"), str(tmp_path / "e.json")
    assert main(["gen", "--kind", "param-monotone", "--size", "10",
                 "--seed", "3", "--out", pm]) == EXIT_PASS
    assert main(["gen", "--kind", "evp", "--size", "10", "--seed", "1",
                 "--out", ev]) == EXIT_PASS
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
                 ["load", nan_file]):
        assert main(argv) == EXIT_INPUT, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _drop_f(raw):
    del raw["evp"]["f"]


def _set(section, key, value):
    def mutate(raw):
        (raw[section] if section else raw)[key] = value
    return mutate


@pytest.mark.parametrize("mutate,pointer", [
    (_drop_f, "/evp/f"), (_set("evp", "f", "abc"), "/evp"),
    (_set(None, "X", []), "/X"), (_set(None, "evp", 5), "/evp"),
    (_set(None, "W", 5), "/W"), (_set(None, "nu", [[0, 1]]), "/nu"),
    (_set(None, "nu", 5), "/nu"), (_set(None, "nu", [[0, 1, "a"]]), "/nu"),
    (_set(None, "policy", [1, 2]), "/policy"),
    (_set("policy", "tol_strict", "abc"), "/policy/tol_strict"),
    (_set("policy", "horizon", "x"), "/policy/horizon")],
    ids=["evp-f-missing", "evp-f-string", "X-list", "evp-int", "W-int",
         "nu-pair", "nu-int", "nu-string", "policy-list", "policy-tol-string",
         "policy-horizon-string"])
def test_malformed_instance_sections_exit_2(mutate, pointer, tmp_path,
                                            capsys):
    raw = generate_instance("evp", 20, 0)
    mutate(raw)
    path = str(tmp_path / "bad.json")
    save_instance(raw, path)
    capsys.readouterr()
    assert main(["load", path]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {pointer}: "), err


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
    raw = json.loads(open(induct_file).read())
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
    raw = json.loads(open(induct_file).read())
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
