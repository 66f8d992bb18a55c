"""Bad input never crashes the CLI: mutated instances and argv exit 0, 1 or 2.

Each instance mutant replaces one field (or one of the first two entries of
a list) of a generated instance, or of the demo, by one of ten values, then
runs `load` and one command for its kind. Exit 1 must come with a report
that has a failing row, and an instance's exit 2 with exactly one located
`error: /...` line. Values of 10^9 in size fields and loop counts run in
child processes under their own address-space limit.
"""
import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regkit import certifiers, cli
from regkit.instances import demo_polyopt_raw, generate_instance, save_instance

DROP = object()
VALUES = [DROP, "abc", 5, None, -1, [], {}, 10**9, True, [[[1]]]]
COMMANDS = {"plain-lipschitz": ["regcheck", "--setting", "conventional"],
            "param-monotone": ["regcheck", "--property", "regular"],
            "evp": ["ekeland"],
            "polyhedral-opt": ["optcond", "--task", "cq"],
            "demo": ["optcond", "--task", "cq"]}
BASES = {kind: demo_polyopt_raw() if kind == "demo"
         else generate_instance(kind, 6, 0) for kind in COMMANDS}
# the argv fuzz's {pm} file carries every input the criterion certifiers read
LINEAR = {"kind": "linear", "kappa": 0.5}
SCHEME = {"b": LINEAR, "m": {"kind": "linear", "kappa": 1.0},
          "b_seq": [1.0, 0.5, 0.25, 0.125], "c_seq": [0.5, 0.25, 0.0, 0.0]}


def _sites(value, path=()):
    """Paths to each field and to the first two entries of each list."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = list(enumerate(value))[:2]
    else:
        return
    for key, sub in items:
        yield path + (key,)
        yield from _sites(sub, path + (key,))


SITES = [(kind, path) for kind, raw in BASES.items() for path in _sites(raw)]


def _mutant(kind, path, value):
    raw = copy.deepcopy(BASES[kind])
    sec = raw
    for key in path[:-1]:
        sec = sec[key]
    if value is DROP:
        del sec[path[-1]]
    else:
        sec[path[-1]] = copy.deepcopy(value)
    return raw


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


def _check_exit(code, out, err):
    assert code in (0, 1, 2), (code, err)
    assert not any("Traceback" in line for line in err), err
    if code == 1:
        rows = json.loads(out)["rows"]
        assert any(r["verdict"] != "pass" for r in rows), rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def files(workdir):
    paths = {}
    for name, kind in (("pl", "plain-lipschitz"), ("pm", "param-monotone"),
                       ("evp", "evp"), ("demo", "demo")):
        paths[name] = str(workdir / f"{name}.json")
        raw = dict(BASES[kind], scheme=SCHEME) if name == "pm" else BASES[kind]
        save_instance(raw, paths[name])
    return paths


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(site=st.sampled_from(SITES), value=st.sampled_from(VALUES))
def test_instance_mutants_exit_0_1_or_2(workdir, site, value):
    kind, path = site
    inst = str(workdir / "mutant.json")
    save_instance(_mutant(kind, path, value), inst)
    cmd = COMMANDS[kind]
    for argv in (["load", inst], [cmd[0], inst, *cmd[1:]]):
        code, out, err = _run(argv)
        _check_exit(code, out, err)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: /") \
                and err[0].count(": /") == 1, err


# --t 1.0 is a level of the {pm} ladder
ARGV = [["certify", "{pm}", "--criterion", c, "--x", "{v}", "--y", "0", "--t", "1.0"]
        for c in certifiers.CRITERIA] + [
    ["certify", "{pl}", "--criterion", "free-t", "--x", "{v}", "--y", "0"],
    ["certify", "{pl}", "--criterion", "free-t", "--x", "0", "--y", "{v}"],
    ["regcheck", "{pl}", "--property", "local", "--x", "{v}"],
    ["regcheck", "{pm}", "--property", "local", "--y", "{v}"],
    ["ekeland", "{evp}", "--x0", "{v}"],
    ["ekeland", "{evp}", "--epsilon", "{v}"],
    ["ekeland", "{evp}", "--lambda", "{v}"],
    ["ekeland", "{evp}", "--verify-only", "{v}"],
    ["optcond", "{demo}", "--task", "{v}"],
    ["regcheck", "{pm}", "--property", "{v}"],
    ["run", "{pm}", "--plan", "{v}"],
    ["{v}", "{pm}"],
    ["load", "{pm}", "--horizon", "{v}"],
    ["load", "{pm}", "--seed", "{v}"],
    ["load", "{pm}", "--tol", "{v}"]]


# 19 x 6 cases, few enough for hypothesis to try every one
@settings(max_examples=130, deadline=None, derandomize=True)
@given(argv=st.sampled_from(ARGV),
       v=st.sampled_from(["0", "-1", "6", "1000000000", "nope", "nan"]))
def test_argv_mutants_exit_0_1_or_2(files, argv, v):
    code, out, err = _run([a.format(v=v, **files) for a in argv])
    _check_exit(code, out, err)
    if code == 2:       # argparse prints its usage, then "regkit ...: error:"
        assert err and "error: " in err[-1], err


_CHILD = """
import contextlib, io, json, sys
from regkit import certifiers, cli
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.append([code, err.getvalue()])
print(json.dumps(out))
"""


def _limit_memory():
    # far below the 7.45 GiB that one 10^9-float array would take
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_huge_sizes_exit_2_under_a_memory_limit(tmp_path):
    def case(kind, path, argv):
        f = str(tmp_path / f"{'-'.join(path)}.json")
        save_instance(_mutant(kind, path, 10**9), f)
        return [argv[0], f, *argv[1:]]

    evp = str(tmp_path / "evp.json")
    save_instance(BASES["evp"], evp)
    # a 1.5 MB file whose |X|x|Y| matrices would take 6.7 GiB each
    big = str(tmp_path / "big-map.json")
    line = {"metric": "euclidean", "points": list(range(30_000))}
    save_instance({"version": 1, "X": line, "Y": line, "map": {
        "plain_graph": [[i, i] for i in range(30_000)], "ladder": [0, 1, 2]}}, big)
    groups = [
        [case("polyhedral-opt", ("poly", k), ["optcond", "--task", "cq"])
         for k in ("n", "q", "r")],
        [case("evp", ("policy", "horizon"), ["ekeland"]),
         case("demo", ("policy", "cone_gamma_levels"),
              ["optcond", "--task", "cones", "--validate"]),
         ["ekeland", evp, "--horizon", str(10**9)], ["load", big]]]
    # one BLAS thread, so the limit does not depend on the number of cores
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    children = [subprocess.Popen(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=_limit_memory) for argvs in groups]
    for child, argvs in zip(children, groups):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        for argv, (code, msg) in zip(argvs, json.loads(out)):
            assert code == 2 and msg.startswith("error: /"), (argv, msg)
            assert "MemoryError" not in msg, (argv, msg)
            if argv[1] == big:
                assert msg.startswith("error: /map: ") and msg.count("\n") == 1, msg
