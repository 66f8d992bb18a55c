"""Tests of the benchmark itself: its checkers, its seeding, its names.

    python3 -m pytest -q bench/tests
"""
import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CliCorpus, FiniteAudit, OptcondRule  # noqa: E402


def canonical_bytes(value) -> bytes:
    """Stable serialization of generated inputs."""
    def plain(v):
        return v.tolist() if hasattr(v, "tolist") else str(v)
    return json.dumps(value, sort_keys=True, default=plain).encode()


# -- checkers count corrupted outcomes as failures ----------------------------

@pytest.fixture(scope="module")
def finite():
    wl = FiniteAudit(3, None)
    inp = wl.items[2]
    return wl, inp, wl.run_item(inp)


@pytest.fixture(scope="module")
def optcond_demo():
    wl = OptcondRule(3, None)
    inp = wl.items[0]
    return wl, inp, wl.run_item(inp)


@pytest.fixture
def corpus(tmp_path):
    return CliCorpus(3, tmp_path)


def test_finite_audit_outcome_passes_and_flips_fail(finite):
    wl, inp, out = finite
    assert wl.check(inp, out) == []
    for key in ("t61_agree", "equiv_agree", "certified", "witness_in_zero"):
        bad = dict(out, **{key: False})
        assert wl.check(inp, bad), key
    bad = copy.deepcopy(out)
    bad["prop41"]["iii"] = "fail"
    assert wl.check(inp, bad)


def test_optcond_rule_outcome_passes_and_corruptions_fail(optcond_demo):
    wl, inp, out = optcond_demo
    assert wl.check(inp, out) == []
    found = next(i for i, t in enumerate(out["triples"]) if t["found"])
    for change in ({"holds": False}, {"margin": -1e-6},
                   {"cq": True, "v_norm1": 0.0}):
        bad = copy.deepcopy(out)
        bad["triples"][found].update(change)
        assert wl.check(inp, bad), change
    assert wl.check(inp, {"n_trips": 0, "triples": []})
    # a miss at sampling resolution is a verdict, as in criterion 11
    assert wl.check(inp, dict(out, triples=[{"found": False}])) == []


def test_cli_corpus_changed_byte_flipped_row_and_exit_2_fail(corpus):
    inp = corpus.items[1]       # regcheck --setting conventional
    out = corpus.run_item(inp)
    assert out["code"] in (0, 1) and corpus.check(inp, out) == []
    changed = bytearray(out["report"])
    changed[-3] ^= 1
    assert corpus.check(inp, dict(out, report=bytes(changed)))
    assert corpus.check(inp, dict(out, code=2))

    doc = json.loads(out["report"])
    row = next(r for r in doc["rows"] if r["check_id"] == "regcheck/agreement")
    row["verdict"] = "fail"
    corpus.first_report.clear()           # judge the flipped row on its own
    assert corpus.check(inp, dict(out, report=json.dumps(doc).encode()))

    missing = dict(inp, argv=["load", str(corpus.corpus / "absent.json"),
                              "--out", str(inp["out"])])
    res = corpus.run_item(missing)
    assert res["code"] == 2 and corpus.check(missing, res)


def test_ref_times_undo_host_slowness_and_take_the_mean():
    ref = run.REF_CHUNK_S
    items = [{"pos": 0, "s": 3.0, "cal": ref},      # host at reference speed
             {"pos": 0, "s": 6.0, "cal": 2 * ref},  # host twice as slow
             {"pos": 0, "s": 7.5, "cal": 2 * ref},  # item slower than host
             {"pos": 1, "s": 0.5, "cal": 1.25 * ref}]
    assert run.ref_times(items) == pytest.approx([3.25, 0.4])


def test_setup_s_is_the_median_of_scaled_probes():
    ref = run.REF_CHUNK_S
    items = [{"pos": 0, "s": 1.0, "cal": ref, "problems": []}]
    probes = [(0.8, ref), (1.8, 2 * ref), (0.5, 0.5 * ref), (3.0, ref)]
    assert run.end_to_end(items, probes)["setup_s"] == pytest.approx(0.95)


def test_exception_in_an_item_counts_as_failed():
    class Broken:
        def run_item(self, inp):
            raise RuntimeError("boom")

        def check(self, inp, out):
            return []
    rec = run.run_item(Broken(), {"label": "broken"})
    assert rec["problems"] and "boom" in rec["problems"][0]


# -- generation depends only on the seed --------------------------------------

@pytest.mark.parametrize("cls", [OptcondRule, FiniteAudit])
def test_items_depend_only_on_the_seed(cls):
    first = canonical_bytes(cls(11, None).items)
    assert canonical_bytes(cls(11, None).items) == first
    assert canonical_bytes(cls(12, None).items) != first


def test_cli_corpus_bytes_depend_only_on_the_seed(tmp_path):
    def corpus_bytes(seed, sub):
        c = CliCorpus(seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted(c.corpus.iterdir())}
    a = corpus_bytes(11, "a")
    assert corpus_bytes(11, "b") == a
    other = corpus_bytes(12, "c")
    assert all(other[name] != a[name] for name in a
               if name != "polyhedral-opt.json") and other != a


# -- names agree with BENCHMARK.json; tracing leaves regkit as it was ---------

def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == ["optcond-rule", "finite-audit", "cli-corpus"]


def test_tracer_wraps_imported_names_and_restores_them():
    from regkit import optcond, polyhedra
    original = polyhedra.tangent_cone
    assert optcond.tangent_cone is original
    tr = Tracer()
    tr.install()
    try:
        assert optcond.tangent_cone is polyhedra.tangent_cone is not original
        polyhedra.Polyhedron.orthant(2).is_empty()
        counts = tr.take()
        assert counts["stats"]["polyhedra.is_empty"][0] == 1
        assert counts["stats"]["linsolve.solve_lp"][0] == 1
        assert counts["counts"]["linsolve.solve_lp.status.optimal"] == 1
    finally:
        tr.uninstall()
    assert optcond.tangent_cone is original is polyhedra.tangent_cone
