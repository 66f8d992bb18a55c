"""regkit benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload optcond-rule --seed 1 --seconds 32 --trace 0

Run from the repository root. The seed fixes one round of items; the run
repeats the round back to back in one process, with the BLAS/OpenMP pools
pinned to one thread, until --seconds are used up. Each outcome is checked;
a failed check, an exception or a CLI exit code 2 counts the item as failed
and makes the process exit 1. The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: it runs each item of some rounds twice, untraced and with every
layer's public functions wrapped (bench/spans.py), then the round traced
once more to check that the traced counts repeat. A sidecar JSON with the
environment, per-item timings, layer shares and example spans goes to
.bench_out/.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:          # before numpy is imported
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009       # kept out of tuning; confirms later claims
SETUP_PROBES = 5
CAL_CHUNKS = 7             # calibration-loop chunks timed between items
REF_CHUNK_S = 0.25e-3      # a calibration chunk's time on the reference host
TRACE_PAIRED_SHARE = 0.6   # of --seconds, for untraced/traced item pairs
TRACE_REPEAT_SHARE = 0.25  # of --seconds, for re-running the round traced

# ROADMAP baselines the workloads stand for: (count, per, total, items, base)
BASELINES = {
    "optcond-rule": ("linsolve.solve_lp.calls", "problem", 9268, 11,
                     "9,268 LPs over the 11 criterion-11 problems"),
    "finite-audit": ("svmap.inverse_at_level_idx.calls", "map", 500190, 20,
                     "500,190 calls over 20 criterion-3 maps"),
}

END_TO_END = [("throughput_ref", "items/s"), ("item_ref_s.p50", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]

# span names whose per-item call counts and inclusive times are reported
CALLS = ["linsolve.solve_lp", "linsolve.feasible_point", "linsolve.max_support",
         "linsolve.strict_interior_point", "linsolve.in_cone_of",
         "polyhedra.is_empty", "polyhedra.tangent_cone",
         "polyhedra.fourier_motzkin", "polyhedra.second_order_sets",
         "optcond.second_order_graph_derivative", "optcond.plus_graphs",
         "svmap.inverse_at_level_idx", "svmap.delta_matrix",
         "metric.dist_row", "induction.fibre"]
BUSY = ["linsolve.solve_lp", "polyhedra.is_empty", "polyhedra.fourier_motzkin",
        "optcond.critical_directions", "optcond.find_multipliers",
        "optcond.check_multiplier_rule", "optcond.check_cq",
        "svmap.prop41_audit", "svmap.inverse_at_level_idx", "svmap.embed_plain",
        "svmap.dist_to_image_matrix", "svmap.plain_map_init",
        "metric.matrix_space_init", "conventional.equivalence_audit_T61",
        "conventional.estimate_best_modulus", "conventional.modulus_is_tight",
        "certifiers.equivalence_audit", "induction.verify_preconditions",
        "induction.run_induction", "ekeland.evp_solve", "ekeland.evp_verify",
        "ekeland.evp_oracle", "instances.load_instance",
        "instances.generate_instance", "reports.write"]
COUNTS = ["linsolve.solve_lp.status.optimal",
          "linsolve.solve_lp.status.infeasible",
          "linsolve.solve_lp.status.unbounded",
          "linsolve.solve_lp.status.other",
          "polyhedra.fourier_motzkin.rows_in",
          "polyhedra.fourier_motzkin.rows_out",
          "ekeland.evp_solve.iters", "reports.bytes"]
CLI_COMMANDS = ["load", "regcheck", "run", "ekeland", "optcond"]

PER_LAYER = (
    [(f"{n}.calls", "count") for n in CALLS]
    + [(f"{n}.busy_s", "s") for n in BUSY]
    + [(n, "count") for n in COUNTS]
    + [("linsolve.solve_lp.s_per_call", "s"),
       ("optcond.rule.samples_used_frac", "ratio"),
       ("optcond.find_multipliers.found_frac", "ratio"),
       ("metric.matrix_space_init.rss_delta_mb", "MB")]
    + [(f"cli.{c}.s_p50", "s") for c in CLI_COMMANDS]
    + [("trace.overhead_frac", "ratio")])


# -- environment --------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": f"{platform.system()} {platform.machine()}",
            "loop": "closed, 1 client, items back to back"}


# -- running items ------------------------------------------------------------

def run_item(wl, inp, tracer=None) -> dict:
    """Time one item, then check it. Any exception counts as a failure.

    The heap is collected before the clock starts, so garbage left by one
    item is not collected on the next item's time, as for a fresh process.
    """
    gc.collect()
    out = None
    t0 = perf_counter()
    try:
        if tracer is None:
            out = wl.run_item(inp)
        else:
            with tracer.span("item"):
                out = wl.run_item(inp)
    except Exception:
        dt = perf_counter() - t0
        problems = ["exception: " + traceback.format_exc(limit=-3)]
    else:
        dt = perf_counter() - t0
        try:
            problems = wl.check(inp, out)
        except Exception as e:
            problems = [f"check raised {e!r}"]
    rec = {"label": inp["label"], "s": dt,
           "problems": problems,
           "notes": out.get("notes", []) if out else []}
    if tracer is not None:
        rec.update(tracer.take())
        tracer.keep_spans = False
    return rec


def cal_chunk() -> float:
    """Seconds for a fixed pure-Python loop of about 0.25 ms. It uses no
    regkit code, so a change to regkit cannot change it; only the host's
    speed at that moment does."""
    t0 = perf_counter()
    s = 0
    for i in range(4000):
        s += i * i % 7
    return perf_counter() - t0


def calibrate() -> float:
    """The host's current speed: the median of CAL_CHUNKS chunk times."""
    return statistics.median(cal_chunk() for _ in range(CAL_CHUNKS))


def run_rounds(wl, seconds) -> list[dict]:
    """Repeat the round until `seconds` are used up. The first round always
    runs whole, so every item has a time; after it the run stops at the
    first item that ends past `seconds`, not at the end of its round.

    The calibration loop runs between items; each item records the mean of
    the calibrations just before and just after it as `cal`."""
    items, t0 = [], perf_counter()
    cal = calibrate()
    for r in itertools.count():
        for pos, inp in enumerate(wl.items):
            rec = run_item(wl, inp)
            after = calibrate()
            items.append(dict(rec, round=r, pos=pos, cal=(cal + after) / 2))
            cal = after
            if r and perf_counter() - t0 >= seconds:
                return items
        if perf_counter() - t0 >= seconds:
            return items


# -- metrics ------------------------------------------------------------------

def ref_times(items) -> list[float]:
    """Each item's seconds on the reference host: the mean over the run's
    repeats of its wall time scaled by REF_CHUNK_S / cal.

    Other tenants of a shared host slow every process on it, often by 1.5x
    for seconds to minutes at a time, so a whole run can fall in a slow
    stretch, and the host's clock speed drifts as well. The calibration
    loop slows alike at that moment, so an item's wall time over the
    calibration time around it is its cost in calibration chunks; that
    cost times REF_CHUNK_S is its time on a host where a chunk takes
    REF_CHUNK_S. The calibration loop runs no regkit code, so a change to
    regkit moves these times in the same proportion as wall time.

    The correction is partial: an item may slow more or less than the loop
    under the same load, so a run that is partly slow has two clusters of
    scaled times. A median jumps between them with the share of slow
    repeats; the mean moves with that share smoothly."""
    by_pos = {}
    for it in items:
        by_pos.setdefault(it["pos"], []).append(
            it["s"] * REF_CHUNK_S / it["cal"])
    return [statistics.fmean(v) for v in by_pos.values()]


def best_wall_times(items) -> list[float]:
    """Each item's best wall time over the run's repeats of the round."""
    best = {}
    for it in items:
        best[it["pos"]] = min(best.get(it["pos"], it["s"]), it["s"])
    return list(best.values())


def end_to_end(items, setup_samples) -> dict:
    """setup_samples holds (wall seconds, calibration) per set-up probe; each
    is scaled to the reference host as ref_times scales an item."""
    times = ref_times(items)
    passed = sum(not it["problems"] for it in items)
    return {"throughput_ref": len(times) / sum(times) * passed / len(items),
            "item_ref_s.p50": statistics.median(times),
            "setup_s": statistics.median(
                s * REF_CHUNK_S / cal for s, cal in setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics from the traced items, and the summed span stats."""
    n = len(traced)
    stats, counts = {}, {}
    for it in traced:
        for name, (calls, busy, self_s) in it["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += busy
            s[2] += self_s
        for key, v in it["counts"].items():
            counts[key] = counts.get(key, 0) + v
    zero = [0, 0.0, 0.0]
    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = stats.get(name, zero)[0] / n
    for name in BUSY:
        m[f"{name}.busy_s"] = stats.get(name, zero)[1] / n
    for key in COUNTS:
        m[key] = counts.get(key, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0
    lp = stats.get("linsolve.solve_lp", zero)
    m["linsolve.solve_lp.s_per_call"] = ratio(lp[1], lp[0])
    m["optcond.rule.samples_used_frac"] = ratio(
        counts.get("optcond.rule.samples_used", 0),
        counts.get("optcond.rule.samples_requested", 0))
    m["optcond.find_multipliers.found_frac"] = ratio(
        counts.get("optcond.find_multipliers.found", 0),
        stats.get("optcond.find_multipliers", zero)[0])
    m["metric.matrix_space_init.rss_delta_mb"] = ratio(
        counts.get("metric.matrix_space_init.rss_delta_mb", 0.0),
        stats.get("metric.matrix_space_init", zero)[0])
    for c in CLI_COMMANDS:
        times = [it["s"] for it in untraced if it["label"] == c]
        m[f"cli.{c}.s_p50"] = statistics.median(times) if times else 0.0
    m["trace.overhead_frac"] = ratio(sum(it["s"] for it in traced),
                                     sum(it["s"] for it in untraced)) - 1.0
    return m, stats


def layer_shares(traced, stats) -> dict:
    """Self time per layer as a share of traced item time. Time outside
    every wrapped function (CLI parsing, report assembly, the workload's
    own glue) is the `item` span's self time."""
    total = sum(it["s"] for it in traced)
    shares = {}
    for name, (_, _, self_s) in stats.items():
        layer = "unwrapped" if name == "item" else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + self_s / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def unstable_counts(first, repeat) -> list[str]:
    """Integer counts that differ between two traced runs of one item."""
    bad = set()
    for a, b in zip(first, repeat):
        ca = {f"{k}.calls": v[0] for k, v in a["stats"].items()}
        cb = {f"{k}.calls": v[0] for k, v in b["stats"].items()}
        ca.update({k: v for k, v in a["counts"].items() if isinstance(v, int)})
        cb.update({k: v for k, v in b["counts"].items() if isinstance(v, int)})
        bad |= {k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k)}
    return sorted(bad)


def baseline_check(workload, metrics) -> dict | None:
    if workload not in BASELINES:
        return None
    key, per, total, n, base = BASELINES[workload]
    ratio = metrics[key] / (total / n)
    return {"metric": key, "per": per, "value": metrics[key],
            "baseline": total / n, "base": base, "ratio": ratio,
            "drifted": not 0.5 <= ratio <= 2.0}


# -- set-up -------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process to its first item being ready,
    and the mean of the calibrations the probe made at its start and when
    ready (see ref_times)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    dt = perf_counter() - t0
    proc.stdout.read()
    proc.wait(timeout=170)
    word, *cal = line.split()
    if word != "ready" or len(cal) != 2 or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return dt, statistics.fmean(map(float, cal))


# -- main ---------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["optcond-rule", "finite-audit", "cli-corpus"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; "
                        f"{HELD_OUT_SEED} is held out to confirm claims)")
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cal_start = calibrate() if args.setup_probe else None
    src = ROOT / "src"
    if not (src / "regkit" / "__init__.py").is_file():
        print(f"error: no regkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", cal_start, calibrate(), flush=True)
            return 0
        if args.trace:
            return traced_run(args, wl)
        return timed_run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, items, metrics, units, sidecar) -> int:
    failed = sum(bool(it["problems"]) for it in items)
    notes = {}
    for it in items:
        for note in it["notes"]:
            notes[note] = notes.get(note, 0) + 1
    sidecar.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   env=environment(), metrics=metrics, notes=notes,
                   failures=[it for it in items if it["problems"]][:20])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(sidecar, indent=1, default=str) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(items)} items, "
          f"{failed} failed (fail_frac {failed / len(items):.4g})")
    for note, n in notes.items():
        print(f"  note ({n} times): {note}")
    for it in [it for it in items if it["problems"]][:5]:
        print(f"  failed item {it['label']}: {it['problems'][0]}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    print(f"  env {json.dumps(sidecar['env'], sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(items),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


def timed_run(args, wl) -> int:
    items = run_rounds(wl, args.seconds)
    setup = [probe_setup(args.workload, args.seed)
             for _ in range(SETUP_PROBES)]
    metrics = end_to_end(items, setup)
    wall = best_wall_times(items)
    cal = statistics.median(it["cal"] for it in items)
    wall_metrics = {"throughput": len(wall) / sum(wall),
                    "item_s.p50": statistics.median(wall)}
    print(f"wall clock, from each item's best time: throughput "
          f"{wall_metrics['throughput']:.6g} items/s, item_s.p50 "
          f"{wall_metrics['item_s.p50']:.6g} s; calibration chunk "
          f"{cal * 1e3:.4g} ms (reference {REF_CHUNK_S * 1e3:g} ms)")
    sidecar = {"setup_samples": [{"s": s, "cal_s": c} for s, c in setup],
               "wall": wall_metrics,
               "cal_median_s": cal, "items": [
                   {"label": it["label"], "round": it["round"],
                    "pos": it["pos"], "s": it["s"], "cal_s": it["cal"]}
                   for it in items]}
    times = [it["s"] for it in items]
    if len(times) >= 100:
        # the highest percentile with at least ten samples beyond it
        sidecar["item_s.p90"] = statistics.quantiles(
            times, n=10, method="inclusive")[-1]
        print(f"item_s.p90 {sidecar['item_s.p90']:.6g} s "
              f"(n={len(times)} items)")
    return report(args, items, metrics, dict(END_TO_END), sidecar)


def traced_run(args, wl) -> int:
    from spans import Tracer

    tracer = Tracer()
    tracer.keep_spans = True
    untraced, traced, t0 = [], [], perf_counter()
    # each item runs untraced and traced back to back, alternating which
    # goes first, so a change in machine speed hits both sides alike
    for r in itertools.count():
        for pos, inp in enumerate(wl.items):
            for with_trace in ((False, True) if (r + pos) % 2 else
                               (True, False)):
                if with_trace:
                    with tracer.installed():
                        rec = run_item(wl, inp, tracer)
                    traced.append(dict(rec, round=r, pos=pos))
                else:
                    untraced.append(dict(run_item(wl, inp), round=r, pos=pos))
        if perf_counter() - t0 >= TRACE_PAIRED_SHARE * args.seconds:
            break
    repeat, t0 = [], perf_counter()
    with tracer.installed():
        for inp in wl.items:
            repeat.append(run_item(wl, inp, tracer))
            if perf_counter() - t0 >= TRACE_REPEAT_SHARE * args.seconds:
                break
    metrics, stats = per_layer(untraced, traced)
    unstable = unstable_counts(traced, repeat)
    shares = layer_shares(traced, stats)
    base = baseline_check(args.workload, metrics)
    print("layer shares of traced item time (self time): " + ", ".join(
        f"{k} {v:.1%}" for k, v in shares.items()))
    print(f"counts repeated on {len(repeat)} re-traced items; "
          f"not repeating (kept out of claims): {unstable or 'none'}")
    if base:
        print(f"baseline: {base['metric']} per {base['per']} "
              f"{base['value']:.6g} vs {base['baseline']:.6g} "
              f"({base['base']}), ratio {base['ratio']:.3f}"
              + (" -- DRIFTED from the acceptance workload"
                 if base["drifted"] else ""))
    sidecar = {"layer_shares": shares, "unstable_counts": unstable,
               "baseline": base,
               "span_totals": {k: {"calls": v[0], "busy_s": v[1],
                                   "self_s": v[2]} for k, v in stats.items()},
               "spans_first_item": tracer.spans,
               "items": [{"label": it["label"], "round": it["round"],
                          "s": it["s"], "counts": it["counts"],
                          "calls": {k: v[0] for k, v in it["stats"].items()}}
                         for it in traced]}
    return report(args, untraced + traced + repeat, metrics, dict(PER_LAYER),
                  sidecar)


if __name__ == "__main__":
    sys.exit(main())
