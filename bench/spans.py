"""Spans and counts at regkit's module boundaries, recorded from outside.

`Tracer.install()` replaces each public function named in `POINTS` with a
wrapper that times the call and counts it. A function is replaced wherever
a regkit module holds it: as a module attribute, as a class attribute, and
under the names other regkit modules imported it by (`optcond.tangent_cone`
is `polyhedra.tangent_cone`). `uninstall()` puts the originals back.

Per call the wrapper adds to in-memory aggregates: calls, inclusive time
(`busy`) and self time, which is the inclusive time minus the time of the
spans nested inside it. Raw spans (name, start, end, parent) are kept only
for the first item traced, as an example timeline for the sidecar file.
"""
from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from regkit import (certifiers, conventional, ekeland, induction, instances,
                    linsolve, metric, optcond, polyhedra, reports, svmap)

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _lp_status(tr, res, args, kwargs):
    tr.count("linsolve.solve_lp.status." + _STATUS.get(res.status, "other"))


def _fm_rows(tr, res, args, kwargs):
    tr.count("polyhedra.fourier_motzkin.rows_in", len(args[0]))
    tr.count("polyhedra.fourier_motzkin.rows_out", len(res[1]))


def _rule_samples(tr, res, args, kwargs):
    requested = kwargs.get("n_samples", args[3] if len(args) > 3 else 32)
    tr.count("optcond.rule.samples_requested", requested)
    tr.count("optcond.rule.samples_used", res.n_samples)


def _found(tr, res, args, kwargs):
    tr.count("optcond.find_multipliers.found", res is not None)


def _evp_iters(tr, res, args, kwargs):
    tr.count("ekeland.evp_solve.iters", res.n_iter)


def _report_bytes(tr, res, args, kwargs):
    with open(args[1], "rb") as fh:
        tr.count("reports.bytes", len(fh.read()))


# (span name, owner, attribute, hook run on the result)
POINTS = [
    ("linsolve.solve_lp", linsolve, "solve_lp", _lp_status),
    ("linsolve.feasible_point", linsolve, "feasible_point", None),
    ("linsolve.max_support", linsolve, "max_support", None),
    ("linsolve.strict_interior_point", linsolve, "strict_interior_point", None),
    ("linsolve.in_cone_of", linsolve, "in_cone_of", None),
    ("polyhedra.is_empty", polyhedra.Polyhedron, "is_empty", None),
    ("polyhedra.tangent_cone", polyhedra, "tangent_cone", None),
    ("polyhedra.fourier_motzkin", polyhedra, "fourier_motzkin", _fm_rows),
    ("polyhedra.second_order_sets", polyhedra, "second_order_sets", None),
    ("optcond.critical_directions", optcond, "critical_directions", None),
    ("optcond.find_multipliers", optcond, "find_multipliers", _found),
    ("optcond.check_multiplier_rule", optcond, "check_multiplier_rule",
     _rule_samples),
    ("optcond.check_cq", optcond, "check_cq", None),
    ("optcond.second_order_graph_derivative", optcond,
     "second_order_graph_derivative", None),
    ("optcond.plus_graphs", optcond.OptInstance, "F_plus", None),
    ("optcond.plus_graphs", optcond.OptInstance, "G_plus", None),
    ("svmap.prop41_audit", svmap, "prop41_audit", None),
    ("svmap.inverse_at_level_idx", svmap.ParamSetValuedMap,
     "inverse_at_level_idx", None),
    ("svmap.embed_plain", svmap, "embed_plain", None),
    ("svmap.dist_to_image_matrix", svmap.PlainSetValuedMap,
     "dist_to_image_matrix", None),
    ("svmap.plain_map_init", svmap.PlainSetValuedMap, "__post_init__", None),
    ("svmap.delta_matrix", svmap.ParamSetValuedMap, "delta_matrix", None),
    ("metric.dist_row", metric.FiniteMetricSpace, "dist_row", None),
    ("conventional.equivalence_audit_T61", conventional,
     "equivalence_audit_T61", None),
    ("conventional.estimate_best_modulus", conventional,
     "estimate_best_modulus", None),
    ("conventional.modulus_is_tight", conventional, "modulus_is_tight", None),
    ("certifiers.equivalence_audit", certifiers, "equivalence_audit", None),
    ("induction.verify_preconditions", induction, "verify_preconditions", None),
    ("induction.run_induction", induction, "run_induction", None),
    ("induction.fibre", induction.LevelMap, "fibre", None),
    ("ekeland.evp_solve", ekeland, "evp_solve", _evp_iters),
    ("ekeland.evp_verify", ekeland, "evp_verify", None),
    ("ekeland.evp_oracle", ekeland, "evp_oracle", None),
    ("instances.load_instance", instances, "load_instance", None),
    ("instances.generate_instance", instances, "generate_instance", None),
    ("reports.write", reports.Report, "write", _report_bytes),
]


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.keep_spans = False
        self._stack: list[list] = []      # [span index, child time]
        self._saved: list[tuple] = []     # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def count(self, key: str, n=1):
        self.counts[key] += n

    def _enter(self):
        t0 = perf_counter()
        idx = -1
        if self.keep_spans:
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([None, t0, None, parent])
        self._stack.append([idx, 0.0])
        return t0

    def _exit(self, name: str, t0: float):
        t1 = perf_counter()
        idx, child = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        s = self.stats[name]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if idx >= 0:
            self.spans[idx][0] = name
            self.spans[idx][2] = t1

    @contextmanager
    def span(self, name: str):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def take(self) -> dict:
        """Return and reset the aggregates gathered since the last take."""
        out = {"stats": {k: list(v) for k, v in self.stats.items()},
               "counts": dict(self.counts)}
        self.stats.clear()
        self.counts.clear()
        return out

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._exit(name, t0)
            if hook is not None:
                hook(tracer, res, args, kwargs)
            return res
        return wrapper

    def _wrap_space_init(self, fn):
        """Matrix-metric spaces only: their init runs the n^3 triangle
        audit. Memory is the tracemalloc peak of the call, which counts
        numpy buffers."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(space):
            if space.metric != "matrix":
                return fn(space)
            tracemalloc.start()
            t0 = tracer._enter()
            try:
                return fn(space)
            finally:
                tracer._exit("metric.matrix_space_init", t0)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.count("metric.matrix_space_init.rss_delta_mb",
                             peak / 2 ** 20)
        return wrapper

    def _replace(self, owner, attr, new):
        """Point every regkit reference to owner.attr at `new`."""
        old = owner.__dict__[attr]
        holders = [owner] if isinstance(owner, type) else [
            m for n, m in sys.modules.items()
            if n == "regkit" or n.startswith("regkit.")]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is old:
                    self._saved.append((holder, key, old))
                    setattr(holder, key, new)

    def install(self):
        for name, owner, attr, hook in POINTS:
            self._replace(owner, attr,
                          self._wrap(name, owner.__dict__[attr], hook))
        init = metric.FiniteMetricSpace.__dict__["__post_init__"]
        self._replace(metric.FiniteMetricSpace, "__post_init__",
                      self._wrap_space_init(init))

    def uninstall(self):
        for holder, key, old in reversed(self._saved):
            setattr(holder, key, old)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
