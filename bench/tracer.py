"""Spans around sigstream's public functions, installed from the benchmark's side.

The tracer replaces each target function with a wrapper wherever sigstream
holds a reference to it: in the defining module, in every module that
imported the name (``sigstream.learn.signature``), in module-level tables
(``learn._TRANSFORMS``) and on classes (``GridDomain.solve_poisson``).
``uninstall`` puts the originals back. Spans are kept in memory as
(name, start, end, parent, op id, attrs) and aggregated into per-layer
metrics; the layer is the span name's first component.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _signature_work(args, kwargs, result):
    stream, depth = args[0], args[1] if len(args) > 1 else kwargs["depth"]
    d = stream.dimension
    return {"coeffs": (stream.n_samples - 1) * sum(d**k for k in range(1, depth + 1))}


# (span name, module, attribute path, extractor of span attributes or None)
TARGETS = [
    ("streams.signature", "streams", "signature", _signature_work),
    ("streams.log_signature", "streams", "log_signature", None),
    ("streams.lead_lag", "streams", "lead_lag", None),
    ("streams.time_augment", "streams", "time_augment", None),
    ("streams.restrict", "streams", "restrict", None),
    ("streams.dp_distance_estimate", "streams", "dp_distance_estimate", None),
    ("streams.ingest_csv", "streams", "ingest_csv", lambda a, k, r: {"rows": r.n_samples}),
    ("tensor_algebra.tensor_log", "tensor_algebra", "tensor_log", None),
    ("lie_algebra.tensor_to_lie_coords", "lie_algebra", "tensor_to_lie_coords",
     lambda a, k, r: {"key": (r.dim, r.depth)}),
    ("logode.solve", "logode", "solve", None),
    ("logode.logode_step", "logode", "logode_step", None),
    ("logode.lie_extend_evaluate", "logode", "lie_extend_evaluate", None),
    ("development.develop", "development", "develop", None),
    ("development.expected_development", "development", "expected_development", None),
    ("expected_sig.grid_build", "expected_sig", "GridDomain.__init__",
     lambda a, k, r: {"points": a[0].n_interior}),
    ("expected_sig.solve_poisson", "expected_sig", "GridDomain.solve_poisson", None),
    ("expected_sig.solve_recurrence", "expected_sig", "solve_recurrence", None),
    ("expected_sig.mc_expected_sig", "expected_sig", "mc_expected_sig", lambda a, k, r: {"paths": r.paths}),
    ("expected_sig.contains", "expected_sig", "DiskDomain.contains", None),
    ("expected_sig.contains", "expected_sig", "PolygonDomain.contains", None),
    ("learn.featurize", "learn", "featurize", lambda a, k, r: {"rows": r.X.shape[0]}),
    ("learn.featurize_logsig", "learn", "featurize_logsig", None),
    ("learn.fit_lasso", "learn", "fit_lasso",
     lambda a, k, r: {"sweeps": r.n_iter, "converged": bool(r.converged)}),
    ("learn.classification_report", "learn", "classification_report", None),
    ("cli.main", "cli", "main", None),
]

ROOT = "bench.op"


class Tracer:
    def __init__(self, package):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._patches = []  # (container, key, original, wrapper)
        modules = [m for name, m in sys.modules.items() if name.startswith(package.__name__) and m]
        for name, module, path, extract in TARGETS:
            owner = getattr(package, module, None)
            if owner is None:  # e.g. sigstream.cli when the workload never imports it
                continue
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, extract)
            if classes:
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                self._patches.append((value, k, original, wrapper))

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, None)
            if extract is not None:
                spans[idx] = (name, start, end, parent, self.op_id, extract(args, kwargs, result))
            return result

        return wrapper

    def _apply(self, install):
        for container, key, original, wrapper in self._patches:
            value = wrapper if install else original
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    def install(self):
        self._apply(True)

    def uninstall(self):
        self._apply(False)

    def op(self, op_id, fn, *args):
        """Run one op under a root span carrying ``op_id``."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1, op_id, None)
            self.op_id = -1

    def write(self, path, origin):
        """Write the spans as JSON lines: name, start and end (s from origin), parent, op id."""
        with open(path, "w") as handle:
            for name, start, end, parent, op_id, _ in self.spans:
                row = [name, round(start - origin, 7), round(end - origin, 7), parent, op_id]
                handle.write(json.dumps(row) + "\n")


def self_times(spans):
    """Per span: duration minus the part covered by its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


LAYERS = (
    "streams", "tensor_algebra", "lie_algebra", "logode", "development",
    "expected_sig", "learn", "cli", "bench",
)
COUNTED = (  # functions reported with .calls
    "streams.signature", "streams.restrict", "streams.ingest_csv", "tensor_algebra.tensor_log",
    "lie_algebra.tensor_to_lie_coords", "logode.logode_step", "logode.lie_extend_evaluate",
    "development.develop", "expected_sig.solve_poisson", "expected_sig.contains",
    "learn.featurize", "learn.fit_lasso", "cli.main",
)
TIMED = (  # functions reported with .self_s
    "streams.signature", "streams.lead_lag", "streams.restrict", "streams.dp_distance_estimate",
    "streams.ingest_csv", "tensor_algebra.tensor_log", "lie_algebra.tensor_to_lie_coords",
    "logode.solve", "logode.logode_step", "logode.lie_extend_evaluate",
    "development.develop", "development.expected_development",
    "expected_sig.grid_build", "expected_sig.solve_poisson", "expected_sig.mc_expected_sig",
    "learn.featurize", "learn.featurize_logsig", "learn.fit_lasso", "learn.classification_report",
    "cli.main",
)


def layer_metrics(spans, cycles, op_walls):
    """Per-layer metrics of the window's traced ops, per cycle of the op mix.

    ``op_walls`` maps op id -> the op's wall time measured outside its root span.
    Setup spans (op id -1) only feed ``first_call_s``.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    op_self = defaultdict(float)
    first_call = {}
    for i, (name, start, end, parent, op_id, extra) in enumerate(spans):
        if name == "lie_algebra.tensor_to_lie_coords" and extra and extra["key"] not in first_call:
            first_call[extra["key"]] = end - start
        if op_id < 0:
            continue
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += end - start
        op_self[op_id] += own[i]
        for key, value in (extra or {}).items():
            if key != "key":
                attrs[name][key] += value
    per = 1.0 / max(cycles, 1)

    def ratio(amount, base):
        return amount / base if base > 0 else 0.0

    m = {name + ".calls": calls[name] * per for name in COUNTED}
    m.update({name + ".self_s": self_s[name] * per for name in TIMED})
    sig, csv, mc = "streams.signature", "streams.ingest_csv", "expected_sig.mc_expected_sig"
    grids, feats, fits = "expected_sig.grid_build", "learn.featurize", "learn.fit_lasso"
    m[sig + ".coeffs_per_s"] = ratio(attrs[sig]["coeffs"], self_s[sig])
    m[csv + ".rows_per_s"] = ratio(attrs[csv]["rows"], self_s[csv])
    m["lie_algebra.tensor_to_lie_coords.first_call_s"] = sum(first_call.values(), 0.0)
    m["expected_sig.grid_points"] = ratio(attrs[grids]["points"], calls[grids])
    m["expected_sig.mc.paths_per_s"] = ratio(attrs[mc]["paths"], total_s[mc])
    m[feats + ".rows_per_s"] = ratio(attrs[feats]["rows"], total_s[feats])
    m[fits + ".sweeps"] = ratio(attrs[fits]["sweeps"], calls[fits])
    m[fits + ".converged_frac"] = ratio(attrs[fits]["converged"], calls[fits])
    by_layer = defaultdict(float)
    for name, value in self_s.items():
        by_layer[name.split(".")[0]] += value
    m.update({layer + ".self_s": by_layer[layer] * per for layer in LAYERS})
    ratios = (ratio(op_self[op], wall) for op, wall in op_walls.items())
    m["trace.self_over_wall_max"] = max(ratios, default=0.0)
    return m
