"""The benchmark's four workloads: inputs built from a seed, a fixed op mix, and output checks.

A workload object is built once per process (the inputs are part of set-up).
``call(kind, variant, op_id)`` runs one op and returns plain arrays, dicts or
text; ``check`` compares that output with an oracle and raises CheckFailed.
Oracles are computed after the timed window, once per input variant.

Library functions are always reached through their module
(``learn.featurize``), so that the tracer's wrappers see every call.

Every op kind's share of a cycle is fixed so that the cumulative shares,
ordered by latency, put the 50th and 90th percentiles inside one kind's band
(or a band of kinds with equal latency) and not on a border between two kinds.
The band edges are noted next to each mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from pathlib import Path

import numpy as np

import oracles
from oracles import close, require

SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def spread(mix):
    """One cycle of op kinds with each kind spaced evenly through it."""
    slots = []
    for order, (kind, count) in enumerate(mix.items()):
        slots.extend(((i + 0.5) / count, order, kind) for i in range(count))
    return [kind for _, _, kind in sorted(slots)]


def smooth_driver(rng, segments):
    """A seeded smooth 2-D path on [0, 1]: a sine, a cosine and a drift, starting at 0."""
    t = np.linspace(0.0, 1.0, segments + 1)
    amp, freq = rng.uniform(0.4, 0.8, 2), rng.uniform(3.0, 6.0, 2)
    phase, drift = rng.uniform(0.0, 2 * np.pi, 2), rng.uniform(-0.4, 0.4, 2)
    path = np.column_stack(
        [
            amp[0] * np.sin(freq[0] * t + phase[0]) + drift[0] * t,
            amp[1] * np.cos(freq[1] * t + phase[1]) + drift[1] * t,
        ]
    )
    return t, path - path[0]


def random_walk(rng, samples, dim, scale=1.0):
    """Brownian-scaled random walk on [0, 1] with ``samples`` points."""
    steps = rng.standard_normal((samples - 1, dim)) * scale / math.sqrt(samples - 1)
    return np.linspace(0.0, 1.0, samples), np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])


class Workload:
    name = ""
    mix: dict = {}  # op kind -> ops per cycle
    variants: dict = {}  # op kind -> number of distinct inputs, used in turn

    def __init__(self, sg, seed, tiny, workdir):
        self.sg = sg  # the sigstream package
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        self._refs = {}

    def rng(self, tag, index=0):
        entropy = [self.seed, zlib.crc32(tag.encode()), index]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def op_seed(self, tag, index):
        return int(self.rng(tag, index).integers(2**31))

    def cycle(self):
        return spread(self.mix)

    def call(self, kind, variant, op_id):
        return getattr(self, "op_" + kind)(variant, op_id)

    def check(self, kind, variant, op_id, out):
        getattr(self, "check_" + kind)(variant, op_id, out)

    def ref(self, key, build):
        """Oracle value for ``key``, built on first use (after the timed window)."""
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def health(self):
        """Numerical health numbers gathered by the checks (reported in traced runs);
        zero where the workload solves no linear log-ODE."""
        return {"logode.max_err": 0.0}


# -- features -----------------------------------------------------------------------


class Features(Workload):
    """In-memory signature features: Chen prefix kernels, lead-lag, tensor_log, the warm
    Lyndon projection and LASSO sweeps; no file I/O, no log-ODE, no expected signature."""

    name = "features"
    # latency bands: none/time/dp ~10-20 ms [0, 30%], logsig ~25 ms [30, 70%] holds p50,
    # leadlag and longsig ~90 ms [70, 97.5%] hold p90, lasso [97.5, 100%]
    mix = {
        "feat_none": 4,
        "feat_time": 4,
        "dp": 4,
        "logsig": 16,
        "feat_leadlag": 5,
        "longsig": 6,
        "lasso": 1,
    }
    variants = {
        "feat_none": 3,
        "feat_time": 3,
        "feat_leadlag": 3,
        "logsig": 3,
        "dp": 2,
        "longsig": 2,
        "lasso": 2,
    }
    DEPTH = 4
    # (transform, depth) of the two LASSO inputs: 85 lead-lag or 40 time-augmented columns.
    # Time-augmented depth-4 columns (121) are left out: over 20 seeds their fits took
    # 370 to 5900 sweeps, and 2 did not converge in 10000 (see CHANGES.md).
    LASSO = (("leadlag", 3), ("time", 3))

    def __init__(self, sg, seed, tiny, workdir):
        super().__init__(sg, seed, tiny, workdir)
        learn, streams = sg.learn, sg.streams
        per_class, steps = (10, 16) if tiny else (50, 64)
        self.batches = [
            learn.two_class_streams(per_class, steps, 0.7, self.op_seed("batch", v))[0]
            for v in range(3)
        ]
        n_long = 2_000 if tiny else 100_000
        self.long = [streams.Stream(*random_walk(self.rng("long", v), n_long, 2)) for v in range(2)]
        n_dp = 65 if tiny else 257
        self.dp_pairs = [
            tuple(streams.Stream(*random_walk(self.rng("dp", 2 * v + i), n_dp, 2)) for i in range(2))
            for v in range(2)
        ]
        rows = 60 if tiny else 250
        self.lasso = []
        for v, (transform, depth) in enumerate(self.LASSO):
            train, y = learn.two_class_streams(rows, 64, 0.7, self.op_seed("lasso-train", v))
            test, yt = learn.two_class_streams(rows, 64, 0.7, self.op_seed("lasso-test", v))
            X = learn.featurize(train, depth, transform)
            y = y.astype(float)
            lam = 0.05 * learn.lasso_max_penalty(X, y)
            self.lasso.append((X, y, learn.featurize(test, depth, transform), yt, lam))

    def _features(self, variant, transform):
        return self.sg.learn.featurize(self.batches[variant], self.DEPTH, transform).X

    def op_feat_none(self, variant, op_id):
        return self._features(variant, "none")

    def op_feat_time(self, variant, op_id):
        return self._features(variant, "time")

    def op_feat_leadlag(self, variant, op_id):
        return self._features(variant, "leadlag")

    def op_logsig(self, variant, op_id):
        return self.sg.learn.featurize_logsig(self.batches[variant], self.DEPTH).X

    def op_longsig(self, variant, op_id):
        return np.concatenate(self.sg.streams.signature(self.long[variant], self.DEPTH).levels)

    def op_dp(self, variant, op_id):
        a, b = self.dp_pairs[variant]
        return self.sg.streams.dp_distance_estimate(a, b, 2.0, 6).estimates

    def op_lasso(self, variant, op_id):
        learn = self.sg.learn
        X, y, Xt, yt, lam = self.lasso[variant]
        model = learn.fit_lasso(X, y, lam)
        scores = model.predict(Xt)
        report = learn.classification_report(scores, yt)
        return {"scores": scores, "converged": model.converged, "auc": report.auc}

    # -- checks

    def _signature_rows(self, variant, transform):
        def build():
            batch = self.batches[variant]
            if transform == "none":
                inc = np.stack([np.diff(s.points, axis=0) for s in batch])
            elif transform == "time":
                inc = np.stack([oracles.time_augmented_increments(s.times, s.points) for s in batch])
            else:
                inc = np.stack([oracles.lead_lag_increments(s.points) for s in batch])
            return np.hstack(oracles.chen_levels(inc, self.DEPTH))

        return self.ref(("sig", variant, transform), build)

    def check_feat_none(self, variant, op_id, out):
        close(out, self._signature_rows(variant, "none"), 1e-10, "featurize none")

    def check_feat_time(self, variant, op_id, out):
        close(out, self._signature_rows(variant, "time"), 1e-10, "featurize time")

    def check_feat_leadlag(self, variant, op_id, out):
        close(out, self._signature_rows(variant, "leadlag"), 1e-10, "featurize leadlag")

    def check_logsig(self, variant, op_id, out):
        # exp of the Lie element rebuilt from the Lyndon coordinates is the signature
        def build():
            la, ta = self.sg.lie_algebra, self.sg.tensor_algebra
            rows = []
            for values in out[:, 1:]:
                lie = la.LieCoordinates(2, self.DEPTH, values).to_tensor()
                rows.append(np.concatenate(ta.tensor_exp(lie, assume_lie=True).levels))
            return np.array(rows)

        require(bool(np.all(out[:, 0] == 1.0)), "featurize_logsig: constant column is not 1")
        rebuilt = self.ref(("logsig", variant, out.tobytes()), build)
        close(rebuilt, self._signature_rows(variant, "none"), 1e-9, "featurize_logsig exp")

    def check_longsig(self, variant, op_id, out):
        # Chen's identity on the two halves of the stream
        def build():
            streams, ta = self.sg.streams, self.sg.tensor_algebra
            s = self.long[variant]
            mid = s.n_samples // 2
            a = streams.Stream(s.times[: mid + 1], s.points[: mid + 1])
            b = streams.Stream(s.times[mid:], s.points[mid:])
            joint = ta.tensor_mul(streams.signature(a, self.DEPTH), streams.signature(b, self.DEPTH))
            return np.concatenate(joint.levels)

        close(out, self.ref(("chen", variant), build), 1e-9, "long signature vs Chen halves")
        points = self.long[variant].points
        close(out[1:3], points[-1] - points[0], 1e-12, "long signature level 1")

    def check_dp(self, variant, op_id, out):
        def build():
            a, b = self.dp_pairs[variant]
            return oracles.dp_profile(a.times, a.points, b.times, b.points, 2.0, 6)

        close(out, self.ref(("dp", variant), build), 1e-9, "dp profile")

    def check_lasso(self, variant, op_id, out):
        yt = self.lasso[variant][3]
        require(out["converged"] is True, "LASSO did not converge")
        held_out = oracles.auc(out["scores"], yt)
        require(held_out >= 0.95, f"held-out AUC {held_out:.3f} < 0.95")
        close(out["auc"], held_out, 1e-12, "classification_report AUC")


# -- expsig --------------------------------------------------------------------------


class ExpSig(Workload):
    """Expected signature of stopped Brownian motion: Poisson factorisation and solves,
    and the Monte Carlo block loop; streams, lie_algebra and learn are never called."""

    name = "expsig"
    # latency bands: pde_disk ~45 ms [0, 20%], pde_square ~80 ms [20, 60%] holds p50,
    # mc3 ~200 ms [60, 84%], mc4 ~380 ms [84, 96%] holds p90, mc_big ~0.9 s [96, 100%]
    mix = {"pde_disk": 5, "pde_square": 10, "mc3": 6, "mc4": 3, "mc_big": 1}
    variants = {"pde_disk": 1, "pde_square": 1, "mc3": 1, "mc4": 1, "mc_big": 1}
    DEPTH = 4
    # Monte Carlo agreement with the PDE: |mean - pde| <= Z * stderr + BIAS * sqrt(dt).
    # Z = 6 keeps false alarms below ~1e-8 per coordinate, for up to 30 coordinates
    # per op and millions of ops. The O(sqrt(dt)) exit bias measured with 2e4 paths at
    # dt = 1e-3 is below 0.008 in every coordinate up to level 4, i.e. 0.25 * sqrt(dt).
    Z, BIAS = 6.0, 0.25

    def __init__(self, sg, seed, tiny, workdir):
        super().__init__(sg, seed, tiny, workdir)
        es = sg.expected_sig
        self.disk = es.DiskDomain(1.0)
        self.square = es.PolygonDomain(SQUARE)
        # The square's spacing keeps grid nodes off its edges: PolygonDomain.contains
        # counts points on the lower and left edges as inside, which makes a grid whose
        # nodes lie on those edges first-order accurate (see CHANGES.md).
        self.h_disk, self.h_square = (0.08, 0.084) if tiny else (0.02, 0.021)
        self.paths, self.big_paths = (100, 400) if tiny else (500, 5000)
        self.dt = 4e-3 if tiny else 1e-3

    def _pde(self, domain, h):
        es = self.sg.expected_sig
        field = es.solve_recurrence(es.GridDomain(domain, h), self.DEPTH)
        return np.concatenate(field.center_values().levels)

    def op_pde_disk(self, variant, op_id):
        return self._pde(self.disk, self.h_disk)

    def op_pde_square(self, variant, op_id):
        return self._pde(self.square, self.h_square)

    def _mc(self, depth, paths, op_id):
        seed = self.op_seed("mc", op_id + 1)
        out = self.sg.expected_sig.mc_expected_sig(self.disk, (0.0, 0.0), depth, paths, self.dt, seed)
        return (np.concatenate(out.mean.levels), np.concatenate(out.stderr))

    def op_mc3(self, variant, op_id):
        return self._mc(3, self.paths, op_id)

    def op_mc4(self, variant, op_id):
        return self._mc(4, self.paths, op_id)

    def op_mc_big(self, variant, op_id):
        return self._mc(3, self.big_paths, op_id)

    # -- checks; levels are stored flat: level k starts at 2**k - 1

    @staticmethod
    def _level(flat, k):
        return flat[2**k - 1 : 2 ** (k + 1) - 1]

    def _symmetric_centre(self, out, f2, h, what):
        # At the centre of a domain symmetric under x -> -x and y -> -y, odd levels and
        # the level-2 off-diagonal vanish; the level-2 diagonal is E[exit time] / 2.
        close(self._level(out, 1), np.zeros(2), 0.0, f"{what} level 1", atol=1e-12)
        close(self._level(out, 3), np.zeros(8), 0.0, f"{what} level 3", atol=1e-10)
        close(self._level(out, 2), [f2, 0.0, 0.0, f2], 0.0, f"{what} level 2", atol=0.5 * h * h)

    def check_pde_disk(self, variant, op_id, out):
        h = self.h_disk
        self._symmetric_centre(out, 0.25, h, "disk")
        level4 = self._level(out, 4)
        # E S^{1111} = E S^{2222} = 1/64 on the unit disk; the scheme is second order
        close(level4[[0, 15]], [1 / 64, 1 / 64], 0.0, "disk level 4", atol=0.5 * h * h)

    def check_pde_square(self, variant, op_id, out):
        h = self.h_square
        self._symmetric_centre(out, 0.5 * oracles.square_torsion_centre(1.0), h, "square")
        level4 = self._level(out, 4)
        close(level4[15], level4[0], 1e-10, "square level 4 symmetry")

    def _check_mc(self, out, depth):
        mean, stderr = out
        pde = self.ref("pde", lambda: self._pde(self.disk, self.h_disk))
        n = 2 ** (depth + 1) - 1
        require(mean.shape == (n,) and stderr.shape == (n,), f"MC output has {mean.shape} coordinates")
        require(mean[0] == 1.0, "MC level 0 is not 1")
        gap = np.abs(mean[1:] - pde[1:n])
        allowed = self.Z * stderr[1:] + self.BIAS * math.sqrt(self.dt)
        worst = int(np.argmax(gap - allowed))
        require(
            bool(np.all(gap <= allowed)),
            f"MC coordinate {worst + 1}: |mean - pde| {gap[worst]:.4f} > {allowed[worst]:.4f}",
        )

    def check_mc3(self, variant, op_id, out):
        self._check_mc(out, 3)

    def check_mc4(self, variant, op_id, out):
        self._check_mc(out, 4)

    def check_mc_big(self, variant, op_id, out):
        self._check_mc(out, 3)


# -- logode --------------------------------------------------------------------------


def _trig_fields():
    """The two trigonometric vector fields of the log-ODE order gate, with Jacobians."""

    def v1(y):
        return np.array([np.sin(y[1]), np.cos(y[0])])

    def j1(y):
        return np.array([[0.0, np.cos(y[1])], [-np.sin(y[0]), 0.0]])

    def v2(y):
        return np.array([np.cos(y[0] + y[1]), np.sin(y[0] - y[1])])

    def j2(y):
        s, c = np.sin(y[0] + y[1]), np.cos(y[0] - y[1])
        return np.array([[-s, -s], [c, -c]])

    return (v1, v2), (j1, j2)


class LogOde(Workload):
    """Log-ODE solves and unitary development, bound by Python calls: bracket closures,
    RK4, and many tiny signature / log_signature / restrict calls per solve."""

    name = "logode"
    # latency bands: develop and trig_d2 ~35 ms [0, 30%]; expdev, lin_d3 and lin_d2
    # ~110-120 ms [30, 70%] hold p50, inside lin_d2's share [45, 70%]; trig_d3 ~155 ms
    # [70, 80%]; lin_d4 ~265 ms [80, 100%] holds p90
    mix = {
        "trig_d2": 3,
        "develop": 3,
        "expdev": 1,
        "lin_d3": 2,
        "lin_d2": 5,
        "trig_d3": 2,
        "lin_d4": 4,
    }
    variants = {kind: 2 for kind in mix}
    # (depth, steps, RK4 substeps) per solve kind
    SCHEDULES = {
        "lin_d2": (2, 64, 16),
        "lin_d3": (3, 32, 8),
        "lin_d4": (4, 16, 8),
        "trig_d2": (2, 32, 8),
        "trig_d3": (3, 32, 8),
    }
    # Log-ODE error against the exact solution, measured over several seeds at these
    # schedules: <= 6e-8 for the linear system and <= 3e-6 for the trigonometric one.
    LINEAR_TOL, TRIG_TOL = 1e-6, 1e-4

    def __init__(self, sg, seed, tiny, workdir):
        super().__init__(sg, seed, tiny, workdir)
        lo, streams, dev = sg.logode, sg.streams, sg.development
        # tiny runs keep the schedules, whose step counts the tolerances assume
        scale = 4 if tiny else 1
        segments = 1024 // scale
        self.drivers = [streams.Stream(*smooth_driver(self.rng("driver", v), segments)) for v in range(2)]
        gen_x = np.array([[0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        gen_y = np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
        self.linear = lo.LinearSystem(np.stack([0.6 * gen_x, 0.6 * gen_y]))
        self.linear_fields = lo.VectorFieldSystem.from_linear(self.linear)
        fields, jacobians = _trig_fields()
        self.trig_fields = lo.VectorFieldSystem(2, 2, list(fields), list(jacobians), smoothness=10)
        self.y0_linear = np.array([1.0, 0.0, 0.0])
        self.y0_trig = [self.rng("y0", v).uniform(-0.3, 0.3, 2) for v in range(2)]
        self.policies = [dev.random_policy(4, 2, seed=self.op_seed("policy", v)) for v in range(2)]
        n_dev = 1000 // scale
        self.dev_paths = [
            streams.Stream(*random_walk(self.rng("develop", v), n_dev + 1, 2)) for v in range(2)
        ]
        self.expdev_count = 12 if tiny else 50
        self.max_err = 0.0

    def _solve(self, kind, fields, y0, variant):
        lo = self.sg.logode
        depth, steps, substeps = self.SCHEDULES[kind]
        driver = self.drivers[variant]
        schedule = lo.LogOdeSchedule.uniform(driver, steps, depth, substeps)
        return lo.solve(fields, driver, y0, schedule)[-1]

    def op_lin_d2(self, variant, op_id):
        return self._solve("lin_d2", self.linear_fields, self.y0_linear, variant)

    def op_lin_d3(self, variant, op_id):
        return self._solve("lin_d3", self.linear_fields, self.y0_linear, variant)

    def op_lin_d4(self, variant, op_id):
        return self._solve("lin_d4", self.linear_fields, self.y0_linear, variant)

    def op_trig_d2(self, variant, op_id):
        return self._solve("trig_d2", self.trig_fields, self.y0_trig[variant], variant)

    def op_trig_d3(self, variant, op_id):
        return self._solve("trig_d3", self.trig_fields, self.y0_trig[variant], variant)

    def op_develop(self, variant, op_id):
        return self.sg.development.develop(self.policies[variant], self.dev_paths[variant]).psi

    def _sample(self, rng):
        return self.sg.streams.Stream(*random_walk(rng, 65, 2))

    def op_expdev(self, variant, op_id):
        out = self.sg.development.expected_development(
            self.policies[variant], self._sample, self.expdev_count, seed=self.op_seed("expdev", variant)
        )
        return {"mean": out.mean, "stderr": out.stderr}

    # -- checks

    def _check_linear(self, variant, out, what):
        exact = self.ref(
            ("linear", variant),
            lambda: self.sg.logode.linear_solve(self.linear, self.drivers[variant], self.y0_linear),
        )
        self.max_err = max(self.max_err, close(out, exact, 0.0, what, atol=self.LINEAR_TOL))

    def check_lin_d2(self, variant, op_id, out):
        self._check_linear(variant, out, "linear log-ODE depth 2")

    def check_lin_d3(self, variant, op_id, out):
        self._check_linear(variant, out, "linear log-ODE depth 3")

    def check_lin_d4(self, variant, op_id, out):
        self._check_linear(variant, out, "linear log-ODE depth 4")

    def _check_trig(self, variant, out, what):
        fields, _ = _trig_fields()
        exact = self.ref(
            ("trig", variant),
            lambda: oracles.rk4_along(fields, self.drivers[variant].points, self.y0_trig[variant], 8),
        )
        close(out, exact, 0.0, what, atol=self.TRIG_TOL)

    def check_trig_d2(self, variant, op_id, out):
        self._check_trig(variant, out, "trigonometric log-ODE depth 2")

    def check_trig_d3(self, variant, op_id, out):
        self._check_trig(variant, out, "trigonometric log-ODE depth 3")

    def _unitary(self, psi, what):
        defect = float(np.linalg.norm(psi.conj().T @ psi - np.eye(psi.shape[0])))
        require(defect <= 1e-10, f"{what}: unitarity defect {defect:.2e}")

    def check_develop(self, variant, op_id, out):
        self._unitary(out, "develop")
        exact = self.ref(
            ("develop", variant),
            lambda: oracles.develop_expm(self.policies[variant].generators, self.dev_paths[variant].points),
        )
        gap = float(np.abs(out - exact).max())
        require(gap <= 1e-10, f"develop differs from the expm product by {gap:.1e}")

    def check_expdev(self, variant, op_id, out):
        def build():
            rng = np.random.default_rng(self.op_seed("expdev", variant))
            gens = self.policies[variant].generators
            psis = [oracles.develop_expm(gens, self._sample(rng).points) for _ in range(self.expdev_count)]
            for psi in psis:
                self._unitary(psi, "sampled development")
            return np.mean(psis, axis=0)

        gap = float(np.abs(out["mean"] - self.ref(("expdev", variant), build)).max())
        require(gap <= 1e-10, f"expected_development mean differs from the expm mean by {gap:.1e}")
        require(bool(np.all(np.isfinite(out["stderr"]))), "expected_development stderr not finite")

    def health(self):
        return {"logode.max_err": self.max_err}


# -- cli -----------------------------------------------------------------------------


class Cli(Workload):
    """``sigstream.cli.main(argv)`` in-process with stdout captured, over CSV and JSON files
    generated from the seed: argparse, ingest_csv, JSON emit and process start-up."""

    name = "cli"
    # latency bands: sig_short and logsig_d2, short files where argparse, ingest_csv
    # and JSON emit carry the time, ~4 ms [0, 65%] hold p50; expsig, logsig_d4,
    # dpdist, logode, develop, score ~15-50 ms [65, 82.5%]; fit ~100 ms [82.5, 95%]
    # holds p90; expsig_mc ~200 ms and sig_long ~300 ms [95, 100%]
    mix = {
        "sig_short": 13,
        "logsig_d2": 13,
        "expsig": 2,
        "logsig_d4": 1,
        "dpdist": 1,
        "logode": 1,
        "develop": 1,
        "score": 1,
        "fit": 5,
        "expsig_mc": 1,
        "sig_long": 1,
    }
    variants = {kind: 1 for kind in mix}
    variants["expsig_mc"] = 2

    def __init__(self, sg, seed, tiny, workdir):
        super().__init__(sg, seed, tiny, workdir)
        streams = sg.streams
        d = self.workdir
        d.mkdir(parents=True, exist_ok=True)
        scale = 8 if tiny else 1
        files = {}

        def write(name, times, points):
            files[name] = str(d / name)
            streams.write_csv(streams.Stream(times, points), files[name])

        write("short.csv", *random_walk(self.rng("short"), 65, 2))
        write("long.csv", *random_walk(self.rng("long"), 10_000 // scale, 2))
        write("wide.csv", *random_walk(self.rng("wide"), 65, 4))
        write("a.csv", *random_walk(self.rng("dp", 0), 257 // scale + 1, 2))
        write("b.csv", *random_walk(self.rng("dp", 1), 257 // scale + 1, 2))
        write("driver.csv", *smooth_driver(self.rng("driver"), 1024 // scale))
        write("path.csv", *random_walk(self.rng("develop"), 1000 // scale + 1, 2))
        rotations = 0.6 * np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]])
        system = {"m": 3, "d": 2, "matrices": rotations.tolist(), "y0": [1.0, 0.0, 0.0]}
        gens = sg.development.random_policy(4, 2, seed=self.op_seed("policy", 0)).generators
        policy = {"u": 4, "generators": np.stack([gens.real, gens.imag], axis=-1).tolist()}
        for name, spec in (("system.json", system), ("policy.json", policy)):
            files[name] = str(d / name)
            Path(files[name]).write_text(json.dumps(spec))
        per_class = 12 if tiny else 100
        for part, n in (("train", per_class), ("test", per_class // 2)):
            seed_arg = str(self.op_seed(part, 0))
            self.main(["gen-synth", "--out", str(d / part), "--n-per-class", str(n), "--seed", seed_arg])
        self.files = files
        self.h = 0.08 if tiny else 0.04
        self.mc_paths = 100 if tiny else 500
        self.mc_seeds = [self.op_seed("mc", v) for v in range(2)]
        self.argv = {
            "sig_short": ["sig", "--depth", "4", files["short.csv"]],
            "sig_long": ["sig", "--depth", "4", "--transform", "leadlag", files["long.csv"]],
            "logsig_d2": ["logsig", "--depth", "4", files["short.csv"]],
            "logsig_d4": ["logsig", "--depth", "6", files["wide.csv"]],
            "dpdist": ["dpdist", "--p", "2", "--levels", "6", files["a.csv"], files["b.csv"]],
            "logode": ["logode", "--depth", "2", "--steps", "32", "--substeps", "8",
                       "--system", files["system.json"], files["driver.csv"]],
            "develop": ["develop", "--policy", files["policy.json"], files["path.csv"]],
            "expsig": ["expsig", "--domain", "disk:1.0", "--h", str(self.h), "--depth", "4"],
            "fit": ["fit", "--depth", "4", "--method", "ridge", "--lambda", "0.001",
                    str(d / "train/manifest.txt"), str(d / "train/labels.txt"), "-o", str(d / "fit.json")],
            "score": ["score", str(d / "model.json"),
                      str(d / "test/manifest.txt"), str(d / "test/labels.txt")],
        }
        # the model that score reads is fitted once here
        self.main(self.argv["fit"][:-1] + [str(d / "model.json")])

    def mc_argv(self, variant):
        return ["expsig-mc", "--domain", "disk:1.0", "--depth", "3", "--paths", str(self.mc_paths),
                "--dt", "0.001", "--seed", str(self.mc_seeds[variant])]

    def main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sigstream {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def call(self, kind, variant, op_id):
        if kind == "expsig_mc":
            return self.main(self.mc_argv(variant))
        text = self.main(self.argv[kind])
        if kind == "fit":
            return text, Path(self.argv["fit"][-1]).read_text()
        return text

    def check(self, kind, variant, op_id, out):
        expected = self.ref((kind, variant), lambda: getattr(self, "expect_" + kind)(variant))
        if kind == "fit":
            summary, model = out
            got = {"summary": json.loads(summary), "model": json.loads(model)}
        else:
            got = json.loads(out)
        _same_json(got, expected, kind)

    # -- what each subcommand should print, from the library called directly

    def _signature(self, name, depth, transform=None):
        s = self.sg.streams.ingest_csv(self.files[name])
        return self.sg.streams.signature(transform(s) if transform else s, depth)

    def _tensor(self, sig):
        ta = self.sg.tensor_algebra
        return {**ta.to_json_dict(sig), "coefficients": ta.coeff_map(sig)}

    def expect_sig_short(self, variant):
        return self._tensor(self._signature("short.csv", 4))

    def expect_sig_long(self, variant):
        return self._tensor(self._signature("long.csv", 4, self.sg.streams.lead_lag))

    def _logsig(self, sig):
        coords = self.sg.lie_algebra.tensor_to_lie_coords(self.sg.tensor_algebra.tensor_log(sig))
        pairs = coords.as_pairs()
        return {"d": coords.dim, "depth": coords.depth,
                "pairs": [list(p) for p in pairs], "coords": dict(pairs)}

    def expect_logsig_d2(self, variant):
        return self._logsig(self._signature("short.csv", 4))

    def expect_logsig_d4(self, variant):
        return self._logsig(self._signature("wide.csv", 6))

    def expect_dpdist(self, variant):
        streams = self.sg.streams
        a, b = (streams.ingest_csv(self.files[n]) for n in ("a.csv", "b.csv"))
        estimates = streams.dp_distance_estimate(a, b, 2.0, 6).estimates
        return {"p": 2.0, "levels": list(range(1, 7)), "estimates": estimates.tolist()}

    def expect_logode(self, variant):
        lo = self.sg.logode
        spec = json.loads(Path(self.files["system.json"]).read_text())
        driver = self.sg.streams.ingest_csv(self.files["driver.csv"])
        schedule = lo.LogOdeSchedule.uniform(driver, 32, 2, 8)
        fields = lo.VectorFieldSystem.from_linear(lo.LinearSystem(np.array(spec["matrices"])))
        states = lo.solve(fields, driver, np.array(spec["y0"]), schedule)
        return {"times": schedule.boundaries.tolist(), "states": states.tolist()}

    def expect_develop(self, variant):
        dev = self.sg.development
        gens = np.array(json.loads(Path(self.files["policy.json"]).read_text())["generators"])
        s = self.sg.streams.ingest_csv(self.files["path.csv"])
        psi = dev.develop(dev.UnitaryPolicy(gens[..., 0] + 1j * gens[..., 1]), s).psi
        return {
            "u": 4,
            "interval": list(s.interval),
            "psi": np.stack([psi.real, psi.imag], axis=-1).tolist(),
            "unitarity_defect": dev.unitarity_defect(psi),
        }

    def expect_expsig(self, variant):
        es = self.sg.expected_sig
        centre = es.solve_recurrence(es.GridDomain(es.DiskDomain(1.0), self.h), 4).center_values()
        return {"domain": "disk:1.0", "h": self.h, "depth": 4, "boundary": "exact",
                "center": [0.0, 0.0], "values": _word_values(centre.levels)}

    def expect_expsig_mc(self, variant):
        es = self.sg.expected_sig
        seed = self.mc_seeds[variant]
        mc = es.mc_expected_sig(es.DiskDomain(1.0), np.zeros(2), 3, self.mc_paths, 1e-3, seed)
        return {"domain": "disk:1.0", "start": [0.0, 0.0], "depth": 3, "paths": self.mc_paths, "dt": 1e-3,
                "seed": seed, "mean": _word_values(mc.mean.levels), "stderr": _word_values(mc.stderr)}

    def _corpus(self, part):
        folder = self.workdir / part
        names = (folder / "manifest.txt").read_text().split()
        data = [self.sg.streams.ingest_csv(folder / n) for n in names]
        return self.sg.learn.featurize(data, 4), np.loadtxt(folder / "labels.txt")

    def expect_fit(self, variant):
        X, labels = self._corpus("train")
        model = self.sg.learn.fit_ridge(X, labels, 0.001)
        summary = {
            "model": self.argv["fit"][-1],
            "n_streams": X.X.shape[0],
            "n_features": len(X.words),
            "active_coefficients": int(np.count_nonzero(model.coefficients[1:])),
        }
        fitted = {
            "dimension": 2, "depth": 4, "transform": "none", "method": "ridge", "lambda": 0.001,
            "words": [str(w) for w in X.words], "coefficients": model.coefficients.tolist(),
            "converged": True, "n_iter": 0,
        }
        return {"summary": summary, "model": fitted}

    def expect_score(self, variant):
        X, labels = self._corpus("test")
        coef = np.array(json.loads((self.workdir / "model.json").read_text())["coefficients"])
        scores, labels = X.X @ coef, labels.astype(int)
        report = self.sg.learn.classification_report(scores, labels)
        close(report.auc, oracles.auc(scores, labels), 1e-12, "score AUC")
        return {"ks": report.ks, "auc": report.auc, "accuracy": report.accuracy, "roc": report.roc.tolist()}


def _word_values(levels):
    out = {}
    for k, lvl in enumerate(levels):
        words = [()] if k == 0 else np.ndindex(*(2,) * k)
        for word, value in zip(words, lvl):
            out[",".join(str(i + 1) for i in word)] = float(value)
    return out


def _same_json(got, expected, where, rtol=1e-12):
    """Structural equality of JSON values, numbers within rtol."""
    if isinstance(expected, dict):
        require(isinstance(got, dict) and set(got) == set(expected), f"{where}: keys differ")
        for key in expected:
            _same_json(got[key], expected[key], f"{where}.{key}", rtol)
    elif isinstance(expected, (list, tuple)):
        require(isinstance(got, list) and len(got) == len(expected), f"{where}: length")
        for i, (g, e) in enumerate(zip(got, expected)):
            _same_json(g, e, f"{where}[{i}]", rtol)
    elif isinstance(expected, (bool, str)):
        require(got == expected, f"{where}: {got!r} != {expected!r}")
    else:
        e = float(expected)
        ok = isinstance(got, (int, float)) and abs(got - e) <= rtol * max(1.0, abs(e))
        require(ok, f"{where}: {got!r} != {e!r}")


WORKLOADS = {cls.name: cls for cls in (Features, ExpSig, LogOde, Cli)}
