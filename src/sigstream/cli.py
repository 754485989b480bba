"""Command-line interface: every operation as a subcommand with JSON output.

Exit codes: 0 success, 2 usage error, 3 data error (malformed input files, or too
little memory), 4 numerical failure; a failure prints one stderr line, and stdout
carries only the JSON result, which ``main`` alone writes.  All randomness sits behind
a mandatory ``--seed`` on the stochastic subcommands; output is byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import learn
from .development import UnitaryPolicy, develop, unitarity_defect
from .errors import (
    DegenerateReportError,
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    NonFiniteResultError,
    NotALieElementError,
    OutOfDepthError,
    StreamParseError,
    TimeCapError,
)
from .expected_sig import GridDomain, mc_expected_sig, parse_domain, solve_recurrence
from .logode import LinearSystem, LogOdeSchedule, VectorFieldSystem, solve
from .streams import (
    TRANSFORMS, dp_distance_estimate, ingest_csv, log_signature, signature, write_csv
)
from .tensor_algebra import TruncatedTensor, coeff_map, to_json_dict

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR = 2, 3, 4

_DATA_ERRORS = (
    StreamParseError,
    DimensionMismatchError,
    OutOfDepthError,
    OSError,  # a missing file, a directory or an unwritable path
    UnicodeDecodeError,
    json.JSONDecodeError,
    KeyError,
    DomainError,
    DegenerateReportError,
    MemoryError,  # numpy's names the allocation; SuperLU's may carry no text
)
# LinAlgError: an SVD or eigensolver that did not converge, as on overflowing input
_NUMERIC_ERRORS = (DivergenceError, NotALieElementError, NonFiniteResultError, TimeCapError,
                   np.linalg.LinAlgError)


def _emit(payload: dict, out_path) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:  # NaN or an infinity: nothing is written
        raise NonFiniteResultError("the result is not finite") from None
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# -- subcommand handlers -------------------------------------------------------


def _cmd_sig(args) -> dict:
    sig = signature(TRANSFORMS[args.transform](ingest_csv(args.stream)), args.depth)
    return {**to_json_dict(sig), "coefficients": coeff_map(sig)}


def _cmd_logsig(args) -> dict:
    stream = TRANSFORMS[args.transform](ingest_csv(args.stream))
    coords = log_signature(stream, args.depth)
    pairs = coords.as_pairs()
    return {
        "d": coords.dim,
        "depth": coords.depth,
        "pairs": [[name, value] for name, value in pairs],
        "coords": {name: value for name, value in pairs},
    }


def _cmd_dpdist(args) -> dict:
    report = dp_distance_estimate(
        ingest_csv(args.stream_a), ingest_csv(args.stream_b), args.p, args.levels
    )
    return {
        "p": report.p,
        "levels": list(report.levels),
        "estimates": report.estimates.tolist(),
    }


def _cmd_logode(args) -> dict:
    spec = _read_spec(args.system, "system", "{m, d, matrices, y0}")
    lin = LinearSystem(_spec_array(spec, "matrices"))
    if lin.state_dim != _spec_int(spec, "m") or lin.driver_dim != _spec_int(spec, "d"):
        raise DimensionMismatchError("system spec m/d fields disagree with matrices")
    y0 = _spec_array(spec, "y0")
    driver = ingest_csv(args.driver)
    schedule = LogOdeSchedule.uniform(driver, args.steps, args.depth, args.substeps)
    trajectory = solve(VectorFieldSystem.from_linear(lin), driver, y0, schedule)
    return {
        "times": schedule.boundaries.tolist(),
        "states": trajectory.tolist(),
    }


def _cmd_develop(args) -> dict:
    spec = _read_spec(args.policy, "policy", "{u, generators}")
    gens = _spec_array(spec, "generators")
    if gens.ndim != 4 or gens.shape[-1] != 2:
        raise DomainError("generators must be [[[re, im], ...], ...] matrices")
    policy = UnitaryPolicy(gens[..., 0] + 1j * gens[..., 1])
    if policy.size != _spec_int(spec, "u"):
        raise DimensionMismatchError("policy u field disagrees with generators")
    result = develop(policy, ingest_csv(args.stream))
    psi = result.psi
    return {
        "u": policy.size,
        "interval": list(result.interval),
        "psi": [[[float(z.real), float(z.imag)] for z in row] for row in psi],
        "unitarity_defect": unitarity_defect(psi),
    }


def _cmd_expsig(args) -> dict:
    domain = parse_domain(args.domain)
    grid = GridDomain(domain, args.h, boundary=args.boundary)
    field = solve_recurrence(grid, args.depth)
    center = field.center_values()
    return {
        "domain": args.domain,
        "h": args.h,
        "depth": args.depth,
        "boundary": args.boundary,
        "center": [float(v) for v in grid.descriptor.anchor],
        "values": coeff_map(center),
    }


def _cmd_expsig_mc(args) -> dict:
    domain = parse_domain(args.domain)
    start = _parse_point(args.start) if args.start else domain.anchor
    out = mc_expected_sig(domain, start, args.depth, args.paths, args.dt, args.seed)
    return {
        "domain": args.domain,
        "start": [float(v) for v in start],
        "depth": args.depth,
        "paths": args.paths,
        "dt": args.dt,
        "seed": args.seed,
        "mean": coeff_map(out.mean),
        "stderr": coeff_map(TruncatedTensor(2, args.depth, out.stderr)),
    }


def _read_spec(path, what, fields):
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise DomainError(f"{what} file must hold a JSON object {fields}")
    return spec


def _spec_int(spec, key):
    value = spec[key]
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:  # bool, str and fractional floats
        raise DomainError(f"field {key!r} must be an integer")
    return value


def _spec_array(spec, key):
    raw = np.asarray(spec[key], dtype=object)
    if all(type(v) in (int, float) for v in raw.flat):  # no bool, str, None or ragged rows
        try:
            values = raw.astype(float)
            if np.isfinite(values).all():  # not NaN, Infinity, or 1e400 (read as inf)
                return values
        except OverflowError:  # an integer beyond the float range
            pass
    raise DomainError(f"field {key!r} must be a rectangular array of finite numbers")


def _parse_point(text):
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise DomainError(f"malformed point {text!r}; expected x,y") from None


def _read_manifest(manifest_path):
    base = Path(manifest_path).parent
    lines = [
        line.strip()
        for line in Path(manifest_path).read_text().splitlines()
        if line.strip()
    ]
    if not lines:
        raise StreamParseError(f"{manifest_path}: empty manifest")
    return [ingest_csv(base / line) for line in lines]


def _read_labels(path, expected):
    lines = [line.strip() for line in Path(path).read_text().splitlines()]
    try:
        values = np.array([float(line) for line in lines if line])
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from None
    if len(values) != expected:
        raise DimensionMismatchError(
            f"{path}: {len(values)} labels for {expected} streams"
        )
    if not np.all(np.isfinite(values) & (values == np.round(values))):
        raise DomainError(f"{path}: labels must be integers")
    return values


def _cmd_fit(args) -> dict:
    streams = _read_manifest(args.train)
    y = _read_labels(args.labels, len(streams))
    X = learn.featurize(streams, args.depth, args.transform)
    if not np.isfinite(X.X).all():
        raise NonFiniteResultError("the features are not finite")
    if args.method == "ridge":
        model = learn.fit_ridge(X, y, args.lam)
    else:
        model = learn.fit_lasso(X, y, args.lam)
    _emit({
        "dimension": X.dim,
        "depth": X.depth,
        "transform": X.transform,
        "method": model.method,
        "lambda": model.lam,
        "words": [str(w) for w in X.words],
        "coefficients": model.coefficients.tolist(),
        "converged": bool(model.converged),
        "n_iter": int(model.n_iter),
    }, args.model)
    return {
        "model": str(args.model),
        "n_streams": len(streams),
        "n_features": len(X.words),
        "active_coefficients": int(np.count_nonzero(model.coefficients[1:])),
    }


def _cmd_score(args) -> dict:
    model_spec = _read_spec(args.model, "model", "{depth, transform, coefficients}")
    transform = model_spec.get("transform", "none")
    if not isinstance(transform, str):
        raise DomainError("field 'transform' must be a string")
    streams = _read_manifest(args.test)
    y = _read_labels(args.labels, len(streams))
    X = learn.featurize(streams, _spec_int(model_spec, "depth"), transform)
    coef = _spec_array(model_spec, "coefficients")
    if coef.ndim != 1 or coef.size != X.X.shape[1]:
        raise DimensionMismatchError(
            "model was fit with a different feature count"
        )
    if not np.isfinite(scores := X.X @ coef).all():
        raise NonFiniteResultError("the scores are not finite")
    report = learn.classification_report(scores, y.astype(int))
    return {
        "ks": report.ks,
        "auc": report.auc,
        "accuracy": report.accuracy,
        "roc": report.roc.tolist(),
    }


def _cmd_gen_synth(args) -> dict:
    streams, labels = learn.two_class_streams(
        args.n_per_class, args.steps, args.strength, args.seed
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, s in enumerate(streams):
        name = f"stream_{i:04d}.csv"
        write_csv(s, out_dir / name)
        names.append(name)
    (out_dir / "manifest.txt").write_text("\n".join(names) + "\n")
    (out_dir / "labels.txt").write_text(
        "\n".join(str(int(v)) for v in labels) + "\n"
    )
    return {
        "out": str(out_dir),
        "n_streams": len(streams),
        "manifest": str(out_dir / "manifest.txt"),
        "labels": str(out_dir / "labels.txt"),
        "seed": args.seed,
        "strength": args.strength,
    }


# -- parser ---------------------------------------------------------------------


@functools.cache  # built once per process: parsing is ~50x cheaper than building
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigstream",
        description="Signatures, log-signatures, log-ODE solves, expected "
        "signatures and signature-feature learning for streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("sig", help="truncated signature of a stream CSV")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--transform", choices=list(TRANSFORMS), default="none")
    p.add_argument("stream")
    add_output(p)
    p.set_defaults(handler=_cmd_sig)

    p = sub.add_parser("logsig", help="Lyndon-coordinate log-signature")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--transform", choices=list(TRANSFORMS), default="none")
    p.add_argument("stream")
    add_output(p)
    p.set_defaults(handler=_cmd_logsig)

    p = sub.add_parser("dpdist", help="p-variation distance profile of two streams")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("stream_a")
    p.add_argument("stream_b")
    add_output(p)
    p.set_defaults(handler=_cmd_dpdist)

    p = sub.add_parser("logode", help="log-ODE solve of a linear system")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--substeps", type=int, default=16)
    p.add_argument("--system", required=True, help="JSON {m, d, matrices, y0}")
    p.add_argument("driver")
    add_output(p)
    p.set_defaults(handler=_cmd_logode)

    p = sub.add_parser("develop", help="unitary development of a stream")
    p.add_argument("--policy", required=True, help="JSON {u, generators}")
    p.add_argument("stream")
    add_output(p)
    p.set_defaults(handler=_cmd_develop)

    p = sub.add_parser("expsig", help="expected signature of stopped Brownian motion (PDE)")
    p.add_argument("--domain", required=True, help="disk:R or polygon:x,y;...")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--boundary", choices=["exact", "snap"], default="exact")
    add_output(p)
    p.set_defaults(handler=_cmd_expsig)

    p = sub.add_parser("expsig-mc", help="Monte Carlo expected signature")
    p.add_argument("--domain", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", default=None, help="x,y (default: domain anchor)")
    add_output(p)
    p.set_defaults(handler=_cmd_expsig_mc)

    p = sub.add_parser("fit", help="fit a linear model on signature features")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--method", choices=["ridge", "lasso"], required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--transform", choices=list(TRANSFORMS), default="none")
    p.add_argument("train", help="manifest: one stream CSV path per line")
    p.add_argument("labels", help="one integer label per line")
    p.add_argument("-o", "--output", dest="model", required=True, help="model JSON path")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("score", help="classification report of a fitted model")
    p.add_argument("model")
    p.add_argument("test", help="manifest: one stream CSV path per line")
    p.add_argument("labels")
    add_output(p)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("gen-synth", help="generate the synthetic two-class stream task")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--strength", type=float, default=0.7)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_gen_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):  # a failure prints its one message and no warnings
            _emit(args.handler(args), getattr(args, "output", None))
        return 0
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except _DATA_ERRORS as exc:
        reason = f"out of memory. {exc}".rstrip() if isinstance(exc, MemoryError) else exc
        print(f"data error in {args.command}: {reason}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
