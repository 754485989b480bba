"""The argument contract of the public API, one table row per exported callable.

Each row gives a valid call and the kind of each argument that the shared checks in
``sigstream.errors`` take: a count (an integer in [lo, hi], not a bool), a real (finite,
in an interval), a point (a finite real array of a shape), a square matrix of finite real
or complex numbers, a sampler (a callable that returns a stream) or an instance (a tensor,
a stream, a system, schedule, coordinates, policy, linear system, grid, domain or model,
or an iterable of streams or stream pairs).  ``hypothesis`` puts
values outside each argument's valid set in its place, one argument at a time, and the
call must raise DomainError or DimensionMismatchError with no warning.  Every name in
a module's ``__all__`` needs a row, or an entry in ``RESULT_TYPES`` naming the row
whose call builds it.
"""

import io
import math
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigstream import development, errors, expected_sig, learn, lie_algebra, logode, streams
from sigstream import tensor_algebra
from sigstream.development import (
    develop, development_tail_bound, evaluate_signature, expected_development, random_policy,
    unitarity_defect, UnitaryPolicy,
)
from sigstream.errors import DimensionMismatchError, DomainError, _count, _points, _real
from sigstream.expected_sig import (
    DiskDomain, GridDomain, PolygonDomain, mc_expected_sig, parse_domain, radius_diagnostic,
    solve_recurrence,
)
from sigstream.learn import (
    classification_report, coordinate_r2, featurize, featurize_logsig, fit_conditional_law,
    fit_lasso, fit_ridge, lasso_kkt_residual, lasso_max_penalty, LinearModel, score_and_report,
    stability_selection, two_class_streams,
)
from sigstream.lie_algebra import (
    LieCoordinates, bracket_expand, dynkin_check, lyndon_basis, render_bracketing,
    tensor_to_lie_coords, witt_dimension,
)
from sigstream.logode import (
    LinearSystem, LogOdeSchedule, VectorFieldSystem, lie_extend_evaluate, linear_series_apply,
    linear_solve, logode_step, series_tail_bound, solve,
)
from sigstream.streams import (
    Stream, concat, dp_distance_estimate, ingest_csv, lead_lag, log_signature, restrict,
    reverse, signature, time_augment, write_csv,
)
from sigstream.tensor_algebra import (
    TruncatedTensor, Word, coeff_map, from_json_dict, grade_norms, inner, shuffle,
    shuffle_inner, tensor_exp, tensor_log, tensor_mul, to_json_dict, words_of_degree,
)

MODULES = (tensor_algebra, streams, lie_algebra, logode, development, expected_sig, learn)


@dataclass(frozen=True)
class Count:
    """An integer in [lo, hi] (no upper end when hi is None), not a bool."""

    lo: int
    hi: int | None = None

    def bad(self, valid):
        hi = math.inf if self.hi is None else self.hi
        fixed = [True, False, self.lo + 0.5, float(self.lo), math.nan, math.inf, -math.inf,
                 str(self.lo), np.array([valid, valid]), self.lo - 1, 0, -1, hi + 1]
        fixed = [v for v in fixed if not (type(v) is int and self.lo <= v <= hi)]
        return st.one_of(
            st.sampled_from(fixed),
            st.integers(max_value=self.lo - 1),
            st.floats().filter(lambda x: not x.is_integer()),
            st.text(max_size=3),
        )


@dataclass(frozen=True)
class Real:
    """A finite real in [lo, hi], or in (lo, hi] when lo_open; not a bool."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False

    def bad(self, valid):
        fixed = [True, False, math.nan, math.inf, -math.inf, str(valid),
                 np.array([valid, valid])]
        outside = [st.text(max_size=3)]
        if self.lo > -math.inf:
            fixed += [self.lo - 1.0] + ([self.lo] if self.lo_open else [])
            outside.append(st.floats(max_value=self.lo, exclude_max=not self.lo_open))
        if self.hi < math.inf:
            fixed.append(self.hi + 1.0)
            outside.append(st.floats(min_value=self.hi, exclude_min=True))
        return st.one_of(st.sampled_from(fixed), *outside)


@dataclass(frozen=True)
class Point:
    """A finite real array of this shape (None: any length)."""

    shape: tuple

    def bad(self, valid):
        valid = np.asarray(valid, dtype=float)
        # a shorter last axis is still a valid shape where that axis is free
        shorter = [] if self.shape[-1] is None else [valid[..., :-1]]
        wrong = [*shorter, valid[None], valid.ravel()[0], str(valid.tolist()),
                 valid.astype(bool)]
        entry = st.tuples(st.integers(0, valid.size - 1),
                          st.sampled_from([math.nan, math.inf, -math.inf]))
        return st.one_of(st.sampled_from(wrong), entry.map(lambda e: _with_entry(valid, *e)))


@dataclass(frozen=True)
class Matrix:
    """A square 2-D array of finite real or complex numbers."""

    def bad(self, valid):
        valid = np.asarray(valid)
        wrong = [valid[:, :-1], valid[None], valid[0], valid[0, 0], valid.astype(bool),
                 valid.astype(str), [[1.0, 2.0], [3.0]], "abc", None, True]
        entry = st.tuples(st.integers(0, valid.size - 1),
                          st.sampled_from([math.nan, math.inf, complex(0.0, -math.inf)]))
        return st.one_of(st.sampled_from(wrong), entry.map(lambda e: _with_entry(valid, *e)))


@dataclass(frozen=True)
class Sampler:
    """A callable that takes the generator and returns a Stream."""

    def bad(self, valid):
        returns = STREAM.bad(S).map(lambda sample: lambda rng: sample)
        return st.one_of(Instance(Callable).bad(valid), returns)


@dataclass(frozen=True)
class Instance:
    """A value of this type: a tensor, a stream, another object argument, or an iterable
    of streams or stream pairs."""

    cls: type

    def bad(self, valid):
        values = [None, True, 3, 1.5, "abc", [1.0], np.zeros(3), Word((1,)), S]
        return st.sampled_from([v for v in values if not isinstance(v, self.cls)])


TENSOR, ITERABLE, STREAM = Instance(TruncatedTensor), Instance(Iterable), Instance(Stream)
SYSTEM, LINEAR, COORDINATES = (Instance(VectorFieldSystem), Instance(LinearSystem),
                               Instance(LieCoordinates))
A_SCHEDULE, A_POLICY = Instance(LogOdeSchedule), Instance(UnitaryPolicy)
A_GRID, A_DOMAIN = Instance(GridDomain), Instance(expected_sig.Domain)
A_MODEL = Instance(LinearModel)


def _with_entry(valid, index, value):
    out = valid.copy()
    out.flat[index] = value
    return out


# -- fixtures: small valid arguments ---------------------------------------------

S = Stream([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
SIG = signature(S, 3)
LOG = tensor_log(SIG)
POLICY = random_policy(2, 2, seed=1)
LIN = LinearSystem(np.stack([np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]]))
VFS = VectorFieldSystem.from_linear(LIN)
COORDS = LieCoordinates(2, 2, [0.1, -0.2, 0.05])
SCHEDULE = LogOdeSchedule([0.0, 0.5, 1.0], 2)
DISK = DiskDomain(1.0)
GRID = GridDomain(DISK, 0.25)
FIELD = solve_recurrence(GRID, 3)
X = np.column_stack([np.ones(8), np.arange(8.0), np.sin(np.arange(8.0))])
Y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
MODEL = fit_ridge(X, Y, 0.1)
LASSO = fit_lasso(X, Y, 0.01)
PAIRS = [(S, reverse(S)), (reverse(S), S), (concat(S, S), S)]
CSV = "t,x1\n0,0\n1,1\n"
FIELDS = [np.sin, np.cos]
JACOBIANS = [lambda y: np.diag(np.cos(y)), lambda y: np.diag(-np.sin(y))]

# name -> (call, {argument: (valid value, kind)}); the call takes the checked arguments
ROWS = {
    # tensor_algebra
    "Word": (lambda letter: Word((1, letter)), {"letter": (2, Count(1))}),
    "Word.index": (lambda dim: Word((1, 2)).index(dim), {"dim": (2, Count(1))}),
    "TruncatedTensor": (lambda dim, depth: TruncatedTensor(dim, depth),
                        {"dim": (2, Count(1)), "depth": (3, Count(1))}),
    "TruncatedTensor.unit": (lambda dim, depth: TruncatedTensor.unit(dim, depth),
                             {"dim": (2, Count(1)), "depth": (3, Count(1))}),
    "TruncatedTensor.from_level1": (lambda depth: TruncatedTensor.from_level1([1.0, 2.0], depth),
                                    {"depth": (3, Count(1))}),
    "TruncatedTensor.level": (lambda k: SIG.level(k), {"k": (2, Count(0))}),
    "TruncatedTensor.truncated": (lambda depth: SIG.truncated(depth), {"depth": (2, Count(1))}),
    "tensor_mul": (lambda a, b: tensor_mul(a, b), {"a": (SIG, TENSOR), "b": (SIG, TENSOR)}),
    "tensor_exp": (lambda a: tensor_exp(a, assume_lie=True), {"a": (LOG, TENSOR)}),
    "tensor_log": (lambda a: tensor_log(a), {"a": (SIG, TENSOR)}),
    "inner": (lambda a: inner(Word((1, 2)), a), {"a": (SIG, TENSOR)}),
    "shuffle": (lambda: shuffle(Word((1,)), Word((2, 1))), {}),
    "shuffle_inner": (lambda a: shuffle_inner(Word((1,)), Word((2,)), a), {"a": (SIG, TENSOR)}),
    "grade_norms": (lambda a: grade_norms(a, "l2"), {"a": (SIG, TENSOR)}),
    "words_of_degree": (lambda dim, degree: list(words_of_degree(dim, degree)),
                        {"dim": (2, Count(1)), "degree": (2, Count(0))}),
    "coeff_map": (lambda a: coeff_map(a), {"a": (SIG, TENSOR)}),
    "to_json_dict": (lambda a: to_json_dict(a), {"a": (SIG, TENSOR)}),
    "from_json_dict": (lambda d, depth: from_json_dict({**to_json_dict(SIG), "d": d,
                                                        "depth": depth}),
                       {"d": (2, Count(1)), "depth": (3, Count(1))}),
    # streams
    "Stream": (lambda: Stream([0.0, 1.0], [[0.0], [1.0]]), {}),
    "Stream.value_at": (lambda t: S.value_at(t), {"t": (0.25, Real())}),
    "ingest_csv": (lambda: ingest_csv(io.StringIO(CSV)), {}),
    "write_csv": (lambda stream: write_csv(stream, io.StringIO()), {"stream": (S, STREAM)}),
    "time_augment": (lambda s: time_augment(s), {"s": (S, STREAM)}),
    "lead_lag": (lambda s: lead_lag(s), {"s": (S, STREAM)}),
    "concat": (lambda a, b: concat(a, b), {"a": (S, STREAM), "b": (S, STREAM)}),
    "reverse": (lambda s: reverse(s), {"s": (S, STREAM)}),
    "restrict": (lambda s, t0, t1: restrict(s, t0, t1),
                 {"s": (S, STREAM), "t0": (0.2, Real()), "t1": (0.8, Real())}),
    "signature": (lambda s, depth: signature(s, depth),
                  {"s": (S, STREAM), "depth": (3, Count(1))}),
    "log_signature": (lambda s, depth: log_signature(s, depth),
                      {"s": (S, STREAM), "depth": (3, Count(1))}),
    "dp_distance_estimate": (lambda a, b, p, max_level: dp_distance_estimate(a, b, p, max_level),
                             {"a": (S, STREAM), "b": (S, STREAM), "p": (2.0, Real(1.0)),
                              "max_level": (2, Count(1))}),
    # lie_algebra
    "LieCoordinates": (lambda dim, depth: LieCoordinates(dim, depth, [0.1, -0.2, 0.05]),
                       {"dim": (2, Count(1)), "depth": (2, Count(1))}),
    "LieCoordinates.to_tensor": (lambda depth: COORDS.to_tensor(depth), {"depth": (3, Count(1))}),
    "LieCoordinates.max_degree": (lambda tol: COORDS.max_degree(tol), {"tol": (0.1, Real(0.0))}),
    "lyndon_basis": (lambda dim, depth: lyndon_basis(dim, depth),
                     {"dim": (2, Count(1)), "depth": (3, Count(1))}),
    "bracket_expand": (lambda dim, depth: bracket_expand((1, (1, 2)), dim, depth),
                       {"dim": (2, Count(1)), "depth": (4, Count(1))}),
    "tensor_to_lie_coords": (lambda a: tensor_to_lie_coords(a), {"a": (LOG, TENSOR)}),
    "dynkin_check": (lambda a: dynkin_check(a), {"a": (LOG, TENSOR)}),
    "witt_dimension": (lambda dim, degree: witt_dimension(dim, degree),
                       {"dim": (2, Count(1)), "degree": (4, Count(1))}),
    "render_bracketing": (lambda: render_bracketing((1, (1, 2))), {}),
    # logode
    "VectorFieldSystem": (
        lambda state_dim, driver_dim, smoothness, validate_at: VectorFieldSystem(
            state_dim, driver_dim, FIELDS, JACOBIANS, smoothness, validate_at),
        {"state_dim": (2, Count(1)), "driver_dim": (2, Count(1)), "smoothness": (3, Count(0)),
         "validate_at": ([[0.1, -0.3]], Point((None, 2)))}),
    "LinearSystem": (lambda: LinearSystem(np.ones((2, 3, 3))), {}),
    "LogOdeSchedule": (lambda boundaries, depth, substeps: LogOdeSchedule(boundaries, depth,
                                                                          substeps),
                       {"boundaries": ([0.0, 0.5, 1.0], Point((None,))), "depth": (2, Count(1)),
                        "substeps": (4, Count(1))}),
    "LogOdeSchedule.uniform": (lambda stream, steps: LogOdeSchedule.uniform(stream, steps, 2),
                               {"stream": (S, STREAM),
                                "steps": (4, Count(1, errors._COEFF_BUDGET))}),
    "VectorFieldSystem.from_linear": (lambda lin: VectorFieldSystem.from_linear(lin),
                                      {"lin": (LIN, LINEAR)}),
    "lie_extend_evaluate": (lambda vfs, coords, y: lie_extend_evaluate(vfs, coords, y),
                            {"vfs": (VFS, SYSTEM), "coords": (COORDS, COORDINATES),
                             "y": ([1.0, 0.5], Point((2,)))}),
    "logode_step": (lambda vfs, y0, coords, substeps: logode_step(vfs, y0, coords, substeps),
                    {"vfs": (VFS, SYSTEM), "y0": ([1.0, 0.5], Point((2,))),
                     "coords": (COORDS, COORDINATES), "substeps": (4, Count(1))}),
    "solve": (lambda vfs, stream, y0, schedule: solve(vfs, stream, y0, schedule),
              {"vfs": (VFS, SYSTEM), "stream": (S, STREAM), "y0": ([1.0, 0.5], Point((2,))),
               "schedule": (SCHEDULE, A_SCHEDULE)}),
    "linear_solve": (lambda lin, s, y0: linear_solve(lin, s, y0),
                     {"lin": (LIN, LINEAR), "s": (S, STREAM), "y0": ([1.0, 0.5], Point((2,)))}),
    "linear_series_apply": (lambda lin, sig, y0: linear_series_apply(lin, sig, y0),
                            {"lin": (LIN, LINEAR), "sig": (SIG, TENSOR),
                             "y0": ([1.0, 0.5], Point((2,)))}),
    "series_tail_bound": (
        lambda op_norm, length, depth, y0_norm: series_tail_bound(op_norm, length, depth, y0_norm),
        {"op_norm": (1.5, Real(0.0)), "length": (2.0, Real(0.0)), "depth": (3, Count(0)),
         "y0_norm": (1.0, Real(0.0))}),
    # development
    "UnitaryPolicy": (lambda: UnitaryPolicy(POLICY.generators), {}),
    "develop": (lambda policy, s: develop(policy, s),
                {"policy": (POLICY, A_POLICY), "s": (S, STREAM)}),
    "expected_development": (lambda policy, sampler, count, seed: expected_development(
                                 policy, sampler, count, seed),
                             {"policy": (POLICY, A_POLICY), "sampler": (lambda rng: S, Sampler()),
                              "count": (3, Count(1)), "seed": (5, Count(0))}),
    "evaluate_signature": (lambda policy, sig: evaluate_signature(policy, sig),
                           {"policy": (POLICY, A_POLICY), "sig": (SIG, TENSOR)}),
    "development_tail_bound": (lambda policy, l1_length, depth: development_tail_bound(
                                   policy, l1_length, depth),
                               {"policy": (POLICY, A_POLICY), "l1_length": (1.5, Real(0.0)),
                                "depth": (3, Count(0))}),
    "unitarity_defect": (lambda psi: unitarity_defect(psi),
                         {"psi": (develop(POLICY, S).psi, Matrix())}),
    "random_policy": (lambda size, driver_dim, seed: random_policy(size, driver_dim, seed),
                      {"size": (3, Count(2)), "driver_dim": (2, Count(1)), "seed": (4, Count(0))}),
    # expected_sig
    "DiskDomain": (lambda radius, center: DiskDomain(radius, center),
                   {"radius": (1.5, Real(0.0, lo_open=True)),
                    "center": ((0.5, -0.5), Point((2,)))}),
    "PolygonDomain": (lambda: PolygonDomain([(0, 0), (1, 0), (0, 1)]), {}),
    "GridDomain": (lambda descriptor, h: GridDomain(descriptor, h),
                   {"descriptor": (DISK, A_DOMAIN), "h": (0.25, Real(0.0, lo_open=True))}),
    "GridDomain.index_of_point": (lambda xy: GRID.index_of_point(xy),
                                  {"xy": ((0.1, 0.0), Point((2,)))}),
    "ExpectedSigField.at_point": (lambda xy: FIELD.at_point(xy), {"xy": ((0.1, 0.0), Point((2,)))}),
    "solve_recurrence": (lambda grid, depth: solve_recurrence(grid, depth),
                         {"grid": (GRID, A_GRID), "depth": (3, Count(2))}),
    "mc_expected_sig": (
        lambda domain, start, depth, paths, dt, seed: mc_expected_sig(domain, start, depth,
                                                                      paths, dt, seed),
        {"domain": (DISK, A_DOMAIN), "start": ((0.1, 0.0), Point((2,))), "depth": (2, Count(1)),
         "paths": (5, Count(1)), "dt": (0.05, Real(0.0, lo_open=True)), "seed": (3, Count(0))}),
    "radius_diagnostic": (lambda point: radius_diagnostic(FIELD, point),
                          {"point": ((0.1, 0.0), Point((2,)))}),
    "parse_domain": (lambda: parse_domain("polygon:0,0;1,0;0,1"), {}),
    # learn
    "featurize": (lambda streams, depth: featurize(streams, depth),
                  {"streams": ([S, reverse(S)], ITERABLE), "depth": (2, Count(1))}),
    "featurize_logsig": (lambda streams, depth: featurize_logsig(streams, depth),
                         {"streams": ([S, reverse(S)], ITERABLE),
                          "depth": (2, Count(1))}),
    "fit_ridge": (lambda lam: fit_ridge(X, Y, lam), {"lam": (0.1, Real(0.0))}),
    "fit_lasso": (lambda lam, max_iter, tol: fit_lasso(X, Y, lam, max_iter, tol),
                  {"lam": (0.01, Real(0.0)), "max_iter": (100, Count(1)),
                   "tol": (1e-8, Real(0.0, lo_open=True))}),
    "LinearModel.predict": (lambda X_: MODEL.predict(X_), {"X_": (X[:2], Point((None, 3)))}),
    "lasso_max_penalty": (lambda: lasso_max_penalty(X, Y), {}),
    "lasso_kkt_residual": (lambda model: lasso_kkt_residual(model, X, Y),
                           {"model": (LASSO, A_MODEL)}),
    "classification_report": (lambda threshold: classification_report(X[:, 2], Y, threshold),
                              {"threshold": (0.5, Real())}),
    "score_and_report": (lambda model: score_and_report(model, X, Y, X, Y),
                         {"model": (MODEL, A_MODEL)}),
    "fit_conditional_law": (
        lambda pairs, depth_in, depth_out, lam: fit_conditional_law(pairs, depth_in, depth_out,
                                                                    lam),
        {"pairs": (PAIRS, ITERABLE), "depth_in": (2, Count(1)),
         "depth_out": (2, Count(1)), "lam": (0.1, Real(0.0))}),
    "coordinate_r2": (lambda: coordinate_r2(X, X), {}),
    "two_class_streams": (
        lambda n_per_class, n_steps, strength, seed: two_class_streams(n_per_class, n_steps,
                                                                       strength, seed),
        {"n_per_class": (2, Count(1)), "n_steps": (8, Count(2)), "strength": (0.7, Real(0.0, 1.0)),
         "seed": (3, Count(0))}),
    "stability_selection": (
        lambda lam, n_rounds, fraction, seed: stability_selection(X, Y, lam, n_rounds, fraction,
                                                                  seed),
        {"lam": (0.01, Real(0.0)), "n_rounds": (3, Count(1)),
         "fraction": (0.5, Real(0.0, 1.0, lo_open=True)), "seed": (2, Count(0))}),
}

# exported result types, each with the row whose call builds one (or a tuple of them)
RESULT_TYPES = {
    "GradeNorms": "grade_norms",
    "PartitionDistanceReport": "dp_distance_estimate",
    "LyndonBasisElement": "lyndon_basis",
    "DevelopmentResult": "develop",
    "ExpectedSigField": "solve_recurrence",
    "McExpectedSignature": "mc_expected_sig",
    "RadiusDiagnostic": "radius_diagnostic",
    "FeatureMatrix": "featurize",
    "LinearModel": "fit_ridge",
    "ClassificationReport": "classification_report",
    "ConditionalLawModel": "fit_conditional_law",
}


def valid_call(name, **substitute):
    call, args = ROWS[name]
    return call(**{arg: valid for arg, (valid, _) in args.items()} | substitute)


def test_every_export_has_a_row_or_is_a_result_type():
    exports = {name for module in MODULES for name in module.__all__}
    assert len(exports) >= 77  # the 77 names exported when the table was written
    missing = exports - set(ROWS) - set(RESULT_TYPES)
    assert not missing, f"exports without a contract row: {sorted(missing)}"
    assert not set(ROWS) & set(RESULT_TYPES)


@pytest.mark.parametrize("type_name, builder", sorted(RESULT_TYPES.items()))
def test_result_types_come_from_their_builder(type_name, builder):
    (module,) = [m for m in MODULES if type_name in m.__all__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = valid_call(builder)
    first = out[0] if isinstance(out, tuple) else out
    assert isinstance(first, getattr(module, type_name))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_valid_call_passes_without_warnings(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        valid_call(name)


@pytest.mark.parametrize(
    "name, arg", [(name, arg) for name, (_, args) in sorted(ROWS.items()) for arg in args]
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_values_outside_the_contract_raise_a_package_error(name, arg, data):
    valid, kind = ROWS[name][1][arg]
    bad = data.draw(kind.bad(valid), label=arg)
    named = rf"\b{_name_pattern(arg)}\b"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((DomainError, DimensionMismatchError), match=named):
            valid_call(name, **{arg: bad})


def _name_pattern(arg):
    """The name that the message gives the argument, where it differs from the row's."""
    return {"d": "dim", "X_": "X", "xy": "point", "k": "level"}.get(arg, arg)


# -- the shared checks themselves -------------------------------------------------

integers = st.integers(-10**6, 10**6)
finite = st.floats(-1e30, 1e30)  # float32 holds these
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
not_numbers = st.one_of(st.text(max_size=4), st.none(), st.booleans(), st.just(np.bool_(True)),
                        st.just(np.array(False)), st.just(1 + 2j))


@given(value=integers, box=st.sampled_from([int, np.int64, np.int32, np.array]))
def test_count_takes_integers_and_returns_plain_ints(value, box):
    if box is np.int32:
        value = max(min(value, 2**31 - 1), -(2**31))
    out = _count("n", box(value), -10**6)
    assert type(out) is int and out == value
    with pytest.raises(DomainError, match="n must be an integer"):
        _count("n", box(value), value + 1)
    with pytest.raises(DomainError, match=r"n must be an integer in \[-1000000, "):
        _count("n", box(value), -10**6, value - 1)


@given(value=st.one_of(not_numbers, non_finite, finite.filter(lambda x: not x.is_integer()),
                       finite.filter(float.is_integer)))
def test_count_refuses_bools_strings_and_floats(value):
    with pytest.raises(DomainError, match="n must be an integer >= 0"):
        _count("n", value, 0)


@given(value=finite, box=st.sampled_from([float, np.float64, np.float32, np.array, int]))
def test_real_takes_finite_reals_and_returns_plain_floats(value, box):
    boxed = box(int(value)) if box is int else box(value)
    out = _real("x", boxed)
    assert type(out) is float and out == float(boxed)
    assert _real("x", boxed, out, out) == out
    with pytest.raises(DomainError, match=r"x must be a finite real in \("):
        _real("x", boxed, out, lo_open=True)


@given(value=st.one_of(not_numbers, non_finite, st.just(10**400)))
def test_real_refuses_bools_strings_and_non_finite_values(value):
    with pytest.raises(DomainError, match="x must be a finite real"):
        _real("x", value)


@given(values=st.lists(finite, min_size=2, max_size=2),
       box=st.sampled_from([list, tuple, np.array, lambda v: np.array(v, dtype=np.float32)]))
def test_points_takes_finite_arrays_and_returns_new_float_arrays(values, box):
    given_value = box(values)
    out = _points("p", given_value, (2,))
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, np.asarray(given_value, dtype=float))
    if isinstance(given_value, np.ndarray):
        assert not np.shares_memory(out, given_value)
    assert _points("p", [values], (None, 2)).shape == (1, 2)
    with pytest.raises(DimensionMismatchError, match=r"p must have shape \(3,\)"):
        _points("p", given_value, (3,), DimensionMismatchError)


@given(value=st.one_of(
    not_numbers,
    st.tuples(finite, non_finite),
    st.just([True, False]),
    st.just(["1", "2"]),
    st.just([1.0, [2.0]]),
))
def test_points_refuse_bools_strings_and_non_finite_entries(value):
    with pytest.raises(DomainError, match="p must"):
        _points("p", value, (2,))


# -- the one size budget ----------------------------------------------------------

# entry point -> (call, floats it asks of ``errors._COEFF_BUDGET``)
SIZED = {
    "signature": (lambda: signature(S, 3), 1 * (1 + 2 + 4 + 8)),
    "featurize": (lambda: featurize([S, S], 2), 2 * (1 + 2 + 4)),
    "dp_distance_estimate": (lambda: dp_distance_estimate(S, S, 2.0, 2), 2 * 2**2 * (1 + 2 + 4)),
    "GridDomain": (lambda: GridDomain(DISK, 0.25), GRID.xs.size * GRID.ys.size),
    "solve_recurrence": (lambda: solve_recurrence(GRID, 3), GRID.n_interior * (1 + 2 + 4 + 8)),
    "mc_expected_sig": (lambda: mc_expected_sig(DISK, (0.0, 0.0), 2, 10, 0.05, 1),
                        10 * (1 + 2 + 4)),
    "two_class_streams": (lambda: two_class_streams(3, 8), 2 * 3 * 9 * 2),
    "tensor_to_lie_coords": (lambda: tensor_to_lie_coords(LOG),  # degree 3: n_3 = 2
                             max(8 * 2, 2**3) * 2),
    "LogOdeSchedule.uniform": (lambda: LogOdeSchedule.uniform(S, 4, 2), 4),
}


@pytest.mark.parametrize("name", sorted(SIZED))
def test_one_budget_sizes_every_request(monkeypatch, name):
    call, floats = SIZED[name]
    monkeypatch.setattr(errors, "_COEFF_BUDGET", floats - 1)
    with pytest.raises(DomainError, match="budget"):
        call()
    monkeypatch.setattr(errors, "_COEFF_BUDGET", floats)
    call()
