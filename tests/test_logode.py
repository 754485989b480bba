import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigstream import logode
from sigstream.errors import CapabilityError, DivergenceError, DomainError
from sigstream.lie_algebra import LieCoordinates, lyndon_basis
from sigstream.logode import (
    LinearSystem,
    LogOdeSchedule,
    VectorFieldSystem,
    lie_extend_evaluate,
    linear_series_apply,
    linear_solve,
    logode_step,
    series_tail_bound,
    solve,
)
from sigstream.streams import Stream, log_signature, restrict, signature
from sigstream.tensor_algebra import _represent

from oracles import (
    expm, linear_logode_power_step, linear_logode_step, nested_bracket_field, nested_lie_terms,
    rk4_linear,
)


def coords_on(d, depth, rendering, value=1.0):
    basis = lyndon_basis(d, depth)
    values = np.zeros(len(basis))
    for i, b in enumerate(basis):
        if str(b) == rendering:
            values[i] = value
            return LieCoordinates(d, depth, values)
    raise KeyError(rendering)


def random_stream(rng, d, n_samples, scale=1.0):
    times = np.linspace(0.0, 1.0, n_samples)
    points = scale * rng.standard_normal((n_samples, d)).cumsum(axis=0)
    return Stream(times, points)


class TestVectorFieldSystem:
    def test_jacobian_validation_passes(self):
        VectorFieldSystem(
            1,
            1,
            [lambda y: np.sin(y)],
            [lambda y: np.diag(np.cos(y))],
            validate_at=[[0.3], [-1.0]],
        )

    @pytest.mark.parametrize("factor", [2.0, 1.0 + 1e-4])
    def test_jacobian_validation_catches_mismatch(self, factor):
        with pytest.raises(DomainError, match="Jacobian"):
            VectorFieldSystem(
                1,
                1,
                [lambda y: np.sin(y)],
                [lambda y: np.diag(factor * np.cos(y))],
                validate_at=[[0.3]],
            )


class TestLieExtend:
    def test_degree_one_linear_combination(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 2, 2))
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        basis = lyndon_basis(3, 1)
        lam = np.array([0.5, -1.0, 2.0])
        coords = LieCoordinates(3, 1, lam)
        y = rng.standard_normal(2)
        got = lie_extend_evaluate(vfs, coords, y)
        want = sum(lam[i] * A[i] @ y for i in range(3))
        assert np.abs(got - want).max() < 1e-14

    def test_constant_fields_kill_brackets(self):
        c1, c2 = np.array([1.0, 2.0]), np.array([-3.0, 0.5])
        vfs = VectorFieldSystem(
            2,
            2,
            [lambda y: c1, lambda y: c2],
            [lambda y: np.zeros((2, 2)), lambda y: np.zeros((2, 2))],
            smoothness=10,
        )
        basis = lyndon_basis(2, 3)
        values = np.arange(1.0, len(basis) + 1.0)  # junk on all higher coords
        coords = LieCoordinates(2, 3, values)
        got = lie_extend_evaluate(vfs, coords, np.zeros(2))
        want = values[0] * c1 + values[1] * c2
        assert np.abs(got - want).max() < 1e-9

    def test_linear_bracket_composition_order(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((2, 3, 3))
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        y = rng.standard_normal(3)
        got = lie_extend_evaluate(vfs, coords_on(2, 2, "[1,2]"), y)
        want = (A[1] @ A[0] - A[0] @ A[1]) @ y
        assert np.abs(got - want).max() < 1e-13

    def test_smoothness_capability(self):
        vfs = VectorFieldSystem(
            1,
            2,
            [lambda y: np.tanh(y), lambda y: y],
            [lambda y: np.diag(1 / np.cosh(y) ** 2), lambda y: np.eye(1)],
            smoothness=1,
        )
        with pytest.raises(CapabilityError):
            lie_extend_evaluate(vfs, coords_on(2, 3, "[1,[1,2]]"), np.zeros(1))


@st.composite
def linear_cases(draw, max_depth=5):
    """A linear system, Lie coordinates over d letters up to max_depth, and a state."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    depth = draw(st.integers(1, max_depth))
    values = st.floats(-1.0, 1.0, allow_nan=False) | st.just(-0.0)
    A = draw(arrays(float, (d, m, m), elements=values))
    lam = draw(arrays(float, len(lyndon_basis(d, depth)), elements=values))
    y = draw(arrays(float, m, elements=values))
    return A, LieCoordinates(d, depth, lam), y


class TestCompiledLinearField:
    @settings(max_examples=60, deadline=None)
    @given(linear_cases())
    def test_brackets_match_word_representation(self, case):
        # the Lie extension of e_i -> A_i y is the word map restricted to Lie elements
        A, coords, y = case
        got = lie_extend_evaluate(VectorFieldSystem.from_linear(LinearSystem(A)), coords, y)
        want = _represent(coords.to_tensor(), A.transpose(0, 2, 1)).T @ y
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))

    @settings(max_examples=80, deadline=None)
    @given(linear_cases(), st.integers(1, 16))
    def test_step_is_the_commutator_algorithm_bit_for_bit(self, case, substeps):
        # K = sum_b lambda_b M_b in basis order and RK4's one-step matrix raised to the
        # substeps by squaring, signed zeros included
        A, coords, y = case
        got = logode_step(VectorFieldSystem.from_linear(LinearSystem(A)), y, coords, substeps)
        trees = [b.bracketing for b in coords.basis]
        want = linear_logode_power_step(A, trees, coords.values, y, substeps)
        assert got.tobytes() == want.tobytes()

    def test_general_route_agrees_at_depth_4(self, monkeypatch):
        rng = np.random.default_rng(8)
        A = 0.5 * rng.standard_normal((2, 3, 3))
        compiled = VectorFieldSystem.from_linear(LinearSystem(A))
        by_hand = VectorFieldSystem(
            3,
            2,
            [lambda y, a=a: a @ y for a in A],
            [lambda y, a=a: a for a in A],
            smoothness=10,
        )
        piece = random_stream(rng, 2, 5, scale=0.4)
        coords = log_signature(piece, 4)
        y0 = rng.standard_normal(3)
        general = logode_step(by_hand, y0, coords, 16)

        def no_fd(*args):
            raise AssertionError("linear systems take no finite differences")

        monkeypatch.setattr(logode, "_central_difference", no_fd)
        exact = logode_step(compiled, y0, coords, 16)
        assert np.abs(general - exact).max() < 1e-9


def general_fields(kind, A, B):
    """Fields V_i(y) = sin(A_i y + b_i), b_i the first row of B_i, or the quadratic
    V_i(y) = (A_i y) * (B_i y + 1), with their Jacobians."""
    if kind == "trig":
        fields = [lambda y, a=a, b=b: np.sin(a @ y + b[0]) for a, b in zip(A, B)]
        jacobians = [lambda y, a=a, b=b: np.cos(a @ y + b[0])[:, None] * a for a, b in zip(A, B)]
    else:
        fields = [lambda y, a=a, b=b: (a @ y) * (b @ y + 1.0) for a, b in zip(A, B)]
        jacobians = [lambda y, a=a, b=b: (b @ y + 1.0)[:, None] * a + (a @ y)[:, None] * b
                     for a, b in zip(A, B)]
    return fields, jacobians


def demo_trig_fields():
    """The two trigonometric fields of demos/03_logode.py and their Jacobians."""
    fields = [lambda y: np.array([np.sin(y[1]), np.cos(y[0])]),
              lambda y: np.array([np.cos(y[0] + y[1]), np.sin(y[0] - y[1])])]
    jacobians = [lambda y: np.array([[0.0, np.cos(y[1])], [-np.sin(y[0]), 0.0]]),
                 lambda y: np.array([[-np.sin(y[0] + y[1])] * 2,
                                     [np.cos(y[0] - y[1]), -np.cos(y[0] - y[1])]])]
    return fields, jacobians


@st.composite
def general_cases(draw):
    """Trigonometric or quadratic fields over d <= 3 letters on R^m, m <= 3, Lie
    coordinates up to depth 4, and a state."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4))
    values = st.floats(-1.0, 1.0, allow_nan=False)
    A = draw(arrays(float, (d, m, m), elements=values))
    B = draw(arrays(float, (d, m, m), elements=values))
    lam = draw(arrays(float, len(lyndon_basis(d, depth)), elements=values))
    y = draw(arrays(float, m, elements=values))
    return draw(st.sampled_from(["trig", "quadratic"])), A, B, LieCoordinates(d, depth, lam), y


class TestGeneralField:
    @settings(max_examples=100, deadline=None)
    @given(general_cases())
    def test_matches_nested_closures(self, case):
        kind, A, B, coords, y = case
        fields, jacobians = general_fields(kind, A, B)
        vfs = VectorFieldSystem(y.size, coords.dim, fields, jacobians, smoothness=10)
        got = lie_extend_evaluate(vfs, coords, y)
        trees = [b.bracketing for b in coords.basis]
        want = nested_lie_terms(fields, jacobians, trees, coords.values, y).sum(axis=0)
        # a degree-k bracket is a sum of products of k factors (field values and
        # derivatives), each bounded by `size` for these fields
        size = 1.0 + max(np.abs(f(y)).max() + np.abs(j(y)).sum(axis=1).max()
                         for f, j in zip(fields, jacobians))
        scale = float(np.abs(coords.values) @ size ** np.array([b.degree for b in coords.basis]))
        # depth <= 2 takes no differences; deeper brackets take central differences
        # of step 1e-5 (1 + |y|) along other directions than the nested closures
        tol = 1e-12 if coords.depth <= 2 else 1e-7
        # products lambda_b B below the normal range keep no relative precision
        assert np.abs(got - want).max() <= tol * scale + 1e-300

    def test_linear_in_huge_and_tiny_coordinates(self):
        # the differences run along w_X = sum lambda_b B_L - ..., whose |w_X|^2
        # under- or overflows at these scales while |w_X| does not
        rng = np.random.default_rng(10)
        fields, jacobians = general_fields("trig", *rng.uniform(-1.0, 1.0, (2, 2, 2, 2)))
        vfs = VectorFieldSystem(2, 2, fields, jacobians, smoothness=10)
        lam, y = rng.uniform(-1.0, 1.0, 5), rng.uniform(-1.0, 1.0, 2)
        want = lie_extend_evaluate(vfs, LieCoordinates(2, 3, lam), y)
        for k in (-600, 600):
            got = lie_extend_evaluate(vfs, LieCoordinates(2, 3, 2.0**k * lam), y)
            assert np.abs(2.0**-k * got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("depth, n_calls, n_nested", [(3, 12, 34), (4, 68, 166), (5, 244, 810)])
    def test_one_call_per_field_and_point(self, depth, n_calls, n_nested):
        rng = np.random.default_rng(9)
        fields, jacobians = general_fields("trig", *rng.uniform(-1.0, 1.0, (2, 2, 2, 2)))
        calls = []

        def counted(f, name):
            def call(y):
                calls.append((name, y.tobytes()))
                return f(y)
            return call

        counted_fields = [counted(f, ("V", i)) for i, f in enumerate(fields)]
        counted_jacobians = [counted(j, ("J", i)) for i, j in enumerate(jacobians)]
        vfs = VectorFieldSystem(2, 2, counted_fields, counted_jacobians, smoothness=10)
        coords = LieCoordinates(2, depth, rng.uniform(-1.0, 1.0, len(lyndon_basis(2, depth))))
        y = rng.uniform(-1.0, 1.0, 2)
        lie_extend_evaluate(vfs, coords, y)
        # depth 3: V_1, V_2, J_1, J_2 at y, and at the two points of the one difference
        # of [1,2]; deeper, differences that land on one point share its calls
        assert len(calls) == len(set(calls)) == n_calls
        calls.clear()
        for b in coords.basis:
            nested_bracket_field(counted_fields, counted_jacobians, b.bracketing)[0](y)
        assert len(calls) == n_nested


class TestStep:
    def test_zero_coordinates_fixed_point(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((2, 2, 2))
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        y0 = rng.standard_normal(2)
        basis = lyndon_basis(2, 2)
        out = logode_step(vfs, y0, LieCoordinates(2, 2, np.zeros(len(basis))), 8)
        assert np.array_equal(out, y0)

    def test_scalar_exponential(self):
        vfs = VectorFieldSystem.from_linear(LinearSystem(np.ones((1, 1, 1))))
        c = 0.7
        out = logode_step(vfs, np.array([2.0]), coords_on(1, 1, "1", c), 64)
        assert out[0] == pytest.approx(2.0 * np.exp(c), rel=1e-9)

    def test_commuting_linear_fields(self):
        # commuting generators: frozen field equals sum(lam_i A_i); RK4-accurate
        A = np.stack([np.diag([0.5, -0.2]), np.diag([0.1, 0.3])])
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        basis = lyndon_basis(2, 2)
        lam = np.array([0.8, -0.4] + [0.0] * (len(basis) - 2))
        coords = LieCoordinates(2, 2, lam)
        y0 = np.array([1.0, 1.0])
        out = logode_step(vfs, y0, coords, 128)
        want = expm(lam[0] * A[0] + lam[1] * A[1]) @ y0
        assert np.abs(out - want).max() < 1e-10

    def test_divergence_reported(self):
        vfs = VectorFieldSystem(
            1,
            1,
            [lambda y: y**3],
            [lambda y: np.diag(3 * y.ravel() ** 2)],
            smoothness=5,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                logode_step(vfs, np.array([50.0]), coords_on(1, 1, "1", 500.0), 4)


def frozen_matrix(vfs, coords):
    """K of the frozen linear field, column by column from its values on unit vectors."""
    return np.column_stack([lie_extend_evaluate(vfs, coords, e) for e in np.eye(vfs.state_dim)])


class TestLinearStep:
    @settings(max_examples=80, deadline=None)
    @given(linear_cases(max_depth=4), st.integers(1, 16))
    def test_matches_four_stage_rk4(self, case, substeps):
        A, coords, y = case
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        K = frozen_matrix(vfs, coords)
        want, diverged = rk4_linear(K, y, substeps)
        assert diverged is None
        # RK4 on |K| from |y| bounds every magnitude met on the way, so it sets the
        # scale of rounding even where the solution itself cancels towards zero
        scale = float(rk4_linear(np.abs(K), np.abs(y), substeps)[0].max())
        got = logode_step(vfs, y, coords, substeps)
        # four ulps of the scale where it is subnormal, below 1e-13 * scale's reach
        assert np.abs(got - want).max() <= max(1e-13 * scale, 4 * np.spacing(scale))

    def test_zero_coordinate_adds_nothing(self):
        # M_[1,2] = A_2 A_1 - A_1 A_2 overflows for these matrices; a zero coordinate on
        # [1,2] leaves it unformed, in a step, in lie_extend_evaluate and in a solve
        # along a straight driver, whose area coordinate is exactly 0
        A = np.zeros((2, 2, 2))
        A[0, 0, 0] = A[1, 0, 1] = 1e200
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        line = Stream([0.0, 1.0], [[0.0, 0.0], [1e-200, 2e-200]])
        coords = log_signature(line, 2)
        assert coords.coeff("[1,2]") == 0.0
        y0 = np.array([1.0, -1.0])
        trees = [b.bracketing for b in coords.basis]
        want = linear_logode_power_step(A, trees, coords.values, y0, 3)
        assert np.isfinite(want).all()
        assert logode_step(vfs, y0, coords, 3).tobytes() == want.tobytes()
        assert np.isfinite(lie_extend_evaluate(vfs, coords, y0)).all()
        states = solve(vfs, line, y0, LogOdeSchedule([0.0, 1.0], 2, 3))
        assert states[-1].tobytes() == want.tobytes()

    def test_overflow_substep_matches_four_stage_rk4(self):
        # growth 1.0253 per substep from just under the float limit: the state
        # overflows at substep 3, while every RK4 stage stays finite before it; a
        # one-step solve replays its step to report the same substep and warnings
        vfs = VectorFieldSystem.from_linear(LinearSystem(np.ones((1, 1, 1))))
        coords = coords_on(1, 1, "1", 0.1)
        y0 = np.array([1.68e308])
        with np.errstate(over="ignore", invalid="ignore"):
            _, want = rk4_linear(frozen_matrix(vfs, coords), y0, 4)
        driver = Stream([0.0, 1.0], [[0.0], [0.1]])
        reports = []
        for call in (lambda: logode_step(vfs, y0, coords, 4),
                     lambda: solve(vfs, driver, y0, LogOdeSchedule([0.0, 1.0], 1, 4))):
            with warnings.catch_warnings(record=True) as seen, np.errstate(over="warn"):
                warnings.simplefilter("always")
                with pytest.raises(DivergenceError) as err:
                    call()
            reports.append((err.value.substep, [(w.category, str(w.message)) for w in seen]))
        assert want == reports[0][0] == 3
        assert reports[0] == reports[1] and reports[0][1]

    @settings(max_examples=80, deadline=None)
    @given(linear_cases(max_depth=4), st.integers(1, 64))
    def test_squaring_stays_near_the_substeps(self, case, substeps):
        # R^s by squaring rounds differently from s products with R, within the rounding
        # scale of test_matches_four_stage_rk4
        A, coords, y = case
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        scale = float(rk4_linear(np.abs(frozen_matrix(vfs, coords)), np.abs(y), substeps)[0].max())
        trees = [b.bracketing for b in coords.basis]
        want = linear_logode_step(A, trees, coords.values, y, substeps)
        got = logode_step(vfs, y, coords, substeps)
        assert np.abs(got - want).max() <= max(1e-13 * scale, 4 * np.spacing(scale))

    def test_overflowing_power_returns_the_substep_state(self):
        # R = 74,046 per substep: R^64 overflows, while the state grows from 1e-300 to
        # about 4.4e11 through finite substeps
        A = np.ones((1, 1, 1))
        coords, y0 = coords_on(1, 1, "1", 2270.0), np.array([1e-300])
        delta = 2270.0 / 64 * (1 + 2270.0 / 128 * (1 + 2270.0 / 192 * (1 + 2270.0 / 256)))
        assert 64 * np.log1p(delta) > np.log(np.finfo(float).max)
        want = linear_logode_step(A, [1], coords.values, y0, 64)
        assert np.isfinite(want).all() and want[0] > 1e11
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        assert logode_step(vfs, y0, coords, 64).tobytes() == want.tobytes()
        driver = Stream([0.0, 1.0], [[0.0], [2270.0]])
        states = solve(vfs, driver, y0, LogOdeSchedule([0.0, 1.0], 1, 64))
        assert states[-1].tobytes() == want.tobytes()

    def test_transient_overflow_names_the_substep(self):
        # K = [[-16, 1e10], [0, -16]] at h = 1/16: R = [[p, 1e10 p' / 16], [0, p]] with
        # p = p(-1) = 0.375 and p' = p'(-1) = 1/3, so R y overflows from y = (0, 1e301)
        # at substep 1, while R^16 y = (16 p^15 1e10 p' / 16, p^16) 1e301 stays finite
        A = np.array([[[-16.0, 1e10], [0.0, -16.0]]])
        y0 = np.array([0.0, 1e301])
        hk, eye = A[0] / 16, np.eye(2)
        R = eye + hk @ (eye + hk / 2 @ (eye + hk / 3 @ (eye + hk / 4)))
        assert np.isfinite(np.linalg.matrix_power(R, 16) @ y0).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert rk4_linear(A[0], y0, 16)[1] == 1
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        driver = Stream([0.0, 1.0], [[0.0], [1.0]])
        for call in (lambda: logode_step(vfs, y0, coords_on(1, 1, "1"), 16),
                     lambda: solve(vfs, driver, y0, LogOdeSchedule([0.0, 1.0], 1, 16))):
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
                call()
            assert err.value.substep == 1


@st.composite
def linear_solves(draw):
    """A linear system over d <= 3 letters on R^m, m <= 4, a driver of 2-8 samples, a
    state, and a uniform schedule of 1-20 steps at depth 1-5 with 1-16 substeps;
    matrices, driver points and state hold +0.0 and -0.0 among their values."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = st.floats(-1.0, 1.0, allow_nan=False) | st.sampled_from([0.0, -0.0])
    A = draw(arrays(float, (d, m, m), elements=values))
    n = draw(st.integers(2, 8))
    times = np.cumsum(draw(arrays(float, n, elements=st.floats(0.1, 1.0))))
    driver = Stream(times, draw(arrays(float, (n, d), elements=values)))
    y0 = draw(arrays(float, m, elements=values))
    schedule = LogOdeSchedule.uniform(driver, draw(st.integers(1, 20)), draw(st.integers(1, 5)),
                                      draw(st.integers(1, 16)))
    return VectorFieldSystem.from_linear(LinearSystem(A)), driver, y0, schedule


class TestSolve:
    def test_zero_driver(self):
        A = np.zeros((2, 2, 2))
        A[0] = np.eye(2)
        vfs = VectorFieldSystem.from_linear(LinearSystem(A))
        s = Stream([0.0, 1.0, 2.0], np.zeros((3, 2)))
        y0 = np.array([1.0, -1.0])
        sched = LogOdeSchedule.uniform(s, 4, depth=2, substeps=4)
        traj = solve(vfs, s, y0, sched)
        assert traj.shape == (5, 2)
        assert np.abs(traj - y0).max() < 1e-14

    def test_scalar_linear_driver(self):
        # dy = y dgamma in 1-D: y(T) = y0 exp(gamma_T - gamma_0)
        rng = np.random.default_rng(3)
        gamma = 0.4 * rng.standard_normal(12).cumsum()
        s = Stream(np.linspace(0.0, 1.0, 12), gamma)
        vfs = VectorFieldSystem.from_linear(LinearSystem(np.ones((1, 1, 1))))
        sched = LogOdeSchedule.uniform(s, 32, depth=2, substeps=32)
        traj = solve(vfs, s, np.array([1.5]), sched)
        want = 1.5 * np.exp(gamma[-1] - gamma[0])
        assert traj[-1, 0] == pytest.approx(want, abs=1e-8)

    def test_rotation_system_square_loop(self):
        # so(3) generators driven by the unit square; exact product oracle
        c = 0.6
        Lx = np.array([[0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        Ly = np.array([[0, 0, 1.0], [0, 0, 0], [-1.0, 0, 0]])
        lin = LinearSystem(np.stack([c * Lx, c * Ly]))
        vfs = VectorFieldSystem.from_linear(lin)
        square = Stream(
            [0, 1, 2, 3, 4], [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        )
        y0 = np.array([1.0, 0.0, 0.0])
        exact = linear_solve(lin, square, y0)
        sched = LogOdeSchedule.uniform(square, 64, depth=2, substeps=24)
        got = solve(vfs, square, y0, sched)[-1]
        assert np.abs(got - exact).max() < 1e-6

    def test_one_step_per_segment_matches_oracle(self):
        # with one step per linear segment the frozen field is the exact
        # generator of that segment, so only RK4 error remains
        rng = np.random.default_rng(12)
        lin = LinearSystem(0.5 * rng.standard_normal((2, 3, 3)))
        vfs = VectorFieldSystem.from_linear(lin)
        s = random_stream(rng, 2, 6, scale=0.4)
        y0 = rng.standard_normal(3)
        sched = LogOdeSchedule(s.times, depth=4, substeps=200)
        got = solve(vfs, s, y0, sched)[-1]
        exact = linear_solve(lin, s, y0)
        assert np.abs(got - exact).max() < 1e-9

    def test_norm_preserving_fields(self):
        # skew generators are tangent to spheres; the solve must preserve |y|
        rng = np.random.default_rng(4)
        mats = []
        for _ in range(2):
            g = rng.standard_normal((3, 3))
            mats.append(0.5 * (g - g.T))
        lin = LinearSystem(np.stack(mats))
        vfs = VectorFieldSystem.from_linear(lin)
        s = random_stream(rng, 2, 10, scale=0.6)
        y0 = np.array([1.0, 0.0, 0.0])
        sched = LogOdeSchedule.uniform(s, 16, depth=2, substeps=64)
        traj = solve(vfs, s, y0, sched)
        norms = np.linalg.norm(traj, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_matches_step_by_step_restricted_log_signatures(self):
        rng = np.random.default_rng(21)
        lin = LinearSystem(0.5 * rng.standard_normal((2, 3, 3)))
        driver = Stream(np.cumsum(rng.uniform(0.1, 1.0, 40)), rng.standard_normal((40, 2)))
        t0, t1 = driver.interval
        # a linear system, whose steps are squared, and the general trigonometric one of
        # demos/03_logode.py, whose steps take RK4 substeps
        systems = [(VectorFieldSystem.from_linear(lin), np.array([1.0, 0.0, -1.0])),
                   (VectorFieldSystem(2, 2, *demo_trig_fields(), smoothness=3),
                    np.array([0.2, -0.1]))]
        for vfs, y0 in systems:
            # uniform steps, and steps whose boundaries fall on sample times
            for bounds in (np.linspace(t0, t1, 8), driver.times[::3]):
                for depth in (1, 2, 3):
                    schedule = LogOdeSchedule(bounds, depth, substeps=4)
                    y, want = y0, [y0]
                    for lo, hi in zip(bounds[:-1], bounds[1:]):
                        coords = log_signature(restrict(driver, lo, hi), depth)
                        y = logode_step(vfs, y, coords, schedule.substeps)
                        want.append(y)
                    got = solve(vfs, driver, y0, schedule)
                    assert got.tobytes() == np.array(want).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(linear_solves(), st.integers(1, 5))
    def test_stacked_steps_are_the_chain_of_single_steps(self, case, per_slice):
        # K and R - I built for all steps at once equal, byte for byte and signed zeros
        # included, logode_step on each step's own log-signature; also when the stacks
        # hold only per_slice steps each
        vfs, driver, y0, schedule = case
        bounds, y, want = schedule.boundaries, y0, [y0]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            coords = log_signature(restrict(driver, lo, hi), schedule.depth)
            y = logode_step(vfs, y, coords, schedule.substeps)
            want.append(y)
        want = np.array(want).tobytes()
        assert solve(vfs, driver, y0, schedule).tobytes() == want
        with mock.patch.object(logode, "_CACHE_ELEMENTS", per_slice * vfs.state_dim**2):
            assert solve(vfs, driver, y0, schedule).tobytes() == want

    def test_initial_state_checked(self):
        vfs = VectorFieldSystem.from_linear(LinearSystem(np.ones((1, 2, 2))))
        s = Stream([0.0, 1.0], [[0.0], [1.0]])
        sched = LogOdeSchedule.uniform(s, 2, depth=1)
        for y0 in ([1.0], [1.0, 2.0, 3.0], [1.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(DomainError, match="y0"):
                solve(vfs, s, np.array(y0), sched)

    def test_uniform_needs_a_step(self):
        s = Stream([0.0, 1.0], [[0.0], [1.0]])
        for steps in (0, -3):
            with pytest.raises(DomainError, match="steps"):
                LogOdeSchedule.uniform(s, steps, depth=1)

    def test_boundaries_checked(self):
        vfs = VectorFieldSystem.from_linear(LinearSystem(np.ones((1, 1, 1))))
        s = Stream([0.0, 1.0], [[0.0], [1.0]])
        sched = LogOdeSchedule(np.array([0.0, 2.0]), depth=1)
        with pytest.raises(DomainError):
            solve(vfs, s, np.array([1.0]), sched)


class TestLinearOracle:
    def test_zero_stream(self):
        rng = np.random.default_rng(5)
        lin = LinearSystem(rng.standard_normal((2, 3, 3)))
        s = Stream([0.0, 1.0], np.zeros((2, 2)))
        y0 = rng.standard_normal(3)
        assert np.array_equal(linear_solve(lin, s, y0), y0)

    def test_one_dimensional(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        lin = LinearSystem(a[None])
        s = Stream([0.0, 0.5, 1.0], [[0.0], [0.9], [1.7]])
        y0 = rng.standard_normal(3)
        want = expm(1.7 * a) @ y0
        assert np.abs(linear_solve(lin, s, y0) - want).max() < 1e-11 * max(1.0, np.abs(want).max())

    def test_series_residual_within_tail_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            lin = LinearSystem(0.5 * rng.standard_normal((2, 2, 2)))
            s = random_stream(rng, 2, 6, scale=0.5)
            y0 = rng.standard_normal(2)
            depth = int(rng.integers(2, 7))
            truncated = linear_series_apply(lin, signature(s, depth), y0)
            exact = linear_solve(lin, s, y0)
            bound = series_tail_bound(
                lin.operator_norm(),
                s.total_variation("l1"),
                depth,
                float(np.linalg.norm(y0)),
            )
            assert np.linalg.norm(exact - truncated) <= bound * (1 + 1e-9) + 1e-14


LINE = Stream([0.0, 1.0], [[0.0], [1.0]])


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: LinearSystem(np.zeros((2, 2, 3))), "shape"),
        (lambda: LinearSystem(np.full((1, 2, 2), np.nan)), "finite"),
        (lambda: VectorFieldSystem(2, 2, [np.sin], [np.cos]), "one field and one Jacobian"),
        (lambda: logode_step(VectorFieldSystem.from_linear(LinearSystem(np.eye(2)[None])),
                             [1.0, 0.0], LieCoordinates(1, 1, [0.5]), 0), "substeps"),
        (lambda: LogOdeSchedule([0.0, 0.5, 0.5], 2), "increasing"),
        (lambda: linear_solve(LinearSystem(np.zeros((2, 2, 2))), LINE, [1.0, 0.0]),
         "driver dimension"),
        (lambda: linear_series_apply(LinearSystem(np.zeros((2, 2, 2))), signature(LINE, 2),
                                     [1.0, 0.0]), "driver dimensions differ"),
        (lambda: logode_step(VectorFieldSystem.from_linear(LinearSystem(np.eye(2)[None])),
                             [1.0, 0.0], LieCoordinates(2, 1, [0.5, 0.5]), 1), "2-dimensional"),
        (lambda: LogOdeSchedule([0.0, 1.0], 0), "truncation degree"),
        (lambda: logode_step(VectorFieldSystem.from_linear(LinearSystem(np.eye(2)[None])),
                             [1.0, 0.0], LieCoordinates(1, 1, [0.5]), 2.5), "substeps"),
        (lambda: logode_step(VectorFieldSystem.from_linear(LinearSystem(np.eye(2)[None])),
                             [1.0, 0.0], LieCoordinates(1, 1, [0.5]), True), "substeps"),
        (lambda: LogOdeSchedule([0.0, 1.0], 2, substeps=0), "substeps"),
        (lambda: LogOdeSchedule([0.0, 1.0], 2, substeps=2.5), "substeps"),
        (lambda: LogOdeSchedule.uniform(LINE, 2.5, 2), "steps"),
        (lambda: LogOdeSchedule.uniform(LINE, True, 2), "steps"),
        (lambda: LogOdeSchedule([0.0, 1.0], 2.5), "truncation degree"),
        (lambda: LogOdeSchedule([0.0, 1.0], True), "truncation degree"),
        (lambda: solve(VectorFieldSystem.from_linear(LinearSystem(np.zeros((2, 2, 2)))),
                       Stream([0.0, 1.0], np.zeros((2, 3))), [1.0, 0.0],
                       LogOdeSchedule([0.0, 1.0], 2)), "3-dimensional"),
        (lambda: VectorFieldSystem(2, 2, [np.sin, np.cos], [np.diag, np.diag], 3,
                                   [[0.1, 0.2], [0.3]]), "validate_at"),
    ],
    ids=["system-shape", "system-nan", "field-count", "zero-substeps", "boundaries",
         "solve-dimension", "series-dimension", "coords-dimension", "schedule-depth",
         "fractional-substeps", "bool-substeps", "schedule-zero-substeps",
         "schedule-fractional-substeps", "fractional-steps", "bool-steps",
         "fractional-depth", "bool-depth", "solve-driver-dimension", "ragged-validate-at"],
)
def test_input_checks(call, match):
    with pytest.raises(DomainError, match=match):
        call()
