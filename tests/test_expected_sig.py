import math

import numpy as np
import pytest

from sigstream import streams as streams_module
from sigstream import tensor_algebra
from sigstream.errors import DimensionMismatchError, DomainError
from sigstream.expected_sig import (
    DiskDomain,
    GridDomain,
    PolygonDomain,
    mc_expected_sig,
    parse_domain,
    radius_diagnostic,
    solve_recurrence,
)
from sigstream.streams import Stream, signature

from oracles import grid_neighbours_per_offset, laplacian_per_direction, poisson_sources_per_word

DISK = DiskDomain(1.0)

# mc_expected_sig(DISK, (0, 0), 4, paths=300, dt=5e-3, seed=7) as the whole-tensor
# Chen fold computed it, before the Lyndon prefix fold
PINNED_MEAN = [
    [1.0],
    [0.0008259688504193924, -0.032134869879281575],
    [0.24673704084716655, 0.004744397679292839, 0.018740657969449813, 0.2532629591528335],
    [0.0024510293479518453, 0.0025579107927881767, 0.004434256492523209,
     -0.006221759452523852, -0.005352810173595559, 0.0034869524046653327,
     -0.0042052965707873495, -0.0059022640171188705],
    [0.015380042954989783, -0.00022300639204824907, -0.000452707284736568,
     0.017797379858231585, -7.904608762151534e-06, -0.0014733427531175099,
     0.0009911588150837518, -0.0003112069108943941, 0.002368848355496733,
     -0.0005941374005642216, -0.003231020062281477, 0.0025876594105319903,
     0.017598224236292436, -0.00028716089435434336, 0.0002396542662240934,
     0.01592386948046202],
]
PINNED_STDERR = [
    [0.0],
    [0.04062527178071338, 0.04111706382924437],
    [0.010247944635090855, 0.015105019721728917, 0.014582213539238232,
     0.010247944635090855],
    [0.005338668592108534, 0.0043795858554217205, 0.005521089169204946,
     0.007167717536057825, 0.0064635210998594, 0.006446528407797854, 0.004635065132307882,
     0.005441161702943817],
    [0.0008750103980563007, 0.0010132346473920584, 0.0012256424392054596,
     0.001534982514952015, 0.0023894036835876934, 0.0028806241264709787,
     0.002198046253994853, 0.003065523851698296, 0.00241971380541929,
     0.0025570050749192056, 0.0027585899330881116, 0.0038525511951755832,
     0.0013577886863516742, 0.001766094485119151, 0.0010958507844036614,
     0.000884919562093505],
]


class TestDomains:
    def test_disk_contains(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.9, 0.9]])
        got = DISK.contains(pts)
        assert list(got) == [True, True, False, False]

    def test_disk_crossing_fraction(self):
        frac = DISK.crossing_fraction(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert frac[0] == pytest.approx(0.5)

    def test_disk_boundary_distance(self):
        d = DISK.boundary_distance(np.array([0.5, 0.0]), np.array([1.0, 0.0]))
        assert d == pytest.approx(0.5)
        d2 = DISK.boundary_distance(np.array([0.5, 0.0]), np.array([-1.0, 0.0]))
        assert d2 == pytest.approx(1.5)

    def test_polygon_contains_and_crossing(self):
        square = PolygonDomain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        assert bool(square.contains(np.array([[0.0, 0.0]]))[0])
        assert not bool(square.contains(np.array([[1.5, 0.0]]))[0])
        frac = square.crossing_fraction(
            np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]])
        )
        assert frac[0] == pytest.approx(0.5)
        assert square.boundary_distance(
            np.array([0.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(1.0)

    def test_parse_domain(self):
        d = parse_domain("disk:2.5")
        assert isinstance(d, DiskDomain) and d.radius == 2.5
        p = parse_domain("polygon:0,0;1,0;1,1")
        assert isinstance(p, PolygonDomain)
        for bad in ("torus:1", "disk:abc", "disk:inf", "polygon:0,0;1", "polygon:0,0;1,0;nan,1"):
            with pytest.raises(DomainError):
                parse_domain(bad)

    def test_polygon_edges_and_vertices_are_outside(self):
        square = PolygonDomain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        edge = np.array([[-1.0, 0.3], [1.0, -0.2], [0.4, -1.0], [-0.7, 1.0]])
        corners = square.vertices
        assert not square.contains(edge).any()
        assert not square.contains(corners).any()
        assert square.contains(0.999 * edge).all()
        triangle = PolygonDomain([(0, 0), (2, 0), (0, 2)])
        assert not triangle.contains(np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])).any()
        assert triangle.contains(np.array([[0.5, 0.5]])).all()

    def test_non_finite_sizes_rejected(self):
        for radius in (math.inf, math.nan, 0.0):
            with pytest.raises(DomainError):
                DiskDomain(radius)
        for h in (math.inf, math.nan, -0.1):
            with pytest.raises(DomainError):
                GridDomain(DISK, h)


class TestGrid:
    def test_center_is_a_grid_point(self):
        grid = GridDomain(DISK, 0.05)
        idx = grid.index_of_point((0.0, 0.0))
        assert np.allclose(grid.points[idx], [0.0, 0.0])

    def test_interior_count_scales_with_area(self):
        grid = GridDomain(DISK, 0.05)
        expected = math.pi / 0.05**2
        assert abs(grid.n_interior - expected) / expected < 0.05

    def test_poisson_residual_small(self):
        grid = GridDomain(DISK, 0.05)
        rhs = np.ones(grid.n_interior)
        u = grid.solve_poisson(rhs)
        residual = np.linalg.norm(grid.laplacian @ u - rhs) / np.linalg.norm(rhs)
        assert residual < 1e-10

    @pytest.mark.parametrize(
        "message, error",
        [("SUPERLU_MALLOC fails for buf in intCalloc()", MemoryError),
         ("Factor is exactly singular", RuntimeError)],
    )
    def test_superlu_allocation_failure_is_a_memory_error(self, monkeypatch, message, error):
        import scipy.sparse.linalg

        def failing_splu(matrix):
            raise RuntimeError(message)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
        with pytest.raises(error, match=message[:20]):
            GridDomain(DISK, 0.2).solve_poisson(np.zeros(1))

    def test_maximum_principle(self):
        # negative source, zero boundary: solution strictly positive inside
        grid = GridDomain(DISK, 0.05)
        u = grid.solve_poisson(-np.ones(grid.n_interior))
        assert u.min() > 0.0


class TestRecurrence:
    def test_level0_and_level1(self):
        grid = GridDomain(DISK, 0.05)
        field = solve_recurrence(grid, 3)
        assert np.all(field.levels[0] == 1.0)
        assert np.all(field.levels[1] == 0.0)

    def test_disk_center_level2(self):
        grid = GridDomain(DISK, 0.05)
        c = solve_recurrence(grid, 2).center_values()
        lvl2 = c.levels[2].reshape(2, 2)
        assert lvl2[0, 0] == pytest.approx(0.25, abs=1e-3)
        assert lvl2[1, 1] == pytest.approx(0.25, abs=1e-3)
        assert abs(lvl2[0, 1]) < 1e-12 and abs(lvl2[1, 0]) < 1e-12

    def test_odd_levels_vanish_at_center(self):
        grid = GridDomain(DISK, 0.05)
        c = solve_recurrence(grid, 4).center_values()
        assert np.abs(c.levels[3]).max() < 1e-10

    def test_level4_center_analytic_value(self):
        # E<S^4,(i,i,k,k)> = 1/64 at the disk centre; other words vanish
        grid = GridDomain(DISK, 0.02)
        c = solve_recurrence(grid, 4).center_values()
        lvl4 = c.levels[4].reshape(2, 2, 2, 2)
        for i in range(2):
            for k in range(2):
                assert lvl4[i, i, k, k] == pytest.approx(1 / 64, abs=2e-4)
        assert abs(lvl4[0, 1, 0, 1]) < 1e-10

    def test_square_center_level2_torsion_series(self):
        # E<S^2,(1,1)> at the centre of [-1,1]^2 is the torsion function w(0),
        # with Laplacian w = -1 and w = 0 on the edges; at h = 0.02 the edges
        # lie on grid lines, which must count as boundary, not interior
        h = 0.02
        torsion = 0.5 - 16 / math.pi**3 * sum(
            (-1) ** ((n - 1) // 2) / (n**3 * math.cosh(n * math.pi / 2))
            for n in range(1, 60, 2)
        )
        square = PolygonDomain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        c = solve_recurrence(GridDomain(square, h), 2).center_values()
        assert abs(c.levels[2][0] - torsion) <= 0.5 * h**2

    def test_snap_mode_coarser_but_sane(self):
        grid = GridDomain(DISK, 0.05, boundary="snap")
        c = solve_recurrence(grid, 2).center_values()
        assert c.levels[2].reshape(2, 2)[0, 0] == pytest.approx(0.25, abs=0.02)

    def test_coefficient_budget(self, monkeypatch):
        grid = GridDomain(DISK, 0.25)
        monkeypatch.setattr(streams_module, "_COEFF_BUDGET", grid.n_interior * 15)  # depth 3
        solve_recurrence(grid, 3)
        with pytest.raises(DomainError, match="budget"):
            solve_recurrence(grid, 4)

    def test_depth_validation(self):
        grid = GridDomain(DISK, 0.1)
        with pytest.raises(DomainError):
            solve_recurrence(grid, 1)


QUAD = PolygonDomain([(-0.9, -0.7), (1.1, -0.4), (0.6, 0.9), (-0.8, 0.5)])
# a disk, the square and an irregular quadrilateral, each in both boundary modes
ARRAY_FORM_GRIDS = [
    pytest.param(domain, boundary, id=f"{name}-{boundary}")
    for name, domain in (
        ("disk", DiskDomain(0.8, center=(0.3, -0.2))),
        ("square", PolygonDomain([(-1, -1), (1, -1), (1, 1), (-1, 1)])),
        ("quad", QUAD),
    )
    for boundary in ("exact", "snap")
]


class TestArrayForm:
    """The whole-array grid code against per-offset, per-direction and per-word
    loops, byte for byte: np.array_equal would let -0.0 pass for 0.0."""

    @pytest.mark.parametrize("domain, boundary", ARRAY_FORM_GRIDS)
    def test_matches_the_loops_byte_for_byte(self, domain, boundary):
        grid = GridDomain(domain, 0.07, boundary)
        neighbour, theta = grid_neighbours_per_offset(grid)
        assert grid.neighbour.tobytes() == neighbour.tobytes()
        assert grid.theta.tobytes() == theta.tobytes()
        got, want = grid.laplacian.tocsc(), laplacian_per_direction(grid).tocsc()
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
        levels = solve_recurrence(grid, 5).levels
        for level in range(2, 6):
            rhs = poisson_sources_per_word(grid, levels, level)
            assert grid.solve_poisson(rhs.T).T.tobytes() == levels[level].tobytes(), level

    def test_derivative_of_stacked_functions(self):
        grid = GridDomain(QUAD, 0.07)
        u = np.random.default_rng(3).standard_normal((5, grid.n_interior))
        for axis in range(2):
            rows = np.stack([grid.derivative(row, axis) for row in u])
            assert grid.derivative(u, axis).tobytes() == rows.tobytes()


class TestMonteCarlo:
    def test_reproducible_under_seed(self):
        a = mc_expected_sig(DISK, (0.0, 0.0), 3, paths=50, dt=1e-2, seed=5)
        b = mc_expected_sig(DISK, (0.0, 0.0), 3, paths=50, dt=1e-2, seed=5)
        for k in range(4):
            assert np.array_equal(a.mean.levels[k], b.mean.levels[k])
            assert np.array_equal(a.stderr[k], b.stderr[k])

    def test_single_path_zero_stderr_level0(self):
        out = mc_expected_sig(DISK, (0.0, 0.0), 2, paths=1, dt=1e-2, seed=9)
        assert out.mean.levels[0][0] == 1.0
        assert np.all(out.stderr[0] == 0.0)

    def test_level1_unbiased(self):
        out = mc_expected_sig(DISK, (0.0, 0.0), 2, paths=4000, dt=1e-3, seed=17)
        z = np.abs(out.mean.levels[1]) / out.stderr[1]
        assert z.max() < 4.0

    def test_level2_diagonal_quarter(self):
        out = mc_expected_sig(DISK, (0.0, 0.0), 2, paths=8000, dt=1e-3, seed=23)
        lvl2 = out.mean.levels[2].reshape(2, 2)
        se = out.stderr[2].reshape(2, 2)
        assert abs(lvl2[0, 0] - 0.25) < 4 * se[0, 0]
        assert abs(lvl2[1, 1] - 0.25) < 4 * se[1, 1]

    def test_exit_points_on_boundary(self):
        # |B_exit| = 1 exactly means the level-2 diagonal sums to 1/2 exactly
        out = mc_expected_sig(DISK, (0.0, 0.0), 2, paths=500, dt=1e-2, seed=31)
        lvl2 = out.mean.levels[2].reshape(2, 2)
        assert lvl2[0, 0] + lvl2[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_block_and_stepwise_routes_agree(self):
        fast = mc_expected_sig(DISK, (0.0, 0.0), 3, paths=300, dt=5e-3, seed=7)
        slow = mc_expected_sig(DISK, (0.0, 0.0), 4, paths=300, dt=5e-3, seed=7)
        for k in range(4):
            assert np.abs(fast.mean.levels[k] - slow.mean.levels[k]).max() < 1e-12

    def assert_pinned(self, out):
        for got, want in ((out.mean.levels, PINNED_MEAN), (out.stderr, PINNED_STDERR)):
            for g, w in zip(got, want):
                w = np.asarray(w)
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()

    def test_matches_the_whole_tensor_fold(self):
        self.assert_pinned(mc_expected_sig(DISK, (0.0, 0.0), 4, paths=300, dt=5e-3, seed=7))

    def test_chunks_and_fallback_match(self, monkeypatch):
        # depth-4 tables (341 floats) still fit: 16-path chunks in the prefix fold
        # and stopped paths expanded 12 at a time
        monkeypatch.setattr(tensor_algebra, "_CHUNK_ELEMENTS", 400)
        self.assert_pinned(mc_expected_sig(DISK, (0.0, 0.0), 4, paths=300, dt=5e-3, seed=7))
        # tables over the limit: whole signatures through chen_fold
        monkeypatch.setattr(tensor_algebra, "_CHUNK_ELEMENTS", 300)
        self.assert_pinned(mc_expected_sig(DISK, (0.0, 0.0), 4, paths=300, dt=5e-3, seed=7))

    def test_start_must_be_interior(self):
        with pytest.raises(DomainError):
            mc_expected_sig(DISK, (2.0, 0.0), 2, paths=10, dt=1e-2, seed=1)

    def test_malformed_arguments_rejected(self):
        for start, depth, seed in (
            ((0.0,), 2, 1),
            ((0.0, 0.0, 0.0), 2, 1),
            ((np.nan, 0.0), 2, 1),
            ((0.0, 0.0), 0, 1),
            ((0.0, 0.0), 2, -1),
        ):
            with pytest.raises(DomainError):
                mc_expected_sig(DISK, start, depth, paths=10, dt=1e-2, seed=seed)

    def test_coefficient_budget(self, monkeypatch):
        monkeypatch.setattr(streams_module, "_COEFF_BUDGET", 10 * 15)  # 10 paths at depth 3
        mc_expected_sig(DISK, (0.0, 0.0), 3, 10, 0.05, 1)
        with pytest.raises(DomainError, match="budget"):
            mc_expected_sig(DISK, (0.0, 0.0), 3, 11, 0.05, 1)
        with pytest.raises(DomainError, match="budget"):
            mc_expected_sig(DISK, (0.0, 0.0), 4, 10, 0.05, 1)

    def test_polygon_domain_runs(self):
        square = PolygonDomain([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        out = mc_expected_sig(square, (0.0, 0.0), 2, paths=400, dt=2e-3, seed=3)
        lvl2 = out.mean.levels[2].reshape(2, 2)
        # E|B_exit|^2 = E[T] * 2 ... sanity: diagonal entries positive
        assert lvl2[0, 0] > 0 and lvl2[1, 1] > 0


class TestRadiusDiagnostic:
    def test_straight_segment_profile(self):
        length = 1.8
        s = Stream([0.0, 1.0], [[0.0, 0.0], [length / np.sqrt(2)] * 2])
        diag = radius_diagnostic(signature(s, 6))
        for n in range(7):
            assert diag.norms_l1[n] == pytest.approx(
                s.total_variation("l1") ** n / math.factorial(n), rel=1e-12
            )
        # ratio profile decays toward zero: infinite radius of convergence
        assert diag.ratios_l1[-1] < diag.ratios_l1[0]

    def test_zero_levels_flagged(self):
        s = Stream([0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
        diag = radius_diagnostic(signature(s, 4))
        assert bool(diag.zero_levels[1])
        assert np.all(diag.ratios_l1 == 0.0)

    def test_stopped_disk_field_profile(self):
        grid = GridDomain(DISK, 0.04)
        field = solve_recurrence(grid, 4)
        diag = radius_diagnostic(field)
        assert diag.norms_l1[0] == 1.0
        assert diag.norms_l1[2] > 0 and diag.norms_l1[4] > 0
        # even-to-even ratios are finite and positive
        assert diag.norms_l1[4] / diag.norms_l1[2] > 0

    def test_depth_requirement(self):
        s = Stream([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            radius_diagnostic(signature(s, 2))


# the bounding box's centre, the grid's anchor node, is a vertex of this chevron
CHEVRON = PolygonDomain([(0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (1.0, 0.5)])


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: PolygonDomain([(0.0, 0.0), (1.0, 0.0)]), DomainError, "three"),
        (lambda: GridDomain(DISK, 0.1, boundary="bogus"), DomainError, "'exact' or 'snap'"),
        (lambda: GridDomain(CHEVRON, 10.0), DomainError, "no interior grid points"),
        (lambda: radius_diagnostic(np.zeros(4)), DimensionMismatchError, "expects"),
    ],
    ids=["polygon-vertices", "boundary-name", "no-interior", "radius-input"],
)
def test_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()
