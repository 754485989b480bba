import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigstream.cli import main
from sigstream.streams import TRANSFORMS, Stream, signature, write_csv
from sigstream.tensor_algebra import from_json_dict

TWO_SEGMENT = "t,x1,x2\n0,0,0\n1,1,0\n2,1,1\n"
UNIT_SQUARE = "t,x1,x2\n0,0,0\n1,1,0\n2,1,1\n3,0,1\n4,0,0\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args):
    """``python *args`` in a subprocess that imports sigstream from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env={**os.environ, "PYTHONPATH": path})


# finite coordinates whose increments overflow
HUGE = "t,x1,x2\n0,1e308,-1e308\n1,-1e308,1e308\n"


def strict_json(text):
    """``json.loads`` that rejects the non-JSON tokens NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def two_segment_csv(tmp_path):
    path = tmp_path / "two_segment.csv"
    path.write_text(TWO_SEGMENT)
    return path


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(UNIT_SQUARE)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


class TestBasics:
    def test_no_arguments_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_short_logsig_imports_no_scipy(self, tmp_path):
        (tmp_path / "s.csv").write_text(TWO_SEGMENT)
        code = (
            "import sys; from sigstream import cli; "
            "code = cli.main(['logsig', '--depth', '4', sys.argv[1]]); "
            "sys.exit(code or any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        result = run_python("-c", code, str(tmp_path / "s.csv"))
        assert result.returncode == 0, result.stderr
        strict_json(result.stdout)

    def test_import_leaves_scipy_stats_out(self):
        code = (
            "import sys, sigstream.cli; "
            "lazy = ('scipy.stats', 'scipy.sparse', 'scipy.linalg'); "
            "sys.exit(any(m in sys.modules for m in lazy))"
        )
        assert run_python("-c", code).returncode == 0

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sig", "--depth", 2, tmp_path / "nope.csv")
        assert code == 3
        assert "data error" in err

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1\n0,0\n0,1\n")
        code, _, err = run(capsys, "sig", "--depth", 2, bad)
        assert code == 3


class TestSig:
    def test_two_segment_golden(self, capsys, two_segment_csv):
        code, out, _ = run(capsys, "sig", "--depth", 2, two_segment_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"]["1,2"] == 1.0
        assert payload["coefficients"]["2,1"] == 0.0
        assert payload["coefficients"]["1,1"] == 0.5

    def test_round_trip_equals_in_process(self, capsys, two_segment_csv):
        code, out, _ = run(capsys, "sig", "--depth", 3, two_segment_csv)
        payload = json.loads(out)
        reparsed = from_json_dict(payload)
        direct = signature(
            Stream([0, 1, 2], [[0, 0], [1, 0], [1, 1]]), 3
        )
        for a, b in zip(reparsed.levels, direct.levels):
            assert np.array_equal(a, b)

    def test_deterministic_output(self, capsys, two_segment_csv):
        _, out1, _ = run(capsys, "sig", "--depth", 4, two_segment_csv)
        _, out2, _ = run(capsys, "sig", "--depth", 4, two_segment_csv)
        assert out1 == out2

    def test_output_file(self, capsys, two_segment_csv, tmp_path):
        target = tmp_path / "sig.json"
        code, out, _ = run(
            capsys, "sig", "--depth", 2, two_segment_csv, "-o", target
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["d"] == 2


class TestLogsig:
    def test_square_levy_area_golden(self, capsys, square_csv):
        code, out, _ = run(capsys, "logsig", "--depth", 2, square_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["coords"]["[1,2]"] == pytest.approx(1.0, abs=1e-12)
        assert payload["coords"]["1"] == pytest.approx(0.0, abs=1e-12)
        assert [name for name, _ in payload["pairs"]] == ["1", "2", "[1,2]"]


class TestDpdist:
    def test_identical_streams(self, capsys, square_csv):
        code, out, _ = run(
            capsys, "dpdist", "--p", 1.5, "--levels", 3, square_csv, square_csv
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimates"] == [0.0, 0.0, 0.0]

    def test_bad_p_is_data_error(self, capsys, square_csv):
        for p in (0.5, "nan", "inf"):
            code, _, err = run(
                capsys, "dpdist", "--p", p, "--levels", 2, square_csv, square_csv
            )
            assert code == 3, p


class TestNonFiniteResults:
    """Streams whose increments overflow: every subcommand exits 4, names itself
    and writes nothing."""

    @pytest.fixture
    def huge_csv(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(HUGE)
        return path

    @pytest.mark.parametrize("argv", [["sig", "--depth", "2"], ["dpdist", "--p", "2", "--levels", "2"]])
    def test_emit_refuses_non_finite_json(self, capsys, huge_csv, square_csv, argv):
        files = [huge_csv, square_csv] if argv[0] == "dpdist" else [huge_csv]
        code, out, err = run(capsys, *argv, *files)
        assert (code, out) == (4, "")
        assert f"numerical failure in {argv[0]}:" in err

    def test_logsig_fails_the_membership_test(self, capsys, huge_csv):
        code, out, err = run(capsys, "logsig", "--depth", 2, huge_csv)
        assert (code, out) == (4, "")
        assert "numerical failure in logsig: the element's norm is not finite" in err

    def test_develop_refuses_an_overflowing_generator(self, capsys, tmp_path, huge_csv):
        pauli = [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]]
        (tmp_path / "policy.json").write_text(json.dumps({"u": 2, "generators": pauli}))
        code, out, err = run(capsys, "develop", "--policy", tmp_path / "policy.json", huge_csv)
        assert (code, out) == (4, "")
        assert "numerical failure in develop:" in err

    def test_fit_and_score_write_nothing(self, capsys, tmp_path, huge_csv, square_csv):
        (tmp_path / "train.txt").write_text(f"{huge_csv.name}\n{square_csv.name}\n")
        (tmp_path / "good.txt").write_text(f"{square_csv.name}\ntwo_segment.csv\n")
        (tmp_path / "two_segment.csv").write_text(TWO_SEGMENT)
        (tmp_path / "labels.txt").write_text("0\n1\n")
        model = tmp_path / "model.json"
        for method in ("ridge", "lasso"):
            code, out, err = run(
                capsys, "fit", "--depth", 2, "--method", method, "--lambda", 0.1,
                tmp_path / "train.txt", tmp_path / "labels.txt", "-o", model,
            )
            assert (code, out) == (4, ""), method
            assert "numerical failure in fit:" in err
            assert not model.exists()
        code, _, _ = run(
            capsys, "fit", "--depth", 2, "--method", "ridge", "--lambda", 0.1,
            tmp_path / "good.txt", tmp_path / "labels.txt", "-o", model,
        )
        assert code == 0
        code, out, err = run(capsys, "score", model, tmp_path / "train.txt", tmp_path / "labels.txt")
        assert (code, out) == (4, "")
        assert "numerical failure in score:" in err


class TestLogode:
    def test_linear_system_against_oracle(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        mats = (0.3 * rng.standard_normal((2, 3, 3))).tolist()
        spec = {"m": 3, "d": 2, "matrices": mats, "y0": [1.0, 0.0, -1.0]}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(spec))
        driver = tmp_path / "driver.csv"
        s = Stream(
            np.linspace(0, 1, 9),
            0.4 * rng.standard_normal((9, 2)).cumsum(axis=0),
        )
        write_csv(s, driver)
        code, out, _ = run(
            capsys,
            "logode",
            "--depth", 2, "--steps", 16, "--substeps", 32,
            "--system", system, driver,
        )
        assert code == 0
        payload = json.loads(out)
        from sigstream.logode import LinearSystem, linear_solve

        exact = linear_solve(
            LinearSystem(np.array(spec["matrices"])), s, np.array(spec["y0"])
        )
        got = np.array(payload["states"][-1])
        assert np.abs(got - exact).max() < 1e-5
        assert len(payload["states"]) == 17

    def test_inconsistent_spec_is_data_error(self, capsys, tmp_path):
        spec = {"m": 2, "d": 2, "matrices": np.zeros((2, 3, 3)).tolist(), "y0": [0, 0]}
        system = tmp_path / "system.json"
        system.write_text(json.dumps(spec))
        driver = tmp_path / "driver.csv"
        driver.write_text(TWO_SEGMENT)
        code, _, _ = run(
            capsys, "logode", "--depth", 1, "--steps", 2, "--system", system, driver
        )
        assert code == 3

    def test_integral_float_fields_are_integers(self, capsys, tmp_path):
        driver = tmp_path / "driver.csv"
        driver.write_text(TWO_SEGMENT)
        outs = []
        for m, d in ((2, 2), (2.0, 2.0)):
            spec = {"m": m, "d": d, "matrices": [[[0, 1], [-1, 0]], [[1, 0], [0, 0]]], "y0": [1, 0]}
            system = tmp_path / "system.json"
            system.write_text(json.dumps(spec))
            code, out, _ = run(
                capsys, "logode", "--depth", 2, "--steps", 2, "--system", system, driver
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestDevelop:
    def test_policy_round_trip(self, capsys, tmp_path, square_csv):
        h1 = [[0.5, [0.0, 0.3]], [[0.0, -0.3], -0.5]]
        # generators as [re, im] pairs
        def pack(mat):
            out = []
            for row in mat:
                packed = []
                for z in row:
                    z = complex(*z) if isinstance(z, list) else complex(z)
                    packed.append([z.real, z.imag])
                out.append(packed)
            return out

        gens = [
            pack([[0.5, [0.0, 0.3]], [[0.0, -0.3], -0.5]]),
            pack([[0.0, [1.0, 0.0]], [[1.0, 0.0], 0.0]]),
        ]
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"u": 2, "generators": gens}))
        code, out, _ = run(capsys, "develop", "--policy", policy, square_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["unitarity_defect"] < 1e-10
        psi = np.array(
            [[complex(re, im) for re, im in row] for row in payload["psi"]]
        )
        assert np.abs(psi.conj().T @ psi - np.eye(2)).max() < 1e-10


class TestExpsig:
    def test_disk_center_values(self, capsys):
        code, out, _ = run(
            capsys, "expsig", "--domain", "disk:1.0", "--h", 0.05, "--depth", 2
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["1,1"] == pytest.approx(0.25, abs=1e-3)
        assert payload["values"]["1,2"] == pytest.approx(0.0, abs=1e-12)
        assert payload["values"][""] == 1.0

    def test_malformed_inputs_are_data_errors(self, capsys, tmp_path):
        mc = ("--depth", 2, "--paths", 2, "--seed", 1)
        driver = tmp_path / "driver.csv"
        driver.write_text(TWO_SEGMENT)
        one_d = tmp_path / "one_d.csv"
        one_d.write_text("t,x1\n0,0\n1,1\n2,3\n")
        zeros = np.zeros((2, 2, 2)).tolist()
        logode = []
        for i, (steps, spec) in enumerate((
            (2, {"m": 2, "d": 2, "matrices": zeros, "y0": [1.0]}),
            (2, {"m": 2, "d": 2, "matrices": zeros, "y0": [1.0, float("nan")]}),
            (2, [1, 2]),
            (-3, {"m": 2, "d": 2, "matrices": zeros, "y0": [1.0, 0.0]}),
            (2, {"m": "abc", "d": 2, "matrices": zeros, "y0": [1.0, 0.0]}),
            (2, {"m": 2, "d": 2, "matrices": [[[0, 0], [0]], [[0, 0], [0, 0]]], "y0": [1.0, 0.0]}),
            # wrongly typed fields: no truncation, no strings or booleans read as numbers
            (2, {"m": 2.7, "d": 2, "matrices": zeros, "y0": [1.0, 0.0]}),
            (2, {"m": "2", "d": 2, "matrices": zeros, "y0": [1.0, 0.0]}),
            (2, {"m": 2, "d": True, "matrices": zeros, "y0": [1.0, 0.0]}),
            (2, {"m": 2, "d": 2, "matrices": [[["0", 0], [0, 0]], [[0, 0], [0, 0]]], "y0": [1.0, 0.0]}),
            (2, {"m": 2, "d": 2, "matrices": zeros, "y0": [True, False]}),
            (2, {"m": 2, "d": 2, "matrices": zeros, "y0": ["1", 0]}),
        )):
            system = tmp_path / f"system{i}.json"
            system.write_text(json.dumps(spec))
            logode.append(("logode", "--depth", 2, "--steps", steps, "--system", system, driver))
        (tmp_path / "policy.json").write_text("[1,2]")
        gens = [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]
        develop = [("develop", "--policy", tmp_path / "policy.json", driver)]
        for i, spec in enumerate((
            {"u": "2", "generators": gens},
            {"u": 2.5, "generators": gens},
            {"u": 2, "generators": [[[["1", 0], [0, 0]], [[0, 0], [-1, 0]]], gens[1]]},
            {"u": 2, "generators": [[[[True, 0], [0, 0]], [[0, 0], [-1, 0]]], gens[1]]},
        )):
            policy = tmp_path / f"policy{i}.json"
            policy.write_text(json.dumps(spec))
            develop.append(("develop", "--policy", policy, driver))
        (tmp_path / "manifest.txt").write_text("driver.csv\n")
        (tmp_path / "labels.txt").write_text("1\n")
        # two classes, so that a well-typed model scores with exit 0
        (tmp_path / "manifest2.txt").write_text("driver.csv\ndriver.csv\n")
        (tmp_path / "labels2.txt").write_text("0\n1\n")
        score = []
        for i, spec in enumerate((
            [1, 2],
            {"depth": "abc", "coefficients": [0.0] * 7},
            {"depth": 2, "transform": ["none"], "coefficients": [0.0] * 7},
            {"depth": 2, "coefficients": [[0.0]] * 7},
            {"depth": 2.7, "coefficients": [0.0] * 7},
            {"depth": "2", "coefficients": [0.0] * 7},
            {"depth": True, "coefficients": [0.0] * 3},
            {"depth": 2, "coefficients": ["0"] * 7},
            {"depth": 2, "coefficients": [False] * 7},
            {"depth": 2, "coefficients": [10**400] * 7},  # beyond the float range
        )):
            model = tmp_path / f"model{i}.json"
            model.write_text(json.dumps(spec))
            score.append(("score", model, tmp_path / "manifest2.txt", tmp_path / "labels2.txt"))
        (tmp_path / "latin1.csv").write_bytes("t,x1\n0,0\n1,\xe9\n".encode("latin-1"))
        (tmp_path / "dir_manifest.txt").write_text(".\n")
        synth = ("gen-synth", "--out", tmp_path / "synth", "--seed", 1)
        for argv in (
            *logode,
            *develop,
            *score,
            ("sig", "--depth", 30, driver),  # 2^31 - 1 coefficients: over the budget
            ("sig", "--depth", 200000, driver),  # the budget check must not sum d^k to the end
            ("sig", "--depth", 1000, one_d),  # within the budget, but O(depth^2) work and JSON
            ("dpdist", "--p", 100000, "--levels", 1, driver, driver),
            ("dpdist", "--p", 2, "--levels", 2, tmp_path / "latin1.csv", driver),  # not UTF-8
            ("dpdist", "--p", 2, "--levels", 2, tmp_path, driver),  # a directory
            ("fit", "--depth", 2, "--method", "ridge", "--lambda", 0,  # manifest line "."
             tmp_path / "dir_manifest.txt", tmp_path / "labels.txt", "-o", tmp_path / "m.json"),
            ("fit", "--depth", 2, "--method", "ridge", "--lambda", 0,
             tmp_path / "manifest.txt", tmp_path, "-o", tmp_path / "m.json"),  # labels: a directory
            ("develop", "--policy", tmp_path, driver),  # policy: a directory
            ("dpdist", "--p", 2, "--levels", 30, driver, driver),  # checked before cutting
            ("expsig-mc", "--domain", "disk:1", "--dt", 0.01, *mc, "--depth", 40, "--paths", 10),
            *(
                (*synth, *extra)
                for extra in (
                    ("--n-per-class", 2, "--seed", -1),
                    ("--n-per-class", 2, "--steps", 0),
                    ("--n-per-class", 2, "--steps", 1),
                    ("--n-per-class", 0),
                )
            ),
            *(
                ("expsig", "--domain", domain, "--h", h, "--depth", 2)
                for domain, h in (
                    ("disk:abc", 0.1),
                    ("polygon:0,0;1", 0.1),
                    ("polygon:0,0;1,0;inf,1", 0.1),
                    ("disk:inf", 0.1),
                    ("disk:nan", 0.1),
                    ("disk:1", "nan"),
                    ("disk:1", "inf"),
                )
            ),
            ("expsig-mc", "--domain", "disk:abc", "--dt", 0.01, *mc),
            ("expsig-mc", "--domain", "disk:1", "--dt", "nan", *mc),
            *(
                ("expsig-mc", "--domain", "disk:1", "--dt", 0.01, *mc, *extra)
                for extra in (
                    ("--depth", 0),
                    ("--seed", -1),
                    ("--start", "a,b"),
                    ("--start", 0),
                    ("--start", "0,0,0"),
                    ("--start", "nan,0"),
                )
            ),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 3, argv
            assert "data error" in err

    def test_mc_time_cap_is_numerical_failure(self, capsys):
        code, _, err = run(
            capsys, "expsig-mc", "--domain", "disk:100", "--depth", 2,
            "--paths", 2, "--dt", 0.5, "--seed", 1,
        )
        assert code == 4
        assert "time cap" in err

    def test_mc_deterministic(self, capsys):
        args = (
            "expsig-mc", "--domain", "disk:1.0", "--depth", 2,
            "--paths", 200, "--dt", 0.005, "--seed", 11,
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["mean"][""] == 1.0
        assert payload["stderr"]["1,1"] > 0


class TestLearnPipeline:
    def test_non_integer_labels_are_data_errors(self, capsys, tmp_path):
        data = tmp_path / "data"
        run(
            capsys, "gen-synth", "--out", data,
            "--n-per-class", 2, "--steps", 8, "--seed", 1,
        )
        model = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "fit", "--depth", 2, "--method", "ridge", "--lambda", 0.1,
            data / "manifest.txt", data / "labels.txt", "-o", model,
        )
        assert code == 0
        labels = tmp_path / "labels.txt"
        for bad in ("0.7", "nan", "one"):
            labels.write_text(f"0\n1\n{bad}\n1\n")
            code, _, err = run(capsys, "score", model, data / "manifest.txt", labels)
            assert code == 3, bad
            assert "data error" in err

    def test_bad_lambda_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "data"
        run(
            capsys, "gen-synth", "--out", data,
            "--n-per-class", 2, "--steps", 8, "--seed", 1,
        )
        model = tmp_path / "model.json"
        for method in ("ridge", "lasso"):
            for lam in ("nan", "inf", -1):
                code, _, err = run(
                    capsys, "fit", "--depth", 2, "--method", method, "--lambda", lam,
                    data / "manifest.txt", data / "labels.txt", "-o", model,
                )
                assert code == 3, (method, lam)
                assert "data error" in err
                assert not model.exists()

    def test_gen_fit_score(self, capsys, tmp_path):
        train_dir = tmp_path / "train"
        test_dir = tmp_path / "test"
        code, out, _ = run(
            capsys, "gen-synth", "--out", train_dir,
            "--n-per-class", 40, "--steps", 32, "--strength", 0.8, "--seed", 1,
        )
        assert code == 0
        code, out, _ = run(
            capsys, "gen-synth", "--out", test_dir,
            "--n-per-class", 40, "--steps", 32, "--strength", 0.8, "--seed", 2,
        )
        assert code == 0
        model = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "fit", "--depth", 3, "--method", "lasso", "--lambda", 0.01,
            train_dir / "manifest.txt", train_dir / "labels.txt", "-o", model,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["n_streams"] == 80
        code, out, _ = run(
            capsys, "score", model, test_dir / "manifest.txt", test_dir / "labels.txt"
        )
        assert code == 0
        report = json.loads(out)
        assert report["auc"] > 0.9
        assert 0.0 <= report["ks"] <= 1.0
        assert report["accuracy"] > 0.8


# valid domains first; the rest are malformed, or too small for the grid at h >= 0.1
FUZZ_DOMAINS = ("disk:1", "disk:0.5", "polygon:-1,-1;1,-1;1,1;-1,1", "polygon:0,0;2,0;0,2")
FUZZ_BAD_DOMAINS = (
    "disk:0.05", "disk:-1", "disk:nan", "disk:abc", "torus:1",
    "polygon:0,0;1", "polygon:0,0;1,0;inf,1",
)


@st.composite
def fuzz_case(draw):
    """Small argv for logode, gen-synth, expsig or expsig-mc; for logode also the
    system JSON it reads and the dimension of its driver."""
    small = st.one_of(st.integers(1, 5), st.integers(-3, 5))
    kind = draw(st.sampled_from(["logode", "gen-synth", "expsig", "expsig-mc"]))
    if kind == "gen-synth":
        sizes = ("--n-per-class", "--steps", "--seed")
        return ["gen-synth", *(x for flag in sizes for x in (flag, draw(small)))], None, None
    if kind.startswith("expsig"):
        # at most one malformed field, so that most cases run to the end
        fields = ("domain", "depth", "size", "paths", "seed", "start")
        fault = draw(st.sampled_from([None, None, None, *fields]))

        def pick(good, bad, field):
            return draw(bad if fault == field else good)

        domains = st.sampled_from(FUZZ_DOMAINS), st.sampled_from(FUZZ_BAD_DOMAINS)
        argv = [kind, "--domain", pick(*domains, "domain")]
        argv += ["--depth", pick(st.integers(1, 6), st.integers(-3, 0), "depth")]
        bad_size = st.sampled_from(["0", "-0.1", "nan", "inf", "abc"])
        if kind == "expsig":
            return argv + ["--h", pick(st.floats(0.1, 0.5), bad_size, "size")], None, None
        argv += ["--paths", pick(st.integers(1, 20), st.integers(-2, 0), "paths")]
        argv += ["--dt", pick(st.floats(0.01, 0.2), bad_size, "size")]
        argv += ["--seed", pick(st.integers(0, 5), st.integers(-3, -1), "seed")]
        starts = st.sampled_from([None, "0.1,-0.1"]), st.sampled_from(["5,5", "a,b", "0", "nan,0"])
        start = pick(*starts, "start")
        return argv + ([] if start is None else ["--start", start]), None, None
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fault = draw(st.sampled_from([None, None, None, "m", "d", "y0", "nan", "list", "scalar"]))
    mats = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * m * m, max_size=d * m * m))
    y0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    if fault == "y0":
        y0 = draw(st.sampled_from([y0[:-1], y0 + [0.0]]))
    if fault == "nan":
        y0[draw(st.integers(0, m - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    spec = {
        "m": m + (fault == "m"),
        "d": d - (fault == "d"),
        "matrices": np.reshape(mats, (d, m, m)).tolist(),
        "y0": y0,
    }
    system = {"list": [m, d], "scalar": m}.get(fault, spec)
    sizes = ("--depth", "--steps", "--substeps")
    argv = ["logode", *(x for flag in sizes for x in (flag, draw(small)))]
    return argv, system, d


@st.composite
def stream_csv(draw, d=None, faults=True):
    """CSV text of a stream in d <= 4 dimensions (drawn unless given), one to six
    rows of coordinates in [-3, 3] or of ±1e308 and subnormal ±1e-320, with at most
    one fault (none unless ``faults``): a ragged row, a bad cell, or a repeated row
    (a time that does not increase)."""
    d = draw(st.integers(1, 4)) if d is None else d
    times = sorted(draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True)))
    extreme = st.sampled_from([1e308, -1e308, 1e-320, -1e-320])
    coordinate = st.one_of(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), extreme)
    rows = [[str(t), *(repr(draw(coordinate)) for _ in range(d))] for t in times]
    fault = draw(st.sampled_from([None, None, "ragged", "cell", "time"])) if faults else None
    at = draw(st.integers(0, len(rows) - 1))
    if fault == "ragged":
        rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + ["0"]
    elif fault == "cell":
        rows[at][draw(st.integers(0, d))] = draw(st.sampled_from(["abc", "", "1e", "nan", "inf"]))
    elif fault == "time":
        rows.insert(at, list(rows[at]))
    header = ["t", *(f"x{i}" for i in range(1, d + 1))]
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def json_text(draw, good):
    """JSON text of ``good`` with one fault: a field dropped, a field of the wrong
    type or a non-finite one, a list or a scalar in place of the object, or text
    that is not JSON."""
    fault = draw(st.sampled_from(["drop", "type", "nan", "list", "scalar", "text"]))
    key = draw(st.sampled_from(sorted(good)))
    spec = dict(good)
    if fault == "drop":
        del spec[key]
    elif fault == "type":
        spec[key] = draw(st.sampled_from(["abc", None, [], [[1.0]], {}, True, 1e400]))
    elif fault == "nan":
        spec[key] = draw(st.sampled_from([float("nan"), float("inf")]))
    spec = {"list": list(spec.values()), "scalar": 2}.get(fault, spec)
    return "{" if fault == "text" else json.dumps(spec)


@st.composite
def file_case(draw):
    """argv for dpdist, develop, fit or score and the files it reads, {name: text},
    with at most one fault: in a stream, a JSON file, a count, a value, the depth
    or the penalty."""
    kind = draw(st.sampled_from(["dpdist", "develop", "fit", "score"]))
    faults = ["stream", "json", "count", "value", "depth", "lam"]
    fault = draw(st.sampled_from([None, None, None, *faults]))

    def pick(good, bad, field):
        return draw(bad if fault == field else good)

    d = draw(st.integers(1, 3))
    stream = stream_csv(d, faults=fault == "stream")
    if kind == "dpdist":
        other = stream_csv(pick(st.just(d), st.integers(1, 4), "count"))
        bad_p = st.sampled_from(["0", "-1", "nan", "abc"])
        p = pick(st.sampled_from(["1", "2", "2.5"]), bad_p, "value")
        levels = pick(st.integers(1, 4), st.integers(-1, 0), "count")
        files = {"a.csv": draw(stream), "b.csv": draw(other)}
        return ["dpdist", "--p", p, "--levels", levels, "a.csv", "b.csv"], files
    if kind == "develop":
        u = draw(st.integers(2, 3))
        size = 2 * d * u * u
        re, im = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)),
                            (2, d, u, u))
        if fault != "value":  # traceless Hermitian
            re, im = re + re.transpose(0, 2, 1), im - im.transpose(0, 2, 1)
            re -= np.trace(re, axis1=1, axis2=2)[:, None, None] * np.eye(u) / u
        u += pick(st.just(0), st.sampled_from([-1, 1]), "count")
        policy = {"u": u, "generators": np.stack([re, im], axis=-1).tolist()}
        text = json_text(draw, policy) if fault == "json" else json.dumps(policy)
        files = {"policy.json": text, "a.csv": draw(stream)}
        return ["develop", "--policy", "policy.json", "a.csv"], files
    n = draw(st.integers(2, 5))
    files = {f"s{i}.csv": draw(stream) for i in range(n)}
    listing = "".join(f"{name}\n" for name in files)
    # "." names the directory that holds the manifest
    bad_listings = st.sampled_from(["", listing + "missing.csv\n", listing + ".\n"])
    files["manifest.txt"] = pick(st.just(listing), bad_listings, "count")
    labels = ["0", "1"] + [draw(st.sampled_from(["0", "1"])) for _ in range(n - 2)]
    labels[-1] = pick(st.just(labels[-1]), st.sampled_from(["0.5", "abc", "nan", "2", ""]), "value")
    files["labels.txt"] = "\n".join(labels) + "\n"
    depth = pick(st.integers(1, 3), st.integers(-1, 0), "depth")
    transform = draw(st.sampled_from(sorted(TRANSFORMS)))
    if kind == "fit":
        lam = pick(st.sampled_from(["0", "0.1", "1"]), st.sampled_from(["-1", "nan", "inf"]), "lam")
        method = draw(st.sampled_from(["ridge", "lasso"]))
        argv = ["fit", "--depth", depth, "--method", method, "--lambda", lam, "--transform"]
        return argv + [transform, "manifest.txt", "labels.txt", "-o", "model.json"], files
    dim = TRANSFORMS[transform](Stream(np.arange(2.0), np.zeros((2, d)))).dimension
    width = sum(dim**k for k in range(max(depth, 0) + 1))
    width += pick(st.just(0), st.sampled_from([-1, 1]), "count")
    model = {"depth": depth, "transform": transform, "coefficients": [0.5] * width}
    files["model.json"] = json_text(draw, model) if fault == "json" else json.dumps(model)
    return ["score", "model.json", "manifest.txt", "labels.txt"], files


class TestFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["sig", "logsig"]),
        st.integers(-1, 6),
        st.sampled_from(sorted(TRANSFORMS)),
        stream_csv(),
    )
    def test_stream_commands_exit_codes_only(self, kind, depth, transform, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.csv"
            path.write_text(text)
            argv = [kind, "--depth", str(depth), "--transform", transform, str(path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3, 4), (argv, text, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            strict_json(out.getvalue())

    @settings(max_examples=120, deadline=None)
    @given(fuzz_case())
    def test_documented_exit_codes_only(self, case):
        argv, system, d = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if argv[0] == "logode":
                (tmp / "system.json").write_text(json.dumps(system))
                # a unit-step staircase through the d axes
                steps = Stream(np.arange(d + 1.0), np.tril(np.ones((d + 1, d)), -1))
                write_csv(steps, tmp / "driver.csv")
                argv += ["--system", tmp / "system.json", tmp / "driver.csv"]
            elif argv[0] == "gen-synth":
                argv += ["--out", tmp / "synth"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
        assert code in (0, 2, 3, 4), (argv, system, err.getvalue())
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(file_case())
    def test_file_commands_exit_codes_only(self, case):
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).write_text(text)
            paths = (".csv", ".json", ".txt")
            argv = [str(Path(tmp) / a) if str(a).endswith(paths) else str(a) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            model = Path(tmp) / "model.json"
            if argv[0] == "fit" and code == 0:
                strict_json(model.read_text())
        assert code in (0, 2, 3, 4), (argv, files, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if out.getvalue():
            strict_json(out.getvalue())
