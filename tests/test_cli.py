"""Command-line interface: output formats, JSON round-trips, exit codes."""

import json

import numpy as np
import pytest

from cliffrep.algebra import MAX_GENERATORS
from cliffrep.checks import ALL_CHECKS, GN_COM_TOL, VDW_COM_TOL, check_periodicity
from cliffrep.cli import main, matrix_from_json, matrix_to_json


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_spacetime(self, capsys):
        code, out, _ = run(["classify", "-p", "1", "-q", "3"], capsys)
        assert code == 0
        assert "Cl(1,3) ≅ Mat_2(H), simple, hour 2" in out

    def test_trivial(self, capsys):
        code, out, _ = run(["classify", "-p", "0", "-q", "0"], capsys)
        assert code == 0
        assert "Cl(0,0) ≅ R" in out

    def test_json(self, capsys):
        code, out, _ = run(["classify", "-p", "1", "-q", "3", "--json"], capsys)
        payload = json.loads(out)
        assert payload == {
            "p": 1,
            "q": 3,
            "ring": "H",
            "matrix_size": 2,
            "simple": True,
            "hour": 2,
            "octave": 0,
            "type": 6,
        }

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "-p", "1"])
        assert exc.value.code == 2


class TestTableCommand:
    def test_matches_reference(self, capsys):
        code, out, _ = run(["table", "--pmax", "7", "--qmax", "7"], capsys)
        assert code == 0
        assert "64 entries compared, 0 mismatches" in out
        assert "2H(2)" in out


class TestClockCommand:
    def test_walk(self, capsys):
        code, out, _ = run(["clock", "-p", "1", "-q", "0", "--steps", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert "Cl(1,0)" in lines[0] and "hour 7" in lines[0]
        assert "Cl(1,1)" in lines[1] and "hour 0" in lines[1]
        assert "Cl(1,3)" in lines[3] and "hour 2" in lines[3]


class TestFactorizeCommand:
    def test_spacetime(self, capsys):
        code, out, _ = run(["factorize", "-p", "1", "-q", "3"], capsys)
        assert code == 0
        assert "Cl(1,3) = Cl(1,1) (x) Cl(0,2)" in out
        assert "OK" in out

    def test_doubled(self, capsys):
        code, out, _ = run(["factorize", "-p", "1", "-q", "0"], capsys)
        assert code == 0
        assert "u" in out  # doubled union marker


class TestMatrepCommand:
    def test_json_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "gammas.json"
        code, out, _ = run(["matrep", "-p", "1", "-q", "3", "--out", str(out_file)], capsys)
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["dim"] == 4 and len(payload["gammas"]) == 4
        assert payload["anticommutation_ok"] is True
        assert payload["metric"] == [1, -1, -1, -1]
        from cliffrep.gamma import build_generators

        expected = build_generators((1, 3)).gammas
        for obj, ref in zip(payload["gammas"], expected):
            assert np.array_equal(matrix_from_json(obj), ref)

    def test_stdout_mode(self, capsys):
        code, out, _ = run(["matrep", "-p", "1", "-q", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 2

    def test_output_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["matrep", "-p", "2", "-q", "3", "--out", str(a)], capsys)
        run(["matrep", "-p", "2", "-q", "3", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestRepCommand:
    def test_gn_output(self, tmp_path, capsys):
        out_file = tmp_path / "gn.json"
        code, _, err = run(
            ["rep", "--gn", "1/2", "3/2", "--out", str(out_file)], capsys
        )
        assert code == 0
        assert "PASS" in err
        payload = json.loads(out_file.read_text())
        assert payload["dim"] == 2 and payload["pass"] is True
        assert payload["commutator_residual"] <= GN_COM_TOL
        assert set(payload["operators"]) == {"H3", "H+", "H-", "F3", "F+", "F-"}
        h3 = matrix_from_json(payload["operators"]["H3"])
        assert np.array_equal(h3, np.diag([-0.5, 0.5]).astype(complex))
        assert payload["converted"]["l"] == "1/2"

    def test_vdw_output(self, capsys):
        code, out, err = run(["rep", "--vdw", "1/2", "1/2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 4
        assert payload["commutator_residual"] <= VDW_COM_TOL

    def test_requires_exactly_one_basis(self, capsys):
        code, _, err = run(["rep"], capsys)
        assert code == 2
        assert "exactly one" in err


class TestChainCommand:
    def test_photon_chain(self, capsys):
        code, out, _ = run(["chain", "--spin2", "2"], capsys)
        assert code == 0
        assert out.strip() == "C^{2,0} <-> C^{1,-1} <-> C^{0,-2}"

    def test_electron_chain(self, capsys):
        code, out, _ = run(["chain", "--spin2", "1"], capsys)
        assert code == 0
        assert out.strip() == "C^{1,0} <-> C^{0,-1}"


class TestVerifyCommand:
    def test_small_budget_passes(self, capsys):
        code, out, _ = run(["verify", "--all", "--nmax", "5", "--dim-max", "16"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(ALL_CHECKS) and all(l.startswith("PASS") for l in lines)
        assert out.splitlines()[-1] == f"{len(ALL_CHECKS)}/{len(ALL_CHECKS)} checks passed"

    def test_largest_nmax_caps_periodicity_base(self):
        # Cl(p+8, q) must fit in MAX_GENERATORS, so the base stops at n = 8
        r = check_periodicity(MAX_GENERATORS, 1)
        assert r.passed and r.detail == "base n <= 8, size ratio 16"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--nmax", "20"], "argument --nmax: must be 0..16, got 20"),
            (["--nmax", "-1"], "argument --nmax: must be 0..16, got -1"),
            (["--dim-max", "0"], "argument --dim-max: must be >= 1, got 0"),
        ],
    )
    def test_budget_out_of_range_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert [l for l in captured.err.splitlines() if "error:" in l] == [f"cliffrep verify: error: {message}"]
        assert "Traceback" not in captured.err


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["classify", "-p", "-1", "-q", "0"], "generator counts must be non-negative"),
            (["classify", "-p", "20", "-q", "0"], "at most 16 generators are supported"),
            (["factorize", "-p", "17", "-q", "0"], "at most 16 generators are supported"),
            (["matrep", "-p", "7", "-q", "6"], "generator synthesis supported up to 12 generators"),
            (["rep", "--gn", "1/2", "1/2"], "finite dimension requires l1 = l0 + p, natural p >= 1"),
            (["rep", "--gn", "1/3", "2"], "1/3 is not a half-integer"),
            (["chain", "--spin2", "-1"], "spin doubling 2s must be non-negative"),
            (["table", "--pmax", "9", "--qmax", "9"], "at most 16 generators are supported"),
        ],
    )
    def test_domain_error_is_one_line_usage_error(self, argv, message, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"cliffrep {argv[0]}: error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["clock", "-p", "1", "-q", "0", "--steps", "-3"], "argument --steps: must be >= 0, got -3"),
            (["table", "--pmax", "-1"], "argument --pmax: must be >= 0, got -1"),
        ],
    )
    def test_negative_count_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert [l for l in captured.err.splitlines() if "error:" in l] == [f"cliffrep {argv[0]}: error: {message}"]


class TestMatrixJson:
    def test_floats_roundtrip_bit_identical(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        text = json.dumps(matrix_to_json(m, "test"))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)  # exact, not approximate
