"""Command-line interface: output formats, JSON round-trips, exit codes."""

import ast
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import tokenize
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cliffrep
from cliffrep import _entries, checks, cli, lorentz
from cliffrep.algebra import MAX_GENERATORS
from cliffrep.checks import ALL_CHECKS, GN_COM_TOL, VDW_COM_TOL, check_periodicity
from cliffrep.cli import main, matrix_from_json, matrix_to_json
from cliffrep.repsys import MAX_CHAIN_SPIN2

SRC = Path(__file__).resolve().parents[1] / "src"


def limit_memory():
    """A 1 GiB address-space limit for a child, so a build past an input check fails there, not on the host."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_python(args, timeout=120, **kwargs):
    """``python ARGS`` in a fresh interpreter that imports cliffrep from this checkout.

    stdout is block-buffered, as in a shell pipeline, unless ARGS hold ``-u``.
    """
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout, **kwargs)


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

    def test_far_corner_is_checked_first(self):
        """A table past 16 generators is a usage error before any row is built, however wide:
        under a 1 GiB address-space limit and a 10 s timeout, where building the 10^9 header
        cells first would run out of memory."""
        argv = ["-m", "cliffrep.cli", "table", "--qmax", "1000000000"]
        proc = run_python(argv, capture_output=True, text=True, preexec_fn=limit_memory, timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "cliffrep table: error: at most 16 generators are supported\n"


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
        assert payload["tolerance"] == GN_COM_TOL  # the default --tol

    @staticmethod
    def first_entries_of_spin_1(monkeypatch, edit):
        """``lorentz._su2_band``, the entries ``rep --vdw`` writes and proves, with ``edit(m, root)``
        applied to spin 1's first entries, m = -1 and root sqrt(2)."""
        honest = lorentz._su2_band

        def band(n):
            m, roots = honest(n)
            if n == 2:
                m[0], roots[0] = edit(m[0], roots[0])
            return m, roots

        monkeypatch.setattr(lorentz, "_su2_band", band)

    def test_nan_residual_fails(self, capsys, monkeypatch):
        """A NaN root of spin 1 reaches the rows, the root proof and the residual: exit 1, pass false."""
        self.first_entries_of_spin_1(monkeypatch, lambda m, root: (m, math.nan))
        code, out, err = run(["rep", "--vdw", "1", "0"], capsys)
        assert code == 1 and json.loads(out)["pass"] is False and math.isnan(json.loads(out)["operators"]["X+"]["entries"][3][0])
        assert err.splitlines() == ["spin 1: j+ is not one positive root at each (i+1, i)", "(l,ldot) = (1,0), dim 3, commutator residual nan FAIL"]

    def test_root_two_ulps_off_fails(self, capsys, monkeypatch):
        """sqrt(2) moved up 2 ulps leaves the residual far below the tolerance, but the exact bracket of
        SU2_ROOT_ULPS = 1 ulp fails: exit 1, pass false."""
        self.first_entries_of_spin_1(monkeypatch, lambda m, root: (m, math.nextafter(math.nextafter(root, math.inf), math.inf)))
        code, out, err = run(["rep", "--vdw", "1", "1/2"], capsys)
        payload = json.loads(out)
        assert code == 1 and payload["pass"] is False and payload["commutator_residual"] <= 1e-15
        assert err.splitlines()[0] == "spin 1: root 0 of j+ is not within 1 ulp of sqrt(2)" and err.endswith(" FAIL\n")

    def test_halved_diagonal_entry_fails_at_any_tol(self, capsys, monkeypatch):
        """m = -1 of spin 1 written as -1/2 leaves a residual of 0.5, below --tol 1, but the exact diagonal
        of the su(2) judge fails: exit 1, pass false, and the spin named on stderr."""
        self.first_entries_of_spin_1(monkeypatch, lambda m, root: (m / 2, root))
        code, out, err = run(["rep", "--vdw", "1", "1/2", "--tol", "1"], capsys)
        payload = json.loads(out)
        assert code == 1 and payload["pass"] is False and 0.49 < payload["commutator_residual"] < 1
        assert err.splitlines() == ["spin 1: j3 is not [j+, j-]/2 = diag(-j .. j)", "(l,ldot) = (1,1/2), dim 6, commutator residual 5.000e-01 FAIL"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "one of the arguments --gn --vdw is required"),
            (["--gn", "0", "1", "--vdw", "0", "0"], "argument --vdw: not allowed with argument --gn"),
        ],
    )
    def test_requires_exactly_one_basis(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rep", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == f"cliffrep rep: error: {message}"

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rep", "--gn", "0", "1", f"--tol={tol}"])  # argparse takes a bare -inf for an option
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        message = f"cliffrep rep: error: argument --tol: must be finite and > 0, got {tol}"
        assert captured.err.splitlines()[-1] == message

    def test_tolerance_given(self, capsys):
        code, out, err = run(["rep", "--gn", "0", "1", "--tol", "1e-3"], capsys)
        assert code == 0 and json.loads(out)["tolerance"] == 1e-3 and err.endswith(" PASS\n")


class TestChainCommand:
    def test_photon_chain(self, capsys):
        code, out, _ = run(["chain", "--spin2", "2"], capsys)
        assert code == 0
        assert out.strip() == "C^{2,0} <-> C^{1,-1} <-> C^{0,-2}"

    def test_electron_chain(self, capsys):
        code, out, _ = run(["chain", "--spin2", "1"], capsys)
        assert code == 0
        assert out.strip() == "C^{1,0} <-> C^{0,-1}"

    @pytest.mark.parametrize("two_s", [MAX_CHAIN_SPIN2, MAX_CHAIN_SPIN2 + 1, 10**22], ids=["bound", "above", "1e22"])
    def test_spin_bound(self, two_s):
        """2s up to the bound prints its chain; above it, exit 2 and one line before any label is
        built: in a child under a 1 GiB address-space limit and a 10 s timeout, where building
        10^22 labels first would run out of memory."""
        argv = ["-m", "cliffrep.cli", "chain", "--spin2", str(two_s)]
        proc = run_python(argv, capture_output=True, text=True, preexec_fn=limit_memory, timeout=10)
        if two_s <= MAX_CHAIN_SPIN2:
            assert proc.returncode == 0 and proc.stderr == "" and proc.stdout.count(" <-> ") == two_s
        else:
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == f"cliffrep chain: error: spin doubling 2s must be at most {MAX_CHAIN_SPIN2}, got {two_s}\n"


class TestVerifyCommand:
    def test_small_budget_passes(self, capsys):
        code, out, _ = run(["verify", "--all", "--nmax", "5", "--dim-max", "16"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(ALL_CHECKS) and all(l.startswith("PASS") for l in lines)
        assert out.splitlines()[-1] == f"{len(ALL_CHECKS)}/{len(ALL_CHECKS)} checks passed"

    def test_a_raising_check_is_its_fail(self, capsys, monkeypatch):
        """A check that raises is a FAIL under its registry name, with covered 0; the rest still run and verify exits 1."""
        def broken(nmax, dim_max):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(checks, "ALL_CHECKS", [ALL_CHECKS[0], ("broken", broken), ALL_CHECKS[-1]])
        results = checks.run_all(0, 1)
        assert results[1] == checks.CheckResult("broken", False, "raised ZeroDivisionError: division by zero", 0)
        assert results[0].passed and results[2].passed
        code, out, err = run(["verify", "--nmax", "0", "--dim-max", "1"], capsys)
        lines = out.splitlines()
        assert (code, err, len(lines)) == (1, "", 4) and lines[-1] == "2/3 checks passed"
        assert lines[1] == "FAIL  broken  [raised ZeroDivisionError: division by zero]"

    @pytest.mark.parametrize(
        "nmax,dim_max",
        [
            (-1, -5),  # once 16 PASS lines, every budgeted check covering 0
            (8, 64.0),  # once a vdw-com2 FAIL only, "raised TypeError"
            (17, 8),  # once seven "raised ValueError" lines
            (8.0, 64),
            (8, 0),
            ("8", 64),
        ],
    )
    def test_run_all_refuses_a_budget_verify_would_not_take(self, nmax, dim_max):
        """``run_all`` takes the budgets ``verify`` accepts, an nmax in 0..16 and a dim_max >= 1, both
        integers; anything else is one ValueError naming both, raised before any check runs."""
        unreachable = mock.Mock(side_effect=AssertionError("a check ran"))
        with mock.patch.object(checks, "ALL_CHECKS", [("unreachable", unreachable)]), mock.patch.object(checks, "_gn_operators", unreachable):
            with pytest.raises(ValueError) as exc:
                checks.run_all(nmax, dim_max)
        assert str(exc.value) == f"budgets must be integers nmax in 0..16 and dim_max >= 1, got nmax={nmax!r}, dim_max={dim_max!r}"

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
            (["matrep", "-p", "9", "-q", "8"], "at most 16 generators are supported"),
            (["rep", "--gn", "1/2", "1/2"], "finite dimension requires l1 = l0 + p, natural p >= 1"),
            (["rep", "--gn", "1/3", "2"], "1/3 is not a half-integer"),
            (["chain", "--spin2", "-1"], "spin doubling 2s must be non-negative"),
            (["table", "--pmax", "9", "--qmax", "9"], "at most 16 generators are supported"),
            (["clock", "-p", "0", "-q", "10", "--steps", "8"], "at most 16 generators are supported"),
            (["rep", "--gn", "0", "100"], "operator dim 10000 exceeds the bound 400"),
            (["rep", "--gn", "0", "21"], "operator dim 441 exceeds the bound 400"),
            (["rep", "--vdw", "10", "19/2"], "operator dim 420 exceeds the bound 400"),
            (["rep", "--vdw", "1000", "0"], "operator dim 2001 exceeds the bound 400"),
            (["verify", "--dim-max", "401"], "argument --dim-max: must be 1..400, got 401"),
            (["verify", "--dim-max", "10000"], "argument --dim-max: must be 1..400, got 10000"),
        ],
    )
    def test_domain_error_is_one_line_usage_error(self, argv, message, capsys):
        # every row fails its input check: one that got past it to a builder or the
        # registry fails here instead of building (dim 10^4 takes about 9.6 GB)
        unreachable = mock.Mock(side_effect=AssertionError("past the input check"))
        builders = ("build_gn_operators", "build_vdw_operators", "gn_entries", "vdw_entries", "vdw_proof")
        with mock.patch.multiple(lorentz, **dict.fromkeys(builders, unreachable)):
            with mock.patch.object(checks, "run_all", unreachable):
                code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"cliffrep {argv[0]}: error: {message}\n"

    def test_operator_bound_admits_its_own_dim(self, capsys, monkeypatch):
        monkeypatch.setattr(lorentz, "MAX_OPERATOR_DIM", 4)
        assert run(["rep", "--vdw", "1/2", "1/2"], capsys)[0] == 0  # dim 4
        assert run(["rep", "--gn", "0", "2"], capsys)[0] == 0  # dim 4
        assert run(["verify", "--nmax", "2", "--dim-max", "4"], capsys)[0] == 0
        assert run(["rep", "--gn", "1/2", "5/2"], capsys)[2] == "cliffrep rep: error: operator dim 6 exceeds the bound 4\n"

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["rep", "--gn", "0", "1/0"], "argument --gn: not a (half-)integer: '1/0'"),
            (["rep", "--vdw", "1/0", "0"], "argument --vdw: not a (half-)integer: '1/0'"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert [l for l in captured.err.splitlines() if "error:" in l] == [f"cliffrep rep: error: {message}"]
        assert "Traceback" not in captured.err


#: (valid, odd) values for the fuzz: odd ones are huge, negative, non-finite, non-ASCII digits or junk
FUZZ_INTS = (["0", "1", "2", "3", "5"], ["8", "17", "-1", "1000000000", str(10**22), "٣", "１", "³", "1.5", "1/0", "inf", "nan", "", "x"])
FUZZ_SPINS = (["0", "1/2", "1", "3/2", "2"], ["7/2", "-1/2", "1/3", "1/0", "inf", "nan", str(10**22), "٣", "x"])
FUZZ_TOLS = (["1e-10", "1e-3"], ["0", "-1", "inf", "nan", "x"])


def fuzz_argv(rng: random.Random, command: str, tmp_path: Path) -> list[str]:
    """One argv for ``command``: each option present with probability 0.8 (verify's budgets always,
    and small), each value valid with probability 0.7 and odd otherwise; ``--out`` names a file,
    a file in a missing directory, a directory or nothing."""
    pick = lambda pools: rng.choice(pools[rng.random() >= 0.7])
    num, spin = (lambda: pick(FUZZ_INTS)), (lambda: pick(FUZZ_SPINS))
    out = lambda: str(rng.choice([tmp_path / "out.json", tmp_path / "missing" / "out.json", tmp_path, ""]))
    options = {
        "classify": [["-p", num()], ["-q", num()], ["--json"]],
        "table": [["--pmax", num()], ["--qmax", num()]],
        "clock": [["-p", num()], ["-q", num()], ["--steps", num()]],
        "factorize": [["-p", num()], ["-q", num()]],
        "chain": [["--spin2", num()]],
        "matrep": [["-p", num()], ["-q", num()], ["--out", out()]],
        "rep": [[rng.choice(["--gn", "--vdw"]), spin(), spin()], ["--tol", pick(FUZZ_TOLS)], ["--out", out()]],
        "verify": [["--all"]],
    }[command]
    argv = [command] + [word for option in options if rng.random() < 0.8 for word in option]
    if command == "verify":
        argv += ["--nmax", rng.choice(["0", "1", "3", "-1", "17", "٣", "x"]), "--dim-max", rng.choice(["1", "4", "16", "0", "401", "inf"])]
    return argv


class TestExitContract:
    def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(self, tmp_path, capsys):
        """200 seeded argv vectors, 25 per subcommand, in-process through ``main``; argparse's
        usage errors arrive as ``SystemExit``."""
        rng = random.Random(21)
        commands = ["classify", "table", "clock", "factorize", "chain", "matrep", "rep", "verify"]
        for argv in [fuzz_argv(rng, command, tmp_path) for command in commands for _ in range(25)]:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any other escape breaks the contract: name the argv, keep the traceback
                raise AssertionError(f"{argv} raised") from exc
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)


class TestMatrixJson:
    def test_floats_roundtrip_bit_identical(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        text = json.dumps(matrix_to_json(m, "test"))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)  # exact, not approximate


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [["matrep", "-p", "1", "-q", "1"], ["rep", "--gn", "0", "1"]])
    @pytest.mark.parametrize("where,reason", [("missing/x.json", "No such file or directory"), (".", "Is a directory")])
    def test_unwritable_out_is_usage_error(self, argv, where, reason, tmp_path, capsys):
        path = str(tmp_path / where)
        code, out, err = run([*argv, "--out", path], capsys)
        assert code == 2 and out == ""
        assert err == f"cliffrep {argv[0]}: error: argument --out: cannot write {path!r}: {reason}\n"

    @pytest.mark.parametrize(
        "argv", [["matrep", "-p", "3", "-q", "3"], ["classify", "-p", "1", "-q", "3"], ["rep", "--gn", "0", "10"]]
    )
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_1_without_traceback(self, argv, flags):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write, as after `| head -0`
        try:
            proc = run_python([*flags, "-m", "cliffrep.cli", *argv], stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == b""


LAZY_MODULES = ("numpy", "cliffrep.gamma", "cliffrep.lorentz", "cliffrep.checks")

LABEL_RUNS = [
    ["classify", "-p", "1", "-q", "3"],
    ["classify", "-p", "3", "-q", "5", "--json"],
    ["table"],
    ["clock", "-p", "1", "-q", "0"],
    ["factorize", "-p", "8", "-q", "1"],
    ["chain", "--spin2", "3"],
]

#: besides LAZY_MODULES: what classify, table, clock and factorize do not load, and what chain does not load
LABEL_ONLY = ("cliffrep.algebra", "cliffrep.tensor", "cliffrep.repsys", "dataclasses", "inspect")
CHAIN_ONLY = ("cliffrep.algebra", "cliffrep.tensor")

README = SRC.parent / "README.md"


def readme_api() -> dict[str | None, list[str]]:
    """The README's "Public API" list: ``{module: names}``, and the exported submodules under ``None``."""
    text = README.read_text(encoding="utf-8").split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^- (?:`cliffrep\.(\w+)`|submodules): (.+)$", text, re.M)
    return {module or None: re.findall(r"`(\w+)`", names) for module, names in rows}


API = readme_api()


class TestLazyImports:
    def test_label_commands_import_no_numpy(self):
        """The label commands load no numpy and no matrix module; classify, table, clock and
        factorize load no multivector, graded-tensor or label-system code and no ``dataclasses``
        either, and chain adds ``repsys`` (so ``dataclasses``) and nothing more.  Reading a lazy name
        of the package imports its module, and gamma and lorentz import no numpy until a dense
        array is made.  A module the interpreter had loaded before cliffrep does not count."""
        code = f"""
import contextlib, io, sys
before = set(sys.modules)
import cliffrep.cli
print([m for m in {LAZY_MODULES!r} if m in sys.modules])
for argv in {LABEL_RUNS[:-1]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cliffrep.cli.main(argv) == 0, argv
print([m for m in {LAZY_MODULES + LABEL_ONLY!r} if m in set(sys.modules) - before])
with contextlib.redirect_stdout(io.StringIO()):
    assert cliffrep.cli.main({LABEL_RUNS[-1]!r}) == 0
print([m for m in {LAZY_MODULES + CHAIN_ONLY!r} if m in set(sys.modules) - before], "cliffrep.repsys" in sys.modules)
import cliffrep
assert cliffrep.build_generators is sys.modules["cliffrep.gamma"].build_generators
assert cliffrep.GNLabel is sys.modules["cliffrep.lorentz"].GNLabel
print("numpy" in sys.modules)
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]", "[] True", "False"]

    def test_submodule_import_keeps_the_functions(self):
        """``classify`` and ``factorize`` name both a submodule and a function: the function wins,
        also after the submodules and every module that imports them are imported."""
        code = """
import sys
import cliffrep.classify, cliffrep.factorize
import cliffrep
assert cliffrep.classify is sys.modules["cliffrep.classify"].classify
assert cliffrep.factorize is sys.modules["cliffrep.factorize"].factorize
import cliffrep.repsys, cliffrep.checks, cliffrep.cli
assert cliffrep.classify is sys.modules["cliffrep.classify"].classify
assert cliffrep.factorize is sys.modules["cliffrep.factorize"].factorize
print(cliffrep.classify((1, 3)), cliffrep.factorize((2, 0)).factors)
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["Mat_2(H) (Signature(p=2, q=0),)"]

    @pytest.mark.parametrize(
        "argv,unimported",
        [
            (["rep", "--gn", "0", "1"], ["numpy", "cliffrep.checks", "cliffrep.gamma", "cliffrep.algebra", "cliffrep.tensor"]),
            (["rep", "--vdw", "1/2", "0"], ["numpy", "cliffrep.checks", "cliffrep.gamma", "cliffrep.algebra", "cliffrep.tensor"]),
            (["matrep", "-p", "1", "-q", "3"], ["numpy", "cliffrep.lorentz", "cliffrep.checks", "cliffrep.algebra", "cliffrep.tensor"]),
        ],
    )
    def test_matrix_commands_import_what_they_run(self, argv, unimported):
        """Each matrix command prints its rows through the one row writer, so it loads ``cliffrep._entries``,
        and it loads none of ``unimported``."""
        code = f"""
import contextlib, io, sys
import cliffrep.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cliffrep.cli.main({argv!r}) == 0
print([m for m in {unimported!r} if m in sys.modules], "cliffrep._entries" in sys.modules)
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[] True"]

    def test_su2_judge_loads_no_numpy(self):
        """``lorentz.su2_ladder_failure``, the proof behind vdw-com2, passes every spin of 2j < 400 in pure
        Python: it builds and reads no dense ladder, so numpy stays unloaded."""
        code = """
import sys
from fractions import Fraction
from cliffrep import lorentz
print([n for n in range(400) if lorentz.su2_ladder_failure(Fraction(n, 2)) is not None], "numpy" in sys.modules)
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[] False"]

    def test_gn_coefficients_load_no_numpy(self):
        """``gn_coefficients`` divides and roots Python ints, so reading A_k and C_k loads no numpy."""
        code = """
import sys
from cliffrep.lorentz import GNLabel, gn_coefficients
print(gn_coefficients(GNLabel(0, 2), 1), gn_coefficients(GNLabel(1, 3), 2), "numpy" in sys.modules)
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1] == "False"

    def test_entry_lists_load_no_numpy(self):
        """The entry lists of every operator are computed on Python ints and floats: those of the largest
        GN label the CLI builds, (0, 20), and of the dim-400 VdW label (19/2, 19/2), with the cells of both
        written by ``cell_texts``, load no numpy; only the dense writer does."""
        code = """
import sys
from fractions import Fraction
from cliffrep._entries import cell_texts
from cliffrep.lorentz import GNLabel, gn_entries, vdw_entries
gn, vdw = gn_entries(GNLabel(0, 20)), vdw_entries(Fraction(19, 2), Fraction(19, 2))
rows = [len(cell_texts(400, op, ", ")) for op in [*gn.values(), *vdw.values()]]
print(len(gn), len(vdw), sum(len(re) + len(im) for re, im in gn.values()), set(rows), "numpy" in sys.modules)
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # (0, 20): 2 (400 + 2 * 380) same-level entries, H and F, and 6 on each of the 1 + 3 + .. + 37 = 19^2 links
        assert proc.stdout.split() == ["6", "6", str(2 * (400 + 2 * 380) + 6 * 19**2), "{160000}", "False"]

    def test_gn_rep_loads_no_numpy(self):
        """``rep --gn`` writes and judges the entry lists of its operators, so at the largest GN label the CLI
        builds, (0, 20), it passes with the dense writer disabled and loads no numpy."""
        code = """
import contextlib, io, sys
import cliffrep.cli
from cliffrep import _entries
_entries.dense = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cliffrep.cli.main(["rep", "--gn", "0", "20"]) == 0
print("numpy" in sys.modules)
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False"]

    @pytest.mark.parametrize("module", sorted(m for m in API if m))
    def test_old_exports_are_the_submodule_objects(self, module):
        mod = importlib.import_module(f"cliffrep.{module}")
        for name in API[module]:
            assert getattr(cliffrep, name) is getattr(mod, name), name

    def test_namespace_listing(self):
        names = [n for names in API.values() for n in names]
        for name in API[None]:
            assert getattr(cliffrep, name) is sys.modules[f"cliffrep.{name}"]
        assert len(names) == len(set(names)) and sorted(names) == sorted(cliffrep.__all__)
        assert set(names) <= set(dir(cliffrep))
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            cliffrep.nonexistent

    def test_star_import_fresh(self):
        code = "from cliffrep import *; print(build_generators.__module__, GNLabel.__module__, gamma.__name__)"
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["cliffrep.gamma", "cliffrep.lorentz", "cliffrep.gamma"]


#: public names that no code in src, demos or benchmarks calls, each kept for the reason given
KEPT_WITHOUT_CALLER = {
    "tensor.GradedTensorProduct.tensor_blade_product": "the Koszul-sign reference TestPsiDefinition holds psi to",
    "classify.bw_compose": "the graded Brauer-Wall law, for the abstract's theorems (ROADMAP item 5)",
    "cli.matrix_from_json": "reads back what matrep and rep write, for certificates (ROADMAP item 9)",
}


def code_names() -> dict[str, set[tuple[str, int]]]:
    """Where each name is used in the code of src, demos and benchmarks, as ``{name: {(path, line)}}``.

    A use is a name token, an identifier in an f-string's replacement
    field, or a string literal that is one identifier
    (``benchmarks/tracing.py`` wraps methods by name); comments, docstrings
    and other string text are not uses.  The package ``__init__`` only
    re-exports, so it is skipped.
    """
    uses: dict[str, set[tuple[str, int]]] = {}
    root = SRC.parent
    for path in sorted(p for d in ("src", "demos", "benchmarks") for p in (root / d).rglob("*.py")):
        if path == SRC / "cliffrep" / "__init__.py":
            continue
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            if tok.type == tokenize.NAME:
                names = [tok.string]
            elif tok.type == tokenize.STRING and "f" in tok.string.split(tok.string[-1])[0].lower():
                names = [n for field in re.findall(r"\{([^{}]*)\}", tok.string) for n in re.findall(r"[A-Za-z_]\w*", field)]
            elif tok.type == tokenize.STRING and str(ast.literal_eval(tok.string)).isidentifier():
                names = [ast.literal_eval(tok.string)]
            else:
                continue
            for name in names:
                uses.setdefault(name, set()).add((str(path), tok.start[0]))
    return uses


class TestPublicNames:
    def test_every_public_name_has_a_caller(self):
        """Each public function, class and method of the package is used outside its own definition
        and the tests, or is kept in KEPT_WITHOUT_CALLER, and nothing kept there has gained a caller."""
        uses = code_names()
        uncalled = set()
        for path in sorted((SRC / "cliffrep").glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                members = [s for s in node.body if isinstance(s, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else []
                for owner, d in [(None, node)] + [(node.name, m) for m in members]:
                    if d.name.startswith("_") or uses.get(d.name, set()) - {(str(path), d.lineno)}:
                        continue
                    uncalled.add(".".join(filter(None, (path.stem, owner, d.name))))
        assert uncalled == set(KEPT_WITHOUT_CALLER)


def array_entries(m) -> tuple[list, list]:
    """Every entry of the matrix ``m``'s real and imaginary parts, as floats, in the entry lists of a
    ``cli._Parts``: ``cell_texts`` then writes each of its values, signed zeros included."""
    parts = np.asarray(m, dtype=complex)
    return tuple([(r, c, v) for r, row in enumerate(part.tolist()) for c, v in enumerate(row)] for part in (parts.real, parts.imag))


def parts_payload(m, basis: str) -> dict:
    """``cli._matrix_payload`` of the matrix ``m`` as a ``cli._Parts`` of all its entries."""
    return cli._matrix_payload(len(m), array_entries(m), basis)


def with_matrices(v, matrix):
    """``v`` with each numpy array replaced by ``matrix(array, "note")``."""
    if isinstance(v, np.ndarray):
        return matrix(v, "note")
    if isinstance(v, dict):
        return {k: with_matrices(x, matrix) for k, x in v.items()}
    if isinstance(v, list):
        return [with_matrices(x, matrix) for x in v]
    return v


def oracle_text(payload) -> str:
    return json.dumps(with_matrices(payload, matrix_to_json), indent=2)


def writer_text(payload) -> str:
    return "".join(cli._json_chunks(with_matrices(payload, parts_payload)))


EDGE_MATRICES = {
    "signed zeros": np.array([[-0.0, 0.0], [complex(0.0, -0.0), complex(-0.0, -0.0)]]),
    "subnormal": np.array([[5e-324 + 0j, -5e-324j], [2.2250738585072014e-308, 1e-310]]),
    "large": np.array([[1e17, -1e17j], [1e16 + 1e22j, 123456789012345678.0]]),
    "dim 1": np.array([[0.1 + 0.2j]]),
    "nan": np.array([[complex(float("nan"), 1.0), 0], [0, 1]]),
    "infinities": np.array([[complex(float("inf"), float("-inf")), 1.5], [-2.5, 3]]),
    "real dtype": np.eye(3),
    "int dtype": np.arange(4).reshape(2, 2),
    "random": np.random.default_rng(5).normal(size=(6, 6, 2)) @ np.array([1, 1j]),
}


class TestJsonWriter:
    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    def test_matrix_matches_json_dumps(self, name):
        """Each edge matrix, as the ``cli._Parts`` of all its entries, is written as ``json.dumps`` writes
        ``matrix_to_json`` of the array, alone and nested."""
        m = EDGE_MATRICES[name]
        for payload in (m, {"gammas": [m, m.T]}, {"a": {"b": [m]}, "x": [], "y": {}}):
            assert writer_text(payload) == oracle_text(payload)

    def test_scalars_match_json_dumps(self):
        payload = {
            "p": 1, "metric": [1, -1], "empty": [], "nested": {"ok": True, "no": False, "none": None},
            "s": "Cl(1,3) ⊗ \"q\"\n", "f": [0.1, -0.0, 1e-10, float("nan"), float("inf")], "t": (1, 2),
            "m": EDGE_MATRICES["dim 1"],
        }
        assert writer_text(payload) == oracle_text(payload)
        assert writer_text([]) == "[]" and writer_text({}) == "{}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrep", "-p", "0", "-q", "0"],
            ["matrep", "-p", "1", "-q", "3"],
            ["matrep", "-p", "3", "-q", "0"],
            ["matrep", "-p", "5", "-q", "5"],
            ["rep", "--gn", "1/2", "3/2"],
            ["rep", "--gn", "0", "10"],
            ["rep", "--vdw", "1/2", "1/2"],
            ["rep", "--vdw", "9/2", "9/2"],
        ],
    )
    def test_command_output_matches_oracle(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out)  # the scalar fields; the matrices are rebuilt below
        if argv[0] == "matrep":
            gen = cliffrep.build_generators((int(argv[2]), int(argv[4])))
            payload["gammas"] = [matrix_to_json(g, gen.basis_note) for g in gen.gammas]
        else:
            a, b = map(Fraction, argv[2:])
            if argv[1] == "--gn":
                ops = cliffrep.build_gn_operators(cliffrep.GNLabel(a, b))
            else:
                ops = cliffrep.build_vdw_operators(a, b)
            payload["operators"] = {k: matrix_to_json(v, ops.basis_note) for k, v in ops.operators().items()}
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_unknown_object_raises_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            "".join(cli._json_chunks({"m": parts_payload(np.eye(2), "note"), "x": object()}))
        with pytest.raises(TypeError, match="Object of type ndarray is not JSON serializable"):
            "".join(cli._json_chunks({"m": np.eye(2)}))  # an array is written only as a cli._Parts


#: entry lists (dim, (real, imaginary)) at the text writer's edges
EDGE_ENTRIES = {
    "non-finite": (2, ([(0, 0, math.nan), (0, 1, math.inf)], [(1, 1, -math.inf), (1, 0, math.nan)])),
    "negative zero": (2, ([(0, 0, -0.0), (1, 1, 2.0)], [(1, 0, -0.0)])),
    "repeated position": (2, ([(0, 1, 1.5), (1, 1, 3.0), (0, 1, -2.5)], [(0, 1, 0.25), (0, 1, -0.0)])),
    "empty imaginary part": (3, ([(0, 0, 1.0), (1, 2, 0.1), (2, 1, -1e300)], [])),
    "dim 1": (1, ([(0, 0, 0.1)], [(0, 0, -0.2)])),
    "dim 1, no entry": (1, ([], [])),
}


class TestTextWriter:
    @pytest.mark.parametrize("name", sorted(EDGE_ENTRIES))
    def test_edge_entries_match_json_dumps(self, name):
        """Each edge case, alone and nested, is written as ``json.dumps`` writes ``matrix_to_json`` of the array
        ``dense`` makes of the same entry lists: non-finite floats as NaN/Infinity/-Infinity, a written -0.0 as
        -0.0, the last entry at a repeated position, and every cell no entry writes as 0.0."""
        dim, operator = EDGE_ENTRIES[name]
        m = _entries.dense(dim, [operator])[0]
        for wrap in (lambda x: x, lambda x: {"a": [x, {"b": x}], "n": 1}):
            writer = "".join(cli._json_chunks(wrap(cli._matrix_payload(dim, operator, "note"))))
            assert writer == json.dumps(wrap(matrix_to_json(m, "note")), indent=2)

    def test_one_text_per_written_position(self):
        """The writer's work scales with the entries, not with dim^2: over ``rep --gn 0 20``'s six dim-400
        operators (960 000 cells), it writes the floats of each position an entry list holds once, and every
        other cell is the one shared zero text."""
        operators = lorentz.gn_entries(lorentz.GNLabel(0, 20)).values()
        positions = [len({(r, c) for part in op for r, c, _ in part}) for op in operators]
        with mock.patch.object(_entries, "_float_text", wraps=_entries._float_text) as text:
            cells = [_entries.cell_texts(400, op, ",") for op in operators]
        assert text.call_count == 2 * sum(positions) < 0.02 * 2 * 6 * 400**2
        assert [len(set(map(id, op))) for op in cells] == [n + 1 for n in positions]


def label_runs() -> list[list[str]]:
    """The label commands over every p+q <= 16, the 8 x 8 tables and the first 13 chains."""
    pqs = [["-p", str(p), "-q", str(n - p)] for n in range(17) for p in range(n + 1)]
    forms = [["classify"], ["classify", "--json"], ["factorize"], ["clock", "--steps", "3"]]
    runs = [[cmd, *pq, *rest] for pq in pqs for cmd, *rest in forms]
    runs += [["table", "--pmax", str(p), "--qmax", str(q)] for p in range(8) for q in range(8)]
    return runs + [["chain", "--spin2", str(s)] for s in range(13)]


# sha256 over (argv, exit code, stdout, stderr) of every label_runs() run: these
# commands are pure Python, so their text holds on any numpy and BLAS
LABEL_TEXT_DIGEST = "36e8218d751a3271d46569409f43e56b5e9d6157748703b728e21ef8baed9819"


def test_label_command_text_unchanged(capsys):
    h = hashlib.sha256()
    for argv in label_runs():
        h.update(json.dumps([argv, *run(argv, capsys)]).encode())
    assert h.hexdigest() == LABEL_TEXT_DIGEST


# sha256 over (argv, exit code, stdout, stderr) of ``matrep`` for all 91 p+q <= 12: every entry
# lies in {0, +-1, +-i} and is written from its gamma's (column, Z4 phase) form, every zero as 0.0,
# with no float arithmetic, so these bytes depend on no libm or BLAS.  They are the bytes of the
# dense Kronecker chain with each -0.0 written 0.0 (test_gamma.py holds that chain as a reference)
MATREP_JSON_DIGEST = "7cd060f70ad2d7d78ae5702c18155db1c93a7ad80d25e578631b411a2f1c447e"

MATREP_RUNS = [["matrep", "-p", str(p), "-q", str(n - p)] for n in range(13) for p in range(n + 1)]


def test_matrep_json_unchanged(capsys):
    """The digest, and for each of the 91 runs: ``matrep``'s text, written from the (column, phase)
    forms without numpy, is the payload of ``build_generators``' dense arrays, each the ``cli._Parts``
    of all its entries, as the writer, held to ``json.dumps`` of ``matrix_to_json`` above, writes it."""
    h = hashlib.sha256()
    for argv in MATREP_RUNS:
        code, out, err = run(argv, capsys)
        h.update(json.dumps([argv, code, out, err]).encode())
        gen = cliffrep.build_generators((int(argv[2]), int(argv[4])))
        payload = {
            "p": gen.sig.p, "q": gen.sig.q, "dim": gen.dim, "reducible": gen.reducible, "metric": list(gen.metric),
            "anticommutation_ok": True, "gammas": [parts_payload(g, gen.basis_note) for g in gen.gammas],
        }
        assert (code, out, err) == (0, "".join(cli._json_chunks(payload)) + "\n", ""), argv
    assert h.hexdigest() == MATREP_JSON_DIGEST


#: every VdW label of dim <= 100, the range of the benchmark's requests, and the dim-200 corners
VDW_LABELS = checks.vdw_labels(100) + [(Fraction(199, 2), Fraction(0)), (Fraction(0), Fraction(199, 2))]


def row_runs(command: str) -> list[list[str]]:
    """Sampled runs of a matrix command: every 5th signature of p+q <= 12, every 8th GN label of dim <= 100
    and (0, 20), every 8th label of VDW_LABELS and the dim-200 corners."""
    if command == "matrep":
        return MATREP_RUNS[::5]
    labels = gn_labels_up_to(100)[::8] + [(0, 20)] if command == "rep --gn" else VDW_LABELS[::8] + VDW_LABELS[-2:]
    return [[*command.split(), str(a), str(b)] for a, b in labels]


def built_matrices(argv: list[str]) -> tuple[dict, str]:
    """The dense arrays of the builder behind a matrix command's run, keyed as the run prints them (gamma
    index or operator name), and their basis note: ``build_generators``, ``build_gn_operators`` or
    ``build_vdw_operators``."""
    if argv[0] == "matrep":
        gen = cliffrep.build_generators((int(argv[2]), int(argv[4])))
        return dict(enumerate(gen.gammas)), gen.basis_note
    a, b = map(Fraction, argv[2:])
    ops = cliffrep.build_gn_operators(cliffrep.GNLabel(a, b)) if argv[1] == "--gn" else cliffrep.build_vdw_operators(a, b)
    return ops.operators(), ops.basis_note


def rows_mismatch(command: str, capsys):
    """The first (argv, key) of ``row_runs(command)`` whose printed rows are not the real and imaginary
    parts of the builder's array bit for bit, signed zeros included, under its dim and basis note; else
    None.  The printed keys must be the builder's, in its order."""
    for argv in row_runs(command):
        code, out, _ = run(argv, capsys)
        printed = json.loads(out)
        printed = dict(enumerate(printed["gammas"])) if argv[0] == "matrep" else printed["operators"]
        arrays, note = built_matrices(argv)
        assert code == 0 and list(printed) == list(arrays), argv
        for key, m in arrays.items():
            assert (printed[key]["dim"], printed[key]["basis"]) == (len(m), note), argv
            re, im = (array("d", [pair[k] for pair in printed[key]["entries"]]).tobytes() for k in (0, 1))
            if (re, im) != (m.real.tobytes(), m.imag.tobytes()):
                return argv, key
    return None


#: the first run and matrix where the one-row-off row writer below moves a nonzero value, by command:
#: Cl(2,0)'s diagonal gamma, H3 of (1/2, 15/2) and Y3 of (0, 4); the spin-0 diagonals before them are 0.0
ROW_OFF_MISMATCH = {
    "matrep": (["matrep", "-p", "2", "-q", "0"], 1),
    "rep --gn": (["rep", "--gn", "1/2", "15/2"], "H3"),
    "rep --vdw": (["rep", "--vdw", "0", "4"], "Y3"),
}


@pytest.mark.parametrize("command", sorted(ROW_OFF_MISMATCH))
def test_printed_rows_are_the_builders_bits(command, capsys):
    """On sampled runs, the rows ``matrep``, ``rep --gn`` and ``rep --vdw`` print through the one row writer
    ``cell_texts``, from entry lists and without a dense array, are the bits of the builders' arrays.  A
    row writer that writes one entry one row off, the first of every real part that starts on the
    diagonal and holds more than one entry, patched once on the shared ``cell_texts``, breaks every
    command at the first run where that moves a nonzero value."""
    assert rows_mismatch(command, capsys) is None
    honest = _entries.cell_texts

    def one_row_off(dim, operator, separator):
        real, imaginary = operator
        if len(real) > 1 and real[0][0] == real[0][1]:
            (r, c, v), *rest = real
            real = [(r + 1, c, v), *rest]
        return honest(dim, (real, imaginary), separator)

    with mock.patch.object(_entries, "cell_texts", one_row_off):
        assert rows_mismatch(command, capsys) == ROW_OFF_MISMATCH[command]
    assert rows_mismatch(command, capsys) is None


def _negative_zeros(floats) -> int:
    floats = np.asarray(floats, dtype=np.float64)
    return int(np.count_nonzero(np.signbit(floats) & (floats == 0)))


def test_vdw_outputs_hold_no_negative_zero(capsys):
    """The VdW entries are placed, with no product formed, so no zero is -0.0: in
    ``build_vdw_operators``' arrays, in the cells ``cell_texts`` writes and in ``rep --vdw``'s text."""
    for l, ld in VDW_LABELS:
        ops, entries = cliffrep.build_vdw_operators(l, ld), lorentz.vdw_entries(l, ld)
        for name, m in ops.operators().items():
            parts = [float(v) for cell in _entries.cell_texts(ops.dim, entries[name], ",") for v in cell.split(",")]
            assert _negative_zeros(m.view(np.float64)) == _negative_zeros(parts) == 0, (l, ld, name)
        code, out, _ = run(["rep", "--vdw", str(l), str(ld)], capsys)
        assert code == 0 and "-0.0,\n" not in out and "-0.0\n" not in out, (l, ld)  # one float per line


#: sha256 of ``rep --vdw`` stdout over the 280 labels of dim <= 64 and the two dim-200 corners, run in-process:
#: the entries are placed ``math.sqrt`` roots and half-integers, every zero 0.0, and the residual is a
#: pure-Python float, so the text depends on no libm or BLAS
REP_VDW_JSON_DIGEST = "bc35f33756a53d1d4e04813d0ef54be0fdc72d40f8e087c1836d52e31e8b6f56"
REP_VDW_RUNS = [["rep", "--vdw", str(l), str(ld)] for l, ld in checks.vdw_labels(64) + VDW_LABELS[-2:]]


def test_rep_vdw_json_unchanged(capsys):
    h = hashlib.sha256()
    for argv in REP_VDW_RUNS:
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        h.update(out.encode())
    assert len(REP_VDW_RUNS) == 282 and h.hexdigest() == REP_VDW_JSON_DIGEST


def gn_labels_up_to(dim_max: int) -> list[tuple[Fraction, Fraction]]:
    """Every GN label (l0, l1) of dim (l1 - l0)(l1 + l0) <= dim_max, l0 ascending, then l1 ascending."""
    return [
        (Fraction(a, 2), Fraction(a, 2) + p)
        for a in range(dim_max)
        for p in range(1, dim_max + 1)
        if p * (a + p) <= dim_max
    ]


#: sha256 of ``rep --gn`` stdout over the 144 GN labels of dim <= 64 and (0, 20), run in-process, each
#: ``"commutator_residual"`` value masked as "#": the digest pins the entries, written from ``gn_entries``,
#: the labels and the verdicts; the residuals, sums over the same entry lists in pure Python, are pinned bit
#: for bit by GN_RESIDUAL_DIGEST and held to the dense com1_residual and com2_residual within a stated bound,
#: both in tests/test_lorentz.py
REP_GN_JSON_DIGEST = "1bf3261e555bb87044ae0a8c3af2b686d3c4666896e7d49a623a1c5963ee95ba"
REP_GN_RUNS = [["rep", "--gn", str(l0), str(l1)] for l0, l1 in gn_labels_up_to(64) + [(Fraction(0), Fraction(20))]]


def test_rep_gn_json_unchanged(capsys):
    h = hashlib.sha256()
    for argv in REP_GN_RUNS:
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        h.update(re.sub(r'(?<="commutator_residual": )[^,\n]+', "#", out).encode())
    assert len(REP_GN_RUNS) == 145 and h.hexdigest() == REP_GN_JSON_DIGEST


#: tracemalloc peak bound, in MiB, of a dim-400 ``rep`` written to a file: one operator's text, 8.0 MB, its
#: joined and encoded copies and the entry lists fit; twelve dense complex operators (31 MB) do not
REP_PEAK_MIB = 24


@pytest.mark.parametrize("argv", [["rep", "--gn", "0", "20"], ["rep", "--vdw", "19/2", "19/2"]], ids=" ".join)
def test_dim_400_rep_holds_one_matrix_text(argv, tmp_path, capsys):
    """``rep`` at dim 400 holds no dense operator: its tracemalloc peak, at most REP_PEAK_MIB (measured 18.2
    MiB for ``--gn 0 20`` and 16.6 MiB for ``--vdw 19/2 19/2``), is the text of one operator at a time; a GN
    judge on dense arrays peaked at 75.8 and 39.2 MiB."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code = main([*argv, "--out", str(tmp_path / "rep.json")])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert code == 0 and capsys.readouterr().err.endswith(" PASS\n")
    assert peak <= REP_PEAK_MIB << 20, peak / 2**20


@pytest.mark.parametrize("label", VDW_LABELS[::16] + VDW_LABELS[-2:], ids=lambda label: "%s,%s" % label)
def test_vdw_rep_is_build_vdw_operators_layout(label, capsys):
    """``rep --vdw``'s text is the payload of ``build_vdw_operators``' arrays, each the ``cli._Parts`` of all
    its entries, as the writer, held to ``json.dumps`` of ``matrix_to_json`` above, writes it, with
    ``vdw_proof``'s residual; sampled, since the rows decide the entries' text."""
    code, out, err = run(["rep", "--vdw", *map(str, label)], capsys)
    ops = cliffrep.build_vdw_operators(*label)
    residual = lorentz.vdw_proof(*label)[1]
    payload = {
        "basis": "vdw", "l": str(ops.l), "ldot": str(ops.ldot), "dim": ops.dim,
        "operators": {k: parts_payload(v, ops.basis_note) for k, v in ops.operators().items()},
        "commutator_residual": residual, "tolerance": GN_COM_TOL, "pass": True,
    }
    assert (code, out) == (0, "".join(cli._json_chunks(payload)) + "\n") and err.endswith(f"residual {residual:.3e} PASS\n")


# sha256 of ``verify`` stdout per budget, each float residual's digits masked as "#":
# the residuals vary with BLAS and libm, the names, verdicts and details do not
VERIFY_TEXT_DIGESTS = {
    (): "28239a6e4fa1de472617b5cf7f522222842cb764c6514768cad33b90d6b3df76",
    ("--nmax", "5", "--dim-max", "16"): "1026df6b97204d796dd6918bcd4aedd20c4e96976b5970610d9a406942a58e0e",
}


@pytest.mark.parametrize("budget", sorted(VERIFY_TEXT_DIGESTS), ids=lambda budget: " ".join(budget) or "default")
def test_verify_text_unchanged(budget, capsys):
    code, out, err = run(["verify", *budget], capsys)
    masked = re.sub(r"(?<=residual )[^\]]+", "#", out)
    assert (code, err, hashlib.sha256(masked.encode()).hexdigest()) == (0, "", VERIFY_TEXT_DIGESTS[budget])


#: bad argv lists over all eight subcommands and none: signatures past 16 generators, negative
#: counts, float counts and spins, out-of-range steps, 2s and budgets, bad ``rep`` labels, missing
#: and unknown arguments and subcommands
USAGE_ERROR_RUNS = [
    ["classify", "-p", "9", "-q", "8"],
    ["classify", "-p", "-1", "-q", "3"],
    ["classify", "-p", "1.5", "-q", "3"],
    ["classify", "--json", "-p", "17", "-q", "0"],
    ["classify", "-p", "1"],
    ["table", "--pmax", "9", "--qmax", "8"],
    ["table", "--pmax", "-1"],
    ["table", "--qmax", "1000000000"],
    ["table", "--pmax", "x"],
    ["clock", "-p", "1", "-q", "0", "--steps", "-1"],
    ["clock", "-p", "0", "-q", "10", "--steps", "8"],
    ["clock", "-p", "-2", "-q", "0"],
    ["clock", "-p", "17", "-q", "0", "--steps", "0"],
    ["factorize", "-p", "17", "-q", "0"],
    ["factorize", "-p", "0", "-q", "-1"],
    ["factorize", "-p", "2", "-q", "2.0"],
    ["matrep", "-p", "-1", "-q", "0"],
    ["matrep", "-p", "9", "-q", "8"],
    ["matrep", "-q", "1"],
    ["rep", "--gn", "1/2", "1/2"],
    ["rep", "--gn", "0.3", "2"],
    ["rep", "--gn", "-1/2", "3/2"],
    ["rep", "--vdw", "nan", "0"],
    ["rep", "--vdw", "2.5e0", "1/3"],
    ["rep", "--vdw", "0", "1/0"],
    ["rep", "--gn", "0", "100"],
    ["rep", "--vdw", "10", "19/2"],
    ["rep", "--gn", "0", "1", "--vdw", "0", "0"],
    ["rep", "--vdw", "1/2", "1/2", "--tol", "-1"],
    ["rep"],
    ["chain", "--spin2", "-1"],
    ["chain", "--spin2", "1001"],
    ["chain", "--spin2", str(10**22)],
    ["chain", "--spin2", "1.5"],
    ["chain"],
    ["verify", "--nmax", "17"],
    ["verify", "--nmax", "-1"],
    ["verify", "--dim-max", "401"],
    ["verify", "--dim-max", "0"],
    ["classify", "-p", "1", "-q", "3", "--bogus"],
    ["frobnicate"],
    [],
]

# sha256 over (argv, exit code, stdout, stderr) of every USAGE_ERROR_RUNS run, argparse's usage
# lines wrapped at 80 columns: cliffrep's messages and argparse's, the same on Python 3.10, 3.11 and 3.12
USAGE_ERROR_DIGEST = "b113a6ff8719a1a22dd322da6c50a34aa2aa75fea156b6d7db79522800fff6ac"


def test_usage_error_text_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    h = hashlib.sha256()
    for argv in USAGE_ERROR_RUNS:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        h.update(json.dumps([argv, code, captured.out, captured.err]).encode())
    assert h.hexdigest() == USAGE_ERROR_DIGEST
