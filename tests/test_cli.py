"""Command-line interface: output formats, JSON round-trips, exit codes."""

import ast
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import cliffrep
from cliffrep import checks, cli, lorentz
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

    def test_nan_residual_fails(self, capsys, monkeypatch):
        from cliffrep import lorentz

        honest = lorentz.build_vdw_operators

        def with_nan(l, ldot):
            ops = honest(l, ldot)
            ops.yminus[...] = np.nan
            return ops

        monkeypatch.setattr(lorentz, "build_vdw_operators", with_nan)
        code, _, err = run(["rep", "--vdw", "1", "0"], capsys)
        assert code == 1
        assert err.splitlines()[-1] == "(l,ldot) = (1,0), dim 3, commutator residual nan FAIL"

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
        with mock.patch.multiple(lorentz, build_gn_operators=unreachable, build_vdw_operators=unreachable):
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
        either, and chain adds ``repsys`` (so ``dataclasses``) and nothing more.  A module the
        interpreter had loaded before cliffrep does not count."""
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
        assert proc.stdout.splitlines() == ["[]", "[]", "[] True", "True"]

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
            (["rep", "--gn", "0", "1"], ["cliffrep.checks", "cliffrep.gamma", "cliffrep.algebra", "cliffrep.tensor"]),
            (["rep", "--vdw", "1/2", "0"], ["cliffrep.checks", "cliffrep.gamma", "cliffrep.algebra", "cliffrep.tensor"]),
            (["matrep", "-p", "1", "-q", "3"], ["cliffrep.lorentz", "cliffrep.checks", "cliffrep.algebra", "cliffrep.tensor"]),
        ],
    )
    def test_matrix_commands_import_what_they_run(self, argv, unimported):
        code = f"""
import contextlib, io, sys
import cliffrep.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cliffrep.cli.main({argv!r}) == 0
print([m for m in {unimported!r} if m in sys.modules])
"""
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

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
    return "".join(cli._json_chunks(with_matrices(payload, cli._matrix_payload)))


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
            "".join(cli._json_chunks({"m": cli._matrix_payload(np.eye(2), "note"), "x": object()}))


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


# sha256 over (argv, exit code, stdout, stderr) of ``matrep`` for all 91 p+q <= 12: every
# entry lies in {0, +-1, +-i}, so these bytes, signed zeros included, depend on no libm or BLAS
MATREP_JSON_DIGEST = "1b92591f2cdfa50ab4ca244eef9c18faf83a02d6ce2e59de54c673bd166652fa"


def test_matrep_json_unchanged(capsys):
    h = hashlib.sha256()
    for n in range(13):
        for p in range(n + 1):
            argv = ["matrep", "-p", str(p), "-q", str(n - p)]
            h.update(json.dumps([argv, *run(argv, capsys)]).encode())
    assert h.hexdigest() == MATREP_JSON_DIGEST


# sha256 of ``verify`` stdout per budget, each float residual's digits masked as "#":
# the residuals vary with BLAS and libm, the names, verdicts and details do not
VERIFY_TEXT_DIGESTS = {
    (): "a629d59a4ab711f4689a7e0caa39ead9592d0d16d564b0f607c0b7e964422273",
    ("--nmax", "5", "--dim-max", "16"): "6d383d6b978808399795d8e1498985aa01907a07460487f99f21df09202efe62",
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
    ["matrep", "-p", "7", "-q", "6"],
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
USAGE_ERROR_DIGEST = "6b22b3b93e7a6874da6da22bcf5939d4e216f82678ac78a180359094abd94255"


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
