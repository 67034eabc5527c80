"""Checks of the benchmark itself: short runs, determinism, oracles.

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from hostspeed import SPEED_MARKER, HostSpeed  # noqa: E402
from workloads import WORKLOADS, blas_env, canonical, run_child  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seconds: float = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*DECLARED["command"], "--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_declared_workloads_exist():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_is_correct_and_prints_every_metric(workload):
    proc = run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail ") :])
    assert detail["error_rate"] == 0
    assert any(line.split()[:2] == ["error_rate", "0"] and "ops_failed 0" in line for line in lines)
    assert any(line.split()[0] == "latency_p90_ms" for line in lines)
    for metric in DECLARED["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"] for line in lines[:-1])
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric():
    proc = run("mv-sparse", trace=1, seconds=2)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in DECLARED["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < metrics["trace_overhead"] <= 1.5
    assert metrics["algebra.mul.calls"] == 1 and metrics["algebra.blade_product.calls"] >= 24 * 24
    assert 0.9 < metrics["trace.layer_share"] <= 1.0001


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("mv-sparse", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seeded(name):
    wl = WORKLOADS[name]()
    a = canonical(wl.make_inputs(random.Random(f"{name}/1")))
    b = canonical(wl.make_inputs(random.Random(f"{name}/1")))
    c = canonical(wl.make_inputs(random.Random(f"{name}/2")))
    assert a == b
    assert (a == c) == (name == "verify-suite")


def test_dense_inputs_are_dense():
    for x in WORKLOADS["mv-dense"]().make_inputs(random.Random(3)):
        for terms in (x["a"], x["b"]):
            assert len(terms) >= 0.9 * 256 and all(1 <= abs(c) <= 9 for c in terms.values())


def test_blade_sign_by_hand():
    e1, e2, e3 = 1, 2, 4
    assert oracle.blade_sign(e2, e1, 3) == -1  # e2 e1 = -e12
    assert oracle.blade_sign(e1, e2, 3) == 1
    assert oracle.blade_sign(e1, e1, 1) == 1 and oracle.blade_sign(e1, e1, 0) == -1
    assert oracle.blade_sign(e1 | e2, e1 | e2, 2) == -1  # (e12)^2 = -1 in Cl(2,0)
    assert oracle.blade_sign(e1 | e2 | e3, e1 | e2 | e3, 1) == -1  # omega^2 = -1 in Cl(1,2)


def test_product_oracle_catches_a_wrong_coefficient():
    a, b = {1: 2, 2: 3}, {1: 5, 6: 7}
    good = {m: oracle.product_coefficient(a, b, m, 3) for m in range(8)}
    assert oracle.check_product(a, b, 3, 3, lambda m: good[m], random.Random(0), 16) is None
    bad = {**good, 3: good[3] + 1}
    assert oracle.check_product(a, b, 3, 3, lambda m: bad[m], random.Random(0), 64) is not None


def test_classification_table_matches_known_cells():
    assert oracle.table_entry(0, 0) == "R"
    assert oracle.table_entry(1, 0) == "2R"
    assert oracle.table_entry(0, 1) == "C"
    assert oracle.table_entry(0, 2) == "H"
    assert oracle.table_entry(1, 3) == "H(2)"
    assert oracle.table_entry(7, 7) == "R(128)"
    assert oracle.shape_text(3, 0) == "Mat_2(C)"


def test_speed_shim_keeps_large_output_whole():
    argv = ["rep", "--gn", "0", "10"]  # about 3 MB of JSON, far more than a pipe holds
    with HostSpeed():  # the parent samples while the child writes, as in a run
        code, out, err, _, _ = run_child([sys.executable, str(BENCH / "hostspeed.py"), *argv], blas_env())
    plain = subprocess.run([sys.executable, "-m", "cliffrep.cli", *argv], capture_output=True, env=blas_env(), cwd=ROOT)
    assert code == 0 and out == plain.stdout
    assert float(json.loads(err.decode().partition(SPEED_MARKER)[2])["loop_s"]) > 0
