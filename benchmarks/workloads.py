"""The four benchmark workloads: seeded inputs, one op, and its oracle.

Each workload is a closed loop with one client.  ``make_inputs`` builds a
pool of plain-data inputs from the seed before anything is timed (and
without importing cliffrep); ``setup`` imports cliffrep, turns the pool
into program objects and runs the untimed warm-up ops; ``op`` is the
timed unit of work and ``check`` compares its output with the oracle in
``oracle.py``.  The run cycles through the pool until its time is up.

``SPEC`` records, for each workload, the op, the input properties it
varies, why it was chosen, and which end-to-end metrics each layer is
predicted to move on it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import selectors
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
from hostspeed import SPEED_MARKER
from tracing import TRACE_MARKER

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SPEC = {
    "verify-suite": {
        "op": "cliffrep.checks.run_all(nmax=8, dim_max=64), the work behind `cliffrep verify --nmax 8`",
        "varies": "nothing: fixed budgets, --seed is ignored",
        "why": "The self-checking promise as users run it; tensor ~50%, lorentz ~25%, gamma ~17% of an op, algebra products a small share.",
        "predictions": {
            "tensor": "throughput_ops_per_s, latency_p50_ms",
            "lorentz": "throughput_ops_per_s, latency_p50_ms",
            "gamma": "throughput_ops_per_s, latency_p50_ms",
            "checks": "throughput_ops_per_s",
            "algebra": "small share of throughput_ops_per_s",
            "classify, factorize, repsys": "none (flat)",
        },
    },
    "mv-dense": {
        "op": "exact product of two dense int multivectors in Cl(p, 8-p)",
        "varies": "p per op (0..8); >= 90% of the 256 blades nonzero; coefficients in [-9, 9]",
        "why": "Multivector.__mul__ is ~100% of the op; a table-driven dense product shows here.",
        "predictions": {
            "algebra": "throughput_ops_per_s, latency_p50_ms; setup_s and peak_rss_mb if sign tables are cached",
            "all other layers": "none (not called)",
        },
    },
    "mv-sparse": {
        "op": "exact product of two sparse Fraction multivectors in Cl(p, q)",
        "varies": "n = p + q per op (12..16, up to MAX_GENERATORS); 2n terms of grades 1-3 per input",
        "why": "Same layer as mv-dense but per-call blade_product/as_signature overhead dominates and no 2^n table fits; a dense fast path must not slow it.",
        "predictions": {
            "algebra": "throughput_ops_per_s, latency_p50_ms (a dense table path predicts no change)",
            "all other layers": "none (not called)",
        },
    },
    "cli-requests": {
        "op": "one `cliffrep` subprocess (through benchmarks/hostspeed.py, which times the host's speed around the child's work), run one at a time, stdout checked",
        "varies": "arguments and order within each block of 10: 7 label requests (2 classify --json, table, clock, 2 factorize, chain), 1 matrep (n <= 10), 1 rep at dim 90..100 and 1 rep at dim <= 100 (one --gn, one --vdw)",
        "why": "The only workload where CLI start-up (the numpy import) and JSON encoding dominate; no multivector product runs.",
        "predictions": {
            "cli": "latency_p50_ms (import), throughput_ops_per_s and peak_rss_mb (JSON encoding)",
            "gamma": "throughput_ops_per_s (matrep)",
            "lorentz": "throughput_ops_per_s (rep)",
            "algebra": "none (no products run)",
        },
    },
}


def blas_env() -> dict[str, str]:
    """Environment with BLAS/OpenMP at one thread.

    The workloads are single-client loops; a second BLAS thread on a
    small shared machine makes the ops slower and their times noisier.
    """
    cap = "1"
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_cliffrep():
    import cliffrep

    if Path(cliffrep.__file__).resolve().parent != SRC / "cliffrep":
        raise RuntimeError(f"cliffrep imported from {cliffrep.__file__}, not from {SRC}")
    return cliffrep


class Workload:
    """Defaults shared by the workloads."""

    tracer = None  # set while a traced phase runs


class VerifySuite(Workload):
    name = "verify-suite"
    NMAX, DIM_MAX = 8, 64
    EXPECTED_CHECKS = 16

    def make_inputs(self, rng: random.Random) -> list:
        return [{"nmax": self.NMAX, "dim_max": self.DIM_MAX}]

    def setup(self, inputs: list) -> None:
        _import_cliffrep()
        import cliffrep.checks

        self.checks = cliffrep.checks
        self.inputs = inputs
        # warm-up: every check once, at a small budget
        self.warmup = [{"nmax": 3, "dim_max": 8}]

    def op(self, x: dict):
        return self.checks.run_all(nmax=x["nmax"], dim_max=x["dim_max"])

    def check(self, x: dict, out, rng: random.Random) -> str | None:
        if len(out) != self.EXPECTED_CHECKS:
            return f"{len(out)} check results, want {self.EXPECTED_CHECKS}"
        failed = [r.name for r in out if r.passed is not True]
        return f"failing checks {failed}" if failed else None


def _fraction_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


class _Products(Workload):
    """Shared set-up and oracle of the two multivector-product workloads."""

    POOL = 64
    WARMUP = 1
    SAMPLES = 8

    def setup(self, inputs: list) -> None:
        cliffrep = _import_cliffrep()
        mv = cliffrep.Multivector
        self.inputs = [
            {**x, "mv": (mv((x["p"], x["q"]), x["a"]), mv((x["p"], x["q"]), x["b"]))} for x in inputs
        ]
        self.warmup = self.inputs[: self.WARMUP]

    def op(self, x: dict):
        a, b = x["mv"]
        return a * b

    def check(self, x: dict, out, rng: random.Random) -> str | None:
        if tuple(out.sig) != (x["p"], x["q"]):
            return f"product signature {out.sig}"
        return oracle.check_product(x["a"], x["b"], x["p"], x["p"] + x["q"], out.coefficient, rng, self.SAMPLES)


class MvDense(_Products):
    name = "mv-dense"
    N = 8

    def make_inputs(self, rng: random.Random) -> list:
        out = []
        for _ in range(self.POOL):
            p = rng.randint(0, self.N)

            def dense():
                terms = {m: rng.choice([-1, 1]) * rng.randint(1, 9) for m in range(1 << self.N)}
                for m in rng.sample(range(1 << self.N), rng.randint(0, (1 << self.N) // 10)):
                    del terms[m]
                return terms

            out.append({"p": p, "q": self.N - p, "a": dense(), "b": dense()})
        return out


class MvSparse(_Products):
    name = "mv-sparse"
    POOL = 256
    WARMUP = 8
    SAMPLES = 16

    def make_inputs(self, rng: random.Random) -> list:
        out = []
        for _ in range(self.POOL):
            n = rng.randint(12, 16)
            p = rng.randint(0, n)
            low_grade = [sum(1 << i for i in c) for k in (1, 2, 3) for c in itertools.combinations(range(n), k)]

            def sparse():
                return {m: _fraction_coeff(rng) for m in rng.sample(low_grade, 2 * n)}

            out.append({"p": p, "q": n - p, "a": sparse(), "b": sparse()})
        return out


def _gn_labels(dim_max: int) -> list[tuple[Fraction, Fraction]]:
    out = []
    l0 = Fraction(0)
    while 2 * l0 + 1 <= dim_max:
        step = 1
        while step * (2 * l0 + step) <= dim_max:
            out.append((l0, l0 + step))
            step += 1
        l0 += Fraction(1, 2)
    return out


def _vdw_labels(dim_max: int) -> list[tuple[Fraction, Fraction]]:
    halves = [Fraction(k, 2) for k in range(dim_max)]
    return [(l, ld) for l in halves for ld in halves if (2 * l + 1) * (2 * ld + 1) <= dim_max]


def run_child(cmd: list[str], env: dict) -> tuple[int, bytes, bytes, float, int]:
    """Run one subprocess to completion.

    Returns (exit code, stdout, stderr, wall seconds, peak RSS in KiB of
    that child alone, from wait4).
    """
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        chunks: dict = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - t0
    return proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), elapsed, usage.ru_maxrss


class CliRequests(Workload):
    name = "cli-requests"
    BLOCKS = 8
    # the label requests of one block of ten: 70% of the mix
    LABEL_KINDS = ("classify", "classify", "table", "clock", "factorize", "factorize", "chain")
    GN = _gn_labels(100)
    VDW = _vdw_labels(100)

    def __init__(self):
        self.env = blas_env()

    def _label_request(self, kind: str, rng: random.Random) -> dict:
        if kind == "classify":
            p = rng.randint(0, 12)
            q = rng.randint(0, min(12, 16 - p))
            return {"kind": kind, "p": p, "q": q, "argv": ["classify", "-p", str(p), "-q", str(q), "--json"]}
        if kind == "table":
            pmax, qmax = rng.randint(0, 7), rng.randint(0, 7)
            return {"kind": kind, "pmax": pmax, "qmax": qmax, "argv": ["table", "--pmax", str(pmax), "--qmax", str(qmax)]}
        if kind == "clock":
            p, q = rng.randint(0, 8), rng.randint(0, 4)
            steps = rng.randint(0, min(8, 16 - p - q))
            argv = ["clock", "-p", str(p), "-q", str(q), "--steps", str(steps)]
            return {"kind": kind, "p": p, "q": q, "steps": steps, "argv": argv}
        if kind == "factorize":
            n = rng.randint(1, 12)
            p = rng.randint(0, n)
            return {"kind": kind, "p": p, "q": n - p, "argv": ["factorize", "-p", str(p), "-q", str(n - p)]}
        spin2 = rng.randint(0, 12)
        return {"kind": kind, "spin2": spin2, "argv": ["chain", "--spin2", str(spin2)]}

    def _matrix_requests(self, rng: random.Random) -> list[dict]:
        n = rng.randint(1, 10)
        p = rng.randint(0, n)
        pair = (rng.randrange(n), rng.randrange(n))
        out = [{"kind": "matrep", "p": p, "q": n - p, "pair": pair, "argv": ["matrep", "-p", str(p), "-q", str(n - p)]}]
        # one rep at the size limit, so each block holds the largest JSON the mix allows
        (large_basis, large_labels), other = rng.sample([("gn", self.GN), ("vdw", self.VDW)], 2)
        large = [ab for ab in large_labels if self._dim(large_basis, *ab) >= 90]
        for basis, labels in ((large_basis, large), other):
            a, b = rng.choice(labels)
            argv = ["rep", f"--{basis}", str(a), str(b)]
            out.append({"kind": "rep", "large": labels is large, "basis": basis, "a": str(a), "b": str(b), "argv": argv})
        return out

    @staticmethod
    def _dim(basis: str, a: Fraction, b: Fraction) -> int:
        return int(b * b - a * a) if basis == "gn" else int((2 * a + 1) * (2 * b + 1))

    def make_inputs(self, rng: random.Random) -> list:
        out = []
        for _ in range(self.BLOCKS):
            block = [self._label_request(kind, rng) for kind in self.LABEL_KINDS] + self._matrix_requests(rng)
            rng.shuffle(block)
            out += block
        return out

    def setup(self, inputs: list) -> None:
        self.inputs = inputs
        # the children's import cost is what set-up measures here
        self.warmup = [next(x for x in inputs if x["kind"] == kind) for kind in ("classify", "matrep")]

    def op(self, x: dict):
        """(exit code, stdout, stderr, seconds, peak RSS KiB, the child's host loop seconds)"""
        shim = str(Path(__file__).with_name("hostspeed.py" if self.tracer is None else "tracing.py"))
        code, stdout, stderr, elapsed, rss = run_child([sys.executable, shim, *x["argv"]], self.env)
        stderr, _, summary = stderr.decode().partition(TRACE_MARKER if self.tracer else SPEED_MARKER)
        summary = json.loads(summary) if summary else None
        if summary and self.tracer is not None:
            self.tracer.merge_child(summary)
        return code, stdout, stderr.encode(), elapsed, rss, summary and summary["loop_s"]

    def check(self, x: dict, out, rng: random.Random) -> str | None:
        code, stdout, stderr = out[:3]
        if code != 0:
            return f"{' '.join(x['argv'])}: exit {code}: {stderr.decode(errors='replace')[-300:]}"
        text = stdout.decode()
        kind = x["kind"]
        if kind == "classify":
            return oracle.check_classify(text, x["p"], x["q"])
        if kind == "table":
            return oracle.check_table(text, x["pmax"], x["qmax"])
        if kind == "clock":
            return oracle.check_clock(text, x["p"], x["q"], x["steps"])
        if kind == "factorize":
            return oracle.check_factorize(text, x["p"], x["q"])
        if kind == "chain":
            return oracle.check_chain(text, x["spin2"])
        if kind == "matrep":
            return oracle.check_matrep(text, x["p"], x["q"], tuple(x["pair"]))
        return oracle.check_rep(text, x["basis"], Fraction(x["a"]), Fraction(x["b"]))


WORKLOADS = {w.name: w for w in (VerifySuite, MvDense, MvSparse, CliRequests)}


def canonical(inputs: list) -> bytes:
    """Byte encoding of an input pool (Fractions as 'n/d'), for hashing."""

    def enc(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, dict):
            return {str(k): enc(c) for k, c in v.items()}
        if isinstance(v, (list, tuple)):
            return [enc(c) for c in v]
        return v

    return json.dumps(enc(inputs), sort_keys=True, separators=(",", ":")).encode()
