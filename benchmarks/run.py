"""Seeded end-to-end and per-layer benchmark of cliffrep.

    python3 benchmarks/run.py --workload mv-dense --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; cliffrep is imported from its
``src`` directory.  The workloads are defined in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json:
the run is split into ``SEGMENTS`` equal segments, each in a fresh
process that times its own set-up (import plus warm-up ops) and then
runs the op loop.  Throughput, latency and set-up are the medians over
the segments, so one process that runs slow (as one in eight or so
does on a shared VM, whatever its inputs) cannot move them.  ``--trace
1`` spends half the time untraced and half under the tracer of
``tracing.py``, in the run's own process, then runs the size-ladder
probes of ``probes.py``, and reports the per-layer metrics.

Every op and set-up time is given at a fixed reference host speed
(``hostspeed.py``), because a shared virtual machine's speed swings by
up to 1.8x for minutes at a time; the raw figures and the host's median
slowdown against the reference are printed too.  Throughput is verified
ops over the scaled time they took, latency the median scaled op time.

Every op's output is checked against the oracle; an op that raises or
fails the check counts as failed.  Human-readable lines come first, then
a ``detail`` JSON line with the environment and every metric, and last
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probes  # noqa: E402
from hostspeed import REFERENCE_LOOP_S, HostSpeed, at_reference  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import ROOT, SPEC, SRC, WORKLOADS, blas_env, canonical  # noqa: E402

SEGMENTS = 4  # processes per untraced run, each with its own set-up
P90_MIN_OPS = 100
CLI_SUBCOMMANDS = ("classify", "table", "clock", "factorize", "chain", "matrep", "rep")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)


@dataclass
class Sample:
    x: dict | None
    t0: float
    latency: float
    ok: bool
    meta: tuple | None = None  # cli: (stdout bytes, child peak RSS KiB)
    loop: float | None = None  # host loop time sampled in a child process


def run_one(wl, x, oracle_rng, tally: Tally, tracer=None, op_id: str = "") -> Sample:
    t0 = time.perf_counter()
    reason = None
    try:
        if tracer is None:
            out = wl.op(x)
        else:
            with tracer.op(op_id):
                out = wl.op(x)
    except Exception as exc:  # an op that raises is a failed op, never a crashed run
        out, reason = None, f"op raised {exc!r}"
    latency = time.perf_counter() - t0
    if reason is None:
        try:
            reason = wl.check(x, out, oracle_rng)
        except Exception as exc:  # unreadable output fails the oracle
            reason = f"oracle could not read the output: {exc!r}"
    tally.record(reason)
    if wl.name == "cli-requests" and out is not None:
        return Sample(x, t0, latency, reason is None, meta=(len(out[1]), out[4]), loop=out[5])
    return Sample(x, t0, latency, reason is None)


def timed_setup(wl, inputs, oracle_rng, tally: Tally) -> Sample:
    """Import cliffrep, prepare the inputs and run the warm-up ops."""
    t0 = time.perf_counter()
    wl.setup(inputs)
    warmup = [run_one(wl, x, oracle_rng, tally) for x in wl.warmup]
    # cli-requests: set-up is its warm-up children, which time their own host speed
    loops = [s.loop for s in warmup if s.loop]
    return Sample(None, t0, time.perf_counter() - t0, True, loop=statistics.median(loops) if loops else None)


def measure(wl, seconds: float, oracle_rng, tally: Tally, start: int, tracer=None) -> list[Sample]:
    samples = []
    t_end = time.perf_counter() + seconds
    i = start
    while time.perf_counter() < t_end:
        x = wl.inputs[i % len(wl.inputs)]
        samples.append(run_one(wl, x, oracle_rng, tally, tracer, f"{wl.name}#{i}"))
        i += 1
    return samples


def summarize(wl, samples: list[Sample], speed: HostSpeed) -> dict:
    """One segment's op timings, raw and at the reference speed, as plain data."""
    loops = [s.loop or speed.during(s.t0, s.latency) for s in samples]
    if wl.name == "cli-requests":
        peak_rss_kib = max(s.meta[1] for s in samples if s.meta)
    else:
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_s": [at_reference(s.latency, loop) for s, loop in zip(samples, loops)],
        "raw_latency_s": [s.latency for s in samples],
        "loop_s": loops,
        "verified": sum(s.ok for s in samples),
        "peak_rss_kib": peak_rss_kib,
    }


def run_segment(args, start: int) -> dict:
    """One segment of an untraced run, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds / SEGMENTS), "--segment", str(start)]
    timeout = args.seconds / SEGMENTS + 30  # a hung segment fails the run well inside its time limit
    out = subprocess.run(cmd, capture_output=True, text=True, env=blas_env(), cwd=ROOT, timeout=timeout)
    if out.returncode != 0:
        raise RuntimeError(f"segment process failed: {out.stderr[-500:]}")
    return json.loads(out.stdout.splitlines()[-1])


def segment_main(wl, inputs, args) -> int:
    """Set up, run the op loop from pool index ``args.segment``, print the summary."""
    tally = Tally()
    oracle_rng = random.Random(f"oracle/{wl.name}/{args.seed}/{args.segment}")
    with HostSpeed() as speed:
        setup = timed_setup(wl, inputs, oracle_rng, tally)
        samples = measure(wl, args.seconds, oracle_rng, tally, args.segment)
    seg = summarize(wl, samples, speed)
    seg["setup_s"] = at_reference(setup.latency, setup.loop or speed.during(setup.t0, setup.latency))
    seg["attempted"], seg["failed"], seg["reasons"] = tally.attempted, tally.failed, tally.reasons[:5]
    # printed once the sampling timer is off: a signal can cut a blocked write short
    print(json.dumps(seg))
    return 0


def throughput(seg: dict, key: str = "latency_s") -> float:
    return seg["verified"] / sum(seg[key])


def end_to_end(segments: list[dict]) -> dict[str, float]:
    pooled = [x for seg in segments for x in seg["latency_s"]]
    metrics = {
        "throughput_ops_per_s": statistics.median(throughput(seg) for seg in segments),
        "latency_p50_ms": statistics.median(statistics.median(seg["latency_s"]) for seg in segments) * 1e3,
    }
    if len(pooled) >= P90_MIN_OPS:
        metrics["latency_p90_ms"] = statistics.quantiles(pooled, n=10)[8] * 1e3
    if "setup_s" in segments[0]:
        metrics["setup_s"] = statistics.median(seg["setup_s"] for seg in segments)
    metrics["peak_rss_mb"] = max(seg["peak_rss_kib"] for seg in segments) / 1024
    metrics["raw_throughput_ops_per_s"] = statistics.median(throughput(seg, "raw_latency_s") for seg in segments)
    metrics["raw_latency_p50_ms"] = statistics.median(statistics.median(seg["raw_latency_s"]) for seg in segments) * 1e3
    metrics["host_slowdown"] = statistics.median(x for seg in segments for x in seg["loop_s"]) / REFERENCE_LOOP_S
    metrics["ops_timed"] = len(pooled)
    return metrics


def cli_metrics(samples: list[Sample]) -> dict[str, float]:
    out = {}
    for sub in CLI_SUBCOMMANDS:
        lat = [s.latency for s in samples if s.x["argv"][0] == sub]
        out[f"cli.{sub}.latency_ms"] = statistics.median(lat) * 1e3 if lat else 0.0
    out["cli.json_bytes"] = statistics.fmean(s.meta[0] for s in samples if s.meta)
    return out


def environment(args, blas_cap: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_cap,
        "seed": args.seed,
        "git_commit": commit,
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, help=argparse.SUPPRESS)  # pool index a segment process starts at
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cliffrep" / "__init__.py").is_file():
        print(f"cliffrep sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    declared = json.loads(spec_file.read_text())
    env = blas_env()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = env[var]  # before numpy is first imported
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]()
    inputs = wl.make_inputs(random.Random(f"{wl.name}/{args.seed}"))
    digest = hashlib.sha256(canonical(inputs)).hexdigest()
    if args.segment is not None:
        return segment_main(wl, inputs, args)

    print(f"cliffrep benchmark: workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"inputs: {len(inputs)} items, sha256 {digest}")
    if wl.name == "verify-suite":
        print(f"note: {wl.name} uses fixed budgets (nmax={wl.NMAX}, dim_max={wl.DIM_MAX}) and ignores --seed")
    sys.stdout.flush()

    tally = Tally()
    probe_failures: list[str] = []
    per_layer: dict[str, float] = {}
    per_segment: list[dict] = []
    if args.trace == 0:
        segments = []
        for _ in range(SEGMENTS):
            segments.append(run_segment(args, sum(len(seg["latency_s"]) for seg in segments)))
            tally.attempted += segments[-1]["attempted"]
            tally.failed += segments[-1]["failed"]
            tally.reasons += segments[-1]["reasons"]
        e2e = end_to_end(segments)
        per_segment = [
            {"throughput_ops_per_s": throughput(seg), "setup_s": seg["setup_s"], "ops": len(seg["latency_s"])}
            for seg in segments
        ]
    else:
        oracle_rng = random.Random(f"oracle/{wl.name}/{args.seed}")
        with HostSpeed() as speed:
            timed_setup(wl, inputs, oracle_rng, tally)
            samples = measure(wl, args.seconds / 2, oracle_rng, tally, 0)
            tracer = Tracer()
            tracer.install()
            wl.tracer = tracer
            try:
                traced = measure(wl, args.seconds / 2, oracle_rng, tally, len(samples), tracer)
            finally:
                wl.tracer = None
                tracer.uninstall()
        e2e = end_to_end([summarize(wl, samples, speed)])
        traced_e2e = end_to_end([summarize(wl, traced, speed)])
        per_layer = layer_metrics(tracer.summary())
        traced_latency = statistics.fmean(s.latency for s in traced)
        per_layer["trace_overhead"] = traced_e2e["throughput_ops_per_s"] / e2e["throughput_ops_per_s"]
        per_layer["trace.op_latency_s"] = traced_latency
        per_layer["trace.layer_share"] = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS) / traced_latency
        per_layer["trace.accounted_share"] = per_layer["trace.layer_share"] + per_layer.get("harness.self_s", 0.0) / traced_latency
        if wl.name == "cli-requests":
            per_layer.update(cli_metrics(samples))
        probe_metrics, probe_failures = probes.run_probes(random.Random(f"probes/{args.seed}"))
        per_layer.update(probe_metrics)
        _fill_named(per_layer)

    error_rate = tally.failed / tally.attempted
    for reason in tally.reasons[:5] + probe_failures:
        print(f"FAILED: {reason}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update(latency_p90_ms="ms", raw_throughput_ops_per_s="ops/s", raw_latency_p50_ms="ms")
    units.update(host_slowdown="ratio", ops_timed="count")
    for name, value in e2e.items():
        print(f"{name:24s} {value:12.6g} {units[name]}")
    if "latency_p90_ms" not in e2e:
        print(f"{'latency_p90_ms':24s} not reported: fewer than {P90_MIN_OPS} ops")
    print(f"{'error_rate':24s} {error_rate:12.6g} fraction (ops_attempted {tally.attempted}, ops_failed {tally.failed})")
    if args.trace:
        print(f"{'trace_overhead':24s} {per_layer['trace_overhead']:12.6g} ratio (traced / untraced throughput)")

    detail = {
        "workload": wl.name,
        "spec": SPEC[wl.name],
        "env": environment(args, env["OPENBLAS_NUM_THREADS"]),
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "error_rate": error_rate,
        "end_to_end": e2e,
        "segments": per_segment,
        "per_layer": per_layer,
        "probe_failures": probe_failures,
    }
    print("detail " + json.dumps(detail, sort_keys=True))

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    values = per_layer if args.trace else e2e
    result = {
        "correct": tally.failed == 0 and not probe_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _fill_named(per_layer: dict[str, float]) -> None:
    """Zero-fill the named per-layer metrics a workload does not reach."""
    import cliffrep.checks

    named = [f"checks.{name}.self_s" for name, _ in cliffrep.checks.ALL_CHECKS]
    named += [f"cli.{sub}.latency_ms" for sub in CLI_SUBCOMMANDS] + ["cli.json_bytes", "cli.matrix_to_json.self_s"]
    named += [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")]
    named += [
        "algebra.mul.calls",
        "algebra.mul.self_s",
        "algebra.mul.blade_pairs",
        "algebra.blade_product.calls",
        "algebra.as_signature.calls",
        "algebra.involution_via_omega.self_s",
        "tensor.theta_psi_check.calls",
        "tensor.theta_psi_check.self_s",
        "tensor.theta_blade.calls",
        "tensor.psi_blade.calls",
        "gamma.build_generators.self_s",
        "gamma.verify_anticommutation.self_s",
        "gamma.faithfulness_rank.self_s",
        "gamma.faithfulness_rank.bytes_computed",
        "gamma.check_omega_square.self_s",
        "lorentz.matmul_flops_computed",
    ]
    named += [
        f"lorentz.{fn}.self_s"
        for fn in ("build_gn_operators", "build_vdw_operators", "reconstruct_AB", "com1_residual", "com2_residual", "gn_to_vdw")
    ]
    for name in named:
        per_layer.setdefault(name, 0.0)


if __name__ == "__main__":
    raise SystemExit(main())
