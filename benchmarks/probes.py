"""Size-ladder probes: one timing per layer operation at fixed sizes.

These run untraced at the end of a traced run and reproduce (or correct)
the probe figures quoted in the roadmap: dense products at n = 6/8/10,
the blade-product call cost, the (4,4) x (4,4) theta/psi round trip,
gamma faithfulness and anticommutation, GN operator build and
commutator residuals at dim 64/100/400, the dim-400 ``rep`` JSON, and
the CLI's start-up split.  Every probe result is checked, so a wrong
answer cannot pass as a fast one.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import oracle
from workloads import blas_env, run_child

# dim = l1^2 - l0^2 with l0 = 0
GN_LABELS = {64: 8, 100: 10, 400: 20}
START_REPEATS = 3


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def run_probes(rng: random.Random) -> tuple[dict[str, float], list[str]]:
    """Returns (metrics, failures)."""
    import cliffrep.cli
    from cliffrep import gamma, lorentz, tensor
    from cliffrep.algebra import Multivector, Signature, blade_product

    metrics: dict[str, float] = {}
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for n in (6, 8, 10):
        sig = (n // 2, n - n // 2)
        a, b = ({m: rng.choice([-1, 1]) * rng.randint(1, 9) for m in range(1 << n)} for _ in range(2))
        x, y = Multivector(sig, a), Multivector(sig, b)
        metrics[f"algebra.mul_dense.n{n}_s"], prod = _timed(lambda: x * y)
        expect(oracle.check_product(a, b, sig[0], n, prod.coefficient, rng, 4) is None, f"dense product n={n}")

    sig8 = Signature(4, 4)
    pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(20000)]
    elapsed, signs = _timed(lambda: [blade_product(u, v, sig8) for u, v in pairs])
    metrics["algebra.blade_product.per_call_us"] = elapsed / len(pairs) * 1e6
    expect(all(s == (oracle.blade_sign(u, v, 4), u ^ v) for (u, v), s in zip(pairs[:200], signs)), "blade_product")

    metrics["tensor.theta_psi.4-4x4-4_s"], ok = _timed(lambda: tensor.theta_psi_check((4, 4), (4, 4)))
    expect(ok is True, "theta_psi_check((4,4),(4,4))")

    for n in (8, 10, 12):
        gen = gamma.build_generators((n // 2, n - n // 2))
        metrics[f"gamma.anticomm.n{n}_s"], ok = _timed(lambda: gamma.verify_anticommutation(gen))
        expect(ok is True, f"anticommutation n={n}")
        if n <= 10:
            metrics[f"gamma.faithfulness.n{n}_s"], rank = _timed(lambda: gamma.faithfulness_rank(gen))
            expect(rank == 1 << n, f"faithfulness rank n={n}")

    built = {}
    for dim, l1 in GN_LABELS.items():
        label = lorentz.GNLabel(Fraction(0), Fraction(l1))
        metrics[f"lorentz.gn_build.dim{dim}_s"], built[dim] = _timed(lambda: lorentz.build_gn_operators(label))
        ab = lorentz.reconstruct_AB(built[dim])
        metrics[f"lorentz.com1.dim{dim}_s"], residual = _timed(lambda: lorentz.com1_residual(ab))
        expect(built[dim].dim == dim and residual <= 1e-10, f"GN operators dim {dim}")

    def rep_json():
        ops = built[400]
        payload = {k: cliffrep.cli.matrix_to_json(v, ops.basis_note) for k, v in ops.operators().items()}
        return json.dumps(payload, indent=2)

    metrics["cli.rep_json.dim400_s"], text = _timed(rep_json)
    expect(len(text) > 6 * 400 * 400 * 10, "dim-400 rep JSON")

    env = blas_env()
    starts = {}
    for key, code in (("bare", "pass"), ("cli", "import cliffrep.cli"), ("numpy", "import numpy")):
        runs = [run_child([sys.executable, "-c", code], env) for _ in range(START_REPEATS)]
        expect(all(r[0] == 0 for r in runs), f"python -c {code!r}")
        starts[key] = statistics.median(r[3] for r in runs) * 1e3
    metrics["cli.interp_start_ms"] = starts["bare"]
    metrics["cli.import_ms"] = starts["cli"] - starts["bare"]
    metrics["cli.import_numpy_ms"] = starts["numpy"] - starts["bare"]
    return metrics, failures
