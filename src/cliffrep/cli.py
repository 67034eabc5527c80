"""Command-line front end.

Subcommands: classify, table, clock, factorize, matrep, rep, chain,
verify.  Text output by default; matrices are emitted as JSON objects
``{"dim": n, "entries": [[re, im], ...], "basis": note}`` in row-major
order, which round-trips to bit-identical floats.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import checks
from .algebra import MAX_GENERATORS, as_signature
from .classify import classify, clock_hour
from .factorize import factorize, verify_factorization
from .gamma import build_generators, verify_anticommutation
from .lorentz import (
    GNLabel,
    build_gn_operators,
    build_vdw_operators,
    com1_residual,
    com2_residual,
    gn_to_vdw,
    reconstruct_AB,
)
from .repsys import interlocking_chain
from .table_data import format_entry


def matrix_to_json(m: np.ndarray, basis: str) -> dict:
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(v.real), float(v.imag)] for v in m.ravel()],
        "basis": basis,
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = obj["dim"]
    flat = np.array([complex(re, im) for re, im in obj["entries"]])
    return flat.reshape(dim, dim)


def _class_text(sig) -> str:
    c = classify(sig)
    h, _ = clock_hour(sig)
    kind = "simple" if c.simple else "semi-simple"
    return f"Cl({sig[0]},{sig[1]}) ≅ {c}, {kind}, hour {h}"


def cmd_classify(args) -> int:
    sig = as_signature((args.p, args.q))
    c = classify(sig)
    if args.json:
        h, r = clock_hour(sig)
        print(
            json.dumps(
                {
                    "p": sig.p,
                    "q": sig.q,
                    "ring": c.ring.value,
                    "matrix_size": c.matrix_size,
                    "simple": c.simple,
                    "hour": h,
                    "octave": r,
                    "type": c.type_label,
                }
            )
        )
    else:
        print(_class_text(sig))
    return 0


def cmd_table(args) -> int:
    width = 8
    ps, qs = range(args.pmax + 1), range(args.qmax + 1)
    rows = ["p\\q" + "".join(f"{q:>{width}}" for q in qs)]
    for p in ps:
        classes = (classify((p, q)) for q in qs)
        rows.append(f"{p:<3}" + "".join(f"{format_entry(c.ring, c.matrix_size):>{width}}" for c in classes))
    print("\n".join(rows))
    compared, mismatches = checks.reference_diff([(p, q) for p in ps for q in qs])
    print(f"reference check: {compared} entries compared, {len(mismatches)} mismatches")
    if mismatches:
        print(f"mismatching signatures: {mismatches}", file=sys.stderr)
        return 1
    return 0


def cmd_clock(args) -> int:
    p, q = args.p, args.q
    for step in range(args.steps + 1):
        sig = as_signature((p, q + step))
        h, r = clock_hour(sig)
        print(f"step {step}: {_class_text(sig)} (octave {r})")
    return 0


def cmd_factorize(args) -> int:
    sig = as_signature((args.p, args.q))
    f = factorize(sig)
    pieces = " (x) ".join(f"Cl({a},{b})" for a, b in f.factors) or "Cl(0,0)"
    if f.doubled:
        pieces = f"[{pieces}] u [{pieces}]"
    elif sig.n % 2:
        pieces = f"{pieces}  (even part; ring completed by the center)"
    print(f"Cl({sig.p},{sig.q}) = {pieces}")
    if f.flip_steps:
        print(f"sign flips after factors: {list(f.flip_steps)}")
    ok = verify_factorization(f)
    print(f"class check vs {classify(sig)}: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_matrep(args) -> int:
    sig = as_signature((args.p, args.q))
    gen = build_generators(sig)
    ok = verify_anticommutation(gen)
    payload = {
        "p": sig.p,
        "q": sig.q,
        "dim": gen.dim,
        "reducible": gen.reducible,
        "metric": list(gen.metric),
        "anticommutation_ok": ok,
        "gammas": [matrix_to_json(g, gen.basis_note) for g in gen.gammas],
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(gen.gammas)} generators of dim {gen.dim} to {args.out}")
    else:
        print(text)
    return 0 if ok else 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a (half-)integer: {text!r}") from exc


def _int_in(lo: int, hi: int | None):
    """argparse type: an integer in lo..hi (no upper bound for hi=None)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def cmd_rep(args) -> int:
    if (args.gn is None) == (args.vdw is None):
        print("exactly one of --gn or --vdw is required", file=sys.stderr)
        return 2
    tol = args.tol
    if args.gn is not None:
        label = GNLabel(*args.gn)
        ops = build_gn_operators(label)
        residual = com1_residual(reconstruct_AB(ops))
        converted = gn_to_vdw(ops)
        payload = {
            "basis": "gn",
            "l0": str(label.l0),
            "l1": str(label.l1),
            "dim": ops.dim,
            "operators": {k: matrix_to_json(v, ops.basis_note) for k, v in ops.operators().items()},
            "commutator_residual": residual,
            "converted": {
                "l": str(converted.l),
                "ldot": str(converted.ldot),
                "commutator_residual": com2_residual(converted),
            },
        }
        report = f"(l0,l1) = ({label.l0},{label.l1}), dim {ops.dim}, commutator residual {residual:.3e}"
    else:
        ops = build_vdw_operators(*args.vdw)
        residual = com2_residual(ops)
        payload = {
            "basis": "vdw",
            "l": str(ops.l),
            "ldot": str(ops.ldot),
            "dim": ops.dim,
            "operators": {k: matrix_to_json(v, ops.basis_note) for k, v in ops.operators().items()},
            "commutator_residual": residual,
        }
        report = f"(l,ldot) = ({ops.l},{ops.ldot}), dim {ops.dim}, commutator residual {residual:.3e}"
    ok = residual <= tol
    payload["tolerance"] = tol
    payload["pass"] = ok
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    else:
        print(json.dumps(payload, indent=2))
    print(report + (" PASS" if ok else " FAIL"), file=sys.stderr)
    return 0 if ok else 1


def cmd_chain(args) -> int:
    chain = interlocking_chain(args.spin2)
    print(" <-> ".join(f"C^{{{c.a},{c.b}}}" for c in chain))
    return 0


def cmd_verify(args) -> int:
    results = checks.run_all(nmax=args.nmax, dim_max=args.dim_max)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}  [{r.detail}]")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffrep",
        description="Clifford algebra classification, factorization and representation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pq(sp):
        sp.add_argument("-p", type=int, required=True, help="positive-square generators")
        sp.add_argument("-q", type=int, required=True, help="negative-square generators")

    sp = sub.add_parser("classify", help="division ring, matrix size, simplicity, clock hour")
    add_pq(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("table", help="periodic table, diffed against the embedded reference")
    sp.add_argument("--pmax", type=_int_in(0, None), default=7)
    sp.add_argument("--qmax", type=_int_in(0, None), default=7)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("clock", help="walk the spinorial clock by adding generators")
    add_pq(sp)
    sp.add_argument("--steps", type=_int_in(0, None), default=8)
    sp.set_defaults(func=cmd_clock)

    sp = sub.add_parser("factorize", help="two-generator tensor factor list")
    add_pq(sp)
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("matrep", help="emit gamma matrices as JSON")
    add_pq(sp)
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(func=cmd_matrep)

    sp = sub.add_parser("rep", help="emit representation operators as JSON")
    sp.add_argument("--gn", nargs=2, type=_fraction, metavar=("L0", "L1"))
    sp.add_argument("--vdw", nargs=2, type=_fraction, metavar=("L", "LDOT"))
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.add_argument("--tol", type=float, default=checks.GN_COM_TOL)
    sp.set_defaults(func=cmd_rep)

    sp = sub.add_parser("chain", help="interlocking representation chain for spin s = N/2")
    sp.add_argument("--spin2", type=int, required=True, help="twice the spin")
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("verify", help="run the invariant suite")
    sp.add_argument("--all", action="store_true", help="run every check (default)")
    sp.add_argument("--nmax", type=_int_in(0, MAX_GENERATORS), default=8, help="generator-count budget")
    sp.add_argument("--dim-max", type=_int_in(1, None), default=64, help="operator-size budget")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # an input outside the domain of the command
        print(f"cliffrep {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
