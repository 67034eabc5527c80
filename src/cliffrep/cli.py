"""Command-line front end.

Subcommands: classify, table, clock, factorize, matrep, rep, chain,
verify.  Text output by default; matrices are emitted as JSON objects
``{"dim": n, "entries": [[re, im], ...], "basis": note}`` in row-major
order, which round-trips to bit-identical floats.

Exit codes: 0 success, 1 verification failure (or a closed output pipe),
2 usage error.

A label command (classify, table, clock, factorize, chain) loads only
the input rules, :mod:`cliffrep.classify`, :mod:`cliffrep.factorize` and
:mod:`cliffrep.table_data`, and ``chain`` adds :mod:`cliffrep.repsys`;
numpy and every other module are imported inside the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from ._rules import MAX_GENERATORS, as_signature
from .classify import classify, clock_hour
from .factorize import factorize, verify_factorization
from .table_data import format_entry, reference_diff

if TYPE_CHECKING:
    import numpy as np


def matrix_to_json(m: np.ndarray, basis: str) -> dict:
    """One matrix as a JSON object: the reference ``_json_chunks`` is tested against."""
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(v.real), float(v.imag)] for v in m.ravel()],
        "basis": basis,
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    import numpy as np

    dim = obj["dim"]
    flat = np.array([complex(re, im) for re, im in obj["entries"]])
    return flat.reshape(dim, dim)


def _matrix_payload(m: np.ndarray, basis: str) -> dict:
    """``matrix_to_json(m, basis)`` with the entries left to :func:`_json_chunks`."""
    return {"dim": int(m.shape[0]), "entries": m, "basis": basis}


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: list[float]) -> list[str]:
    """Each float as ``json`` writes it: its repr, or NaN/Infinity/-Infinity."""
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [_NON_FINITE.get(t, t) for t in texts]
    return texts


def _json_chunks(obj):
    """``json.dumps(obj, indent=2)`` in pieces, one per array in ``obj``: ``json`` writes the
    layout around a placeholder for each array, and the array's ``[[re, im], ...]`` entries,
    joined in bulk, are spliced in there (``json`` would encode them one float at a time)."""
    import numpy as np

    arrays = []

    def hold(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        arrays.append(o.astype(complex, copy=False))
        return "\0"  # the placeholder: no payload string is a lone NUL

    *pieces, last = json.dumps(obj, indent=2, default=hold).split(json.dumps("\0"))
    for piece, m in zip(pieces, arrays):
        yield piece
        line = piece[piece.rfind("\n") + 1 :]
        pad = " " * (len(line) - len(line.lstrip(" ")))
        inner, leaf = pad + "  ", pad + "    "
        re, im = _float_texts(m.real.ravel().tolist()), _float_texts(m.imag.ravel().tolist())
        pairs = map(f",\n{leaf}".join, zip(re, im))
        yield f"[\n{inner}[\n{leaf}" + f"\n{inner}],\n{inner}[\n{leaf}".join(pairs) + f"\n{inner}]\n{pad}]"
    yield last


def _emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` as indent-2 JSON and a newline to stdout or to the file ``out``.

    An unwritable ``out`` is a usage error.
    """
    if not out:
        sys.stdout.writelines(_json_chunks(payload))
        sys.stdout.write("\n")
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(_json_chunks(payload))
            fh.write("\n")
    except OSError as exc:
        raise ValueError(f"argument --out: cannot write {out!r}: {exc.strerror or exc}") from exc


def _class_text(sig) -> str:
    c = classify(sig)
    kind = "simple" if c.simple else "semi-simple"
    return f"Cl({sig[0]},{sig[1]}) ≅ {c}, {kind}, hour {c.hour}"


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
    # every cell is valid only if the far corner is: check it before building any row
    as_signature((args.pmax, args.qmax))
    width = 8
    ps, qs = range(args.pmax + 1), range(args.qmax + 1)
    rows = ["p\\q" + "".join(f"{q:>{width}}" for q in qs)]
    for p in ps:
        classes = (classify((p, q)) for q in qs)
        rows.append(f"{p:<3}" + "".join(f"{format_entry(c.ring, c.matrix_size):>{width}}" for c in classes))
    print("\n".join(rows))
    compared, mismatches = reference_diff([(p, q) for p in ps for q in qs])
    print(f"reference check: {compared} entries compared, {len(mismatches)} mismatches")
    if mismatches:
        print(f"mismatching signatures: {mismatches}", file=sys.stderr)
        return 1
    return 0


def cmd_clock(args) -> int:
    p, q = args.p, args.q
    # both ends are valid only if every step is: check them before printing
    as_signature((p, q))
    as_signature((p, q + args.steps))
    for step in range(args.steps + 1):
        sig = as_signature((p, q + step))
        print(f"step {step}: {_class_text(sig)} (octave {clock_hour(sig)[1]})")
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
    from .gamma import build_generators, verify_anticommutation

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
        "gammas": [_matrix_payload(g, gen.basis_note) for g in gen.gammas],
    }
    _emit(payload, args.out)
    if args.out:
        print(f"wrote {len(gen.gammas)} generators of dim {gen.dim} to {args.out}")
    return 0 if ok else 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # "1/0" parses, then divides by zero
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


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


_positive_float.__name__ = "float"


def _require_operator_dim(dim: int, option: str | None = None) -> None:
    """A usage error for an operator above ``lorentz.MAX_OPERATOR_DIM``, before any is built.

    ``option`` names the budget argument that set ``dim`` (``verify
    --dim-max``); without it the message names the operator (``rep``).
    """
    from .lorentz import MAX_OPERATOR_DIM

    if dim > MAX_OPERATOR_DIM:
        if option:
            raise ValueError(f"argument {option}: must be 1..{MAX_OPERATOR_DIM}, got {dim}")
        raise ValueError(f"operator dim {dim} exceeds the bound {MAX_OPERATOR_DIM}")


def cmd_rep(args) -> int:
    from .lorentz import (
        GN_COM_TOL,
        GNLabel,
        build_gn_operators,
        build_vdw_operators,
        com1_residual,
        com2_residual,
        gn_to_vdw,
        reconstruct_AB,
        vdw_dim,
    )

    tol = GN_COM_TOL if args.tol is None else args.tol
    tail = {}
    if args.gn is not None:
        label = GNLabel(*args.gn)
        _require_operator_dim(label.dim)
        ops = build_gn_operators(label)
        residual = com1_residual(reconstruct_AB(ops))
        basis, labels = "gn", {"l0": label.l0, "l1": label.l1}
        c = gn_to_vdw(ops)
        tail = {"converted": {"l": str(c.l), "ldot": str(c.ldot), "commutator_residual": com2_residual(c)}}
    else:
        _require_operator_dim(vdw_dim(*args.vdw))
        ops = build_vdw_operators(*args.vdw)
        residual = com2_residual(ops)
        basis, labels = "vdw", {"l": ops.l, "ldot": ops.ldot}
    ok = residual <= tol
    payload = {
        "basis": basis,
        **{k: str(v) for k, v in labels.items()},
        "dim": ops.dim,
        "operators": {k: _matrix_payload(v, ops.basis_note) for k, v in ops.operators().items()},
        "commutator_residual": residual,
        **tail,
        "tolerance": tol,
        "pass": ok,
    }
    _emit(payload, args.out)
    report = f"({','.join(labels)}) = ({','.join(map(str, labels.values()))}), dim {ops.dim}"
    print(f"{report}, commutator residual {residual:.3e} {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def cmd_chain(args) -> int:
    from .repsys import interlocking_chain

    chain = interlocking_chain(args.spin2)
    print(" <-> ".join(f"C^{{{c.a},{c.b}}}" for c in chain))
    return 0


def cmd_verify(args) -> int:
    from . import checks

    _require_operator_dim(args.dim_max, "--dim-max")
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
    basis = sp.add_mutually_exclusive_group(required=True)
    basis.add_argument("--gn", nargs=2, type=_fraction, metavar=("L0", "L1"))
    basis.add_argument("--vdw", nargs=2, type=_fraction, metavar=("L", "LDOT"))
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.add_argument("--tol", type=_positive_float)  # default: lorentz.GN_COM_TOL
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here when the output was buffered
    except BrokenPipeError:
        # the reader left (`cliffrep ... | head`): the SIGPIPE recipe of the Python docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # an input outside the domain of the command
        print(f"cliffrep {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
