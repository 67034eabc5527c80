"""The invariant registry behind ``cliffrep verify`` and the acceptance suite.

Every check is called as ``check(nmax, dim_max)``: ``nmax`` bounds the
generator count of the algebra sweeps and ``dim_max`` the operator size
of the representation sweeps; a check reads the budget it needs and
ignores the other.  It returns a :class:`CheckResult` whose ``covered``
counts the signatures, signature pairs, labels or table entries the
check sweeps.  The floating-point tolerances are :mod:`cliffrep.lorentz`'s,
beside the residuals they bound, and are defined nowhere else; everything
else is exact.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import gamma, lorentz, repsys
from .algebra import (
    MAX_GENERATORS,
    Multivector,
    Signature,
    all_blades,
    as_signature,
    blade_product,
    blade_signs,
    center_blades,
    grade,
    involution_via_omega,
    omega_square,
    omega_square_mod8,
)
from .classify import MatrixShape, RingType, classify, classify_complex, even_subalgebra, tensor_compose
from .factorize import factorize, replay_flips, verify_factorization
from .lorentz import GN_COM_TOL, SL25_TOL, SPECTRUM_TOL, VDW_COM_TOL
from .repsys import ComplexRepLabel, RealRepClass, RealRepLabel
from .table_data import reference_diff, reference_table
from .tensor import theta_psi_checks

#: factor lists quoted in the paper; (8,0) is quoted up to order
KAROUBI_QUOTES = {
    Signature(1, 3): (Signature(1, 1), Signature(0, 2)),
    Signature(3, 1): (Signature(1, 1), Signature(2, 0)),
}
KAROUBI_QUOTES_UNORDERED = {
    Signature(8, 0): (Signature(0, 2), Signature(0, 2), Signature(2, 0), Signature(2, 0)),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    covered: int


def _sweep(name: str, items: Sequence, failure: Callable[[Any], str | None], passed_detail: str) -> CheckResult:
    """Run ``failure`` over ``items`` up to the first failure text it returns;
    ``passed_detail`` is the detail when it returns ``None`` for every item."""
    detail = next((text for text in map(failure, items) if text is not None), None)
    return CheckResult(name, detail is None, passed_detail if detail is None else detail, len(items))


def _signatures(nmax: int, parity: int | None = None) -> list[Signature]:
    return [
        Signature(p, n - p)
        for n in range(nmax + 1)
        if parity is None or n % 2 == parity
        for p in range(n + 1)
    ]


def brute_force_commutant(sig) -> frozenset[int]:
    """Blades commuting with every generator, by multiplying both ways round.

    e_m e_g and e_g e_m share the mask m ^ g, so only their signs are compared.
    """
    sig = as_signature(sig)
    blades = np.arange(1 << sig.n)[:, None]
    gens = (1 << np.arange(sig.n))[None, :]
    commutes = blade_signs(blades, gens, sig) == blade_signs(gens, blades, sig)
    return frozenset(np.flatnonzero(commutes.all(axis=1)).tolist())


def check_omega_square(nmax: int, dim_max: int) -> CheckResult:
    sigs = [s for s in _signatures(nmax) if s.n >= 1]
    bad = [s for s in sigs if omega_square(s) != omega_square_mod8(s)]
    return CheckResult("omega-square mod-8 law", not bad, f"{nmax=} mismatches={bad}", len(sigs))


def check_center(nmax: int, dim_max: int) -> CheckResult:
    sigs = _signatures(nmax)
    bad = [s for s in sigs if center_blades(s) != brute_force_commutant(s)]
    return CheckResult("center vs brute-force commutant", not bad, f"{nmax=} mismatches={bad}", len(sigs))


def _every_blade(sig: Signature) -> Multivector:
    """Sum of (m + 1) e_m over all blades m.  The coefficients are distinct, so
    one image of this element pins down a blade-wise +-1 map on every blade."""
    return Multivector(sig, {m: m + 1 for m in all_blades(sig)})


def check_automorphism_signs(nmax: int, dim_max: int) -> CheckResult:
    sign_of_grade = {
        "grade_involution": lambda k: (-1) ** k,
        "reversion": lambda k: (-1) ** (k * (k - 1) // 2),
        "conjugation": lambda k: (-1) ** (k * (k + 1) // 2),
    }
    def failure(s: Signature) -> str | None:
        x = _every_blade(s)
        for method, sign in sign_of_grade.items():
            by_grade = [sign(k) for k in range(s.n + 1)]
            if getattr(x, method)().terms != {m: by_grade[grade(m)] * c for m, c in x.terms.items()}:
                return f"{s} {method}"
        return None
    return _sweep("automorphism signs", _signatures(nmax), failure, f"{nmax=}")


def check_omega_conjugation(nmax: int, dim_max: int) -> CheckResult:
    def failure(s: Signature) -> str | None:
        x = _every_blade(s)
        return None if involution_via_omega(x) == x.grade_involution() else str(s)
    return _sweep("omega conjugation = grade involution", _signatures(nmax, parity=0), failure, f"even n <= {nmax}")


def check_theta_psi(nmax: int, dim_max: int) -> CheckResult:
    """The verdicts come from one grouped pass; the first failing pair is reported in sweep order."""
    pairs = [(a, b) for a in _signatures(nmax) for b in _signatures(nmax - a.n)]
    def failure(item: tuple[tuple[Signature, Signature], bool]) -> str | None:
        (a, b), holds = item
        return None if holds else f"({a.p},{a.q}) x ({b.p},{b.q})"
    verdicts = list(zip(pairs, theta_psi_checks(pairs)))
    return _sweep("graded tensor isomorphism", verdicts, failure, f"combined n <= {nmax}")


def check_table(nmax: int, dim_max: int) -> CheckResult:
    """The fixed 8x8 reference table; the budgets do not apply."""
    compared, bad = reference_diff(reference_table())
    return CheckResult("periodic table reproduction", not bad, f"{compared} entries, mismatches={bad}", compared)


def check_periodicity(nmax: int, dim_max: int) -> CheckResult:
    """Cl(p+8,q) = Mat_16(Cl(p,q)) and H (x) H = Mat_4(R).

    The base p+q is capped at MAX_GENERATORS - 8 so that Cl(p+8,q) exists.
    """
    base = min(nmax, MAX_GENERATORS - 8)
    h = classify((0, 2)).shape
    h_squared_holds = tensor_compose(h, h) == MatrixShape(RingType.R, 4)
    def failure(s: Signature) -> str | None:
        if not h_squared_holds:
            return "H (x) H != Mat_4(R)"
        a, b = classify(s), classify((s.p + 8, s.q))
        return None if a.ring is b.ring and a.simple == b.simple and b.matrix_size == 16 * a.matrix_size else str(s)
    return _sweep("mod-8 periodicity", _signatures(base), failure, f"base n <= {base}, size ratio 16")


def check_karoubi(nmax: int, dim_max: int) -> CheckResult:
    """Every factor list composes to its class and replays to the peeled
    signature (the even subalgebra's for odd n); the quoted lists are reproduced."""
    def failure(s: Signature) -> str | None:
        f = factorize(s)
        quoted = f.factors == KAROUBI_QUOTES.get(s, f.factors) and sorted(f.factors) == sorted(
            KAROUBI_QUOTES_UNORDERED.get(s, f.factors)
        )
        peeled = even_subalgebra(s) if s.n % 2 else s
        return None if verify_factorization(f) and replay_flips(f) == peeled and quoted else str(s)
    return _sweep("factor-list class composition", _signatures(nmax), failure, f"n <= {nmax}")


def check_even_subalgebra(nmax: int, dim_max: int) -> CheckResult:
    """Cl+(p,q) is generated by the n - 1 bivectors e_1 e_i, which anticommute
    pairwise; their squares give its signature.  Shapes are compared, not whole
    classes: isomorphic algebras such as Cl(q,p-1) and Cl(p,q-1) differ in hour."""
    def failure(s: Signature) -> str | None:
        bivectors = [1 | 1 << i for i in range(1, s.n)]
        for i, x in enumerate(bivectors):
            if any(blade_product(x, y, s)[0] == blade_product(y, x, s)[0] for y in bivectors[:i]):
                return f"{s} bivectors commute"
        squares = [blade_product(x, x, s)[0] for x in bivectors]
        got, ref = classify(even_subalgebra(s)), classify((squares.count(1), squares.count(-1)))
        return None if (got.shape, got.simple) == (ref.shape, ref.simple) else str(s)
    return _sweep("even subalgebra", [s for s in _signatures(nmax) if s.n >= 1], failure, f"n <= {nmax}")


def check_gamma(nmax: int, dim_max: int) -> CheckResult:
    def failure(s: Signature) -> str | None:
        gen = gamma.build_generators(s)
        try:
            rank = gamma.faithfulness_rank(gen)
        except ValueError:  # the defining relations fail
            return str(s)
        if rank != 1 << s.n:
            return f"rank {s}"
        omega_holds = s.n == 0 or gamma.omega_image_square_sign(gen) == omega_square_mod8(s)
        return None if omega_holds else f"omega {s}"
    reach = min(nmax, gamma.MAX_SYNTHESIS_GENERATORS)
    return _sweep("gamma anticommutation", _signatures(reach), failure, f"n <= {reach}, faithful")


def gn_labels(dim_max: int) -> list[lorentz.GNLabel]:
    """GN labels with l0 <= 3 and l1 - l0 <= 4 up to ``dim_max``: 28 labels, the
    largest of dim 40, at every ``dim_max`` >= 40."""
    labels = (lorentz.GNLabel(Fraction(a, 2), Fraction(a, 2) + d) for a in range(7) for d in range(1, 5))
    return [lab for lab in labels if lab.dim <= dim_max]


def vdw_labels(dim_max: int) -> list[tuple[Fraction, Fraction]]:
    """Every (l, ldot) with (2l+1)(2ldot+1) <= dim_max, l-major, both ascending."""
    halves = [Fraction(a, 2) for a in range(max(dim_max, 0))]
    return [(halves[a], halves[b]) for a in range(len(halves)) for b in range(dim_max // (a + 1))]


def _largest_dim(labels: list[lorentz.GNLabel]) -> int:
    return max((lab.dim for lab in labels), default=0)


def _worst_residual(name: str, residuals: list[float], tol: float, dim: int, covered: int) -> CheckResult:
    """``dim`` is the largest operator dimension swept and ``covered`` the number of labels."""
    worst = float(np.max(residuals, initial=0.0))  # a NaN residual stays NaN and fails
    return CheckResult(name, worst <= tol, f"dim <= {dim}, residual {worst:.2e}", covered)


def check_gn_com1(nmax: int, dim_max: int) -> CheckResult:
    labels = gn_labels(dim_max)
    residuals = [lorentz.com1_residual(lorentz.reconstruct_AB(lorentz.build_gn_operators(lab))) for lab in labels]
    return _worst_residual("rotation/boost commutators", residuals, GN_COM_TOL, _largest_dim(labels), len(labels))


def _is_block_kron_identity(op4: np.ndarray, block: np.ndarray) -> bool:
    """``op4`` is block (x) I_n read as (m, n, m, n), exactly: each diagonal block op4[:, r, :, r]
    equals ``block`` and nothing else is nonzero.  For a finite block this is
    np.array_equal(op, np.kron(block, I_n)): +-0 compare equal, a NaN fails."""
    r = np.arange(op4.shape[1])
    return bool((op4[:, r, :, r] == block).all()) and np.count_nonzero(op4) == len(r) * np.count_nonzero(block)


def _not_kronecker(l: Fraction, ld: Fraction, xs: tuple[np.ndarray, ...]) -> str | None:
    """Failure text unless the built (l, ldot) operators are exactly x (x) I and I (x) y of the
    spin-l ladders ``xs`` and the spin-ldot ladders; I (x) y is y (x) I with both axis pairs swapped."""
    ys = lorentz.su2_ladder(ld)
    m, n = len(xs[0]), len(ys[0])
    built = list(lorentz.build_vdw_operators(l, ld).operators().values())
    exact = (
        all(op.shape == (m * n, m * n) for op in built)
        and all(_is_block_kron_identity(op.reshape(m, n, m, n), x) for op, x in zip(built[:3], xs))
        and all(_is_block_kron_identity(op.reshape(m, n, m, n).transpose(1, 0, 3, 2), y) for op, y in zip(built[3:], ys))
    )
    return None if exact else f"({l}, {ld}) is not x (x) I, I (x) y"


def check_vdw_com2(nmax: int, dim_max: int) -> CheckResult:
    """X = x (x) I and Y = I (x) y give [Xa, Xb] - iXc = ([xa, xb] - i xc) (x) I and [Xi, Yj] = 0,
    so every label satisfies the relations once each spin's ladders do (one su(2) residual per
    spin) and each label's operators are exactly those Kronecker products.  The label set is
    symmetric, so the spins are the l values: one l-major pass builds each x ladder once, takes
    its residual and checks the labels (l, ldot) against it.  No sweep holds more than one l's ladders."""
    labels = vdw_labels(dim_max)
    name, residuals = "paired su(2) commutators", []
    for l, group in itertools.groupby(labels, key=operator.itemgetter(0)):
        xs = lorentz.su2_ladder(l)
        residuals.append(lorentz.su2_residual(lorentz.cartesian(*xs)))
        failure = next((text for _, ld in group if (text := _not_kronecker(l, ld, xs)) is not None), None)
        if failure is not None:
            return CheckResult(name, False, failure, len(labels))
    return _worst_residual(name, residuals, VDW_COM_TOL, dim_max, len(labels))


def _x3_spectrum(ops, v) -> bool:
    """X3 has eigenvalues m = -l .. l, each 2 ldot + 1 times."""
    expected = sorted(float(-v.l + j) for j in range(int(2 * v.l) + 1) for _ in range(int(2 * v.ldot) + 1))
    got = sorted(np.linalg.eigvals(v.x3).real)
    return len(got) == len(expected) and max(abs(a - b) for a, b in zip(expected, got)) <= SPECTRUM_TOL


def _reconstruction(ops, v) -> bool:
    """The converted triples equal X = i(A + iB)/2, Y = i(A - iB)/2 built from the GN operators."""
    got = lorentz.cartesian(v.x3, v.xplus, v.xminus) + lorentz.cartesian(v.y3, v.yplus, v.yminus)
    ref = lorentz.sl25_operators(lorentz.reconstruct_AB(ops))
    return all(abs(g - r).max() <= SL25_TOL for g, r in zip(got, ref))


#: per-label properties of the GN -> VdW conversion, called as ``fn(gn_ops, vdw_ops)``
#: (see ``gn_vdw_case``); a key is ``check_gn_vdw``'s failure text
GN_VDW_PROPERTIES: dict[str, Callable[..., bool]] = {
    "su(2) relations": lambda ops, v: lorentz.com2_residual(v) <= VDW_COM_TOL,
    "spin l": lambda ops, v: v.l == (ops.label.l0 + ops.label.l1 - 1) / 2,
    "X3 spectrum": _x3_spectrum,
    "operator reconstruction": _reconstruction,
}


def gn_vdw_case(lab: lorentz.GNLabel) -> tuple[lorentz.GNOperators, lorentz.VdWOperators]:
    ops = lorentz.build_gn_operators(lab)
    return ops, lorentz.gn_to_vdw(ops)


def check_gn_vdw(nmax: int, dim_max: int) -> CheckResult:
    def failure(lab: lorentz.GNLabel) -> str | None:
        case = gn_vdw_case(lab)
        return next((f"({lab.l0}, {lab.l1}) {name}" for name, holds in GN_VDW_PROPERTIES.items() if not holds(*case)), None)
    labels = gn_labels(dim_max)
    return _sweep("basis conversion", labels, failure, f"dim <= {_largest_dim(labels)}")


def check_complex_cycle(nmax: int, dim_max: int) -> CheckResult:
    """The quoted mod-2 walk from C^{0,0}; the budgets do not apply."""
    seq = [ComplexRepLabel(0)]
    for _step in range(5):
        seq.append(repsys.bw_complex_step(seq[-1]))
    expected = [
        ComplexRepLabel(0),
        ComplexRepLabel(1),
        ComplexRepLabel(1, doubled=True),
        ComplexRepLabel(2),
        ComplexRepLabel(2, doubled=True),
        ComplexRepLabel(3),
    ]
    spins = [s.spin for s in seq if not s.doubled]
    passed = seq == expected and spins == [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    return CheckResult("mod-2 cycle walk", passed, " -> ".join(map(str, seq)), len(seq))


def check_real_cycle(nmax: int, dim_max: int) -> CheckResult:
    """The quoted mod-8 walk, and 8 (16) hours = 1 (2) period steps; the budgets do not apply."""
    start = RealRepLabel(RealRepClass.R02_DOUBLE, Fraction(0))
    states = repsys.run_real_cycle(start, 16)
    expected = [
        start,
        RealRepLabel(RealRepClass.R0, Fraction(1, 2)),
        RealRepLabel(RealRepClass.R02_DOUBLE, Fraction(1, 2)),
        RealRepLabel(RealRepClass.H6, Fraction(1)),
        RealRepLabel(RealRepClass.H46_DOUBLE, Fraction(1)),
        RealRepLabel(RealRepClass.H4, Fraction(3, 2)),
        RealRepLabel(RealRepClass.H46_DOUBLE, Fraction(3, 2)),
        RealRepLabel(RealRepClass.R2, Fraction(2)),
        RealRepLabel(RealRepClass.R02_DOUBLE, Fraction(2)),
        RealRepLabel(RealRepClass.R0, Fraction(5, 2)),
    ]
    one_period = repsys.real_period_step(start)
    passed = (
        states[: len(expected)] == expected
        and states[8] == one_period
        and states[16] == repsys.real_period_step(one_period)
    )
    return CheckResult("mod-8 cycle walk", passed, " -> ".join(map(str, states[:4])) + " ...", len(states))


def check_complex_parity(nmax: int, dim_max: int) -> CheckResult:
    def failure(n: int) -> str | None:
        a, b = classify_complex(n), classify_complex(n + 2)
        return None if b.matrix_size == 2 * a.matrix_size and a.simple == b.simple else f"n={n}"
    return _sweep("mod-2 periodicity", range(nmax - 1), failure, f"n <= {nmax}")


ALL_CHECKS: list[tuple[str, Callable[[int, int], CheckResult]]] = [
    ("omega-square", check_omega_square),
    ("center", check_center),
    ("automorphisms", check_automorphism_signs),
    ("omega-conjugation", check_omega_conjugation),
    ("graded-tensor", check_theta_psi),
    ("table", check_table),
    ("periodicity", check_periodicity),
    ("complex-parity", check_complex_parity),
    ("even-subalgebra", check_even_subalgebra),
    ("karoubi", check_karoubi),
    ("gamma", check_gamma),
    ("gn-com1", check_gn_com1),
    ("vdw-com2", check_vdw_com2),
    ("gn-vdw", check_gn_vdw),
    ("complex-cycle", check_complex_cycle),
    ("real-cycle", check_real_cycle),
]


def run_all(nmax: int = 8, dim_max: int = 64) -> list[CheckResult]:
    return [fn(nmax, dim_max) for _name, fn in ALL_CHECKS]
