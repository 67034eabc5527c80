"""The invariant registry behind ``cliffrep verify`` and the acceptance suite.

Every check is called as ``check(nmax, dim_max)``: ``nmax`` bounds the
generator count of the algebra sweeps and ``dim_max`` the operator size
of the representation sweeps; a check reads the budget it needs and
ignores the other.  It returns a :class:`CheckResult` whose ``covered``
counts the signatures, signature pairs, labels or table entries the
check sweeps.  The rotation/boost and basis-conversion checks hold float
residuals, each one ``lorentz._worst`` fold, to the tolerances defined
beside them in :mod:`cliffrep.lorentz`; the basis conversion judges each
label by its two ``GN_VDW_PROPERTIES``, the converted su(2) relations and
the X3 spectrum.  Every other check, the su(2) one included, is exact:
the gamma check hands each signature's (column, phase) forms to
``gamma.form_verdict``, the one judge of the Clifford relations.

Shared work is done once per call and kept by nothing after it.
:func:`run_all` builds each GN label's operators once and hands the same
objects to both GN checks as the keyword ``gn_ops``; a GN check called on
its own builds its own.  The automorphism and omega-conjugation sweeps
build the every-blade element's terms, and the automorphism check its
expected images, once per generator count, shared by the count's
signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import gamma, lorentz, repsys
from ._rules import as_count, as_generator_count
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
from .lorentz import GN_COM_TOL, SPECTRUM_TOL, VDW_COM_TOL
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


def _count_signatures(n: int) -> list[Signature]:
    """The n + 1 signatures of n generators, p ascending."""
    return [Signature(p, n - p) for p in range(n + 1)]


def _signatures(nmax: int, parity: int | None = None) -> list[Signature]:
    return [s for n in range(nmax + 1) if parity is None or n % 2 == parity for s in _count_signatures(n)]


def _sweep_counts(name: str, counts: range, failure: Callable[[int], str | None], passed_detail: str) -> CheckResult:
    """``_sweep`` over generator counts, whose ``failure(n)`` judges the n + 1 signatures of count n in
    order; ``covered`` counts the signatures."""
    return replace(_sweep(name, counts, failure, passed_detail), covered=sum(n + 1 for n in counts))


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


def _every_blade_terms(sig: Signature) -> dict[int, int]:
    """The terms of sum (m + 1) e_m over every blade of ``sig``, the same in each signature of its
    generator count.  The coefficients are distinct, so one image of this element pins down a
    blade-wise +-1 map on every blade."""
    return {m: m + 1 for m in all_blades(sig)}


#: each involution's sign on a grade-k blade, the automorphism check's own rule
SIGN_OF_GRADE: dict[str, Callable[[int], int]] = {
    "grade_involution": lambda k: (-1) ** k,
    "reversion": lambda k: (-1) ** (k * (k - 1) // 2),
    "conjugation": lambda k: (-1) ** (k * (k + 1) // 2),
}


def check_automorphism_signs(nmax: int, dim_max: int) -> CheckResult:
    """Each involution of sum (m + 1) e_m must equal its image by ``SIGN_OF_GRADE``.  The terms and the
    three expected images are built once per generator count, and each of its signatures is compared."""
    def failure(n: int) -> str | None:
        sigs = _count_signatures(n)
        terms = _every_blade_terms(sigs[0])
        grades = list(map(grade, terms))
        images = {}
        for method, sign in SIGN_OF_GRADE.items():
            by_grade = [sign(k) for k in range(n + 1)]
            images[method] = {m: by_grade[k] * c for (m, c), k in zip(terms.items(), grades)}
        for s in sigs:
            x = Multivector(s, terms)
            bad = next((method for method, image in images.items() if getattr(x, method)().terms != image), None)
            if bad is not None:
                return f"{s} {bad}"
        return None
    return _sweep_counts("automorphism signs", range(nmax + 1), failure, f"{nmax=}")


def check_omega_conjugation(nmax: int, dim_max: int) -> CheckResult:
    """sum (m + 1) e_m's terms are built once per even generator count and shared by its signatures."""
    def failure(n: int) -> str | None:
        sigs = _count_signatures(n)
        terms = _every_blade_terms(sigs[0])
        xs = (Multivector(s, terms) for s in sigs)
        return next((str(x.sig) for x in xs if involution_via_omega(x) != x.grade_involution()), None)
    return _sweep_counts("omega conjugation = grade involution", range(0, nmax + 1, 2), failure, f"even n <= {nmax}")


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
    """Each signature's ``gamma.generator_forms`` go to ``gamma.form_verdict`` as they are, in pure Python, up to
    16 generators (dim 256): no dense array is built or read back; the first failure is reported in sweep order."""
    def failure(s: Signature) -> str | None:
        verdict = gamma.form_verdict(gamma.generator_forms(s)[0], s.metric)
        if not verdict.relations:
            return str(s)
        if verdict.rank != 1 << s.n:
            return f"rank {s}"
        return None if s.n == 0 or verdict.omega_sign == omega_square_mod8(s) else f"omega {s}"
    return _sweep("gamma anticommutation", _signatures(nmax), failure, f"n <= {nmax}, faithful")


def gn_labels(dim_max: int) -> list[lorentz.GNLabel]:
    """GN labels with l0 <= 3 and l1 - l0 <= 4 up to ``dim_max``: 28 labels, the
    largest of dim 40, at every ``dim_max`` >= 40."""
    labels = (lorentz.GNLabel(Fraction(a, 2), Fraction(a, 2) + d) for a in range(7) for d in range(1, 5))
    return [lab for lab in labels if lab.dim <= dim_max]


def vdw_labels(dim_max: int) -> list[tuple[Fraction, Fraction]]:
    """Every (l, ldot) with (2l+1)(2ldot+1) <= dim_max, l-major, both ascending."""
    halves = [Fraction(a, 2) for a in range(max(dim_max, 0))]
    return [(halves[a], halves[b]) for a in range(len(halves)) for b in range(dim_max // (a + 1))]


def _largest_dim(gn_ops: Sequence[lorentz.GNOperators]) -> int:
    return max((ops.label.dim for ops in gn_ops), default=0)


def _worst_residual(name: str, residuals: list[float], tol: float, dim: int, covered: int) -> CheckResult:
    """``dim`` is the largest operator dimension swept and ``covered`` the number of labels."""
    worst = lorentz._worst(residuals)  # a NaN residual stays NaN and fails
    return CheckResult(name, worst <= tol, f"dim <= {dim}, residual {worst:.2e}", covered)


def _gn_operators(dim_max: int) -> list[lorentz.GNOperators]:
    """The operators of every label of ``gn_labels(dim_max)``, in order, the input of both GN checks."""
    return [lorentz.build_gn_operators(lab) for lab in gn_labels(dim_max)]


def check_gn_com1(nmax: int, dim_max: int, gn_ops: Sequence[lorentz.GNOperators] | None = None) -> CheckResult:
    """``gn_ops`` are ``_gn_operators(dim_max)``, built here when None."""
    gn_ops = _gn_operators(dim_max) if gn_ops is None else gn_ops
    residuals = [lorentz.com1_residual(lorentz.reconstruct_AB(ops)) for ops in gn_ops]
    return _worst_residual("rotation/boost commutators", residuals, GN_COM_TOL, _largest_dim(gn_ops), len(gn_ops))


def check_vdw_com2(nmax: int, dim_max: int) -> CheckResult:
    """``build_vdw_operators`` sets X = x (x) I and Y = I (x) y, each spin's entries copied to
    their Kronecker positions, so by the mixed-product rule [Xa, Xb] - iXc = ([xa, xb] - i xc) (x) I
    and [Xi, Yj] = 0: every label satisfies the relations once each spin's ladder does.  The label
    set is symmetric, so the spins are the l values, and each spin's band, the entries
    ``su2_ladder`` writes, is proved exactly by ``lorentz.su2_ladder_failure`` in pure Python, on
    every call; no ladder or label operator is built.  That the builder places the band where this
    rule reads it is pinned byte for byte in the tests (the ladder and operator digests and the
    np.kron comparison).  ``covered`` counts the labels."""
    labels = vdw_labels(dim_max)
    spins = [l for l, ld in labels if ld == 0]  # each l once: (2l+1)(2ldot+1) grows with ldot
    passed_detail = f"dim <= {dim_max}, {len(spins)} spins, exact"
    result = _sweep("paired su(2) commutators", spins, lorentz.su2_ladder_failure, passed_detail)
    return replace(result, covered=len(labels))


def _x3_spectrum(v) -> bool:
    """X3 has eigenvalues m = -l .. l, each 2 ldot + 1 times.  X3 must be finite and equal its conjugate
    transpose entry for entry, so a NaN fails, before ``eigvalsh`` reads its lower triangle; the fold keeps
    a NaN eigenvalue, which fails."""
    x3 = v.x3
    if not (np.isfinite(x3).all() and np.array_equal(x3, x3.conj().T)):
        return False
    expected = np.repeat(np.arange(int(2 * v.l) + 1) - float(v.l), int(2 * v.ldot) + 1)
    got = np.linalg.eigvalsh(x3)
    return len(got) == len(expected) and lorentz._worst([got - expected]) <= SPECTRUM_TOL


#: per-label properties of the GN -> VdW conversion, called as ``fn(lorentz.gn_to_vdw(gn_ops))``;
#: a key is ``check_gn_vdw``'s failure text
GN_VDW_PROPERTIES: dict[str, Callable[[lorentz.VdWOperators], bool]] = {
    "su(2) relations": lambda v: lorentz.com2_residual(v) <= VDW_COM_TOL,
    "X3 spectrum": _x3_spectrum,
}


def check_gn_vdw(nmax: int, dim_max: int, gn_ops: Sequence[lorentz.GNOperators] | None = None) -> CheckResult:
    """``gn_ops`` are ``_gn_operators(dim_max)``, built here when None; each label is converted in turn."""
    def failure(ops: lorentz.GNOperators) -> str | None:
        lab, v = ops.label, lorentz.gn_to_vdw(ops)
        return next((f"({lab.l0}, {lab.l1}) {name}" for name, holds in GN_VDW_PROPERTIES.items() if not holds(v)), None)
    gn_ops = _gn_operators(dim_max) if gn_ops is None else gn_ops
    return _sweep("basis conversion", gn_ops, failure, f"dim <= {_largest_dim(gn_ops)}")


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
    """Every registry check in order; one that raises is a FAIL under its registry name, and the rest still run.

    The budgets are those ``verify`` accepts: ``nmax`` a generator count (``_rules.as_generator_count``)
    and ``dim_max`` an integer >= 1; anything else is one ``ValueError`` naming both, before any check runs.
    The GN labels' operators are built once here and handed to both GN checks as ``gn_ops``; nothing
    outlives the call.  If that build raises, each GN check builds its own and raises as its own FAIL.
    """
    try:
        as_generator_count(nmax)
        if as_count(dim_max, "dim_max") < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"budgets must be integers nmax in 0..{MAX_GENERATORS} and dim_max >= 1, got {nmax=}, {dim_max=}") from None
    try:
        gn_ops = _gn_operators(dim_max)
    except Exception:
        gn_ops = None
    shared = {"gn-com1": {"gn_ops": gn_ops}, "gn-vdw": {"gn_ops": gn_ops}}
    results = []
    for name, check in ALL_CHECKS:
        try:
            results.append(check(nmax, dim_max, **shared.get(name, {})))
        except Exception as exc:
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}", 0))
    return results
