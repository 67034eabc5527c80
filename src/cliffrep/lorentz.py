"""Finite-dimensional representation operators of Spin+(1,3).

Two operator bases are built:

* the (l0, l1)-labelled basis with ladder operators H3, H+, H- (rotation
  sector) and F3, F+, F- (boost sector) acting on vectors xi_{k,nu},
  k = l0 .. l1-1, nu = -k .. k, with coefficients

      A_k = i l0 l1 / (k (k+1)),
      C_k = (i/k) sqrt((k^2 - l0^2)(k^2 - l1^2) / (4k^2 - 1)),

  finite-dimensional exactly when l1 = l0 + p for a natural p;

* the paired su(2) ladder basis X3, X+, X- / Y3, Y+, Y- on |l,m;ldot,mdot>,
  exhibiting the local isomorphism with SU(2) x SU(2).

The conversion between the two normalizes X = (H + iF)/2, Y = (H - iF)/2,
which is the unique scaling under which both triples close into su(2)
([X1, X2] = i X3) and X3 has the real spectrum -l .. l.

Both bases are assembled from one su(2) triple (``su2_ladder``), and every
ladder triple is read in cartesian form through one map (``cartesian``).
Every tensor product is ``_kronecker._kron``, as for the gamma matrices.

Every spin argument goes through ``_rules.as_half_integer``, the one
half-integer rule: an int or ``Fraction`` whose double is an integer.

All matrices are dense complex numpy arrays over fixed lexicographic
basis orders, so outputs are deterministic.  The ``*_TOL`` constants bound
the float residuals and are defined nowhere else.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._kronecker import _kron
from ._rules import as_count, as_half_integer

#: Largest operator dim the CLI builds or sweeps: ``rep`` holds six dense
#: complex dim x dim arrays (about 9.6 GB at dim 10^4, 15 MB at dim 400).
MAX_OPERATOR_DIM = 400

#: rotation/boost commutator residual bound (GN basis)
GN_COM_TOL = 1e-10
#: paired su(2) commutator residual bound (VdW basis)
VDW_COM_TOL = 1e-12
#: GN -> VdW operator reconstruction bound against the sl(2,C) basis
SL25_TOL = 1e-12
#: absolute bound on the X3 eigenvalues against their exact half-integers
SPECTRUM_TOL = 1e-8


@dataclass(frozen=True)
class GNLabel:
    """Representation label (l0, l1) with l1 = l0 + p, natural p >= 1."""

    l0: Fraction
    l1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "l0", as_half_integer(self.l0))
        object.__setattr__(self, "l1", as_half_integer(self.l1))
        if self.l0 < 0:
            raise ValueError("l0 must be non-negative")
        step = self.l1 - self.l0
        if step.denominator != 1 or step < 1:
            raise ValueError("finite dimension requires l1 = l0 + p, natural p >= 1")

    @property
    def dim(self) -> int:
        return int(self.l1 ** 2 - self.l0 ** 2)

    def levels(self) -> list[Fraction]:
        return [self.l0 + j for j in range(int(self.l1 - self.l0))]

    def basis(self) -> list[tuple[Fraction, Fraction]]:
        """(k, nu) pairs, k ascending, nu ascending within each level."""
        out = []
        for k in self.levels():
            nu = -k
            while nu <= k:
                out.append((k, nu))
                nu += 1
        return out


def gn_coefficients(label: GNLabel, k) -> tuple[complex, complex]:
    """(A_k, C_k) for k = l0, l0 + 1, ..., l1.

    C at the bottom level multiplies the nonexistent k-1 level and is
    defined as 0 (this also covers the 0/0 at k = 1/2);  C at k = l1
    vanishes through the k^2 - l1^2 factor, closing the ladder.
    """
    k = as_half_integer(k)
    l0, l1 = label.l0, label.l1
    if not l0 <= k <= l1 or (k - l0).denominator != 1:
        raise ValueError(f"k = {k} is not a level of (l0, l1) = ({l0}, {l1}): k - l0 must be one of 0..{l1 - l0}")
    if l0 == 0:
        a = 0j
    else:
        a = 1j * float(l0 * l1) / float(k * (k + 1))
    if k == l0:
        c = 0j
    else:
        radicand = float((k * k - l0 * l0) * (k * k - l1 * l1)) / float(4 * k * k - 1)
        c = (1j / float(k)) * cmath.sqrt(radicand)
    return a, c


@dataclass(frozen=True)
class GNOperators:
    label: GNLabel
    h3: np.ndarray
    hplus: np.ndarray
    hminus: np.ndarray
    f3: np.ndarray
    fplus: np.ndarray
    fminus: np.ndarray
    basis_note: str

    @property
    def dim(self) -> int:
        return self.h3.shape[0]

    def operators(self) -> dict[str, np.ndarray]:
        return {
            "H3": self.h3,
            "H+": self.hplus,
            "H-": self.hminus,
            "F3": self.f3,
            "F+": self.fplus,
            "F-": self.fminus,
        }


def _roots(products: np.ndarray) -> np.ndarray:
    """float(x) ** 0.5 of each integer: CPython's pow rounding, which np.sqrt need not share."""
    return np.array([float(x) ** 0.5 for x in products.tolist()])


def _gn_row(two_l0: int, two_k: int, two_nu: int) -> int:
    """Position k^2 - l0^2 + k + nu of xi_(k,nu) in ``GNLabel.basis()``."""
    return (two_k * two_k - two_l0 * two_l0 + 2 * two_k + 2 * two_nu) // 4


def build_gn_operators(label: GNLabel) -> GNOperators:
    """Ladder matrices over the lexicographic (k, nu) basis.

    On level k, H3/H+/H- are the spin-k su(2) triple and the same-level
    part of F3/F+/F- is -A_k times it; the C_k entries link levels k-1 and k.
    """
    dim, two_l0 = label.dim, int(2 * label.l0)
    h3, hp, hm, f3, fp, fm = (np.zeros((dim, dim), dtype=complex) for _ in range(6))

    for k in label.levels():
        a_k, c_k = gn_coefficients(label, k)
        n = int(2 * k)
        lo, m = _gn_row(two_l0, n, -n), np.arange(n + 1)
        block = slice(lo, lo + n + 1)
        # where j3, j+, j- may be nonzero; j3's whole diagonal, nu = 0 included
        bands = ((m, m), (m[1:], m[:-1]), (m[:-1], m[1:]))
        for h, f, j, (rows, cols) in zip((h3, hp, hm), (f3, fp, fm), su2_ladder(k), bands):
            h[block, block] = j
            f[lo + rows, lo + cols] = -a_k * j[rows, cols]
        if k == label.l0:
            continue
        # a = nu + k - 1 on level k-1, whose block starts at row `below`; level k's starts at `lo`
        a, below = np.arange(n - 1), lo - n + 1
        r3, rp, rm = _roots((n - a - 1) * (a + 1)), _roots((a + 1) * (a + 2)), _roots((n - a - 1) * (n - a))
        f3[lo + a + 1, below + a], f3[below + a, lo + a + 1] = -c_k * r3, c_k * r3
        fp[lo + a + 2, below + a], fp[below + a, lo + a] = c_k * rp, c_k * rm
        fm[lo + a, below + a], fm[below + a, lo + a + 2] = -c_k * rm, -c_k * rp

    note = f"xi_(k,nu), k = {label.l0}..{label.l1 - 1}, nu = -k..k, lexicographic"
    return GNOperators(label, h3, hp, hm, f3, fp, fm, note)


class ABOperators(NamedTuple):
    """Rotation (a1..a3) and boost (b1..b3) infinitesimal operators."""

    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray


def cartesian(three: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, ...]:
    """(J1, J2, J3) of a ladder triple, inverting J+ = J1 + iJ2, J- = J1 - iJ2."""
    return (plus + minus) / 2, (plus - minus) / 2j, three


def reconstruct_AB(ops: GNOperators) -> ABOperators:
    """A = -i cartesian(H), B = -i cartesian(F): H+ = iA1 - A2, H- = iA1 + A2, H3 = iA3."""
    h = cartesian(ops.h3, ops.hplus, ops.hminus)
    f = cartesian(ops.f3, ops.fplus, ops.fminus)
    return ABOperators(*(-1j * m for m in h + f))


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


#: (a, b, c) over the cyclic shifts of (1, 2, 3), zero-based
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _worst(deviations) -> float:
    """Largest entry magnitude; NaN if any entry is NaN (numpy's max keeps it, Python's drops it)."""
    return float(np.max([np.abs(d).max() for d in deviations]))


def com1_residual(ab: ABOperators) -> float:
    """Largest entrywise deviation over the 15 rotation/boost relations."""
    a, b = ab[:3], ab[3:]
    deviations = []
    for i, j, k in _CYCLIC:
        deviations += [
            _comm(a[i], a[j]) - a[k],
            _comm(b[i], b[j]) + a[k],
            _comm(a[i], b[i]),
            _comm(a[i], b[j]) - b[k],
            _comm(a[j], b[i]) + b[k],
        ]
    return _worst(deviations)


@dataclass(frozen=True)
class VdWOperators:
    l: Fraction
    ldot: Fraction
    x3: np.ndarray
    xplus: np.ndarray
    xminus: np.ndarray
    y3: np.ndarray
    yplus: np.ndarray
    yminus: np.ndarray
    basis_note: str

    @property
    def dim(self) -> int:
        return self.x3.shape[0]

    def operators(self) -> dict[str, np.ndarray]:
        return {
            "X3": self.x3,
            "X+": self.xplus,
            "X-": self.xminus,
            "Y3": self.y3,
            "Y+": self.yplus,
            "Y-": self.yminus,
        }


def _twice_spin(j) -> int:
    """n = 2j of a spin j."""
    if (n := int(2 * as_half_integer(j))) < 0:
        raise ValueError("spin must be non-negative")
    return n


def su2_ladder(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j3, j+, j-) on the basis m = -j .. j, ascending; with n = 2j and m = -j + i,
    (j-m)(j+m+1) = (n-i)(i+1) is the square of j+ below the diagonal and of j- above it."""
    n = _twice_spin(j)
    i = np.arange(n)
    j3 = np.diag(np.arange(-n, n + 1, 2) / 2).astype(complex)
    jp, jm = np.zeros((2, n + 1, n + 1), dtype=complex)
    jp[i + 1, i] = jm[i, i + 1] = _roots((n - i) * (i + 1))
    return j3, jp, jm


def vdw_dim(l, ldot) -> int:
    """Dim (2l+1)(2ldot+1) of the (l, ldot) operators, without building them."""
    return (_twice_spin(l) + 1) * (_twice_spin(ldot) + 1)


def build_vdw_operators(l, ldot) -> VdWOperators:
    """Commuting su(2) ladder pairs on |l,m;ldot,mdot>, (m, mdot) lexicographic."""
    l = as_half_integer(l)
    ldot = as_half_integer(ldot)
    xs, ys = su2_ladder(l), su2_ladder(ldot)
    left, right = np.eye(len(xs[0]), dtype=complex), np.eye(len(ys[0]), dtype=complex)
    note = f"|l,m;ldot,mdot>, l = {l}, ldot = {ldot}, (m, mdot) lexicographic"
    return VdWOperators(l, ldot, *(_kron(x, right) for x in xs), *(_kron(left, y) for y in ys), note)


def su2_residual(t: tuple[np.ndarray, ...]) -> float:
    """Largest deviation of a cartesian triple from [J1,J2] = iJ3 and its cyclic shifts."""
    return _worst([_comm(t[i], t[j]) - 1j * t[k] for i, j, k in _CYCLIC])


def com2_residual(ops: VdWOperators) -> float:
    """Deviation from two commuting su(2) triples ([X1,X2] = iX3 etc.)."""
    xs = cartesian(ops.x3, ops.xplus, ops.xminus)
    ys = cartesian(ops.y3, ops.yplus, ops.yminus)
    cross = _worst([_comm(xi, yi) for xi in xs for yi in ys])
    return float(np.max([su2_residual(xs), su2_residual(ys), cross]))  # a NaN anywhere stays NaN


def gn_to_vdw(ops: GNOperators) -> VdWOperators:
    """Convert (l0, l1) ladder operators to the paired su(2) form.

    X = (H + iF)/2 and Y = (H - iF)/2; the labels follow
    l = (l0 + l1 - 1)/2 and ldot = (l1 - l0 - 1)/2 (the conjugate-pair
    value reported non-negative).
    """
    label = ops.label
    l = (label.l0 + label.l1 - 1) / 2
    ldot = (label.l1 - label.l0 - 1) / 2
    note = ops.basis_note + " (converted)"
    return VdWOperators(
        l,
        ldot,
        (ops.h3 + 1j * ops.f3) / 2,
        (ops.hplus + 1j * ops.fplus) / 2,
        (ops.hminus + 1j * ops.fminus) / 2,
        (ops.h3 - 1j * ops.f3) / 2,
        (ops.hplus - 1j * ops.fplus) / 2,
        (ops.hminus - 1j * ops.fminus) / 2,
        note,
    )


def sl25_operators(ab: ABOperators) -> tuple[np.ndarray, ...]:
    """X_l = i(A_l + iB_l)/2 and Y_l = i(A_l - iB_l)/2, l = 1, 2, 3."""
    xs = tuple(0.5j * (a + 1j * b) for a, b in zip(ab[:3], ab[3:]))
    ys = tuple(0.5j * (a - 1j * b) for a, b in zip(ab[:3], ab[3:]))
    return xs + ys


@dataclass(frozen=True)
class Spintensor:
    """Rank (k, r) spinor tensor: k undotted and r dotted 2-valued slots."""

    k: int
    r: int
    components: np.ndarray

    def __post_init__(self):
        k, r = as_count(self.k, "rank k"), as_count(self.r, "rank r")
        if k < 0 or r < 0:
            raise ValueError(f"rank ({k!r}, {r!r}) must be two non-negative integers")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r", r)
        arr = np.asarray(self.components, dtype=complex)
        if arr.size != 1 << (self.k + self.r):
            raise ValueError(
                f"rank ({self.k},{self.r}) needs {1 << (self.k + self.r)} components, got {arr.size}"
            )
        object.__setattr__(self, "components", arr.reshape((2,) * (self.k + self.r)))

    @property
    def flat(self) -> np.ndarray:
        return self.components.reshape(-1)


def spintensor_transform(g: np.ndarray, t: Spintensor) -> Spintensor:
    """Apply g on every undotted slot and conj(g) on every dotted slot."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("transformation must be a 2x2 matrix")
    op = np.eye(1, dtype=complex)
    for _ in range(t.k):
        op = _kron(op, g)
    for _ in range(t.r):
        op = _kron(op, g.conj())
    return Spintensor(t.k, t.r, op @ t.flat)
