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

Every entry of every operator comes from one source and reaches an array
or a printed row through one of two writers.  The source is each spin's
O(n) band (``_su2_band``): j3's diagonal and the n roots of j+, on Python
ints, every root one ``math.sqrt``, correctly rounded as IEEE 754 requires,
so the bits do not depend on the platform's libm.  ``gn_entries`` places the band at
each GN level as H3/H+/H- and -A_k times it as the same-level part of
F3/F+/F-, with the C_k links between levels from ``_gn_c`` and
``math.sqrt`` on ints; ``vdw_entries`` copies it to the Kronecker
positions of X = x (x) I and Y = I (x) y, placed, not multiplied, so no
product is formed and every zero is +0.0.  Each operator is a pair of
(row, column, value) lists, its real part and its imaginary part, every
other entry 0.0, and the one writer pair of ``cliffrep._entries`` writes
them out: ``dense`` into zeroed complex arrays, one index write per part,
for ``su2_ladder``, ``build_gn_operators`` and ``build_vdw_operators``,
and ``cell_texts`` into the JSON cells ``rep`` prints in both bases, one
text per written entry.

Every spin argument goes through ``_rules.as_half_integer``, the one
half-integer rule: an int or ``Fraction`` whose double is an integer.

The builders return dense complex numpy arrays over fixed lexicographic
basis orders.  Each spin's su(2) ladder is proved exactly by one
pure-Python judge (``_band_failure``) on its band, which
``su2_ladder_failure`` and ``vdw_proof`` both run: its relations are
integer identities on the squares of its entries, j3's diagonal is
compared exactly with -j .. j, and each shipped root is bound to its exact
value within ``SU2_ROOT_ULPS``; no dense ladder is read back.  The
``*_TOL`` constants bound the float residuals of whole operator sets, each
one NaN-keeping fold (``_worst``), and are defined nowhere else:
``GN_COM_TOL`` the GN relations (``com1_residual``), ``VDW_COM_TOL`` the
converted operators' ``com2_residual`` and ``SPECTRUM_TOL`` their X3
eigenvalues.

Each relation is stated once and runs on two matrix kinds: numpy arrays,
for ``verify``, and ``_Sparse``, the {row: {column: entry}} of the positions
a matrix holds, in pure Python, for ``rep``, which loads no numpy.  The one
ladder-to-cartesian map is ``cartesian``, the rotation/boost relations
``com1_residual``, the su(2) relations ``_su2_deviations`` and the
X, Y = (H +- iF)/2 conversion ``gn_to_vdw``.  ``rep --gn`` judges its
``gn_entries`` by ``gn_residuals``, both chains on ``_Sparse`` operators;
``rep --vdw`` takes ``vdw_proof``'s verdict, ``_su2_deviations`` folded
over each spin's band.  On ``verify``'s 28 GN labels numpy's products take
a fifth or less of the pure-Python time (2 vCPUs, Python 3.11: 16-23 ms
against 109-177 ms).  numpy is imported inside the functions that read
arrays, and inside ``dense``, the only one that writes entries into arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod
from fractions import Fraction
from itertools import chain
from operator import add, sub
from typing import TYPE_CHECKING, NamedTuple

from ._entries import Entries, Operator, dense
from ._rules import as_count, as_half_integer

if TYPE_CHECKING:
    import numpy as np

#: Largest operator dim the CLI builds or sweeps: ``rep`` writes six dim x dim
#: operators as JSON text, about 8 MB each at dim 400 and 5 GB each at dim 10^4.
MAX_OPERATOR_DIM = 400

#: rotation/boost commutator residual bound (GN basis)
GN_COM_TOL = 1e-10
#: paired su(2) commutator residual bound (VdW basis)
VDW_COM_TOL = 1e-12
#: absolute bound on the X3 eigenvalues against their exact half-integers
SPECTRUM_TOL = 1e-8
#: ulps within which each shipped ladder root f of an integer x brackets sqrt(x):
#: f stepped down and up by as many ulps, f- and f+, give f-^2 <= x <= f+^2.  Over every
#: root of 2j < 400 (17 010 distinct x) the maximum is 1: a correctly rounded root of a
#: non-square is 1 ulp from sqrt(x) on one side, and a perfect square's is exact
SU2_ROOT_ULPS = 1

_GN_NAMES = ("H3", "H+", "H-", "F3", "F+", "F-")
_VDW_NAMES = ("X3", "X+", "X-", "Y3", "Y+", "Y-")


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

    def vdw_spins(self) -> tuple[Fraction, Fraction]:
        """(l, ldot) = ((l0 + l1 - 1)/2, (l1 - l0 - 1)/2) of the paired su(2) form, the labels ``gn_to_vdw``
        gives (the conjugate-pair value reported non-negative)."""
        return (self.l0 + self.l1 - 1) / 2, (self.l1 - self.l0 - 1) / 2

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
    """(A_k, C_k) for k = l0, l0 + 1, ..., l1, from ``_gn_a`` and ``_gn_c`` as the builder reads them.

    C at the bottom level multiplies the nonexistent k-1 level and is
    defined as 0 (this also covers the 0/0 at k = 1/2);  C at k = l1
    vanishes through the k^2 - l1^2 factor, closing the ladder.
    """
    k = as_half_integer(k)
    l0, l1 = label.l0, label.l1
    if not l0 <= k <= l1 or (k - l0).denominator != 1:
        raise ValueError(f"k = {k} is not a level of (l0, l1) = ({l0}, {l1}): k - l0 must be one of 0..{l1 - l0}")
    two_l0, two_l1, n = _twice_spin(l0), _twice_spin(l1), _twice_spin(k)
    a = complex(0.0, _gn_a(two_l0, two_l1, n))
    return a, 0j if k == l0 else complex(0.0 - _gn_c(two_l0, two_l1, n), 0.0)


def _gn_a(two_l0: int, two_l1: int, n: int) -> float:
    """Im A_k = l0 l1 / (k (k+1)) at 2k = n: the one correctly rounded quotient 2l0 2l1 / (n (n+2))
    of two integers, which is what dividing the exact floats of l0 l1 and k (k+1), each a quarter of
    an integer, gives.  0 when l0 = 0, k = 0 included, where the divisor is 1."""
    return two_l0 * two_l1 / (n * (n + 2) + (n == 0))


def _gn_c(two_l0: int, two_l1: int, n: int) -> float:
    """-C_k = (1/k) sqrt(R) at 2k = n > 2l0, with R = -(k^2 - l0^2)(k^2 - l1^2) / (4k^2 - 1) >= 0,
    so C_k is real.  R is the integer (n^2 - 4l0^2)(4l1^2 - n^2) divided by 16 and then by n^2 - 1,
    and (1/k) sqrt(R) is 2/n times its ``math.sqrt``: the float operations, in order, of
    (i/k) sqrt(-R) on the exact Fractions, whose real part is this product negated and whose
    imaginary part is 0."""
    return 2 / n * math.sqrt((n * n - two_l0 * two_l0) * (two_l1 * two_l1 - n * n) / 16 / (n * n - 1))


@dataclass(frozen=True)
class GNOperators:
    """The six (l0, l1) operators, each a dense array (``build_gn_operators``) or a ``_Sparse`` (``gn_residuals``)."""

    label: GNLabel
    h3: np.ndarray | _Sparse
    hplus: np.ndarray | _Sparse
    hminus: np.ndarray | _Sparse
    f3: np.ndarray | _Sparse
    fplus: np.ndarray | _Sparse
    fminus: np.ndarray | _Sparse
    basis_note: str

    @property
    def dim(self) -> int:
        return self.h3.shape[0]

    def operators(self) -> dict[str, np.ndarray | _Sparse]:
        return dict(zip(_GN_NAMES, (self.h3, self.hplus, self.hminus, self.f3, self.fplus, self.fminus)))


def _gn_row(two_l0: int, two_k: int, two_nu: int) -> int:
    """Position k^2 - l0^2 + k + nu of xi_(k,nu) in ``GNLabel.basis()``."""
    return (two_k * two_k - two_l0 * two_l0 + 2 * two_k + 2 * two_nu) // 4


def gn_entries(label: GNLabel) -> dict[str, Operator]:
    """The (real, imaginary) entry lists of the six GN operators over the lexicographic (k, nu) basis,
    keyed as ``GNOperators.operators()``, without numpy.

    On level k, H3/H+/H- are the spin-k triple of ``_su2_band`` and the same-level part of F3/F+/F-
    is -A_k times it; the C_k entries link levels k-1 and k.  Every entry comes from the twice-spin
    integers: A_k and C_k from ``_gn_a`` and ``_gn_c``, as ``gn_coefficients`` reads them.  A_k is
    imaginary and C_k real, so each entry is one real or imaginary part, with the bits, signed zeros
    included, of the complex products -A_k j and +-C_k root.
    """
    two_l0, two_l1 = _twice_spin(label.l0), _twice_spin(label.l1)
    h3, hp, hm, f3, fp, fm = ops = [([], []) for _ in _GN_NAMES]
    for n in range(two_l0, two_l1, 2):
        start, a = _gn_row(two_l0, n, -n), _gn_a(two_l0, two_l1, n)
        for h, f, band in zip((h3, hp, hm), (f3, fp, fm), _band_entries(*_su2_band(n))):
            h[0].extend((start + r, start + c, v) for r, c, v in band)
            f[1].extend((start + r, start + c, -a * v) for r, c, v in band)
        if n == two_l0:
            continue
        # the link from j = nu + k - 1 on level k-1, row `low`, to the same offset j into level k, row `up`
        c, below = _gn_c(two_l0, two_l1, n), _gn_row(two_l0, n - 2, 2 - n)
        for j in range(n - 1):
            low, up = below + j, start + j
            c3, cp, cm = (c * math.sqrt(x) for x in ((n - j - 1) * (j + 1), (j + 1) * (j + 2), (n - j - 1) * (n - j)))
            f3[0].extend(((up + 1, low, c3), (low, up + 1, -c3)))
            fp[0].extend(((up + 2, low, -cp), (low, up, -cm)))
            fm[0].extend(((up, low, cm), (low, up + 2, cp)))
    return dict(zip(_GN_NAMES, ops))


def gn_note(label: GNLabel) -> str:
    """The basis note of the (l0, l1) operators, which ``rep --gn`` prints without building them."""
    top = _twice_spin(label.l1) - 2  # 2k of the last level, printed as its Fraction prints
    return f"xi_(k,nu), k = {label.l0}..{top // 2 if top % 2 == 0 else f'{top}/2'}, nu = -k..k, lexicographic"


def build_gn_operators(label: GNLabel) -> GNOperators:
    """Ladder matrices over the lexicographic (k, nu) basis: ``gn_entries`` through ``dense``."""
    return GNOperators(label, *dense(label.dim, gn_entries(label).values()), gn_note(label))


class ABOperators(NamedTuple):
    """Rotation (a1..a3) and boost (b1..b3) infinitesimal operators, arrays or ``_Sparse`` as the GN ones."""

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
    """Largest entry magnitude over arrays, ``_Sparse`` matrices or numbers, 0.0 over none; NaN if any entry is
    NaN, which ends the fold (Python's max would drop it).  Every max-deviation verdict folds through here."""
    worst = 0.0
    for d in deviations:
        size = float(abs(d).max()) if hasattr(d, "max") else abs(d)
        if size != size:
            return math.nan
        worst = max(worst, size)
    return worst


class _Sparse:
    """A dim x dim matrix as {row: {column: entry}} of the positions it holds, a missing entry read as 0j, that
    answers ``+``, ``-``, ``@``, a complex scale, ``/`` by a scalar, ``abs``, ``max`` and ``.shape`` as a numpy
    array does, so the relation code runs on it in pure Python."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows: dict[int, dict[int, complex]], dim: int):
        self.rows, self.shape = rows, (dim, dim)

    @classmethod
    def of(cls, operator: Operator, dim: int) -> _Sparse:
        """The operator's written positions, each entry complex(real, imaginary) with an unwritten part 0.0
        and, as in ``dense``, the last entry of a part at a repeated position winning; a position outside
        0..dim-1 is one ``ValueError`` naming the first such."""
        rows: dict[int, dict[int, complex]] = {}
        for part, entries in enumerate(operator):
            for r, c, v in entries:
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError(f"entry position ({r}, {c}) outside 0..{dim - 1}")
                row = rows.setdefault(r, {})
                z = row.get(c, 0j)
                row[c] = complex(z.real, v) if part else complex(v, z.imag)
        return cls(rows, dim)

    def _zip(self, f, other: _Sparse) -> _Sparse:
        x, y, out = self.rows, other.rows, {}
        for r in x.keys() | y.keys():
            xr, yr = x.get(r, {}), y.get(r, {})
            out[r] = {c: f(xr.get(c, 0j), yr.get(c, 0j)) for c in xr.keys() | yr.keys()}
        return _Sparse(out, self.shape[0])

    def _map(self, f) -> _Sparse:
        return _Sparse({r: {c: f(v) for c, v in row.items()} for r, row in self.rows.items()}, self.shape[0])

    __add__, __sub__, __abs__ = partialmethod(_zip, add), partialmethod(_zip, sub), partialmethod(_map, abs)

    def __rmul__(self, k: complex) -> _Sparse:
        return self._map(lambda v: k * v)

    def __truediv__(self, k: complex) -> _Sparse:
        return self._map(lambda v: v / k)

    def __matmul__(self, other: _Sparse) -> _Sparse:
        """Each row of self times the rows of other its entries select."""
        out = {}
        for r, row in self.rows.items():
            acc: dict[int, complex] = {}
            for k, u in row.items():
                for c, v in other.rows.get(k, {}).items():
                    acc[c] = acc.get(c, 0j) + u * v
            out[r] = acc
        return _Sparse(out, self.shape[0])

    def max(self) -> float:
        """The largest entry of a real matrix such as ``abs(s)``, NaN if any is NaN, as numpy's ``max``;
        0.0, the entry at every position not held, if it holds none."""
        values = [v for row in self.rows.values() for v in row.values()]
        return math.nan if any(v != v for v in values) else max(values, default=0.0)


def com1_residual(ab: ABOperators) -> float:
    """Largest entrywise deviation over the 15 rotation/boost relations."""
    a, b = ab[:3], ab[3:]

    def deviations():  # one at a time: 15 dense deviations alive at once are 38 MB at dim 400
        for i, j, k in _CYCLIC:
            yield _comm(a[i], a[j]) - a[k]
            yield _comm(b[i], b[j]) + a[k]
            yield _comm(a[i], b[i])
            yield _comm(a[i], b[j]) - b[k]
            yield _comm(a[j], b[i]) + b[k]

    return _worst(deviations())


@dataclass(frozen=True)
class VdWOperators:
    """The six (l, ldot) operators, each a dense array or, from ``gn_to_vdw`` in ``gn_residuals``, a ``_Sparse``."""

    l: Fraction
    ldot: Fraction
    x3: np.ndarray | _Sparse
    xplus: np.ndarray | _Sparse
    xminus: np.ndarray | _Sparse
    y3: np.ndarray | _Sparse
    yplus: np.ndarray | _Sparse
    yminus: np.ndarray | _Sparse
    basis_note: str

    @property
    def dim(self) -> int:
        return self.x3.shape[0]

    def operators(self) -> dict[str, np.ndarray | _Sparse]:
        return dict(zip(_VDW_NAMES, (self.x3, self.xplus, self.xminus, self.y3, self.yplus, self.yminus)))


def _twice_spin(j) -> int:
    """n = 2j of a spin j, read off its numerator and its denominator, 1 or 2."""
    j = as_half_integer(j)
    if (n := 2 // j.denominator * int(j.numerator)) < 0:
        raise ValueError("spin must be non-negative")
    return n


def _su2_band(n: int) -> tuple[list[float], list[float]]:
    """(m, roots) of spin n/2 on Python ints, the one source of every operator entry: j3's diagonal
    m_i = (2i - n)/2, i = 0..n, ascending, and the n roots f_i = ``math.sqrt`` of (j-m)(j+m+1) =
    (n-i)(i+1), each the square of j+[i+1, i] and of j-[i, i+1]."""
    return [(2 * i - n) / 2 for i in range(n + 1)], [math.sqrt((n - i) * (i + 1)) for i in range(n)]


def _band_entries(m: list[float], roots: list[float]) -> tuple[Entries, Entries, Entries]:
    """(j3, j+, j-) of the band (m, roots) as entry lists: m_i at (i, i), f_i at (i+1, i) and (i, i+1)."""
    return (
        [(i, i, v) for i, v in enumerate(m)],
        [(i + 1, i, f) for i, f in enumerate(roots)],
        [(i, i + 1, f) for i, f in enumerate(roots)],
    )


def su2_ladder(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j3, j+, j-) on the basis m = -j .. j, ascending: ``_su2_band``'s entries through ``dense``.
    Nothing is cached, so every call returns three new writable arrays."""
    n = _twice_spin(j)
    return dense(n + 1, [(entries, []) for entries in _band_entries(*_su2_band(n))])


def su2_ladder_failure(j) -> str | None:
    """Failure text unless spin j's su(2) entries, as ``_su2_band`` gives them and ``su2_ladder`` writes
    them, are exactly the spin-j triple, else None: ``_band_failure`` on ``_su2_band(2j)``, in pure Python.
    Nothing is cached: every call reads what ``_su2_band`` gives then."""
    return _band_failure(j, *_su2_band(_twice_spin(j)))


def vdw_dim(l, ldot) -> int:
    """Dim (2l+1)(2ldot+1) of the (l, ldot) operators, without building them."""
    return (_twice_spin(l) + 1) * (_twice_spin(ldot) + 1)


def vdw_note(l: Fraction, ldot: Fraction) -> str:
    """The basis note of the (l, ldot) operators, which ``rep --vdw`` prints without building them."""
    return f"|l,m;ldot,mdot>, l = {l}, ldot = {ldot}, (m, mdot) lexicographic"


def vdw_entries(l, ldot) -> dict[str, Operator]:
    """The (real, imaginary) entry lists of the six VdW operators on |l,m;ldot,mdot>, (m, mdot)
    lexicographic, keyed as ``VdWOperators.operators()``, without numpy: X = x (x) I and Y = I (x) y
    of the spins' ``_su2_band`` triples, placed, not multiplied.  Basis vector (a, s) is row a d2 + s,
    d2 = 2 ldot + 1, so x's entry (a, b) is copied to (a d2 + s, b d2 + s) for every s and y's entry
    (s, t) to (a d2 + s, a d2 + t) for every a; every imaginary part is 0.0."""
    n1, n2 = _twice_spin(l), _twice_spin(ldot)
    d2 = n2 + 1
    xs = [[(r * d2 + s, c * d2 + s, v) for r, c, v in x for s in range(d2)] for x in _band_entries(*_su2_band(n1))]
    ys = [[(a * d2 + s, a * d2 + t, v) for a in range(n1 + 1) for s, t, v in y] for y in _band_entries(*_su2_band(n2))]
    return dict(zip(_VDW_NAMES, ((entries, []) for entries in xs + ys)))


def build_vdw_operators(l, ldot) -> VdWOperators:
    """Commuting su(2) ladder pairs on |l,m;ldot,mdot>: ``vdw_entries`` through ``dense``, the values of
    np.kron(x, I) and np.kron(I, y) of the spins' ``su2_ladder`` triples, with every zero +0.0."""
    l, ldot = as_half_integer(l), as_half_integer(ldot)
    ops = dense(vdw_dim(l, ldot), vdw_entries(l, ldot).values())
    return VdWOperators(l, ldot, *ops, vdw_note(l, ldot))


def _band_failure(j, m: list[float], roots: list[float]) -> str | None:
    """Failure text unless the band (m, roots) is exactly spin j's su(2) triple, else None: the one
    proof of a spin's su(2) relations, in pure Python on the n + 1 entries m of j3's diagonal and the n
    roots f of j+'s subdiagonal (j-'s superdiagonal), n = 2j.  With x_i = (n - i)(i + 1) it proves:

    * the band lengths are n + 1 and n;
    * each f_i is finite and > 0 and, stepped ``SU2_ROOT_ULPS`` ulps down and up to f- and f+, gives
      f-^2 <= x_i <= f+^2, compared exactly on the Python ints of ``as_integer_ratio``;
    * [j+, j-] = 2 j3 for f_i = sqrt(x_i): 2 m_i equals f_(i-1)^2 - f_i^2 = x_(i-1) - x_i = 2i - n,
      with x_(-1) = x_n = 0, compared exactly with the Python int, so m_i = -j + i, and
      [j3, j+-] = +-j+- follows from m_(i+1) - m_i = 1.

    No tolerance enters, and a NaN anywhere fails."""
    n = _twice_spin(j)
    if len(m) != n + 1 or len(roots) != n:
        return f"spin {j}: band lengths (j3, j+) are not ({n + 1}, {n})"
    for i, f in enumerate(roots):
        if not 0 < f < math.inf:
            return f"spin {j}: j+ is not one positive root at each (i+1, i)"
        low = high = f
        for _ in range(SU2_ROOT_ULPS):
            low, high = math.nextafter(low, 0), math.nextafter(high, math.inf)
        (p, q), (r, s), square = low.as_integer_ratio(), high.as_integer_ratio(), (n - i) * (i + 1)
        if p * p > square * q * q or r * r < square * s * s:
            return f"spin {j}: root {i} of j+ is not within {SU2_ROOT_ULPS} ulp of sqrt({square})"
    if any(2 * v != 2 * i - n for i, v in enumerate(m)):
        return f"spin {j}: j3 is not [j+, j-]/2 = diag(-j .. j)"
    return None


def _su2_deviations(t):
    """[J1, J2] - iJ3 and its cyclic shifts for the cartesian triple t: the su(2) relations."""
    return (_comm(t[i], t[j]) - 1j * t[k] for i, j, k in _CYCLIC)


def vdw_proof(l, ldot) -> tuple[str | None, float]:
    """``(failure, residual)`` of the (l, ldot) operators from their two spins' ``_su2_band`` entries,
    the ones ``vdw_entries`` places, without numpy.

    ``failure`` is ``_band_failure``'s text for the first spin whose band is not exactly its su(2)
    triple, the proof ``su2_ladder_failure`` runs, or None.  ``residual`` is ``_su2_deviations`` of each
    spin's cartesian triple, as ``_Sparse`` matrices on its band, in one ``_worst`` fold: under the
    Kronecker assembly each su(2) relation of X and Y is that of its spin times I, and the nine [Xa, Yb]
    vanish entry by entry, so these are all of ``com2_residual``'s relations that contribute.
    """
    failure, deviations = None, []
    for j in (as_half_integer(l), as_half_integer(ldot)):
        n = _twice_spin(j)
        m, roots = _su2_band(n)
        failure = failure or _band_failure(j, m, roots)
        deviations.append(_su2_deviations(cartesian(*(_Sparse.of((e, []), n + 1) for e in _band_entries(m, roots)))))
    return failure, _worst(chain.from_iterable(deviations))


def gn_residuals(label: GNLabel, operators: dict[str, Operator]) -> tuple[float, float]:
    """(com1, com2) residuals of the (l0, l1) operators given by their ``gn_entries``, without numpy:
    ``com1_residual`` of ``reconstruct_AB`` and ``com2_residual`` of ``gn_to_vdw``, run on ``GNOperators``
    that hold the entries as ``_Sparse`` matrices."""
    ops = GNOperators(label, *(_Sparse.of(operators[name], label.dim) for name in _GN_NAMES), gn_note(label))
    return com1_residual(reconstruct_AB(ops)), com2_residual(gn_to_vdw(ops))


def com2_residual(ops: VdWOperators) -> float:
    """Largest entrywise deviation over the 15 relations of two commuting su(2) triples:
    [J1,J2] = iJ3 and its cyclic shifts for J = X and J = Y, and [Xa, Yb] = 0."""
    xs = cartesian(ops.x3, ops.xplus, ops.xminus)
    ys = cartesian(ops.y3, ops.yplus, ops.yminus)
    return _worst(chain(_su2_deviations(xs), _su2_deviations(ys), (_comm(xi, yi) for xi in xs for yi in ys)))


def gn_to_vdw(ops: GNOperators) -> VdWOperators:
    """Convert (l0, l1) ladder operators to the paired su(2) form.

    X = (H + iF)/2 and Y = (H - iF)/2; the labels follow
    l = (l0 + l1 - 1)/2 and ldot = (l1 - l0 - 1)/2 (the conjugate-pair
    value reported non-negative).
    """
    l, ldot = ops.label.vdw_spins()
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
        import numpy as np

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
    import numpy as np

    g = np.asarray(g, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("transformation must be a 2x2 matrix")
    out = t.components
    for slot in range(t.k + t.r):  # one 2 x 2 contraction per slot: no 2^(k+r)-square operator is formed
        out = np.moveaxis(np.tensordot(g if slot < t.k else g.conj(), out, axes=(1, slot)), 0, slot)
    return Spintensor(t.k, t.r, out.copy())
