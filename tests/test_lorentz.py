"""Spin+(1,3) operators: ladder coefficients, commutators, conversions."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cliffrep import algebra, checks, lorentz
from cliffrep._entries import cell_texts, dense
from cliffrep.cli import main
from cliffrep.checks import GN_COM_TOL, GN_VDW_PROPERTIES, VDW_COM_TOL, gn_labels, vdw_labels
from cliffrep.lorentz import (
    GNLabel,
    Spintensor,
    build_gn_operators,
    build_vdw_operators,
    cartesian,
    com1_residual,
    com2_residual,
    gn_coefficients,
    gn_to_vdw,
    reconstruct_AB,
    spintensor_transform,
    su2_ladder,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

# sha256 of the raw bytes of every operator matrix over gn_labels(64) / vdw_labels(64),
# in label and operator order: `rep` emits these bits, signed zeros included (every VdW zero is +0.0)
GN_OPERATOR_DIGEST = "779c407fbcd101c0592aa6c11743f62e41b50207e5ed4f996f205c0ae5af3ce0"
VDW_OPERATOR_DIGEST = "b15ea67b236fa514e3127c3f5f423ca2e67c608586caef9dd4c19910f4dcaa78"
# sha256 of the raw bytes of su2_ladder's (j3, j+, j-) for 2j = 0..199, every root a
# correctly rounded math.sqrt
SU2_LADDER_DIGEST = "6f8bd30db6b329a5770d8bd55e73d287207069fdbf78080b5ad60b6ea44a9505"
# sha256 of the repr of gn_residuals, one line per label, over all_gn_labels(64) and (0, 20): the two
# residuals rep --gn prints, which REP_GN_JSON_DIGEST masks, pinned bit for bit
GN_RESIDUAL_DIGEST = "9b3bd86aa8c062b2c26fdc7ff306c619ded7f008be079295316853d2ee3b86bb"


def _digest(all_ops) -> str:
    h = hashlib.sha256()
    for ops in all_ops:
        for m in ops.operators().values():
            h.update(m.tobytes())
    return h.hexdigest()


def gn_vdw_case(lab: GNLabel):
    """The argument ``check_gn_vdw`` hands each of ``GN_VDW_PROPERTIES`` for label ``lab``."""
    return gn_to_vdw(build_gn_operators(lab))


def all_gn_labels(dim_max: int) -> list[GNLabel]:
    """Every GN label of dim <= dim_max, l0 ascending, then l1 ascending."""
    labels, l0 = [], F(0)
    while 2 * l0 + 1 <= dim_max:
        p = 1
        while p * (2 * l0 + p) <= dim_max:
            labels.append(GNLabel(l0, l0 + p))
            p += 1
        l0 += F(1, 2)
    return labels


def test_operator_bits_unchanged():
    assert _digest(build_gn_operators(lab) for lab in gn_labels(64)) == GN_OPERATOR_DIGEST
    assert _digest(build_vdw_operators(l, ld) for l, ld in vdw_labels(64)) == VDW_OPERATOR_DIGEST


@pytest.mark.parametrize(
    "build,digest",
    [
        pytest.param(
            lambda: map(build_gn_operators, all_gn_labels(100)),
            "254f5cc0c1692c7d10005baa67e3bd1fb6113c58605e12ad809ff44172949a34",
            id="gn-dim100",
        ),
        pytest.param(
            lambda: [build_gn_operators(GNLabel(0, 20))],
            "022947ee5f412dce3a979a285f03664b548f801d593180edf61368ae3dd144eb",
            id="gn-dim400",
        ),
        pytest.param(
            lambda: (build_vdw_operators(l, ld) for l, ld in vdw_labels(100)),
            "2be4c5e2de24fdd63f0d002d1d0237e851f44f5522ceb805c7e956d22a76f292",
            id="vdw-dim100",
        ),
        pytest.param(
            lambda: [build_vdw_operators(F(19, 2), F(19, 2))],
            "7ef9f8fdadd557b1edf4fd660380f7a066c7e31d732877f4c68dbbf98d421b28",
            id="vdw-dim400",
        ),
        # the first labels with a root of 2921, the smallest integer whose correctly rounded root a
        # libm pow (x ** 0.5) can miss by an ulp: a C_75 entry of (74, 76), a j+ entry of spin 149/2
        pytest.param(
            lambda: [build_gn_operators(GNLabel(74, 76))],
            "f6c882006e4fea27d92489f76b33f0c6acc73742492ee4fdbcd4e5a65c7b1b6a",
            id="gn-root-2921",
        ),
        pytest.param(
            lambda: [build_vdw_operators(F(149, 2), 0)],
            "1cfc5809126d399d655e68fb9b08ece05f615a2ad4721e7c6c74087564ce5f08",
            id="vdw-root-2921",
        ),
    ],
)
def test_operator_bits_unchanged_up_to_dim_400(build, digest):
    """The same digest over all 246 GN and 482 VdW labels of dim <= 100, one dim-400 label of
    each, and the first labels with a root of 2921, which pins the correctly rounded root."""
    assert _digest(build()) == digest


def per_level_gn_operators(label: GNLabel) -> list[np.ndarray]:
    """The six GN operators level by level, as complex products of ``gn_coefficients`` and ``su2_ladder``
    written block by block: the reference the one-pass builder is held to, bit for bit."""
    dim, two_l0 = label.dim, int(2 * label.l0)
    h3, hp, hm, f3, fp, fm = ops = [np.zeros((dim, dim), dtype=complex) for _ in range(6)]
    for k in label.levels():
        a_k, c_k = gn_coefficients(label, k)
        n = int(2 * k)
        lo, m = lorentz._gn_row(two_l0, n, -n), np.arange(n + 1)
        bands = ((m, m), (m[1:], m[:-1]), (m[:-1], m[1:]))
        for h, f, j, (rows, cols) in zip((h3, hp, hm), (f3, fp, fm), su2_ladder(k), bands):
            h[lo : lo + n + 1, lo : lo + n + 1] = j
            f[lo + rows, lo + cols] = -a_k * j[rows, cols]
        if k > label.l0:
            a, below = np.arange(n - 1), lo - n + 1
            r3, rp, rm = (np.sqrt(x.astype(float)) for x in ((n - a - 1) * (a + 1), (a + 1) * (a + 2), (n - a - 1) * (n - a)))
            f3[lo + a + 1, below + a], f3[below + a, lo + a + 1] = -c_k * r3, c_k * r3
            fp[lo + a + 2, below + a], fp[below + a, lo + a] = c_k * rp, c_k * rm
            fm[lo + a, below + a], fm[below + a, lo + a + 2] = -c_k * rm, -c_k * rp
    return ops


def test_one_pass_build_matches_the_per_level_products():
    """On every label of dim <= 100 and the first with a root of 2921, each operator's bytes, signed zeros
    included, equal the per-level products of the coefficients and ladders that gn_coefficients and su2_ladder give."""
    for lab in all_gn_labels(100) + [GNLabel(74, 76)]:
        got = build_gn_operators(lab).operators().values()
        assert [(m.dtype, m.shape, m.tobytes()) for m in got] == [(m.dtype, m.shape, m.tobytes()) for m in per_level_gn_operators(lab)], lab


def test_gn_row_closed_form():
    for lab in all_gn_labels(400):
        two_l0 = int(2 * lab.l0)
        rows = [lorentz._gn_row(two_l0, int(2 * k), int(2 * nu)) for k, nu in lab.basis()]
        assert rows == list(range(lab.dim)), lab


class TestGNLabel:
    def test_dimension_formula(self):
        assert GNLabel(F(0), F(1)).dim == 1
        assert GNLabel(F(1, 2), F(3, 2)).dim == 2
        assert GNLabel(F(0), F(2)).dim == 4

    def test_basis_size(self):
        for lab in gn_labels(64):
            assert len(lab.basis()) == lab.dim

    def test_rejects_infinite_dimensional(self):
        with pytest.raises(ValueError):
            GNLabel(F(0), F(1, 2))
        with pytest.raises(ValueError):
            GNLabel(F(1), F(1))
        with pytest.raises(ValueError):
            GNLabel(F(-1, 2), F(1, 2))


class HalfSpin(F):
    """A ``Fraction`` subclass: the half-integer rule returns a plain ``Fraction``."""


class TestHalfIntegers:
    """Every spin goes through algebra.as_half_integer: an int or Fraction whose double is an integer."""

    ENTRY_POINTS = [
        lambda x: GNLabel(x, F(3)),
        su2_ladder,
        lambda x: lorentz.vdw_dim(x, 0),
        lambda x: build_vdw_operators(0, x),
        lambda x: gn_coefficients(GNLabel(F(0), F(2)), x),
    ]

    @pytest.mark.parametrize(
        "x,message",
        [
            (float("inf"), "expected a half-integer int or Fraction, got inf"),
            (float("nan"), "expected a half-integer int or Fraction, got nan"),
            (None, "expected a half-integer int or Fraction, got None"),
            ("1/2", "expected a half-integer int or Fraction, got '1/2'"),
            (0.5, "expected a half-integer int or Fraction, got 0.5"),
            (1 / 3, "expected a half-integer int or Fraction, got 0.3333333333333333"),
        ],
    )
    def test_rejects_all_but_ints_and_fractions(self, x, message):
        for build in self.ENTRY_POINTS:
            with pytest.raises(ValueError) as err:
                build(x)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "x,want",
        [
            (0, F(0)),
            (3, F(3)),
            (-1, F(-1)),
            (F(1, 2), F(1, 2)),
            (F(-1, 2), F(-1, 2)),
            (F(4, 2), F(2)),
            (F(10**30 + 1, 2), F(10**30 + 1, 2)),
            (F(3, 4), "3/4 is not a half-integer"),
            (F(-5, 6), "-5/6 is not a half-integer"),
            (HalfSpin(3, 2), F(3, 2)),
            (HalfSpin(3, 4), "3/4 is not a half-integer"),
            (np.int64(3), F(3)),
            (np.int64(-2), F(-2)),
            (True, F(1)),
            (False, F(0)),
            (np.True_, f"expected a half-integer int or Fraction, got {np.True_!r}"),
        ],
        ids=repr,
    )
    def test_as_half_integer_pins(self, x, want):
        """Values and texts read off the Fraction-arithmetic rule: an exact Fraction, a Fraction itself unchanged."""
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                lorentz.as_half_integer(x)
            assert str(err.value) == want
        else:
            got = lorentz.as_half_integer(x)
            assert got == want and type(got) is F and type(got.numerator) is type(got.denominator) is int
            assert got is x or type(x) is not F

    @pytest.mark.parametrize("x", [0, 1, 7, F(1, 2), F(7, 2), F(199, 2), np.int64(2), True, HalfSpin(3, 2)], ids=repr)
    def test_twice_spin_reads_numerator_and_denominator(self, x):
        assert lorentz._twice_spin(x) == int(2 * F(x)) and type(lorentz._twice_spin(x)) is int

    @pytest.mark.parametrize("x", [-1, F(-1, 2), F(-7, 2)], ids=repr)
    def test_twice_spin_rejects_negative_spins(self, x):
        with pytest.raises(ValueError, match="^spin must be non-negative$"):
            lorentz._twice_spin(x)

    def test_shared_with_the_label_arithmetic(self):
        assert lorentz.as_half_integer is algebra.as_half_integer
        for x in (1, np.int64(1), True, F(2, 2)):
            assert lorentz.as_half_integer(x) == 1 and type(lorentz.as_half_integer(x)) is F
        assert GNLabel(np.int64(1), 2) == GNLabel(F(1), F(2)) and su2_ladder(F(1, 2))[0].shape == (2, 2)


class TestCoefficients:
    def test_fundamental_label(self):
        a, c = gn_coefficients(GNLabel(F(1, 2), F(3, 2)), F(1, 2))
        assert a == 1j
        assert c == 0

    def test_zero_l0_kills_a(self):
        lab = GNLabel(F(0), F(2))
        for k in (F(0), F(1), F(2)):
            assert gn_coefficients(lab, k)[0] == 0

    def test_top_level_closes_ladder(self):
        assert gn_coefficients(GNLabel(F(1, 2), F(3, 2)), F(3, 2))[1] == 0

    def test_interior_value(self):
        # (l0,l1) = (0,2), k = 1: C_1 = i*sqrt((1-0)(1-4)/3) = i*i = -1
        _, c = gn_coefficients(GNLabel(F(0), F(2)), F(1))
        assert abs(c - (-1.0)) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gn_coefficients(GNLabel(F(0), F(1)), F(2))

    def test_off_the_level_lattice(self):
        # k = 1/2 lies in [0, 2] but is no level of (0, 2); 4k^2 - 1 = 0 there
        with pytest.raises(ValueError, match=r"k = 1/2 .*\(0, 2\)"):
            gn_coefficients(GNLabel(F(0), F(2)), F(1, 2))


class TestGNOperators:
    def test_one_dimensional_label_is_zero(self):
        ops = build_gn_operators(GNLabel(F(0), F(1)))
        assert ops.dim == 1
        for m in ops.operators().values():
            assert np.array_equal(m, np.zeros((1, 1)))

    def test_fundamental_label_matrices(self):
        ops = build_gn_operators(GNLabel(F(1, 2), F(3, 2)))
        assert ops.dim == 2
        assert np.array_equal(ops.h3, np.diag([-0.5, 0.5]))
        assert np.allclose(ops.f3, np.diag([0.5j, -0.5j]))
        assert np.array_equal(ops.hplus, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_two_level_dimension(self):
        assert build_gn_operators(GNLabel(F(0), F(2))).dim == 4

    def test_roundtrip_reconstruction(self):
        ops = build_gn_operators(GNLabel(F(1), F(3)))
        ab = reconstruct_AB(ops)
        assert np.allclose(1j * ab.a1 - ab.a2, ops.hplus)
        assert np.allclose(1j * ab.a1 + ab.a2, ops.hminus)
        assert np.allclose(1j * ab.a3, ops.h3)
        assert np.allclose(1j * ab.b1 - ab.b2, ops.fplus)
        assert np.allclose(1j * ab.b1 + ab.b2, ops.fminus)
        assert np.allclose(1j * ab.b3, ops.f3)

    def test_zero_operators_reconstruct_to_zero(self):
        ops = build_gn_operators(GNLabel(F(0), F(1)))
        for m in reconstruct_AB(ops):
            assert np.array_equal(m, np.zeros((1, 1)))

    @pytest.mark.parametrize("lab", gn_labels(64), ids=str)
    def test_com1_relations(self, lab):
        ab = reconstruct_AB(build_gn_operators(lab))
        assert com1_residual(ab) <= GN_COM_TOL

    def test_com1_mutation_detected(self):
        ab = reconstruct_AB(build_gn_operators(GNLabel(F(1, 2), F(3, 2))))
        perturbed = ab._replace(a1=ab.a1 + 1e-3)
        assert com1_residual(perturbed) > 1e-4

    def test_com1_folds_one_deviation_at_a_time(self):
        """At the largest label the CLI builds, (0, 20), ``com1_residual``'s tracemalloc peak above its input
        is at most 6 dense dim x dim matrices: each of the 15 deviations is folded as it is made.  Held in one
        list, all 15 (38 MB at dim 400) peaked at 16 matrices."""
        ab = reconstruct_AB(build_gn_operators(GNLabel(F(0), F(20))))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert com1_residual(ab) <= GN_COM_TOL
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 6 * ab.a1.nbytes, peak / ab.a1.nbytes


def _gn_mutants() -> dict[str, tuple[str, object]]:
    """Mutants of the GN entry sources, each (name in ``lorentz``, replacement): one C_k link, the one of
    level k = 2 (2k = 4), scaled by 1 + 1e-6; spin 1's first ``_su2_band`` root doubled; spin 1's j3 entry
    m = -1 written as NaN.  On (1, 4) spin 1 is level k = 1, linked to k = 2."""
    honest_band, honest_c = lorentz._su2_band, lorentz._gn_c

    def spin_1(edit):
        def band(n):
            m, roots = honest_band(n)
            if n == 2:
                edit(m, roots)
            return m, roots

        return band

    return {
        "scaled C_k link": ("_gn_c", lambda a, b, n: honest_c(a, b, n) * (1 + 1e-6) if n == 4 else honest_c(a, b, n)),
        "doubled root": ("_su2_band", spin_1(lambda m, roots: roots.__setitem__(0, 2 * roots[0]))),
        "NaN entry": ("_su2_band", spin_1(lambda m, roots: m.__setitem__(0, math.nan))),
    }


class TestGNResiduals:
    """``gn_residuals``, the verdict ``rep --gn`` takes on its entry lists without numpy, against the dense
    ``com1_residual`` and ``com2_residual`` that ``verify``'s gn-com1 and gn-vdw keep."""

    def test_tracks_the_dense_residuals(self):
        """On every GN label of dim <= 64 (144) and on (0, 20), both residuals are within their tolerances and
        within 1e-13 of the dense ones: the sums run in another order (the largest gap measured is 2.8e-14,
        and the largest residual 1.1e-13)."""
        labels = all_gn_labels(64) + [GNLabel(0, 20)]
        assert len(labels) == 145
        for lab in labels:
            ops = build_gn_operators(lab)
            com1, com2 = lorentz.gn_residuals(lab, lorentz.gn_entries(lab))
            assert com1 <= GN_COM_TOL and com2 <= VDW_COM_TOL, lab
            assert abs(com1 - com1_residual(reconstruct_AB(ops))) <= 1e-13, lab
            assert abs(com2 - com2_residual(gn_to_vdw(ops))) <= 1e-13, lab

    def test_residual_bits_unchanged(self):
        h = hashlib.sha256()
        for lab in all_gn_labels(64) + [GNLabel(0, 20)]:
            h.update(f"{lorentz.gn_residuals(lab, lorentz.gn_entries(lab))!r}\n".encode())
        assert h.hexdigest() == GN_RESIDUAL_DIGEST

    def test_builds_no_dense_array(self):
        """The residuals read the entry lists only: they hold with the dense writer disabled."""
        with mock.patch.object(lorentz, "dense", mock.Mock(side_effect=AssertionError("a dense array was built"))):
            lab = GNLabel(F(3, 2), F(11, 2))
            com1, com2 = lorentz.gn_residuals(lab, lorentz.gn_entries(lab))
        assert com1 <= GN_COM_TOL and com2 <= VDW_COM_TOL

    @pytest.mark.parametrize("mutant", sorted(_gn_mutants()))
    def test_mutant_fails_both_judges_and_rep(self, mutant, tmp_path, capsys):
        """Each mutant fails the dense com1_residual, ``gn_residuals`` and ``rep --gn``: exit 1, pass false."""
        lab, (name, replacement) = GNLabel(1, 4), _gn_mutants()[mutant]
        with mock.patch.object(lorentz, name, replacement):
            dense = com1_residual(reconstruct_AB(build_gn_operators(lab)))
            sparse = lorentz.gn_residuals(lab, lorentz.gn_entries(lab))[0]
            code = main(["rep", "--gn", "1", "4", "--out", str(tmp_path / "gn.json")])
        assert not dense <= GN_COM_TOL and not sparse <= GN_COM_TOL, (dense, sparse)
        assert code == 1 and json.loads((tmp_path / "gn.json").read_text())["pass"] is False
        assert capsys.readouterr().err.endswith(" FAIL\n")

    def test_negated_a_k_passes_both_judges(self, capsys):
        """Known gap, not closed here: every A_k negated leaves all 15 relations, dense and sparse, and the
        converted ones within their tolerances, so ``rep --gn`` passes.  No check of the relations alone
        tells the sign of A_k (ROADMAP item 23)."""
        lab, honest = GNLabel(1, 4), lorentz._gn_a
        with mock.patch.object(lorentz, "_gn_a", lambda *twice: -honest(*twice)):
            ops = build_gn_operators(lab)
            dense = com1_residual(reconstruct_AB(ops)), com2_residual(gn_to_vdw(ops))
            sparse = lorentz.gn_residuals(lab, lorentz.gn_entries(lab))
            code = main(["rep", "--gn", "1", "4"])
        assert max(dense + sparse) < 1e-14 and code == 0 and capsys.readouterr().err.endswith(" PASS\n")


_HONEST_BAND = lorentz._su2_band


def _band_mutant(edit):
    """``_su2_band`` with edit(m, roots) applied in place to the band of every spin past 0."""
    def band(n):
        m, roots = _HONEST_BAND(n)
        if n:
            edit(m, roots)
        return m, roots
    return band


def _set_first(values, value):
    values[0] = value


#: bands that vdw-com2 must fail, each changed on every spin past 0 (spin 0 has no root),
#: and the failure each gives at spin 1/2
_NOT_ONE_ROOT = "j+ is not one positive root at each (i+1, i)"
BAND_MUTANTS = {
    "doubled-root": (_band_mutant(lambda m, roots: _set_first(roots, 2 * roots[0])), "root 0 of j+ is not within 1 ulp of sqrt(1)"),
    "root-moved-2-ulps": (
        _band_mutant(lambda m, roots: _set_first(roots, math.nextafter(math.nextafter(roots[0], math.inf), math.inf))),
        "root 0 of j+ is not within 1 ulp of sqrt(1)",
    ),
    "flipped-j3-entry": (_band_mutant(lambda m, roots: _set_first(m, -m[0])), "j3 is not [j+, j-]/2 = diag(-j .. j)"),
    "nan-root": (_band_mutant(lambda m, roots: _set_first(roots, math.nan)), _NOT_ONE_ROOT),
    "negative-root": (_band_mutant(lambda m, roots: _set_first(roots, -roots[0])), _NOT_ONE_ROOT),
    "infinite-root": (_band_mutant(lambda m, roots: _set_first(roots, math.inf)), _NOT_ONE_ROOT),
}


def _ladder_mutant(edit):
    """su2_ladder with edit(j3, j+, j-) applied in place to the triple of every spin past 0."""
    def ladder(j):
        t = su2_ladder(j)
        if j:
            edit(*t)
        return t
    return ladder


def _set_root(jp, jm, value):  # the first root, shared by j+ and j-
    jp[1, 0] = jm[0, 1] = value


def _move_entry(m, source, target):
    m[target], m[source] = m[source], 0


#: dense ladders that write the band where it does not belong, or in other bits: the band the su(2)
#: judge proves is unchanged, and the ladder digest is what fails each
LAYOUT_MUTANTS = {
    "imaginary-root-part": _ladder_mutant(lambda j3, jp, jm: _set_root(jp, jm, jp[1, 0] + 1j)),
    "j+-entry-one-place-off": _ladder_mutant(lambda j3, jp, jm: _move_entry(jp, (1, 0), (1, 1))),
    "imaginary-entry-off-j+": _ladder_mutant(lambda j3, jp, jm: jp.__setitem__((0, 1), 5e-324j)),
    "single-precision": lambda j: tuple(m.astype(np.complex64) if j else m for m in su2_ladder(j)),
    "j--root-1-ulp-apart": _ladder_mutant(lambda j3, jp, jm: jm.__setitem__((0, 1), np.nextafter(jm[0, 1].real, 0))),
}


def ladder_digest(ladder) -> str:
    """sha256 of the raw bytes of ladder(j)'s (j3, j+, j-) for 2j = 0..199, what SU2_LADDER_DIGEST pins."""
    h = hashlib.sha256()
    for n in range(200):
        for m in ladder(F(n, 2)):
            h.update(m.tobytes())
    return h.hexdigest()


def entries_of_spin_1(edit, index=0):
    """``_su2_band``, the source of every operator entry, with ``edit(m, root)`` applied to spin 1's
    entries at ``index``: m_index and root f_index, which past the band (index 2) is 0.0 and is dropped."""

    def band(n):
        m, roots = _HONEST_BAND(n)
        if n == 2:
            m[index], root = edit(m[index], roots[index] if index < n else 0.0)
            if index < n:
                roots[index] = root
        return m, roots

    return mock.patch.object(lorentz, "_su2_band", band)


def bracketing_ulps(f: float, x: int) -> int:
    """Fewest k such that f stepped k ulps down and k ulps up brackets sqrt(x), compared exactly."""
    k, low, high = 0, f, f
    while not F(low) ** 2 <= x <= F(high) ** 2:
        k, low, high = k + 1, math.nextafter(low, 0), math.nextafter(high, math.inf)
    return k


def kron_mismatch(dim_max: int):
    """The first label of dim <= dim_max whose six built operators are not np.kron(x, I) + 0.0 and
    np.kron(I, y) + 0.0 of its spins' ladders, in shape, dtype and bytes, every zero +0.0; else None."""
    for l, ld in vdw_labels(dim_max):
        xs, ys = su2_ladder(l), su2_ladder(ld)
        left, right = np.eye(len(xs[0]), dtype=complex), np.eye(len(ys[0]), dtype=complex)
        want = [np.kron(x, right) + 0.0 for x in xs] + [np.kron(left, y) + 0.0 for y in ys]
        got = lorentz.build_vdw_operators(l, ld).operators().values()
        if any((g.shape, g.dtype, g.tobytes()) != (w.shape, w.dtype, w.tobytes()) for g, w in zip(got, want)):
            return l, ld
    return None


class TestVdWOperators:
    def test_fundamental_ladder(self):
        ops = build_vdw_operators(F(1, 2), F(0))
        assert np.array_equal(ops.xplus, np.array([[0, 0], [1, 0]], dtype=complex))
        assert np.array_equal(ops.x3, np.diag([-0.5, 0.5]).astype(complex))

    def test_trivial(self):
        ops = build_vdw_operators(F(0), F(0))
        assert ops.dim == 1
        for m in ops.operators().values():
            assert np.array_equal(m, np.zeros((1, 1)))

    def test_bispinor_dimension(self):
        assert build_vdw_operators(F(1, 2), F(1, 2)).dim == 4

    def test_su2_casimir(self):
        j3, jp, jm = su2_ladder(F(3, 2))
        casimir = jp @ jm + j3 @ j3 - j3
        assert np.allclose(casimir, float(F(3, 2) * F(5, 2)) * np.eye(4))

    def test_su2_ladder_entries(self):
        for two_j in range(8):
            j = F(two_j, 2)
            ref = [np.zeros((two_j + 1, two_j + 1), dtype=complex) for _ in range(3)]
            for col in range(two_j + 1):
                m = -j + col
                ref[0][col, col] = float(m)
                if col < two_j:
                    ref[1][col + 1, col] = math.sqrt((j - m) * (j + m + 1))
                if col > 0:
                    ref[2][col - 1, col] = math.sqrt((j + m) * (j - m + 1))
            for got, want in zip(su2_ladder(j), ref):
                assert got.tobytes() == want.tobytes()

    def test_ladder_bits_unchanged(self):
        for n in range(200):
            assert all(m.shape == (n + 1, n + 1) and m.dtype == complex for m in su2_ladder(F(n, 2)))
        assert ladder_digest(su2_ladder) == SU2_LADDER_DIGEST

    @pytest.mark.parametrize("mutant", LAYOUT_MUTANTS)
    def test_layout_mutant_fails_the_ladder_digest(self, mutant):
        """Each layout mutant leaves the band that vdw-com2 proves as it is, and changes su2_ladder's
        bytes, so the digest that pins where ``build_vdw_operators`` copies the band from fails."""
        assert ladder_digest(LAYOUT_MUTANTS[mutant]) != SU2_LADDER_DIGEST

    def test_ladders_are_fresh_writable_arrays(self):
        """Every call writes three new arrays that share no memory with each other or with an
        earlier call's; an edit to one reaches no later call."""
        first, second = su2_ladder(F(5, 2)), su2_ladder(F(5, 2))
        assert all(m.flags.writeable for m in first + second)
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        assert not any(np.shares_memory(first[i], first[k]) for i in range(3) for k in range(i))
        first[0][...] = 7
        first[1][1, 0] *= 2
        first[2][0, 1] = np.nan
        assert all(np.array_equal(a, b) for a, b in zip(su2_ladder(F(5, 2)), second))

    def test_cartesian_inverts_ladder(self):
        j3, jp, jm = su2_ladder(F(3, 2))
        j1, j2, same = cartesian(j3, jp, jm)
        assert same is j3
        assert np.allclose(j1 + 1j * j2, jp) and np.allclose(j1 - 1j * j2, jm)

    @pytest.mark.parametrize("l,ld", vdw_labels(64), ids=str)
    def test_com2_relations(self, l, ld):
        assert com2_residual(build_vdw_operators(l, ld)) <= VDW_COM_TOL

    def test_com2_mutation_detected(self):
        ops = build_vdw_operators(F(1, 2), F(1, 2))
        swapped = replace(ops, y3=ops.x3.copy())
        assert com2_residual(swapped) > VDW_COM_TOL

    def test_com2_nan_is_reported(self):
        ops = build_vdw_operators(1, 0)
        ops.yminus[...] = np.nan  # its deviations come after the finite X ones
        assert np.isnan(com2_residual(ops))

    def test_com2_residual_folds_the_15_deviations(self):
        # the 15 deviations folded inline by Python's max, against com2_residual's one _worst fold
        rng = np.random.default_rng(5)
        for l, ld in [(F(1, 2), F(1, 2)), (1, F(3, 2)), (F(5, 2), 0)]:
            ops = build_vdw_operators(l, ld)
            ops = replace(ops, **{f: m + 1e-6 * rng.normal(size=m.shape) for f, m in vars(ops).items() if f[0] in "xy"})
            xs = cartesian(ops.x3, ops.xplus, ops.xminus)
            ys = cartesian(ops.y3, ops.yplus, ops.yminus)
            deviations = [lorentz._comm(t[i], t[j]) - 1j * t[k] for t in (xs, ys) for i, j, k in lorentz._CYCLIC]
            deviations += [lorentz._comm(xi, yi) for xi in xs for yi in ys]
            assert com2_residual(ops) == max(np.abs(d).max() for d in deviations) > 0

    def test_nan_anywhere_fails_the_check(self):
        """A NaN at any entry of spin 1's band, on j3's diagonal or a root, fails the exact proof and the
        check at spin 1, as it makes the dense com2_residual NaN."""
        for index in range(3):  # spin 1's top root, at index 2, is the 0 past the band
            for edit in [lambda m, f: (math.nan, f)] + ([lambda m, f: (m, math.nan)] if index < 2 else []):
                with entries_of_spin_1(edit, index):
                    r = checks.check_vdw_com2(0, 64)
                    assert np.isnan(com2_residual(build_vdw_operators(1, 0)))
                assert not r.passed and r.detail.startswith("spin 1: "), (index, r.detail)

    @pytest.mark.parametrize("dim_max", [1, 16, 36])
    def test_check_matches_the_dense_residuals(self, dim_max):
        """The exact per-spin proof gives the verdict of dense com2_residual over every label, on the
        shipped band and on one with every root doubled, which both read from ``_su2_band``; ``covered``
        counts the labels, the detail the spins."""
        def doubled(n):
            m, roots = _HONEST_BAND(n)
            return m, [2 * f for f in roots]

        labels = vdw_labels(dim_max)
        for band in (_HONEST_BAND, doubled):
            with mock.patch.object(lorentz, "_su2_band", band):
                worst = max(com2_residual(build_vdw_operators(l, ld)) for l, ld in labels)
                r = checks.check_vdw_com2(0, dim_max)
            assert (r.passed, r.covered) == (worst <= VDW_COM_TOL, len(labels))
        assert checks.check_vdw_com2(0, dim_max).detail == f"dim <= {dim_max}, {len({l for l, _ in labels})} spins, exact"

    @pytest.mark.parametrize("mutant", BAND_MUTANTS)
    def test_mutant_fails_the_check(self, mutant, capsys):
        """Each band mutant fails vdw-com2 at spin 1/2, the first with a root, and ``verify`` exits 1."""
        band, detail = BAND_MUTANTS[mutant]
        honest = checks.check_vdw_com2(0, 16)
        with mock.patch.object(lorentz, "_su2_band", band):
            r = checks.check_vdw_com2(0, 16)
            code, out = main(["verify", "--nmax", "0", "--dim-max", "16"]), capsys.readouterr().out
        assert (r.passed, r.detail, r.covered) == (False, f"spin 1/2: {detail}", honest.covered)
        assert code == 1 and f"FAIL  paired su(2) commutators  [{r.detail}]" in out.splitlines()
        assert checks.check_vdw_com2(0, 16) == honest  # and the honest code passes again

    def test_next_spins_ladder_fails_the_check(self, capsys):
        """The next spin's band fails vdw-com2 on its length, and the GN builders, which place the same
        band, write past their levels, so both GN checks report the raise; ``verify`` exits 1, not 2."""
        with mock.patch.object(lorentz, "_su2_band", lambda n: _HONEST_BAND(n + 1 if n else n)):
            r = checks.check_vdw_com2(0, 16)
            code, out = main(["verify", "--nmax", "0", "--dim-max", "16"]), capsys.readouterr().out
        assert (r.passed, r.detail) == (False, "spin 1/2: band lengths (j3, j+) are not (2, 1)")
        lines, total = out.splitlines(), len(checks.ALL_CHECKS)
        failed = [line for line in lines if line.startswith("FAIL")]
        assert code == 1 and len(lines) == total + 1 and lines[-1] == f"{total - 3}/{total} checks passed"
        assert [line.split("  [")[0] for line in failed] == ["FAIL  gn-com1", "FAIL  paired su(2) commutators", "FAIL  gn-vdw"]
        assert f"FAIL  paired su(2) commutators  [{r.detail}]" in failed
        assert all(line.split("  [")[1].startswith("raised IndexError: ") for line in (failed[0], failed[2]))

    def test_next_spins_entries_fail_every_ladder_check(self, capsys):
        """The next spin's entries cut to this spin's band lengths, in ``_su2_band``, which su2_ladder and both
        entry builders read, fail vdw-com2 and both GN checks, and ``verify`` reports each FAIL, runs the rest and exits 1."""
        with mock.patch.object(lorentz, "_su2_band", lambda n: tuple(part[:-1] for part in _HONEST_BAND(n + 1))):
            r = checks.check_vdw_com2(0, 16)
            code, out = main(["verify", "--nmax", "0", "--dim-max", "16"]), capsys.readouterr().out
        assert (r.passed, r.detail) == (False, "spin 0: j3 is not [j+, j-]/2 = diag(-j .. j)")
        lines, total = out.splitlines(), len(checks.ALL_CHECKS)
        failed = [line.split("  [")[0] for line in lines if line.startswith("FAIL")]
        assert code == 1 and len(lines) == total + 1 and lines[-1] == f"{total - 3}/{total} checks passed"
        assert failed == ["FAIL  rotation/boost commutators", "FAIL  paired su(2) commutators", "FAIL  basis conversion"]
        assert f"FAIL  paired su(2) commutators  [{r.detail}]" in lines and "FAIL  basis conversion  [(0, 1) su(2) relations]" in lines

    def test_verdict_is_not_cached(self):
        """A mutant of the largest spin alone, patched in after a passing call at the same budget,
        fails the next call, and removing it passes again: every call proves every spin."""

        def band(n):
            m, roots = _HONEST_BAND(n)
            if n == 63:
                roots[-1] = math.nextafter(roots[-1], math.inf)
            return m, roots

        first = checks.check_vdw_com2(0, 64)
        assert first.passed
        with mock.patch.object(lorentz, "_su2_band", band):
            r = checks.check_vdw_com2(0, 64)
        assert not r.passed and r.detail.startswith("spin 63/2: root 62 of j+")
        assert checks.check_vdw_com2(0, 64) == first

    def test_one_band_edit_moves_every_writer(self):
        """Spin 1/2's root sqrt(1) in ``_su2_band`` moved up 1 ulp stays within the bracket, so vdw-com2
        still passes, and that one edit changes su2_ladder's, build_vdw_operators' and build_gn_operators'
        bytes and the rows ``rep --vdw`` prints together: every shipped entry comes from the one band."""

        def band(n):
            m, roots = _HONEST_BAND(n)
            if n == 1:
                roots[0] = math.nextafter(roots[0], math.inf)
            return m, roots

        def parts():
            return {name: cell_texts(4, op, ",") for name, op in lorentz.vdw_entries(F(1, 2), F(1, 2)).items()}

        honest = parts()
        with mock.patch.object(lorentz, "_su2_band", band):
            assert checks.check_vdw_com2(0, 64).passed
            assert ladder_digest(su2_ladder) != SU2_LADDER_DIGEST
            assert _digest(build_vdw_operators(l, ld) for l, ld in vdw_labels(64)) != VDW_OPERATOR_DIGEST
            assert _digest(build_gn_operators(lab) for lab in gn_labels(64)) != GN_OPERATOR_DIGEST
            moved = parts()
        assert [name for name in honest if moved[name] != honest[name]] == ["X+", "X-", "Y+", "Y-"]

    def test_dim_400_passes_exactly(self):
        """All 400 spins are proved on their bands: no dense ladder is built or read."""
        with mock.patch.object(lorentz, "su2_ladder", mock.Mock(side_effect=AssertionError("a dense ladder was built"))):
            r = checks.check_vdw_com2(0, 400)
        assert (r.passed, r.detail, r.covered) == (True, "dim <= 400, 400 spins, exact", 2468)

    def test_judge_passes_every_band_and_fails_each_edit(self):
        """The one su(2) judge passes the shipped band of every 2j < 400.  On a sample of spins and
        indices, one root moved 2 ulps either way fails and names that root, one m_i written as
        m_i + 1/2 fails on j3, and spin j + 1/2's band handed over as spin j fails on its length."""
        bands = [lorentz._su2_band(n) for n in range(401)]
        assert all(lorentz._band_failure(F(n, 2), *bands[n]) is None for n in range(400))
        for n in [*range(1, 400, 57), 399]:
            j, (m, roots) = F(n, 2), bands[n]
            for i in sorted({0, n // 2, n - 1}):
                square = (n - i) * (i + 1)
                for way in (0, math.inf):
                    moved = roots[:i] + [math.nextafter(math.nextafter(roots[i], way), way)] + roots[i + 1 :]
                    assert lorentz._band_failure(j, m, moved) == f"spin {j}: root {i} of j+ is not within 1 ulp of sqrt({square})"
            for i in sorted({0, n // 2, n}):
                edited = m[:i] + [m[i] + 0.5] + m[i + 1 :]
                assert lorentz._band_failure(j, edited, roots) == f"spin {j}: j3 is not [j+, j-]/2 = diag(-j .. j)"
            assert lorentz._band_failure(j, *bands[n + 1]) == f"spin {j}: band lengths (j3, j+) are not ({n + 1}, {n})"

    def test_root_ulps_bound_is_the_measured_maximum(self):
        """Over every root of 2j < 400 the fewest ulps that bracket sqrt(x) peak at SU2_ROOT_ULPS;
        perfect squares have exact roots, and a bound of 0 ulps fails the proof."""
        roots = {}
        for n in range(400):
            i = np.arange(n)
            roots.update(zip(((n - i) * (i + 1)).tolist(), np.diagonal(su2_ladder(F(n, 2))[1], -1).real.tolist()))
        ulps = {x: bracketing_ulps(f, x) for x, f in roots.items()}
        assert len(ulps) == 17010 and max(ulps.values()) == lorentz.SU2_ROOT_ULPS == 1
        assert all(ulps[x] == 0 for x in ulps if math.isqrt(x) ** 2 == x)
        with mock.patch.object(lorentz, "SU2_ROOT_ULPS", 0):
            assert lorentz.su2_ladder_failure(F(1, 2)) is None  # sqrt(1) = 1.0
            assert lorentz.su2_ladder_failure(1) == "spin 1: root 0 of j+ is not within 0 ulp of sqrt(2)"

    def test_proof_residual_tracks_the_dense_residual(self):
        """``vdw_proof``'s residual, taken on the two spins' bands, is the dense ``com2_residual`` within
        2e-13 on every label of dim <= 64 (1.0e-13 is the largest gap at dim <= 100, and 1.6e-12 at
        dim <= 400, where both stay below 7.3e-12), and every root is bracketed."""
        for l, ld in vdw_labels(64):
            failure, residual = lorentz.vdw_proof(l, ld)
            assert failure is None and abs(residual - com2_residual(build_vdw_operators(l, ld))) <= 2e-13, (l, ld)

    def test_proof_shares_the_root_bracket(self):
        """sqrt(2) moved up 2 ulps fails ``vdw_proof`` and ``su2_ladder_failure`` with one text, from the
        one integer bracket both run, while the residual stays far below any tolerance."""
        with entries_of_spin_1(lambda m, f: (m, math.nextafter(math.nextafter(f, math.inf), math.inf))):
            failure, residual = lorentz.vdw_proof(1, F(1, 2))
            assert failure == lorentz.su2_ladder_failure(1) == "spin 1: root 0 of j+ is not within 1 ulp of sqrt(2)"
            assert residual < 1e-15 and lorentz.vdw_proof(F(1, 2), F(1, 2)) == (None, 0.0)

    def test_proof_fails_a_diagonal_entry_exactly(self):
        """m = -1 of spin 1 written as -1/2: every root is bracketed, and ``vdw_proof`` fails j3 with the
        text of ``su2_ladder_failure``, the one judge both run; the residual shows the broken relations."""
        with entries_of_spin_1(lambda m, f: (m / 2, f)):
            failure, residual = lorentz.vdw_proof(F(1, 2), 1)
            assert failure == lorentz.su2_ladder_failure(1) == "spin 1: j3 is not [j+, j-]/2 = diag(-j .. j)"
            assert residual > 0.49

    def test_operators_are_np_kron_bit_for_bit(self):
        """The assembly behind the mixed-product rule: on every label of dim <= 160 the six placed
        operators are np.kron(x, I) and np.kron(I, y) of the spins' ladders, byte for byte once
        numpy's -0.0 products are written +0.0."""
        assert kron_mismatch(160) is None

    @pytest.mark.parametrize(
        "mutant,label",
        [
            ("identity-first", (F(1, 2), F(1, 2))),
            ("kron-axes-swapped", (F(1, 2), F(1, 2))),
            ("off-diagonal-entry", (F(0), F(1, 2))),
            ("off-diagonal-nan", (F(1, 2), F(0))),
            ("transposed-block", (F(1, 2), F(1, 2))),
            ("imaginary-nan-off-block", (F(1, 2), F(0))),
            ("imaginary-diagonal-entry", (F(1, 2), F(0))),
            ("signed-zero-flip", (F(0), F(0))),
        ],
    )
    def test_assembly_mutant_breaks_the_kron_bytes(self, mutant, label):
        honest_build = lorentz.build_vdw_operators

        def placed(triple, copies, inner):  # copies of a spin's triple, its entries on the inner or the outer index
            d, k = len(triple[0]), np.arange(copies)
            if inner:  # entry (a, b) at (k d + a, k d + b) for every copy k
                ops = np.zeros((3, copies, d, copies, d), dtype=complex)
                ops[:, k, :, k, :] = triple
            else:  # entry (a, b) at (a copies + k, b copies + k) for every copy k
                ops = np.zeros((3, d, copies, d, copies), dtype=complex)
                ops[:, :, k, :, k] = triple
            return [*ops.reshape(3, d * copies, d * copies)]

        def placement(x_inner, y_inner):  # the builder places x on the outer index and y on the inner one
            def build(l, ldot):
                xs, ys = su2_ladder(l), su2_ladder(ldot)
                ops = placed(xs, len(ys[0]), x_inner) + placed(ys, len(xs[0]), y_inner)
                return lorentz.VdWOperators(l, ldot, *ops, "")
            return build

        def edited(edit):  # the honest operators, changed in place by edit(ops, m, n) on an m x n label
            def build(l, ldot):
                ops = honest_build(l, ldot)
                edit(ops, int(2 * F(l)) + 1, int(2 * F(ldot)) + 1)
                return ops
            return build

        def off_diagonal_entry(ops, m, n):  # X3[(0, 0), (0, 1)]: block (r, s) = (0, 1) of x (x) I
            if n > 1:
                ops.x3[0, 1] = 1

        def off_diagonal_nan(ops, m, n):  # Y3[(0, 0), (1, 0)]: block (a, b) = (0, 1) of I (x) y
            if m > 1:
                ops.y3[0, n] = np.nan

        def transposed_block(ops, m, n):  # X+'s r = 0 diagonal block is x+ transposed: same nonzero count
            if m == n > 1:
                block = ops.xplus.reshape(m, n, m, n)[:, 0, :, 0]
                block[...] = block.T.copy()

        def imaginary_nan_off_block(ops, m, n):  # Y+[(0, 0), (1, 0)]: block (a, b) = (0, 1) of I (x) y, real part 0
            if m > 1:
                ops.yplus[0, n] = complex(0.0, np.nan)

        def imaginary_diagonal_entry(ops, m, n):  # X-[(0, 0), (1, 0)] = x-[0, 1] + i: block r = 0 of x (x) I
            if m > 1:
                ops.xminus[0, n] += 1j

        def signed_zero_flip(ops, m, n):  # every zero part of X+ and Y3 to -0.0: np.array_equal still holds
            for op in (ops.xplus, ops.y3):
                parts = op.view(np.float64)
                parts[parts == 0] = -0.0

        patch = {
            "identity-first": ("build_vdw_operators", placement(x_inner=True, y_inner=True)),  # x on the inner index
            "kron-axes-swapped": ("build_vdw_operators", placement(x_inner=True, y_inner=False)),  # the two axes swapped
            "off-diagonal-entry": ("build_vdw_operators", edited(off_diagonal_entry)),
            "off-diagonal-nan": ("build_vdw_operators", edited(off_diagonal_nan)),
            "transposed-block": ("build_vdw_operators", edited(transposed_block)),
            "imaginary-nan-off-block": ("build_vdw_operators", edited(imaginary_nan_off_block)),
            "imaginary-diagonal-entry": ("build_vdw_operators", edited(imaginary_diagonal_entry)),
            "signed-zero-flip": ("build_vdw_operators", edited(signed_zero_flip)),
        }[mutant]
        with mock.patch.object(lorentz, *patch):
            assert kron_mismatch(16) == label
        assert kron_mismatch(16) is None

    def test_labels_match_the_fraction_loop(self):
        def fraction_loop(dim_max):  # vdw_labels before it read the labels off integers
            out = []
            l = F(0)
            while (2 * l + 1) <= dim_max:
                ld = F(0)
                while (2 * l + 1) * (2 * ld + 1) <= dim_max:
                    out.append((l, ld))
                    ld += F(1, 2)
                l += F(1, 2)
            return out

        # the loop is l-major and both bounds are monotone in d, so the loop at
        # d is the loop at 400 filtered by (2l+1)(2ldot+1) <= d
        reference = [(int((2 * l + 1) * (2 * ld + 1)), (l, ld)) for l, ld in fraction_loop(400)]
        for d in range(-1, 401):
            assert vdw_labels(d) == [label for dim, label in reference if dim <= d], d


class TestConversion:
    def test_fundamental_case(self):
        v = gn_to_vdw(build_gn_operators(GNLabel(F(1, 2), F(3, 2))))
        assert v.l == F(1, 2) and v.ldot == F(0)
        assert np.allclose(v.x3, np.diag([-0.5, 0.5]))
        for m in (v.y3, v.yplus, v.yminus):
            assert np.allclose(m, 0)

    def test_one_dimensional_case(self):
        v = gn_to_vdw(build_gn_operators(GNLabel(F(0), F(1))))
        assert v.l == F(0) and v.ldot == F(0)
        assert np.array_equal(v.x3, np.zeros((1, 1)))

    def test_weight_formula(self):
        assert gn_to_vdw(build_gn_operators(GNLabel(F(1, 2), F(3, 2)))).l == F(1, 2)
        assert gn_to_vdw(build_gn_operators(GNLabel(F(1), F(3)))).l == F(3, 2)

    @pytest.mark.parametrize("prop", GN_VDW_PROPERTIES)
    @pytest.mark.parametrize("lab", gn_labels(64), ids=str)
    def test_gn_vdw_property(self, lab, prop):
        assert GN_VDW_PROPERTIES[prop](gn_vdw_case(lab))

    @pytest.mark.parametrize("lab", gn_labels(64), ids=str)
    def test_gn_to_vdw_matches_the_reference_formula(self, lab):
        """The converted spins are l = (l0 + l1 - 1)/2 and ldot = (l1 - l0 - 1)/2, and the converted
        triples, in cartesian form, are X = i(A + iB)/2 and Y = i(A - iB)/2 of the GN operators' A, B."""
        ops = build_gn_operators(lab)
        v, ab = gn_to_vdw(ops), reconstruct_AB(ops)
        assert (v.l, v.ldot) == ((lab.l0 + lab.l1 - 1) / 2, (lab.l1 - lab.l0 - 1) / 2)
        got = cartesian(v.x3, v.xplus, v.xminus) + cartesian(v.y3, v.yplus, v.yminus)
        ref = [0.5j * (a + 1j * b) for a, b in zip(ab[:3], ab[3:])] + [0.5j * (a - 1j * b) for a, b in zip(ab[:3], ab[3:])]
        assert lorentz._worst(g - r for g, r in zip(got, ref)) <= 1e-12

    @pytest.mark.parametrize(
        "prop,mutate",
        [
            ("su(2) relations", lambda v: replace(v, x3=2 * v.x3)),
            ("X3 spectrum", lambda v: replace(v, l=v.l + 1)),
            ("X3 spectrum", lambda v: replace(v, x3=v.y3)),
            ("su(2) relations", lambda v: replace(v, xplus=v.xplus + 1e-9)),
            ("su(2) relations", lambda v: replace(v, yminus=np.full_like(v.yminus, np.nan))),
        ],
    )
    def test_gn_vdw_property_mutation_detected(self, prop, mutate):
        v = gn_vdw_case(GNLabel(F(1), F(3)))
        assert GN_VDW_PROPERTIES[prop](v)
        assert not GN_VDW_PROPERTIES[prop](mutate(v))

    def test_non_hermitian_x3_fails_the_spectrum(self):
        """Two non-Hermitian X3 mutants, 0.25i on every diagonal entry and 0.5 at the top-right corner,
        keep the sorted real parts of their eigenvalues within SPECTRUM_TOL of m = -l .. l; the
        Hermitian test turns both down."""
        v = gn_vdw_case(GNLabel(F(1), F(4)))
        n = len(v.x3)
        expected = np.repeat(np.arange(int(2 * v.l) + 1) - float(v.l), int(2 * v.ldot) + 1)
        for x3 in (v.x3 + 0.25j * np.eye(n), v.x3 + np.eye(n, k=n - 1) / 2):
            assert np.abs(np.sort(np.linalg.eigvals(x3).real) - expected).max() <= lorentz.SPECTRUM_TOL
            assert GN_VDW_PROPERTIES["X3 spectrum"](replace(v, x3=x3)) is False

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x3_entry_fails_the_spectrum(self, bad):
        """A NaN or inf in X3 makes the property False before ``np.linalg.eigvalsh`` runs."""
        v = gn_vdw_case(GNLabel(F(1), F(3)))
        x3 = v.x3.copy()
        x3[0, 0] = bad
        with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh ran")):
            assert GN_VDW_PROPERTIES["X3 spectrum"](replace(v, x3=x3)) is False

    @pytest.mark.parametrize("where", [0, -1])
    def test_nan_eigenvalue_fails_the_check(self, where):
        """A NaN among X3's eigenvalues, first or last, fails gn-vdw at the first label of dim > 1:
        the fold keeps it, where Python's max could drop it."""
        honest = np.linalg.eigvalsh

        def eigvalsh(a):
            w = honest(a)
            if len(w) > 1:
                w[where] = np.nan
            return w

        with mock.patch.object(np.linalg, "eigvalsh", eigvalsh):
            r = checks.check_gn_vdw(0, 64)
        assert (r.passed, r.detail) == (False, "(0, 2) X3 spectrum")
        assert checks.check_gn_vdw(0, 64).passed

    def test_doubled_root_fails_the_check(self):
        # build_gn_operators places each level's band from _su2_band; the failing label is named by (l0, l1)
        with mock.patch.object(lorentz, "_su2_band", BAND_MUTANTS["doubled-root"][0]):
            r = checks.check_gn_vdw(0, 64)
        assert (r.passed, r.detail, r.covered) == (False, "(0, 2) su(2) relations", 28)
        assert checks.check_gn_vdw(0, 64).passed

    def test_dimension_identity(self):
        for lab in gn_labels(64):
            v = gn_to_vdw(build_gn_operators(lab))
            assert lab.dim == (2 * v.l + 1) * (2 * v.ldot + 1)


GN_CHECKS = {"gn-com1": "rotation/boost commutators", "gn-vdw": "basis conversion"}


class TestSharedGNBuild:
    """``run_all`` builds each GN label once and hands the operators to both GN checks; a GN check
    called on its own builds its own, and nothing is kept from one call to the next."""

    def test_run_all_builds_each_label_once(self):
        with mock.patch.object(lorentz, "build_gn_operators", wraps=build_gn_operators) as build:
            results = checks.run_all(8, 64)
        assert all(r.passed for r in results)
        assert [c.args for c in build.call_args_list] == [(lab,) for lab in gn_labels(64)] and build.call_count == 28

    @pytest.mark.parametrize("check", [checks.check_gn_com1, checks.check_gn_vdw])
    def test_check_alone_builds_every_label(self, check):
        with mock.patch.object(lorentz, "build_gn_operators", wraps=build_gn_operators) as build:
            r = check(8, 64)
        assert (r.passed, r.covered) == (True, 28)
        assert [c.args for c in build.call_args_list] == [(lab,) for lab in gn_labels(64)]

    def test_registry_wrappers_forward_the_operators(self, monkeypatch):
        """A registry entry replaced by a wrapper that forwards keyword arguments still gets the
        shared operators: the sharing goes by registry name, not by the function's identity."""
        def forwarding(fn):
            return lambda *args, **kwargs: fn(*args, **kwargs)

        monkeypatch.setattr(checks, "ALL_CHECKS", [(name, forwarding(fn)) for name, fn in checks.ALL_CHECKS])
        with mock.patch.object(lorentz, "build_gn_operators", wraps=build_gn_operators) as build:
            assert all(r.passed for r in checks.run_all(0, 64))
        assert build.call_count == 28

    def test_verdict_is_not_cached(self):
        """A GN mutant, F3 doubled on the largest label, patched in after a passing run_all fails both
        GN checks of the next run_all, and removing it passes again."""
        def doubled_f3(lab):
            ops = build_gn_operators(lab)
            return replace(ops, f3=2 * ops.f3) if lab == GNLabel(3, 7) else ops

        first = checks.run_all(0, 64)
        assert all(r.passed for r in first)
        with mock.patch.object(lorentz, "build_gn_operators", doubled_f3):
            results = {r.name: r for r in checks.run_all(0, 64)}
        failed = [name for name, r in results.items() if not r.passed]
        assert failed == list(GN_CHECKS.values())
        assert results["basis conversion"].detail == "(3, 7) su(2) relations"
        assert checks.run_all(0, 64) == first

    def test_build_that_raises_fails_each_gn_check(self, capsys):
        def broken(lab):
            if lab == GNLabel(1, 3):
                raise ValueError("no operators")
            return build_gn_operators(lab)

        with mock.patch.object(lorentz, "build_gn_operators", broken):
            results = checks.run_all(0, 64)
            code, out = main(["verify", "--nmax", "0", "--dim-max", "64"]), capsys.readouterr().out
        failed = [(r.name, r.detail) for r in results if not r.passed]
        assert failed == [(name, "raised ValueError: no operators") for name in GN_CHECKS]
        assert code == 1 and [line for line in out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL  {name}  [raised ValueError: no operators]" for name in GN_CHECKS
        ]


class TestWorst:
    """``_worst``, the one max-deviation fold of every float verdict."""

    def test_empty_sweep_folds_to_zero(self):
        assert lorentz._worst([]) == 0.0 and type(lorentz._worst([])) is float
        assert checks._worst_residual("r", [], VDW_COM_TOL, 0, 0).passed

    @pytest.mark.parametrize(
        "deviations", [[np.nan, 2.0], [2.0, np.nan], [np.zeros(2), np.array([1.0, np.nan]), np.ones(3)]], ids=str
    )
    def test_nan_anywhere_stays_nan(self, deviations):
        assert np.isnan(lorentz._worst(deviations))

    @pytest.mark.parametrize("residuals", [[np.nan, 1e-13], [1e-13, np.nan]], ids=str)
    def test_nan_residual_fails(self, residuals):
        r = checks._worst_residual("r", residuals, GN_COM_TOL, 1, 2)
        assert (r.passed, r.detail) == (False, "dim <= 1, residual nan")

    def test_largest_magnitude_of_arrays_and_numbers(self):
        assert lorentz._worst(iter([np.array([[-3.0, 1j]]), 2.0, np.array([2 + 2j])])) == 3.0


def random_operator(rng: random.Random, dim: int):
    """An entry list pair on dim x dim with repeated positions and, for some seeds, an empty part; entries are
    multiples of 1/4 of size at most 4, so every sum and product below is exact in either matrix kind."""
    return tuple(
        [(rng.randrange(dim), rng.randrange(dim), rng.randint(-16, 16) / 4) for _ in range(rng.randrange(9))]
        for _ in range(2)
    )


def sparse_array(s) -> np.ndarray:
    """A ``_Sparse`` as a dense array: its entries, every other entry 0."""
    out = np.zeros(s.shape, dtype=complex)
    for r, row in s.rows.items():
        for c, v in row.items():
            out[r, c] = v
    return out


class TestSparse:
    """``lorentz._Sparse``, the pure-Python matrix the relation code runs on for ``rep``, against numpy on the
    arrays ``dense`` writes from the same entry lists."""

    @pytest.mark.parametrize("seed", range(40))
    def test_operations_match_numpy(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 5)
        ops = [random_operator(rng, dim) for _ in range(2)]
        (x, y), (u, v) = (lorentz._Sparse.of(op, dim) for op in ops), dense(dim, ops)
        assert np.array_equal(sparse_array(x), u) and x.shape == (dim, dim)
        for got, want in [
            (x + y, u + v), (x - y, u - v), (x @ y, u @ v), (-1j * x, -1j * u), (x / 2, u / 2), (x / 2j, u / 2j),
        ]:
            assert got.shape == (dim, dim) and np.array_equal(sparse_array(got), want)
        # CPython's complex abs and numpy's absolute may round one |z| a last bit apart
        assert lorentz._worst([x - y]) == pytest.approx(np.abs(u - v).max(), rel=2**-52, abs=0)
        assert lorentz._comm(x, y).shape == (dim, dim)

    @pytest.mark.parametrize("seed", range(20))
    def test_nan_anywhere_gives_nan(self, seed):
        """A NaN written last, in either part at any position, makes the fold NaN, as numpy's max does."""
        rng = random.Random(seed)
        dim = rng.randint(1, 5)
        op = random_operator(rng, dim)
        op[rng.randrange(2)].append((rng.randrange(dim), rng.randrange(dim), math.nan))
        assert math.isnan(lorentz._worst([lorentz._Sparse.of(op, dim)])) and np.isnan(np.abs(dense(dim, [op])[0]).max())

    def test_empty_matrix_folds_to_zero(self):
        assert lorentz._worst([lorentz._Sparse.of(([], []), 3)]) == 0.0

    @pytest.mark.parametrize(
        "operator,position",
        [
            (([(0, 0, 1.0), (-1, -1, 1.0)], []), "(-1, -1)"),  # numpy would read it as the last row
            (([(0, 0, 1.0)], [(1, 2, 1.0), (3, 0, 1.0)]), "(1, 2)"),  # the first of two, in the imaginary part
            (([(2, 0, 1.0)], []), "(2, 0)"),
        ],
    )
    def test_position_outside_the_matrix_is_refused(self, operator, position):
        """An entry outside 0..dim-1 is one ``ValueError`` naming the first such position, not a row of its own."""
        with pytest.raises(ValueError) as exc:
            lorentz._Sparse.of(operator, 2)
        assert str(exc.value) == f"entry position {position} outside 0..1"

    def test_entries_of_another_label_are_refused(self):
        """(0, 2)'s dim-4 entry lists under the dim-1 label (0, 1) are refused; they once gave a passing-looking
        (2.2e-16, 1.1e-16)."""
        with pytest.raises(ValueError, match=r"^entry position \(\d+, \d+\) outside 0\.\.0$"):
            lorentz.gn_residuals(GNLabel(0, 1), lorentz.gn_entries(GNLabel(0, 2)))


class TestSpintensor:
    def test_identity_transform(self):
        t = Spintensor(1, 1, np.array([1, 2j, -3, 0.5]))
        out = spintensor_transform(np.eye(2), t)
        assert np.array_equal(out.flat, t.flat)

    def test_diagonal_action_on_undotted(self):
        t = Spintensor(1, 0, np.array([1.0, 1.0]))
        g = np.diag([2.0, 0.5])
        out = spintensor_transform(g, t)
        assert np.allclose(out.flat, [2.0, 0.5])

    def test_dotted_slot_uses_conjugate(self):
        t = Spintensor(0, 1, np.array([1.0, 0.0]))
        g = np.diag([1j, 1.0])
        out = spintensor_transform(g, t)
        assert np.allclose(out.flat, [-1j, 0.0])

    def test_homomorphism(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t = Spintensor(2, 1, rng.normal(size=8) + 1j * rng.normal(size=8))
        once = spintensor_transform(g @ h, t)
        twice = spintensor_transform(g, spintensor_transform(h, t))
        assert np.abs(once.flat - twice.flat).max() <= 1e-12

    G = np.array([[0.6 + 0.8j, -1.3 + 0.1j], [0.7 - 0.2j, 1.1 + 0.4j]])

    @staticmethod
    def fixed_tensor(k, r):
        size = 1 << (k + r)
        return Spintensor(k, r, np.arange(size) / 3 + 1j * np.arange(size, 0, -1) / 7)

    def test_transform_bits_unchanged(self):
        """sha256 of the raw bytes of one fixed g applied to a fixed tensor of every rank k, r <= 3."""
        h = hashlib.sha256()
        for k in range(4):
            for r in range(4):
                h.update(spintensor_transform(self.G, self.fixed_tensor(k, r)).flat.tobytes())
        assert h.hexdigest() == "f23c7a153b6d1949128780c4b3e657378be46c435751b7a0ee144a8f3a1c7043"

    def test_transform_is_the_kronecker_matvec(self):
        """On every rank k, r <= 4 the slotwise transform is (g (x) .. (x) g (x) conj(g) (x) .. (x) conj(g))
        times the flat components, within 1e-14 relative to the largest component."""
        for k in range(5):
            for r in range(5):
                op = np.ones((1, 1), dtype=complex)
                for m in [self.G] * k + [self.G.conj()] * r:
                    op = np.kron(op, m)
                t = self.fixed_tensor(k, r)
                want = op @ t.flat
                got = spintensor_transform(self.G, t)
                assert (got.k, got.r, got.components.shape) == (k, r, (2,) * (k + r))
                assert np.abs(got.flat - want).max() <= 1e-14 * np.abs(want).max(), (k, r)

    def test_rank_7_7_forms_no_kronecker_operator(self):
        """At k = r = 7 the 2^14 x 2^14 Kronecker operator would take 4.3 GB; the slotwise transform runs
        under a 1 GiB address-space limit, and on a product tensor it is the product of g u_i on the
        undotted slots and conj(g) u_i on the dotted ones, within 1e-13 relative."""
        code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from functools import reduce
import numpy as np
from cliffrep.lorentz import Spintensor, spintensor_transform
g = np.array([[0.6 + 0.8j, -1.3 + 0.1j], [0.7 - 0.2j, 1.1 + 0.4j]])
us = [np.array([1 + 0.5j * i, 0.25 - i / 7]) for i in range(14)]
t = Spintensor(7, 7, reduce(np.multiply.outer, us))
want = reduce(np.multiply.outer, [g @ u for u in us[:7]] + [g.conj() @ u for u in us[7:]])
got = spintensor_transform(g, t).components
print(got.shape == (2,) * 14, float(np.abs(got - want).max() / np.abs(want).max()) <= 1e-13)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    @pytest.mark.parametrize(
        "k,r,size,message",
        [
            (-1, 1, 1, "rank (-1, 1) must be two non-negative integers"),
            (1, -1, 1, "rank (1, -1) must be two non-negative integers"),
            (1.5, 0.5, 4, "rank k must be an integer, got 1.5"),
            (1, 0.5, 4, "rank r must be an integer, got 0.5"),
            ("1", 0, 2, "rank k must be an integer, got '1'"),
        ],
    )
    def test_rank_must_be_a_natural_number(self, k, r, size, message):
        """A negative rank fails the range test and a non-integer one algebra.as_count, each with its message."""
        with pytest.raises(ValueError) as err:
            Spintensor(k, r, np.ones(size))
        assert str(err.value) == message

    @pytest.mark.parametrize("k,r", [(True, 0), (np.int64(1), np.uint8(1))])
    def test_rank_is_stored_as_int(self, k, r):
        t = Spintensor(k, r, np.ones(1 << int(k + r)))
        assert (t.k, t.r) == (k, r) and type(t.k) is int and type(t.r) is int

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Spintensor(1, 1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            spintensor_transform(np.eye(3), Spintensor(1, 0, np.array([1.0, 0.0])))
