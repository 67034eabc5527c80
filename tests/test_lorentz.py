"""Spin+(1,3) operators: ladder coefficients, commutators, conversions."""

import hashlib
import re
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest

from cliffrep import algebra, checks, lorentz
from cliffrep.cli import main
from cliffrep.checks import GN_COM_TOL, GN_VDW_PROPERTIES, VDW_COM_TOL, gn_labels, gn_vdw_case, vdw_labels
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


# sha256 of the raw bytes of every operator matrix over gn_labels(64) / vdw_labels(64),
# in label and operator order: `rep` emits these bits, signed zeros included
GN_OPERATOR_DIGEST = "779c407fbcd101c0592aa6c11743f62e41b50207e5ed4f996f205c0ae5af3ce0"
VDW_OPERATOR_DIGEST = "cfb450ddabee316b4d50479713ab1b24993b0fa847c8aecf7927feee7f081673"


def _digest(all_ops) -> str:
    h = hashlib.sha256()
    for ops in all_ops:
        for m in ops.operators().values():
            h.update(m.tobytes())
    return h.hexdigest()


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
            "ae823471afb6023edd281bb053b391c7bd3acfc48261e5090ee7256fd6f08ebd",
            id="vdw-dim100",
        ),
        pytest.param(
            lambda: [build_vdw_operators(F(19, 2), F(19, 2))],
            "437a27906c681dbfc777b32d5a9dfacccc21f7ad12a5a46dd9434c5e81cbc59b",
            id="vdw-dim400",
        ),
        # the first labels with a root of 2921, the smallest integer x where float(x) ** 0.5 and
        # np.sqrt differ in the last bit (glibc pow, x86-64): a C_75 entry of (74, 76), a j+ entry of spin 149/2
        pytest.param(
            lambda: [build_gn_operators(GNLabel(74, 76))],
            "c2df6381b7a02de1960bbedf8ac710c3a5b149a9a4f464c612b2c17174bbf253",
            id="gn-pow-root",
        ),
        pytest.param(
            lambda: [build_vdw_operators(F(149, 2), 0)],
            "55a55dfc9f691c659fb9737ec56589937d9b47d5950d9917490f9a3c5a0d9bc1",
            id="vdw-pow-root",
        ),
    ],
)
def test_operator_bits_unchanged_up_to_dim_400(build, digest):
    """The same digest over all 246 GN and 482 VdW labels of dim <= 100, one dim-400 label of
    each, and the first labels whose roots tell CPython's pow rounding from np.sqrt's."""
    assert _digest(build()) == digest


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
                    ref[1][col + 1, col] = float((j - m) * (j + m + 1)) ** 0.5
                if col > 0:
                    ref[2][col - 1, col] = float((j + m) * (j - m + 1)) ** 0.5
            for got, want in zip(su2_ladder(j), ref):
                assert got.tobytes() == want.tobytes()

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

    def test_com2_residual_folds_the_su2_residuals(self):
        # the 15 deviations folded inline, against com2_residual's fold through su2_residual
        rng = np.random.default_rng(5)
        for l, ld in [(F(1, 2), F(1, 2)), (1, F(3, 2)), (F(5, 2), 0)]:
            ops = build_vdw_operators(l, ld)
            ops = replace(ops, **{f: m + 1e-6 * rng.normal(size=m.shape) for f, m in vars(ops).items() if f[0] in "xy"})
            xs = cartesian(ops.x3, ops.xplus, ops.xminus)
            ys = cartesian(ops.y3, ops.yplus, ops.yminus)
            deviations = [lorentz._comm(t[i], t[j]) - 1j * t[k] for t in (xs, ys) for i, j, k in lorentz._CYCLIC]
            deviations += [lorentz._comm(xi, yi) for xi in xs for yi in ys]
            assert com2_residual(ops) == max(np.abs(d).max() for d in deviations) > 0

    def test_nan_residual_fails_the_check(self):
        # the check takes one su(2) residual per spin; spin 1's triple is the only 3 x 3 one
        honest = lorentz.su2_residual
        with mock.patch.object(lorentz, "su2_residual", lambda t: np.nan if len(t[2]) == 3 else honest(t)):
            r = checks.check_vdw_com2(0, 64)
            assert np.isnan(com2_residual(build_vdw_operators(0, 1)))  # the dense fold shares the helper
        assert (r.passed, r.detail) == (False, "dim <= 64, residual nan")

    @pytest.mark.parametrize("dim_max", [1, 16, 36])
    def test_check_matches_the_dense_residuals(self, dim_max):
        """Per-spin residuals and exact Kronecker assembly give what dense com2_residual gives on every label."""
        residuals = [com2_residual(build_vdw_operators(l, ld)) for l, ld in vdw_labels(dim_max)]
        worst = float(np.max(residuals))
        r = checks.check_vdw_com2(0, dim_max)
        assert (r.passed, r.detail, r.covered) == (worst <= VDW_COM_TOL, f"dim <= {dim_max}, residual {worst:.2e}", len(residuals))

    @pytest.mark.parametrize(
        "mutant,detail",
        [
            ("doubled-root", r"dim <= 16, residual [1-9]\.\d\de[+-]\d\d"),
            ("identity-first", re.escape("(1/2, 1/2) is not x (x) I, I (x) y")),
            ("kron-axes-swapped", re.escape("(1/2, 1/2) is not x (x) I, I (x) y")),
            ("off-diagonal-entry", re.escape("(0, 1/2) is not x (x) I, I (x) y")),
            ("off-diagonal-nan", re.escape("(1/2, 0) is not x (x) I, I (x) y")),
            ("transposed-block", re.escape("(1/2, 1/2) is not x (x) I, I (x) y")),
        ],
    )
    def test_mutant_fails_the_check(self, mutant, detail, capsys):
        honest_ladder, honest_build = lorentz.su2_ladder, lorentz.build_vdw_operators

        def doubled_root(j):  # the first root of j+ and j-, which share it; spin 0 has none
            j3, jp, jm = honest_ladder(j)
            jp[1:2, 0] *= 2
            jm[0, 1:2] *= 2
            return j3, jp, jm

        def identity_first(l, ldot):
            xs, ys = su2_ladder(l), su2_ladder(ldot)
            left, right = np.eye(len(xs[0]), dtype=complex), np.eye(len(ys[0]), dtype=complex)
            ops = [lorentz._kron(right, x) for x in xs] + [lorentz._kron(left, y) for y in ys]
            return lorentz.VdWOperators(l, ldot, *ops, "")

        def kron_axes_swapped(a, b):
            size = len(a) * len(b)
            return (a[None, :, None, :] * b[:, None, :, None]).reshape(size, size)

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

        patch = {
            "doubled-root": ("su2_ladder", doubled_root),
            "identity-first": ("build_vdw_operators", identity_first),
            "kron-axes-swapped": ("_kron", kron_axes_swapped),
            "off-diagonal-entry": ("build_vdw_operators", edited(off_diagonal_entry)),
            "off-diagonal-nan": ("build_vdw_operators", edited(off_diagonal_nan)),
            "transposed-block": ("build_vdw_operators", edited(transposed_block)),
        }[mutant]
        with mock.patch.object(lorentz, *patch):
            r = checks.check_vdw_com2(0, 16)
            code, out = main(["verify", "--nmax", "0", "--dim-max", "16"]), capsys.readouterr().out
        assert not r.passed and re.fullmatch(detail, r.detail), r.detail
        assert code == 1 and f"FAIL  paired su(2) commutators  [{r.detail}]" in out.splitlines()
        assert checks.check_vdw_com2(0, 16).passed  # and the honest code passes again


    def test_assembly_test_agrees_with_np_kron(self):
        """On every label of dim <= 160 the structural test gives np.array_equal against np.kron,
        on each built operator and on a copy with one entry (in any block) moved by 1."""
        rng = np.random.default_rng(14)
        for l, ld in vdw_labels(160):
            xs, ys = su2_ladder(l), su2_ladder(ld)
            m, n = len(xs[0]), len(ys[0])
            assert checks._not_kronecker(l, ld, xs) is None
            built = build_vdw_operators(l, ld).operators().values()
            for op, block, identity_first in zip(built, xs + ys, 3 * [False] + 3 * [True]):
                want = np.kron(np.eye(m), block) if identity_first else np.kron(block, np.eye(n))
                moved = op.copy()
                moved[tuple(rng.integers(m * n, size=2))] += 1
                for got in (op, moved):
                    op4 = got.reshape(m, n, m, n)
                    op4 = op4.transpose(1, 0, 3, 2) if identity_first else op4
                    assert checks._is_block_kron_identity(op4, block) == np.array_equal(got, want) == (got is op)

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
        assert GN_VDW_PROPERTIES[prop](*gn_vdw_case(lab))

    @pytest.mark.parametrize(
        "prop,mutate",
        [
            ("su(2) relations", lambda v: replace(v, x3=2 * v.x3)),
            ("spin l", lambda v: replace(v, l=v.l + 1)),
            ("X3 spectrum", lambda v: replace(v, x3=v.y3)),
            ("operator reconstruction", lambda v: replace(v, xplus=v.xplus + 1e-9)),
        ],
    )
    def test_gn_vdw_property_mutation_detected(self, prop, mutate):
        ops, v = gn_vdw_case(GNLabel(F(1), F(3)))
        assert GN_VDW_PROPERTIES[prop](ops, v)
        assert not GN_VDW_PROPERTIES[prop](ops, mutate(v))

    def test_doubled_root_fails_the_check(self):
        # build_gn_operators assembles each level from su2_ladder; the failing label is named by (l0, l1)
        honest = lorentz.su2_ladder

        def doubled_root(j):
            j3, jp, jm = honest(j)
            jp[1:2, 0] *= 2
            jm[0, 1:2] *= 2
            return j3, jp, jm

        with mock.patch.object(lorentz, "su2_ladder", doubled_root):
            r = checks.check_gn_vdw(0, 64)
        assert (r.passed, r.detail, r.covered) == (False, "(0, 2) su(2) relations", 28)
        assert checks.check_gn_vdw(0, 64).passed

    def test_dimension_identity(self):
        for lab in gn_labels(64):
            v = gn_to_vdw(build_gn_operators(lab))
            assert lab.dim == (2 * v.l + 1) * (2 * v.ldot + 1)


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

    def test_transform_bits_unchanged(self):
        """sha256 of the raw bytes of one fixed g applied to a fixed tensor of every rank k, r <= 3."""
        g = np.array([[0.6 + 0.8j, -1.3 + 0.1j], [0.7 - 0.2j, 1.1 + 0.4j]])
        h = hashlib.sha256()
        for k in range(4):
            for r in range(4):
                size = 1 << (k + r)
                t = Spintensor(k, r, np.arange(size) / 3 + 1j * np.arange(size, 0, -1) / 7)
                h.update(spintensor_transform(g, t).flat.tobytes())
        assert h.hexdigest() == "81c40ee22adfbafba849e02c495fbe6b18e24fdcf3023743948bbb4c41885f0d"

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
