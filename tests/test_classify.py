"""Mod-8 / mod-2 classification against the embedded periodic table."""

from unittest import mock

import pytest

from cliffrep import checks
from cliffrep.algebra import Signature, center_blades, omega_square
from cliffrep.classify import (
    MatrixShape,
    RingType,
    bw_compose,
    classify,
    classify_complex,
    clock_hour,
    even_subalgebra,
    tensor_compose,
)
from cliffrep.table_data import parse_entry, reference_table


class TestClassify:
    def test_spacetime(self):
        c = classify((1, 3))
        assert (c.ring, c.matrix_size, c.simple) == (RingType.H, 2, True)

    def test_double_numbers(self):
        c = classify((1, 0))
        assert (c.ring, c.matrix_size, c.simple) == (RingType.R_R, 1, False)

    def test_pauli(self):
        c = classify((3, 0))
        assert (c.ring, c.matrix_size, c.simple) == (RingType.C, 2, True)

    def test_reference_table_all_64_entries(self):
        for (p, q), (ring, size) in reference_table().items():
            c = classify((p, q))
            assert (c.ring, c.matrix_size) == (ring, size), (p, q)
            assert c.simple == (not ring.is_double)

    def test_real_dimension_bookkeeping(self):
        for n in range(0, 13):
            for p in range(n + 1):
                c = classify((p, n - p))
                assert c.shape.real_dim == 1 << n

    def test_simplicity_from_type(self):
        for n in range(0, 10):
            for p in range(n + 1):
                c = classify((p, n - p))
                assert c.simple == ((p - (n - p)) % 8 not in (1, 5))

    def test_mod8_periodicity(self):
        for n in range(0, 5):
            for p in range(n + 1):
                a = classify((p, n - p))
                b = classify((p + 8, n - p))
                assert a.ring is b.ring
                assert a.simple == b.simple
                assert b.matrix_size == 16 * a.matrix_size

    def test_simple_iff_trivial_center_even_n(self):
        for n in range(0, 9, 2):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                assert classify(sig).simple == (center_blades(sig) == frozenset({0}))

    def test_semisimple_types_have_positive_volume_square(self):
        for n in range(1, 12):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                if not classify(sig).simple:
                    assert omega_square(sig) == 1


class TestClassifyComplex:
    def test_even(self):
        c = classify_complex(2)
        assert (c.matrix_size, c.simple) == (2, True)

    def test_odd_is_double(self):
        c = classify_complex(3)
        assert (c.matrix_size, c.simple) == (2, False)
        assert c.parity == 1

    def test_trivial(self):
        c = classify_complex(0)
        assert (c.matrix_size, c.simple) == (1, True)

    def test_mod2_periodicity(self):
        for n in range(0, 11):
            a, b = classify_complex(n), classify_complex(n + 2)
            assert b.matrix_size == 2 * a.matrix_size
            assert a.parity == b.parity and a.simple == b.simple

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classify_complex(-1)


class TestClockHour:
    @pytest.mark.parametrize(
        "sig,expected", [((1, 3), (2, 0)), ((1, 9), (0, 1)), ((0, 0), (0, 0)), ((5, 0), (3, -1))]
    )
    def test_examples(self, sig, expected):
        assert clock_hour(sig) == expected

    def test_defining_equation(self):
        for p in range(9):
            for q in range(9):
                h, r = clock_hour((p, q))
                assert q - p == h + 8 * r and 0 <= h <= 7


class TestEvenSubalgebra:
    @pytest.mark.parametrize(
        "sig,expected", [((1, 1), (1, 0)), ((1, 3), (1, 2)), ((2, 0), (0, 1))]
    )
    def test_examples(self, sig, expected):
        assert even_subalgebra(sig) == Signature(*expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            even_subalgebra((0, 0))

    def test_classification_identities(self):
        for n in range(1, 9):
            for p in range(n + 1):
                q = n - p
                if q >= 1:
                    assert classify(even_subalgebra((p, q))) == classify((p, q - 1))
                else:
                    assert classify(even_subalgebra((p, 0))) == classify((0, p - 1))

    def test_registry_check_rejects_one_positive_generator_fewer(self):
        honest = even_subalgebra

        def mutant(sig):  # Cl(p-1,q) where that exists
            return Signature(sig.p - 1, sig.q) if sig.p else honest(sig)

        with mock.patch.object(checks, "even_subalgebra", mutant):
            r = checks.check_even_subalgebra(8, 0)
        assert (r.passed, r.detail) == (False, "Cl(1,1)")


class TestBwCompose:
    def test_chevalley_composition(self):
        assert bw_compose(classify((1, 1)), classify((0, 2))) == classify((1, 3))

    def test_identity_element(self):
        e = classify((0, 0))
        for sig in [(1, 3), (2, 0), (0, 5)]:
            assert bw_compose(e, classify(sig)) == classify(sig)

    def test_octave_composition_preserves_ring_and_hour(self):
        oct8 = classify((8, 0))
        for sig in [(1, 3), (0, 2), (3, 0)]:
            composed = bw_compose(oct8, classify(sig))
            base = classify(sig)
            assert composed.ring is base.ring
            assert composed.hour == base.hour
            assert composed.simple == base.simple
            assert composed.matrix_size == 16 * base.matrix_size

    def test_hours_add_mod8(self):
        sigs = [(1, 0), (0, 3), (2, 2), (4, 1)]
        for sa in sigs:
            for sb in sigs:
                composed = bw_compose(classify(sa), classify(sb))
                assert composed.hour == (classify(sa).hour + classify(sb).hour) % 8

    def test_associative_commutative(self):
        a, b, c = classify((1, 0)), classify((0, 2)), classify((2, 1))
        assert bw_compose(a, b) == bw_compose(b, a)
        assert bw_compose(bw_compose(a, b), c) == bw_compose(a, bw_compose(b, c))

    def test_same_class_relation(self):
        # p + q' = p' + q (mod 8) pairs classify to the same ring/simplicity
        a, b = classify((5, 1)), classify((1, 5))  # 5+5 = 1+1+8
        assert a.ring is b.ring and a.simple == b.simple


class TestTensorCompose:
    def test_quaternion_squares_to_real(self):
        h = MatrixShape(RingType.H, 1)
        assert tensor_compose(h, h) == MatrixShape(RingType.R, 4)

    def test_complex_with_quaternion(self):
        c = MatrixShape(RingType.C, 1)
        h = MatrixShape(RingType.H, 1)
        assert tensor_compose(c, h) == MatrixShape(RingType.C, 2)

    def test_real_scaling(self):
        r2 = MatrixShape(RingType.R, 2)
        h = MatrixShape(RingType.H, 2)
        assert tensor_compose(r2, h) == MatrixShape(RingType.H, 4)

    def test_rejects_doubles(self):
        with pytest.raises(ValueError):
            tensor_compose(MatrixShape(RingType.R_R, 1), MatrixShape(RingType.R, 1))


class TestTableData:
    def test_parse_entries(self):
        assert parse_entry("2H(8)") == (RingType.H_H, 8)
        assert parse_entry("R") == (RingType.R, 1)
        assert parse_entry("C(64)") == (RingType.C, 64)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_entry("Q(3)")
