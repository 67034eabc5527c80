"""Mod-8 / mod-2 classification against the embedded periodic table."""

import hashlib
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
from cliffrep.factorize import factorize
from cliffrep.table_data import parse_entry, reference_diff, reference_table


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

    def test_largest_n(self):
        """16 generators, the bound of a signature, is accepted (17 is rejected in test_repsys)."""
        assert classify_complex(16) == classify_complex(14)._replace(matrix_size=256)


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


#: (record, repr, str) of the classification records: their text is that of the frozen
#: dataclasses they were, field by field
RECORD_TEXT = [
    (MatrixShape(RingType.H, 2), "MatrixShape(ring=<RingType.H: 'H'>, size=2)", "Mat_2(H)"),
    (MatrixShape(RingType.R_R, 1), "MatrixShape(ring=<RingType.R_R: 'R+R'>, size=1)", "R⊕R"),
    (
        classify((1, 3)),
        "AlgebraClass(ring=<RingType.H: 'H'>, matrix_size=2, simple=True, hour=2, type_label=6)",
        "Mat_2(H)",
    ),
    (
        classify((5, 0)),
        "AlgebraClass(ring=<RingType.H_H: 'H+H'>, matrix_size=2, simple=False, hour=3, type_label=5)",
        "Mat_2(H)⊕Mat_2(H)",
    ),
    (classify_complex(3), "ComplexClass(parity=1, matrix_size=2, simple=False)", "Mat_2(C)⊕Mat_2(C)"),
    (classify_complex(0), "ComplexClass(parity=0, matrix_size=1, simple=True)", "C"),
    (
        factorize((1, 3)),
        "Factorization(sig=Signature(p=1, q=3), factors=(Signature(p=1, q=1), Signature(p=0, q=2)), doubled=False)",
        None,
    ),
    (
        factorize((5, 0)),
        "Factorization(sig=Signature(p=5, q=0), factors=(Signature(p=0, q=2), Signature(p=2, q=0)), doubled=True)",
        None,
    ),
]

# sha256 of tensor_compose (its repr, or its ValueError) over every ordered pair of the 45 shapes
# classify gives for p+q <= 8, each line "a b result"
TENSOR_COMPOSE_DIGEST = "22ef64eb1cfebb1d1e4eaf09b0a6634577f3fe11f86da8ddf962e667308deafd"


class TestRecords:
    """MatrixShape, AlgebraClass, ComplexClass and Factorization are NamedTuples."""

    @pytest.mark.parametrize("record,text,string", RECORD_TEXT)
    def test_repr_and_str_pinned(self, record, text, string):
        assert repr(record) == text and str(record) == (text if string is None else string)

    @pytest.mark.parametrize("record", [r for r, _, _ in RECORD_TEXT[::2]], ids=lambda r: type(r).__name__)  # one of each
    def test_fields_are_read_only(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_values_hash_equal(self):
        for build, arg in [(classify, (1, 3)), (classify_complex, 5), (factorize, (4, 3))]:
            a, b = build(arg), build(arg)
            assert a is not b and a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
        assert classify((2, 0)) != classify((1, 1)) and classify((2, 0)).shape == classify((1, 1)).shape
        assert {classify((p, q)).shape for p in range(8) for q in range(8)} == {
            MatrixShape(ring, size) for ring, size in reference_table().values()
        }

    def test_tuple_behaviour(self):
        """The records are tuples: they iterate, index and compare equal to plain tuples of their fields."""
        shape = MatrixShape(RingType.R, 2)
        assert tuple(shape) == (RingType.R, 2) and shape == (RingType.R, 2) and shape[1] == 2
        assert classify_complex(2) == (0, 2, True) and factorize((2, 0)) == (Signature(2, 0), (Signature(2, 0),), False)

    def test_reference_diff_unchanged(self):
        assert reference_diff([(p, q) for p in range(10) for q in range(10)]) == (64, [])
        with mock.patch("cliffrep.table_data.classify", lambda sig: classify(sig[::-1])):
            compared, bad = reference_diff([(p, q) for p in range(8) for q in range(8)])
        assert compared == 64 and (1, 0) in bad and (1, 1) not in bad

    def test_tensor_compose_unchanged(self):
        shapes = [classify((p, n - p)).shape for n in range(9) for p in range(n + 1)]
        h = hashlib.sha256()
        for a in shapes:
            for b in shapes:
                try:
                    r = repr(tensor_compose(a, b))
                except ValueError as e:
                    r = f"ValueError: {e}"
                h.update(f"{a!r} {b!r} {r}\n".encode())
        assert h.hexdigest() == TENSOR_COMPOSE_DIGEST
