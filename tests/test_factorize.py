"""Tensor factorizations: factor lists, flips, class composition, periodicity."""

from fractions import Fraction
from unittest import mock

import pytest

from cliffrep import checks
from cliffrep.algebra import Signature
from cliffrep.classify import MatrixShape, RingType, classify, even_subalgebra
from cliffrep.factorize import (
    complex_factorize,
    compose_factor_shapes,
    factorize,
    factorize_odd,
    karoubi_factorize,
    periodicity_reduce,
    replay_flips,
    verify_factorization,
)


class TestKaroubiFactorize:
    def test_spacetime_factors(self):
        assert karoubi_factorize((1, 3)).factors == (Signature(1, 1), Signature(0, 2))

    def test_majorana_factors(self):
        assert karoubi_factorize((3, 1)).factors == (Signature(1, 1), Signature(2, 0))

    def test_octave_factors(self):
        # same multiset as the quoted one-octave factor list; the greedy
        # peel alternates the two definite factors
        f = karoubi_factorize((8, 0))
        assert sorted(f.factors) == sorted(
            (Signature(2, 0), Signature(0, 2), Signature(0, 2), Signature(2, 0))
        )
        assert compose_factor_shapes(f) == MatrixShape(RingType.R, 16)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            karoubi_factorize((1, 0))

    def test_definite_factors_flip(self):
        f = karoubi_factorize((4, 0))
        assert f.factors == (Signature(2, 0), Signature(0, 2))
        assert f.flip_steps == (0, 1)

    def test_hyperbolic_factors_do_not_flip(self):
        f = karoubi_factorize((2, 2))
        assert f.factors == (Signature(1, 1), Signature(1, 1))
        assert f.flip_steps == ()

    @pytest.mark.parametrize("n", range(0, 13, 2))
    def test_class_composition_even(self, n):
        for p in range(n + 1):
            f = karoubi_factorize((p, n - p))
            assert verify_factorization(f), (p, n - p)
            assert compose_factor_shapes(f) == classify((p, n - p)).shape

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_replay_flips_recovers_signature(self, n):
        for p in range(n + 1):
            f = karoubi_factorize((p, n - p))
            assert replay_flips(f) == Signature(p, n - p)

    def test_spinspace_bookkeeping(self):
        # r factors span a 2^r spinspace; l0 = r/2 = (p+q)/4 when 4 | p+q
        for n in range(0, 13, 4):
            for p in range(n + 1):
                f = karoubi_factorize((p, n - p))
                assert len(f.factors) == n // 2
                assert f.spinspace_dim == 1 << (n // 2)
                assert f.spin_index == Fraction(n, 4)


class TestFactorizeOdd:
    def test_double_numbers(self):
        f = factorize_odd((1, 0))
        assert f.factors == () and f.doubled

    def test_pauli_like(self):
        f = factorize_odd((3, 0))
        assert not f.doubled
        assert f.factors == (Signature(0, 2),)
        assert classify((3, 0)).shape == MatrixShape(RingType.C, 2)
        assert verify_factorization(f)

    def test_doubled_quaternionic(self):
        f = factorize_odd((1, 4))
        assert f.doubled
        assert classify((1, 4)).ring is RingType.H_H
        assert verify_factorization(f)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            factorize_odd((1, 1))

    @pytest.mark.parametrize("n", range(1, 12, 2))
    def test_class_composition_odd(self, n):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            f = factorize_odd(sig)
            assert f.doubled == ((p - (n - p)) % 8 in (1, 5))
            assert verify_factorization(f), sig
            assert compose_factor_shapes(f) == classify(even_subalgebra(sig)).shape

    def test_dispatch(self):
        assert factorize((1, 3)) == karoubi_factorize((1, 3))
        assert factorize((3, 0)) == factorize_odd((3, 0))


class TestKaroubiCheck:
    def test_full_generator_budget(self):
        r = checks.check_karoubi(16, 0)
        assert (r.passed, r.detail, r.covered) == (True, "n <= 16", 153)

    def test_sixteen_generators_are_checked(self):
        with mock.patch.object(checks, "verify_factorization", lambda f: f.sig != Signature(8, 8)):
            r = checks.check_karoubi(16, 0)
        assert (r.passed, r.detail) == (False, "Cl(8,8)")

    @pytest.mark.parametrize(
        "quotes,sig,factors",
        [
            ("KAROUBI_QUOTES", Signature(1, 3), (Signature(0, 2), Signature(1, 1))),
            ("KAROUBI_QUOTES", Signature(3, 1), (Signature(2, 0), Signature(1, 1))),
            ("KAROUBI_QUOTES_UNORDERED", Signature(8, 0), (Signature(0, 2),) * 2 + (Signature(1, 1),) * 2),
        ],
    )
    def test_quotes_are_still_checked(self, quotes, sig, factors):
        with mock.patch.dict(getattr(checks, quotes), {sig: factors}):
            r = checks.check_karoubi(16, 0)
        assert (r.passed, r.detail) == (False, str(sig))


class TestComplexFactorize:
    @pytest.mark.parametrize("n,m", [(4, 2), (0, 0), (8, 4), (2, 1), (16, 8)])
    def test_examples(self, n, m):
        assert complex_factorize(n) == m

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            complex_factorize(3)


class TestPeriodicityReduce:
    @pytest.mark.parametrize(
        "sig,base,octaves",
        [((9, 0), (1, 0), 1), ((1, 9), (1, 1), 1), ((2, 2), (2, 2), 0), ((8, 8), (0, 0), 2)],
    )
    def test_examples(self, sig, base, octaves):
        assert periodicity_reduce(sig) == (Signature(*base), octaves)

    def test_base_class_matches(self):
        for sig in [(9, 0), (1, 9), (8, 1), (0, 8)]:
            base, _ = periodicity_reduce(sig)
            a, b = classify(sig), classify(base)
            assert a.ring is b.ring and a.simple == b.simple


class TestQuaternionComposition:
    def test_h_tensor_h_is_mat4_r(self):
        h = classify((0, 2)).shape
        assert h == MatrixShape(RingType.H, 1)
        from cliffrep.classify import tensor_compose

        assert tensor_compose(h, h) == MatrixShape(RingType.R, 4)
