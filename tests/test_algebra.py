"""Core multivector arithmetic: products, automorphisms, volume, center."""

import ast
import inspect
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffrep import algebra, tensor
from cliffrep import checks
from cliffrep.algebra import (
    GradedBracketResult,
    Multivector,
    Signature,
    all_blades,
    as_signature,
    blade_product,
    blade_signs,
    center_blades,
    generators,
    grade,
    graded_bracket,
    involution_via_omega,
    omega_square,
    omega_square_mod8,
    volume_element,
)
from cliffrep.checks import brute_force_commutant
from cliffrep.classify import classify


def slow_blade_product(a_mask, b_mask, sig):
    """Reference product: explicit index lists, bubble the concatenation
    into ascending order counting swaps, then contract repeats."""
    p, q = sig
    idx = [i + 1 for i in range(16) if a_mask >> i & 1]
    idx += [i + 1 for i in range(16) if b_mask >> i & 1]
    sign = 1
    # bubble sort, one swap at a time
    changed = True
    while changed:
        changed = False
        for i in range(len(idx) - 1):
            if idx[i] > idx[i + 1]:
                idx[i], idx[i + 1] = idx[i + 1], idx[i]
                sign = -sign
                changed = True
    # contract adjacent equal generators
    out = []
    i = 0
    while i < len(idx):
        if i + 1 < len(idx) and idx[i] == idx[i + 1]:
            sign *= 1 if idx[i] <= p else -1
            i += 2
        else:
            out.append(idx[i])
            i += 1
    mask = 0
    for i in out:
        mask |= 1 << (i - 1)
    return sign, mask


signatures_small = [
    Signature(p, n - p) for n in range(0, 6) for p in range(n + 1)
]
# property tests draw from the full p+q <= 8 range
signatures_prop = [Signature(p, n - p) for n in range(2, 9) for p in range(n + 1)]


def mv_strategy(sig, max_terms=4):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    masks = st.integers(min_value=0, max_value=(1 << sig.n) - 1)
    return st.dictionaries(masks, coeffs, max_size=max_terms).map(
        lambda terms: Multivector(sig, terms)
    )


class TestAsSignature:
    @pytest.mark.parametrize("pair", [(1.5, 3), (1, 2.5), ("3", 1), (1, "1"), (2.0, 0), (None, 0)])
    def test_rejects_non_integer_counts(self, pair):
        with pytest.raises(ValueError, match="generator counts must be integers"):
            as_signature(pair)

    def test_accepts_integers_of_any_integral_type(self):
        for pair in [(1, 3), (np.int64(1), np.uint8(3)), [1, 3]]:
            sig = as_signature(pair)
            assert sig == Signature(1, 3) and type(sig.p) is int and type(sig.q) is int

    def test_signature_passes_through(self):
        sig = Signature(2, 1)
        assert as_signature(sig) is sig

    @pytest.mark.parametrize(
        "pair,message",
        [
            ((1.5, 3), "generator counts must be integers, got 1.5, 3"),
            ((1, "1"), "generator counts must be integers, got 1, '1'"),
            ((2.0, 0), "generator counts must be integers, got 2.0, 0"),
            ((-1, 2), "generator counts must be non-negative"),
            ((3, -1), "generator counts must be non-negative"),
            ((9, 8), "at most 16 generators are supported"),
            ((0, 17), "at most 16 generators are supported"),
        ],
    )
    def test_signature_is_valid_by_construction(self, pair, message):
        """A directly built Signature raises what the tuple path raises."""
        for build in (as_signature, lambda pair: Signature(*pair), Signature._make):
            with pytest.raises(ValueError) as err:
                build(pair)
            assert str(err.value) == message
        with pytest.raises(ValueError, match=message.split(",")[0]):
            Signature(1, 1)._replace(p=pair[0], q=pair[1])

    def test_signature_stores_numpy_integers_as_int(self):
        sig = Signature(np.int64(1), np.uint8(3))
        assert sig == (1, 3) and type(sig.p) is int and type(sig.q) is int
        assert sig is as_signature(sig) and repr(sig) == "Signature(p=1, q=3)"

    def test_invalid_signature_never_reaches_the_algebra(self):
        with pytest.raises(ValueError, match="generator counts must be integers"):
            classify(Signature(1.5, 3))
        with pytest.raises(ValueError, match="generator counts must be integers"):
            blade_product(1, 1, Signature(0.5, 1))


class TestBladeProduct:
    def test_anticommuting_generators(self):
        # e2 * e1 = -e12 in Cl(1,3)
        assert blade_product(0b10, 0b01, (1, 3)) == (-1, 0b11)

    def test_first_generator_squares_positive(self):
        assert blade_product(0b01, 0b01, (1, 3)) == (1, 0)

    def test_bivector_square(self):
        # e12 * e12 = -1 in Cl(2,0): brute-force reordering gives -e1^2 e2^2
        assert slow_blade_product(0b11, 0b11, (2, 0)) == (-1, 0)
        assert blade_product(0b11, 0b11, (2, 0)) == (-1, 0)

    @pytest.mark.parametrize("sig", signatures_small)
    def test_matches_reference_product(self, sig):
        for a in all_blades(sig):
            for b in all_blades(sig):
                assert blade_product(a, b, sig) == slow_blade_product(a, b, sig)

    @pytest.mark.parametrize("sig", [Signature(2, 2), Signature(0, 4), Signature(3, 1)])
    def test_generator_anticommutation(self, sig):
        for i in range(1, sig.n + 1):
            for j in range(1, sig.n + 1):
                if i == j:
                    continue
                si, mi = blade_product(1 << (i - 1), 1 << (j - 1), sig)
                sj, mj = blade_product(1 << (j - 1), 1 << (i - 1), sig)
                assert mi == mj and si == -sj

    def test_rejects_foreign_blades(self):
        with pytest.raises(ValueError):
            blade_product(0b100, 0b1, (1, 1))


signatures_grid = [Signature(p, n - p) for n in range(0, 9) for p in range(n + 1)]


class TestSignRule:
    @pytest.mark.parametrize("sig", signatures_grid)
    def test_signs_match_blade_product_exhaustively(self, sig):
        blades = all_blades(sig)
        masks = np.arange(1 << sig.n)
        ref = [blade_product(a, b, sig)[0] for a in blades for b in blades]
        assert blade_signs(masks[:, None], masks[None, :], sig).ravel().tolist() == ref

    @pytest.mark.parametrize("n", range(9, 17))
    def test_full_rows_and_columns_at_large_n(self, n):
        # every p with 3 rows and 3 columns up to n = 12; from n = 13, where a
        # full row costs 2^13+ blade_product calls, p in {0, one drawn, n} with one each
        rng = random.Random(n)
        masks = np.arange(1 << n)
        ps, lines = (range(n + 1), 3) if n <= 12 else (sorted({0, rng.randint(1, n - 1), n}), 1)
        for p in ps:
            sig = Signature(p, n - p)
            for a, b in zip(rng.sample(range(1 << n), lines), rng.sample(range(1 << n), lines)):
                assert blade_signs(a, masks, sig).tolist() == [blade_product(a, m, sig)[0] for m in masks.tolist()]
                assert blade_signs(masks, b, sig).tolist() == [blade_product(m, b, sig)[0] for m in masks.tolist()]

    @pytest.mark.parametrize("n", range(0, 17))
    def test_signs_match_blade_product_on_random_masks(self, n):
        rng = random.Random(100 + n)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        a = [rng.randrange(1 << n) for _ in range(2000)]
        b = [rng.randrange(1 << n) for _ in range(2000)]
        got = blade_signs(np.array(a), np.array(b), sig)
        assert got.dtype == np.int8
        assert got.tolist() == [blade_product(x, y, sig)[0] for x, y in zip(a, b)]

    def test_signs_broadcast(self):
        sig = Signature(2, 3)
        a = np.arange(32)[:, None]
        g = (1 << np.arange(5))[None, :]
        got = blade_signs(a, g, sig)
        assert got.shape == (32, 5)
        assert got.tolist() == [[blade_product(x, 1 << i, sig)[0] for i in range(5)] for x in range(32)]

    @pytest.mark.parametrize("a,b", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_signs_reject_foreign_blades(self, a, b):
        with pytest.raises(ValueError):
            blade_signs(np.array([a]), np.array([b]), (1, 1))

    def test_signs_reject_non_integer_masks(self):
        with pytest.raises(TypeError):
            blade_signs(np.array([1.0]), np.array([0]), (1, 1))

    def test_parity_table_is_exact(self):
        want = [m.bit_count() & 1 for m in range(1 << 16)]
        masks = np.arange(1 << 16)
        for dtype in (np.int32, np.int64):
            assert algebra._parity(masks.astype(dtype)).tolist() == want
        for m in (0, 1, 0b1011, 1 << 15, (1 << 16) - 1):
            assert type(algebra._parity(m)) is int and algebra._parity(m) == want[m]
        # so psi_blade keeps returning Python ints
        t = tensor.graded_tensor((3, 2), (1, 2))
        assert all(type(v) is int for m in all_blades(t.combined) for v in t.psi_blade(m))

    @pytest.mark.parametrize("module", [algebra, tensor])
    def test_numpy_is_imported_inside_functions(self, module):
        imported = set()
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported


def reference_product(x, y):
    """The pair loop on :func:`blade_product` alone: the oracle of the gather path."""
    terms = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            sign, mask = blade_product(ma, mb, x.sig)
            terms[mask] = terms.get(mask, 0) + sign * ca * cb
    return {m: c for m, c in terms.items() if c != 0}


def assert_same_product(x, y):
    got = (x * y).terms
    want = reference_product(x, y)
    assert got == want
    assert {m: type(c) for m, c in got.items()} == {m: type(c) for m, c in want.items()}


def spy_gather():
    return mock.patch.object(algebra, "_gather_product", wraps=algebra._gather_product)


@st.composite
def dense_int_pairs(draw):
    """Int multivectors with enough blade pairs for the gather path, at most about 4 times that."""
    n = draw(st.integers(3, 12))  # n <= 2 never has 32 pairs
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    size = 1 << n
    need = max(size, algebra._GATHER_MIN_PAIRS)
    len_a = draw(st.integers(-(-need // size), size))
    low = -(-need // len_a)
    len_b = draw(st.integers(low, min(size, max(low, 4 * need // len_a))))
    bound = draw(st.sampled_from([2, 9, 1 << 26]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def terms(count):
        return {m: rng.choice([-1, 1]) * rng.randint(1, bound) for m in rng.sample(range(size), count)}

    return Multivector(sig, terms(len_a)), Multivector(sig, terms(len_b))


PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)


class HalfStep(Fraction):
    """A ``Fraction`` subclass: the product keeps it on the per-pair loop."""


@st.composite
def fraction_pairs(draw):
    """All-Fraction multivectors and the path their product takes.

    ``loop``: fewer blade pairs than the gather floor, n = 0..16, each
    denominator drawn up to 10^4.  ``gather``: dense factors at n = 3..16
    (the longer one holds at least 2^n/128 blades), each over one
    denominator D <= 10^4, so its common denominator divides D and its
    scaled numerators stay below 10^4.  ``overflow``: dense factors at
    n = 3..10 (the int pair loop is slow above) with one numerator
    D * 2^40 + 1 each, coprime to D, so the scaled factors fail the int64
    bound and the int pair loop serves them.
    """
    path = draw(st.sampled_from(["loop", "gather", "overflow"]))
    n = draw(st.integers(*{"loop": (0, 16), "gather": (3, 16), "overflow": (3, 10)}[path]))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    size = 1 << n
    need = max(size, algebra._GATHER_MIN_PAIRS)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if path == "loop":
        len_a = draw(st.integers(1, min(size, 12)))
        len_b = draw(st.integers(1, max(1, min(size, 12, (need - 1) // len_a))))
    else:
        len_a = draw(st.integers(max(-(-size // algebra._GATHER_MAX_SPARSITY), -(-need // size)), size))
        low = -(-need // len_a)
        len_b = draw(st.integers(low, min(size, max(low, 2 * need // len_a))))

    def terms(count):
        masks = rng.sample(range(size), count)
        if path == "loop":
            return {m: Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**4)) for m in masks}
        den = rng.randint(1, 10**4)
        out = {m: Fraction(rng.randint(-10**4, 10**4) or 1, den) for m in masks}
        if path == "overflow":
            out[masks[0]] = Fraction(den * (1 << 40) + 1, den)
        return out

    x, y = Multivector(sig, terms(len_a)), Multivector(sig, terms(len_b))
    return (x, y) if draw(st.booleans()) else (y, x), path


class TestGatherProduct:
    @settings(max_examples=40, deadline=None)
    @given(fraction_pairs())
    def test_fraction_product_is_exact(self, case):
        (x, y), path = case
        with spy_gather() as spy:
            assert_same_product(x, y)
        assert spy.call_count == (path == "gather")

    @pytest.mark.parametrize(
        "coeff",
        [lambda m: m % 5 - 2 or 3, lambda m: Fraction(m % 7 - 3 or 5, m % 9 + 1)],
        ids=["int", "fraction"],
    )
    def test_pair_loop_calls_blade_product_once_per_pair(self, coeff):
        sig = Signature(6, 8)
        low_grade = [m for m in range(1 << sig.n) if 1 <= grade(m) <= 3]
        x, y = (Multivector(sig, {m: coeff(m) for m in random.Random(seed).sample(low_grade, 28)}) for seed in (1, 2))
        with mock.patch.object(algebra, "blade_product", wraps=algebra.blade_product) as spy:
            x * y
        assert spy.call_count == len(x.terms) * len(y.terms) == 28 * 28

    @settings(max_examples=60, deadline=None)
    @given(dense_int_pairs())
    def test_gather_path_matches_reference(self, pair):
        x, y = pair
        with spy_gather() as spy:
            assert_same_product(x, y)
        assert spy.call_count == 1

    @pytest.mark.parametrize(
        "sig,a,b,gather",
        [
            # exact ints at the int64 bound: 8 * 2^29 * (2^31 - 1) < 2^63 takes the gather path
            ((3, 0), {m: 1 << 29 for m in range(8)}, {m: (1 << 31) - 1 for m in range(8)}, True),
            ((3, 0), {m: 1 << 29 for m in range(8)}, {m: 1 << 31 for m in range(8)}, False),
            ((2, 1), {m: (1 << 31) + m for m in range(8)}, {m: m - 9 for m in range(8)}, True),
            ((2, 1), {m: (1 << 62) + m for m in range(8)}, {m: m - 4 for m in range(8)}, False),
            # (1 + e1)(1 + e2)(1 + e3) * (1 - e3)(1 + e2)(1 + e1) = 0
            ((3, 0), {m: 1 for m in range(8)}, {0: 1, 1: 1, 2: 1, 3: -1, 4: -1, 5: 1, 6: 1, 7: 1}, True),
            ((0, 0), {0: 3}, {0: -4}, False),
            ((2, 1), {m: m + 1 for m in range(2)}, {m: m - 9 for m in range(4)}, False),  # 8 < 32 pairs
            ((3, 1), {m: m + 1 for m in range(16)}, {5: 2}, False),  # 16 < 32 pairs
            ((3, 1), {m: m + 1 for m in range(16)}, {5: 2, 6: -1}, True),  # 32 pairs
            ((3, 2), {m: m + 1 for m in range(32)}, {5: 2}, True),  # 2^5 = 32 pairs
            # all-Fraction factors run on their integer forms, here over the common denominators 3 and 2520
            ((2, 1), {m: Fraction(m + 1, 3) for m in range(8)}, {m: Fraction(-1, m + 2) for m in range(8)}, True),
            # 1/p over 8 distinct primes: each scaled numerator is the product of the other 7, about 2^70
            ((2, 1), {m: Fraction(1, p) for m, p in enumerate(PRIMES)}, {m: Fraction(m - 4, p) for m, p in enumerate(PRIMES)}, False),
            ((2, 1), {m: HalfStep(m + 1, 3) for m in range(8)}, {m: Fraction(-1, m + 2) for m in range(8)}, False),
            ((2, 1), {m: m / 3 for m in range(8)}, {m: 1.5 - m for m in range(8)}, False),
            ((2, 1), {m: complex(m, 1) for m in range(8)}, {m: 1j * m - 2 for m in range(8)}, False),
            ((2, 1), {m: True for m in range(8)}, {m: True for m in range(8)}, False),
            ((2, 1), {m: np.int64(m + 1) for m in range(8)}, {m: np.int64(2 - m) for m in range(8)}, False),
            ((2, 1), {0: 1, 1: Fraction(1, 2), 2: 3, 3: -1}, {m: m + 1 for m in range(8)}, False),
            ((6, 6), {m: 1 for m in range(1 << 12)}, {3: 5}, True),  # the gather path serves every n
            # balanced sparse factors at n = 16: the longer one needs 2^16 / 128 = 512 terms
            ((8, 8), {m * 512: m % 3 + 1 for m in range(128)}, {m * 128: m % 7 - 3 or 4 for m in range(512)}, True),
            ((8, 8), {m * 500: m % 3 + 1 for m in range(129)}, {m * 128: m % 7 - 3 or 4 for m in range(511)}, False),
        ],
        ids=[
            "int64-bound", "int64-overflow", "ge-2^31", "ge-2^62", "cancels-to-zero", "n0", "n3-8-pairs", "n4-16-pairs",
            "n4-32-pairs", "n5-32-pairs", "fraction", "fraction-scaled-overflow", "fraction-subclass", "float", "complex",
            "bool", "np-int64", "mixed-int-fraction", "n12", "n16-density-1/128", "n16-sparser",
        ],
    )
    def test_path_selection(self, sig, a, b, gather):
        x, y = Multivector(sig, a), Multivector(sig, b)
        with spy_gather() as spy:
            assert_same_product(x, y)
        assert spy.call_count == int(gather)

    def test_sparse_product_takes_the_loop(self):
        sig = (4, 4)
        x = Multivector(sig, {1: 2, 6: -1, 0b1000_0000: 3})
        y = Multivector(sig, {m: m - 5 for m in range(0, 256, 4)})  # 3 * 64 < 256 pairs
        with spy_gather() as spy:
            assert_same_product(x, y)
        assert spy.call_count == 0

    def test_dense_factor_times_single_blade(self):
        sig = (5, 5)
        x = Multivector(sig, {m: m % 7 - 7 for m in range(1 << 10)})
        y = Multivector.from_mask(sig, 0b1010110011, -2)
        with spy_gather() as spy:
            assert_same_product(x, y)
            assert_same_product(y, x)
        assert spy.call_count == 2

    def test_one_blade_times_every_blade_at_16_generators(self):
        sig = Signature(8, 8)
        x = checks._every_blade(sig)
        blade = Multivector.from_mask(sig, 0b1011_0010_1100_0101, -3)
        with spy_gather() as spy:
            assert_same_product(blade, x)
            assert_same_product(x, blade)
        assert spy.call_count == 2

    @pytest.mark.parametrize("left", [True, False], ids=["rows-left", "rows-right"])
    @pytest.mark.parametrize("p", [0, 8, 16])
    def test_several_rows_times_every_blade_at_16_generators(self, p, left):
        # rows left of the dense factor read the rshift sign masks, rows right of it the lshift ones
        sig = Signature(p, 16 - p)
        rng = random.Random(p)
        masks = [0xFFFF, 1 << 15, rng.randrange(1 << 15, 1 << 16), rng.randrange(1 << 15)]
        masks += rng.sample(range(1 << 16), 4)
        rows = Multivector(sig, {m: rng.choice([-1, 1]) * rng.randint(1, 9) for m in masks})
        x = checks._every_blade(sig)
        with spy_gather() as spy:
            assert_same_product(*((rows, x) if left else (x, rows)))
        assert spy.call_count == 1


class TestMultivectorProduct:
    def test_identity(self):
        sig = (2, 1)
        x = Multivector(sig, {0b101: Fraction(3, 2), 0b010: -2})
        assert Multivector.scalar(sig, 1) * x == x
        assert x * Multivector.scalar(sig, 1) == x

    def test_expanded_product(self):
        # (e1 + e2)(e1 - e2) = e1^2 - e1e2 + e2e1 - e2^2 = -2 e12 in Cl(3,0)
        sig = (3, 0)
        x = Multivector.blade(sig, (1,)) + Multivector.blade(sig, (2,))
        y = Multivector.blade(sig, (1,)) - Multivector.blade(sig, (2,))
        assert x * y == Multivector.blade(sig, (1, 2), -2)

    def test_volume_square_spacetime(self):
        sig = (1, 3)
        om = volume_element(sig)
        assert om * om == Multivector.scalar(sig, -1)

    def test_signature_mismatch(self):
        with pytest.raises(ValueError):
            Multivector.scalar((1, 0), 1) * Multivector.scalar((0, 1), 1)

    @pytest.mark.parametrize(
        "terms,bad",
        [
            ({1: 1, 0b100: 2}, "0x4"),
            ({-1: 1, 0b11: 2}, "-0x1"),
            ({-3: 1, 1: 1, 0b1000: 2}, "-0x3"),
            ({0b11: 0, 1 << 16: 0}, "0x10000"),
        ],
    )
    def test_construction_rejects_masks_outside_the_signature(self, terms, bad):
        with pytest.raises(ValueError, match=f"blade {bad} invalid for Cl\\(1,1\\)"):
            Multivector((1, 1), terms)

    def test_construction_drops_zero_coefficients(self):
        x = Multivector((1, 1), {0: 0, 1: Fraction(0), 2: 0.0, 3: Fraction(1, 2)})
        assert x.terms == {3: Fraction(1, 2)} and Multivector((1, 1)).terms == {}

    def test_scalar_multiplication(self):
        sig = (1, 1)
        x = Multivector.blade(sig, (1, 2), Fraction(1, 3))
        assert 3 * x == Multivector.blade(sig, (1, 2))
        assert x * 3 == Multivector.blade(sig, (1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_associative(self, data):
        sig = data.draw(st.sampled_from(signatures_prop))
        x = data.draw(mv_strategy(sig))
        y = data.draw(mv_strategy(sig))
        z = data.draw(mv_strategy(sig))
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reversion_antiautomorphism(self, data):
        sig = data.draw(st.sampled_from(signatures_prop))
        x = data.draw(mv_strategy(sig))
        y = data.draw(mv_strategy(sig))
        assert (x * y).reversion() == y.reversion() * x.reversion()


class TestAutomorphisms:
    def test_grade_involution_signs(self):
        sig = (2, 2)
        e12 = Multivector.blade(sig, (1, 2))
        e123 = Multivector.blade(sig, (1, 2, 3))
        assert e12.grade_involution() == e12
        assert e123.grade_involution() == -e123
        assert Multivector.scalar(sig, 5).grade_involution() == Multivector.scalar(sig, 5)

    def test_reversion_signs(self):
        sig = (2, 2)
        assert Multivector.blade(sig, (1, 2)).reversion() == -Multivector.blade(sig, (1, 2))
        assert Multivector.blade(sig, (1,)).reversion() == Multivector.blade(sig, (1,))
        # k = 4: k(k-1)/2 = 6, even
        assert Multivector.blade(sig, (1, 2, 3, 4)).reversion() == Multivector.blade(sig, (1, 2, 3, 4))

    def test_conjugation_signs(self):
        sig = (2, 2)
        assert Multivector.blade(sig, (1,)).conjugation() == -Multivector.blade(sig, (1,))
        # k = 4: k(k+1)/2 = 10, even
        assert Multivector.blade(sig, (1, 2, 3, 4)).conjugation() == Multivector.blade(sig, (1, 2, 3, 4))
        assert Multivector.scalar(sig, 1).conjugation() == Multivector.scalar(sig, 1)

    @pytest.mark.parametrize("sig", signatures_small)
    def test_involutive_and_composition(self, sig):
        for mask in all_blades(sig):
            x = Multivector.from_mask(sig, mask, Fraction(7, 3))
            assert x.grade_involution().grade_involution() == x
            assert x.reversion().reversion() == x
            assert x.conjugation().conjugation() == x
            assert x.conjugation() == x.grade_involution().reversion()
            assert x.conjugation() == x.reversion().grade_involution()


class TestVolumeElement:
    @pytest.mark.parametrize(
        "sig,expected",
        [((1, 3), -1), ((4, 0), 1), ((0, 0), 1), ((3, 0), -1), ((0, 1), -1), ((1, 0), 1)],
    )
    def test_examples(self, sig, expected):
        assert omega_square(sig) == expected
        assert omega_square_mod8(sig) == expected

    def test_empty_signature_volume_is_unit(self):
        assert volume_element((0, 0)) == Multivector.scalar((0, 0), 1)

    def test_mod8_table_exhaustive(self):
        for n in range(1, 13):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                assert omega_square(sig) == omega_square_mod8(sig), sig


class TestCenter:
    @pytest.mark.parametrize(
        "sig,expected",
        [
            ((3, 0), {0, 0b111}),
            ((1, 3), {0}),
            ((0, 1), {0, 1}),
            ((0, 0), {0}),
        ],
    )
    def test_examples(self, sig, expected):
        assert center_blades(sig) == frozenset(expected)

    @pytest.mark.parametrize("sig", signatures_small)
    def test_matches_brute_force(self, sig):
        assert center_blades(sig) == brute_force_commutant(sig)


class TestOmegaConjugation:
    def test_cl20_vector(self):
        sig = (2, 0)
        e1 = Multivector.blade(sig, (1,))
        assert involution_via_omega(e1) == -e1

    def test_cl20_bivector(self):
        sig = (2, 0)
        e12 = Multivector.blade(sig, (1, 2))
        assert involution_via_omega(e12) == e12

    def test_trivial_signature(self):
        x = Multivector.scalar((0, 0), Fraction(5))
        assert involution_via_omega(x) == x

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            involution_via_omega(Multivector.blade((3, 0), (1,)))

    @pytest.mark.parametrize("sig", [Signature(6, 6), Signature(8, 8)])
    def test_every_blade_takes_no_pair_loop(self, sig):
        """omega_square and the omega * omega^-1 check make the only blade_product calls."""
        x = checks._every_blade(sig)
        with mock.patch.object(algebra, "blade_product", wraps=algebra.blade_product) as spy:
            image = involution_via_omega(x)
        assert spy.call_count == 2
        assert image == x.grade_involution()

    @pytest.mark.parametrize("sig", [s for s in signatures_small if s.n % 2 == 0])
    def test_equals_grade_involution(self, sig):
        for mask in all_blades(sig):
            x = Multivector.from_mask(sig, mask)
            assert involution_via_omega(x) == x.grade_involution()


class TestAutomorphismChecks:
    """The registry checks apply each map once per signature, to an element
    holding every blade; each mutant below must still turn its check to FAIL."""

    def test_reversion_sign_wrong_at_one_grade(self):
        def reversion(x):  # +1 at grade 3, where the sign is -1
            return Multivector(x.sig, {m: c if grade(m) in (0, 1, 3, 4) else -c for m, c in x.terms.items()})

        with mock.patch.object(Multivector, "reversion", reversion):
            r = checks.check_automorphism_signs(4, 0)
        assert (r.passed, r.detail) == (False, "Cl(0,3) reversion")

    def test_reversion_swapping_two_blades_of_one_grade(self):
        honest = Multivector.reversion

        def reversion(x):  # e1 and e2 trade places; the grade signs stay right
            terms = honest(x).terms
            if 0b10 in terms:
                terms[0b01], terms[0b10] = terms[0b10], terms[0b01]
            return Multivector(x.sig, terms)

        with mock.patch.object(Multivector, "reversion", reversion):
            r = checks.check_automorphism_signs(3, 0)
        assert (r.passed, r.detail) == (False, "Cl(0,2) reversion")

    def test_grade_involution_moving_one_blade(self):
        honest = Multivector.grade_involution

        def grade_involution(x):  # e12 lands on e2 = e12 ^ e1, keeping its sign
            terms = honest(x).terms
            if 0b11 in terms:
                terms[0b10] = terms.pop(0b11)
            return Multivector(x.sig, terms)

        with mock.patch.object(Multivector, "grade_involution", grade_involution):
            r = checks.check_automorphism_signs(3, 0)
        assert (r.passed, r.detail) == (False, "Cl(0,2) grade_involution")

    def test_omega_conjugation_on_the_wrong_blade(self):
        def involution_via_wrong_blade(x):  # conjugates by e_1..e_{n-1}, not e_1..e_n
            w = Multivector.from_mask(x.sig, (1 << x.sig.n) - 1 >> 1)
            return w * x * (w * (w * w).coefficient(0))

        with mock.patch.object(checks, "involution_via_omega", involution_via_wrong_blade):
            r = checks.check_omega_conjugation(4, 0)
        assert (r.passed, r.detail) == (False, "Cl(0,2)")


class TestGradedBracket:
    def test_odd_odd_uses_anticommutator(self):
        sig = (2, 0)
        e1 = Multivector.blade(sig, (1,))
        res = graded_bracket(e1, e1)
        assert res == GradedBracketResult(Multivector.scalar(sig, 2), 0)

    def test_distinct_generators_vanish(self):
        sig = (2, 0)
        e1, e2 = generators(sig)
        res = graded_bracket(e1, e2)
        assert res.value.is_zero() and res.degree == 0

    def test_unit_is_central(self):
        sig = (2, 1)
        one = Multivector.scalar(sig, 1)
        for mask in all_blades(sig):
            x = Multivector.from_mask(sig, mask)
            assert graded_bracket(one, x).value.is_zero()

    def test_rejects_mixed_parity(self):
        sig = (2, 0)
        mixed = Multivector.scalar(sig, 1) + Multivector.blade(sig, (1,))
        with pytest.raises(ValueError):
            graded_bracket(mixed, mixed)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_degree_additivity_and_antisymmetry(self, data):
        sig = data.draw(st.sampled_from(signatures_prop))
        parts = []
        for _ in range(2):
            x = data.draw(mv_strategy(sig))
            deg = data.draw(st.integers(0, 1))
            hom = Multivector(
                sig, {m: c for m, c in x.terms.items() if grade(m) % 2 == deg}
            )
            parts.append((hom, hom.z2_degree()))
        (x, dx), (y, dy) = parts
        res = graded_bracket(x, y)
        assert res.degree == (dx + dy) % 2
        flip = graded_bracket(y, x)
        sign = 1 if (dx * dy) % 2 else -1  # [[x,y]] = -(-1)^{dx dy} [[y,x]]
        assert res.value == sign * flip.value

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_graded_jacobi(self, data):
        sig = data.draw(st.sampled_from(signatures_prop))
        homs = []
        for _ in range(3):
            x = data.draw(mv_strategy(sig))
            deg = data.draw(st.integers(0, 1))
            hom = Multivector(sig, {m: c for m, c in x.terms.items() if grade(m) % 2 == deg})
            homs.append((hom, hom.z2_degree()))
        (x1, d1), (x2, d2), (x3, d3) = homs
        t1 = (-1) ** (d1 * d3) * graded_bracket(x1, graded_bracket(x2, x3).value).value
        t2 = (-1) ** (d2 * d1) * graded_bracket(x2, graded_bracket(x3, x1).value).value
        t3 = (-1) ** (d3 * d2) * graded_bracket(x3, graded_bracket(x1, x2).value).value
        assert (t1 + t2 + t3).is_zero()
