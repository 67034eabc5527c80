"""Core multivector arithmetic: products, automorphisms, volume, center."""

import ast
import contextlib
import copy
import dataclasses
import inspect
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
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
    metric_sign,
    omega_square,
    omega_square_mod8,
    volume_element,
)
from cliffrep.checks import brute_force_commutant
from cliffrep.classify import classify

SRC = Path(__file__).resolve().parents[1] / "src"


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


def crossing_blade_product(a_mask, b_mask, sig):
    """Reference product: one transposition per crossing needed to sort the
    concatenated index lists (each generator of b crosses the generators of
    a above it), then one metric factor per repeated generator above p."""
    p, q = sig
    swaps = 0
    t = b_mask
    while t:
        low = t & -t
        swaps += (a_mask >> low.bit_length()).bit_count()
        t ^= low
    swaps += ((a_mask & b_mask) >> p).bit_count()
    return -1 if swaps & 1 else 1, a_mask ^ b_mask


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


class TestGeneratorIndex:
    """Every 1-based generator index is checked by metric_sign, with its one message."""

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_out_of_range_index(self, i):
        sig = Signature(2, 1)
        builds = [
            metric_sign,
            Multivector.generator,
            lambda sig, i: Multivector.blade(sig, [i]),
            lambda sig, i: Multivector.blade(sig, (1, i)),
        ]
        for build in builds:
            with pytest.raises(ValueError) as err:
                build(sig, i)
            assert str(err.value) == f"generator index {i} outside 1..3"

    @pytest.mark.parametrize("i", [1.5, 1.0, None, "1"])
    def test_non_integer_index(self, i):
        """metric_sign takes the index through as_count, as Signature takes its counts."""
        builds = [
            metric_sign,
            Multivector.generator,
            lambda sig, i: Multivector.blade(sig, [i]),
        ]
        for build in builds:
            with pytest.raises(ValueError) as err:
                build(Signature(1, 1), i)
            assert str(err.value) == f"generator index must be an integer, got {i!r}"

    @pytest.mark.parametrize("indices", [[1, 1], [2, 1], [1, 3, 2]])
    def test_repeated_or_descending_index(self, indices):
        with pytest.raises(ValueError) as err:
            Multivector.blade(Signature(2, 1), indices)
        assert str(err.value) == f"indices must be strictly ascending: {tuple(indices)}"

    def test_descending_iterator_names_its_indices(self):
        with pytest.raises(ValueError) as err:
            Multivector.blade((3, 0), (i for i in [2, 1]))
        assert str(err.value) == "indices must be strictly ascending: (2, 1)"


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

    @pytest.mark.parametrize("value", [None, (1, 2, 3), (1,), 5, 2.0, []])
    def test_rejects_anything_but_a_pair(self, value):
        builds = (as_signature, Signature._make, classify, lambda sig: metric_sign(sig, 1), algebra.all_blades)
        for build in builds:
            with pytest.raises(ValueError) as err:
                build(value)
            assert str(err.value) == f"a signature must be a (p, q) pair, got {value!r}"

    def test_make_names_the_values_of_an_iterator(self):
        with pytest.raises(ValueError) as err:
            Signature._make(iter((1, 2, 3)))
        assert str(err.value) == "a signature must be a (p, q) pair, got (1, 2, 3)"
        assert Signature._make(iter((1, 2))) == Signature(1, 2)

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
        """Both references, the bubble sort and the crossing count, agree with the closed form."""
        for a in all_blades(sig):
            for b in all_blades(sig):
                want = slow_blade_product(a, b, sig)
                assert blade_product(a, b, sig) == want and crossing_blade_product(a, b, sig) == want

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

    @pytest.mark.parametrize(
        "a,b,sig,want",
        [
            # masks outside 0..2^n-1: the least if one is negative, else the greatest
            (-1, 0, (1, 1), "blade -0x1 invalid for Cl(1,1)"),
            (0, -1, (1, 1), "blade -0x1 invalid for Cl(1,1)"),
            (-3, -1, (1, 1), "blade -0x3 invalid for Cl(1,1)"),
            (-1, 4, (1, 1), "blade -0x1 invalid for Cl(1,1)"),
            (4, -2, (1, 1), "blade -0x2 invalid for Cl(1,1)"),
            (4, 0, (1, 1), "blade 0x4 invalid for Cl(1,1)"),
            (0, 4, (1, 1), "blade 0x4 invalid for Cl(1,1)"),
            (3, 8, (1, 1), "blade 0x8 invalid for Cl(1,1)"),
            (1 << 16, 0, (8, 8), "blade 0x10000 invalid for Cl(8,8)"),
            (0, 1 << 16, (16, 0), "blade 0x10000 invalid for Cl(16,0)"),
            (1 << 70, 1, (2, 1), "blade 0x400000000000000000 invalid for Cl(2,1)"),
            # non-integer masks: the first one is named
            (1.0, 0, (1, 1), "blade mask must be an integer, got 1.0"),
            (0, 1.5, (1, 1), "blade mask must be an integer, got 1.5"),
            (1.0, 1.5, (1, 1), "blade mask must be an integer, got 1.0"),
            (-1, 1.0, (1, 1), "blade mask must be an integer, got 1.0"),
            (1.0, -1, (1, 1), "blade mask must be an integer, got 1.0"),
            (np.float64(1), 0, (1, 1), f"blade mask must be an integer, got {np.float64(1)!r}"),
            ("1", 0, (1, 1), "blade mask must be an integer, got '1'"),
            (0, "1", (1, 1), "blade mask must be an integer, got '1'"),
            (None, 0, (1, 1), "blade mask must be an integer, got None"),
            (0, None, (1, 1), "blade mask must be an integer, got None"),
            (None, None, (1, 1), "blade mask must be an integer, got None"),
            # bools and numpy integers are integer masks, read as ints
            (True, True, (1, 1), (1, 0)),
            (True, 2, (1, 1), (1, 3)),
            (2, True, (0, 2), (-1, 3)),
            (False, 3, (2, 0), (1, 3)),
            (True, 4, (1, 1), "blade 0x4 invalid for Cl(1,1)"),
            (np.int64(3), np.int64(3), (2, 0), (-1, 0)),
            (np.uint16(1), 2, (0, 2), (1, 3)),
            (2, np.int8(1), (1, 1), (-1, 3)),
            (np.uint8(255), np.uint8(255), (4, 4), (1, 0)),
            (np.int64(-1), 0, (1, 1), "blade -0x1 invalid for Cl(1,1)"),
            (np.int64(4), 0, (1, 1), "blade 0x4 invalid for Cl(1,1)"),
            # a numpy bool is no integer (numbers.Integral), on every numpy: the first one is named
            (np.True_, 1, (1, 1), f"blade mask must be an integer, got {np.True_!r}"),
            (1, np.False_, (1, 1), f"blade mask must be an integer, got {np.False_!r}"),
            (np.False_, np.True_, (1, 1), f"blade mask must be an integer, got {np.False_!r}"),
            (-1, np.True_, (1, 1), f"blade mask must be an integer, got {np.True_!r}"),
            (np.True_, 4, (1, 1), f"blade mask must be an integer, got {np.True_!r}"),
            # signatures: any (p, q) pair, the signature checked before the masks
            (3, 1, (1, 1), (-1, 2)),
            (3, 1, [1, 1], (-1, 2)),
            (3, 1, Signature(1, 1), (-1, 2)),
            (3, 1, (np.int64(1), 1), (-1, 2)),
            (8, 0, [1, 1], "blade 0x8 invalid for Cl(1,1)"),
            (3, 1, (1,), "a signature must be a (p, q) pair, got (1,)"),
            (3, 1, (1, 2, 3), "a signature must be a (p, q) pair, got (1, 2, 3)"),
            (3, 1, None, "a signature must be a (p, q) pair, got None"),
            (3, 1, 5, "a signature must be a (p, q) pair, got 5"),
            (3, 1, (1.5, 1), "generator counts must be integers, got 1.5, 1"),
            (-1, 1.0, (1.5, 1), "generator counts must be integers, got 1.5, 1"),
            (3, 1, (-1, 2), "generator counts must be non-negative"),
            (3, 1, (9, 8), "at most 16 generators are supported"),
            # the top of the 16-generator range
            (0xFFFF, 0xFFFF, (8, 8), (1, 0)),
            (0xFFFF, 0xFFFF, (16, 0), (1, 0)),
            (0xFFFF, 0xFFFF, (0, 16), (1, 0)),
            (0xFFFF, 1, (16, 0), (-1, 0xFFFE)),
            (1, 0xFFFF, (16, 0), (1, 0xFFFE)),
            (0x8000, 0x7FFF, (5, 11), (-1, 0xFFFF)),
            (0x7FFF, 0x8000, (5, 11), (1, 0xFFFF)),
            (0xAAAA, 0x5555, (3, 13), (1, 0xFFFF)),
            (0, 0, (0, 0), (1, 0)),
        ],
        ids=repr,
    )
    def test_input_handling(self, a, b, sig, want):
        """Every input kind gives the int pair or the ValueError text of the one rule for its kind."""
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                blade_product(a, b, sig)
            assert str(err.value) == want
        else:
            got = blade_product(a, b, sig)
            assert got == want and type(got) is tuple and all(type(v) is int for v in got)

    def test_an_index_is_not_enough_for_a_mask(self):
        """The rule reads numbers.Integral, not __index__: a numpy bool stays no mask where numpy
        still offers its deprecated __index__, as this stand-in does."""

        class IndexOnly:
            def __index__(self):
                return 1

            def __repr__(self):
                return "True"

        for build in (lambda m: blade_product(m, 1, (1, 1)), lambda m: blade_product(1, m, (1, 1)), lambda m: Multivector((1, 1), {m: 1})):
            with pytest.raises(ValueError) as err:
                build(IndexOnly())
            assert str(err.value) == "blade mask must be an integer, got True"

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
    def test_numpy_integer_masks_give_the_int_result(self, dtype):
        sig = Signature(2, 1)
        for a in all_blades(sig):
            for b in all_blades(sig):
                got = blade_product(dtype(a), dtype(b), sig)
                assert got == blade_product(a, b, sig) and all(type(v) is int for v in got)


signatures_grid = [Signature(p, n - p) for n in range(0, 9) for p in range(n + 1)]


class TestSignRule:
    """Both closed forms, ``blade_product`` on ints and ``blade_signs`` on arrays, against the crossing count."""

    @pytest.mark.parametrize("sig", signatures_grid)
    def test_signs_match_blade_product_exhaustively(self, sig):
        blades = all_blades(sig)
        masks = np.arange(1 << sig.n)
        ref = [crossing_blade_product(a, b, sig) for a in blades for b in blades]
        assert [blade_product(a, b, sig) for a in blades for b in blades] == ref
        assert blade_signs(masks[:, None], masks[None, :], sig).ravel().tolist() == [sign for sign, _ in ref]

    @pytest.mark.parametrize("n", range(9, 17))
    def test_full_rows_and_columns_at_large_n(self, n):
        # every p with 3 rows and 3 columns up to n = 12; from n = 13, where a
        # full row costs 2^13+ products, p in {0, one drawn, n} with one each
        rng = random.Random(n)
        masks = np.arange(1 << n)
        ps, lines = (range(n + 1), 3) if n <= 12 else (sorted({0, rng.randint(1, n - 1), n}), 1)
        for p in ps:
            sig = Signature(p, n - p)
            for a, b in zip(rng.sample(range(1 << n), lines), rng.sample(range(1 << n), lines)):
                row, column = [(a, m) for m in range(1 << n)], [(m, b) for m in range(1 << n)]
                for pairs, signs in ((row, blade_signs(a, masks, sig)), (column, blade_signs(masks, b, sig))):
                    ref = [crossing_blade_product(x, y, sig) for x, y in pairs]
                    assert [blade_product(x, y, sig) for x, y in pairs] == ref
                    assert signs.tolist() == [sign for sign, _ in ref]

    @pytest.mark.parametrize("n", range(0, 17))
    def test_signs_match_blade_product_on_random_masks(self, n):
        rng = random.Random(100 + n)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        a = [rng.randrange(1 << n) for _ in range(2000)]
        b = [rng.randrange(1 << n) for _ in range(2000)]
        ref = [crossing_blade_product(x, y, sig) for x, y in zip(a, b)]
        assert [blade_product(x, y, sig) for x, y in zip(a, b)] == ref
        got = blade_signs(np.array(a), np.array(b), sig)
        assert got.dtype == np.int8
        assert got.tolist() == [sign for sign, _ in ref]

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
        with pytest.raises(ValueError, match="blade mask must be an integer, got 1.0"):
            blade_signs(np.array([1.0]), np.array([0]), (1, 1))

    def test_signs_reject_numpy_bool_arrays(self):
        """A bool array is not read as the masks 0 and 1: its least entry is named, as a float array's is."""
        for a, b, bad in (([True, False], [1], np.False_), ([0, 1], [True], np.True_)):
            with pytest.raises(ValueError) as err:
                blade_signs(np.array(a), np.array(b), (1, 1))
            assert str(err.value) == f"blade mask must be an integer, got {bad!r}"

    @pytest.mark.parametrize("masks", [[np.True_, 2], [2, np.False_], [0, 1, np.True_]], ids=str)
    def test_signs_reject_numpy_bools_among_ints(self, masks):
        """In an object array a numpy bool compares with ints as 0 or 1, so each value is read by the rule."""
        bad = next(m for m in masks if isinstance(m, np.bool_))
        for a, b in ((masks, [1]), ([1], masks)):
            with pytest.raises(ValueError) as err:
                blade_signs(np.array(a, dtype=object), np.array(b, dtype=object), (1, 1))
            assert str(err.value) == f"blade mask must be an integer, got {bad!r}"

    @pytest.mark.parametrize("masks", [[None, 1], [1, None], [0, "1", 1]], ids=str)
    def test_signs_reject_mixed_object_arrays(self, masks):
        """Values that do not compare with ints: the first non-integer is named."""
        bad = next(m for m in masks if not isinstance(m, int))
        for a, b in ((masks, [0]), ([0], masks)):
            with pytest.raises(ValueError) as err:
                blade_signs(np.array(a, dtype=object), np.array(b, dtype=object), (1, 1))
            assert str(err.value) == f"blade mask must be an integer, got {bad!r}"

    def test_parity_table_is_exact(self):
        want = [m.bit_count() & 1 for m in range(1 << 16)]
        masks = np.arange(1 << 16)
        for dtype in (np.int32, np.int64):
            assert algebra._parity(masks.astype(dtype)).tolist() == want
        for m in (0, 1, 0b1011, 1 << 15, (1 << 16) - 1):
            assert type(algebra._parity(m)) is int and algebra._parity(m) == want[m]
        # so psi_blade keeps returning Python ints
        t = tensor.GradedTensorProduct((3, 2), (1, 2))
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
    """The pair loop on :func:`blade_product` alone: the oracle of both routes."""
    terms = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            sign, mask = blade_product(ma, mb, x.sig)
            terms[mask] = terms.get(mask, 0) + sign * ca * cb
    return {m: c for m, c in terms.items() if c != 0}


def assert_same_product(x, y):
    """``x * y`` equals the reference in value, type and repr: an int or a ``Fraction`` on each blade."""
    got = (x * y).terms
    want = reference_product(x, y)
    assert got == want
    assert {m: (type(c), repr(c)) for m, c in got.items()} == {m: (type(c), repr(c)) for m, c in want.items()}


@contextlib.contextmanager
def spy_routes():
    """Spies on the two product routes: the yielded list gets "pauli" or
    "loop" for each product, in order."""
    routes = []

    def spy(name, route):
        honest = getattr(algebra, name)

        def wrapper(*args):
            routes.append(route)
            return honest(*args)

        return mock.patch.object(algebra, name, wrapper)

    with spy("_pauli_product", "pauli"), spy("_pair_product", "loop"):
        yield routes


def pauli_pairs(n):
    """Fewest blade pairs that take the Pauli route at n generators:
    max(d^3/64, d^2/2, 2^6) with d = 2^ceil(n/2)."""
    d = 2 ** ((n + 1) // 2)
    return max(d**3 // 64, d**2 // 2, 64)


def pauli_rows(n):
    """Fewest terms that, times every blade, take the Pauli route at n generators (one row never does)."""
    return max(2, -(-pauli_pairs(n) >> n))


def documented_route(x, y):
    """The route the algebra module documents for a product of int factors."""
    a, b, n = x.terms, y.terms, x.sig.n
    if min(len(a), len(b)) >= 2 and len(a) * len(b) >= pauli_pairs(n):
        if sum(map(abs, a.values())) * sum(map(abs, b.values())) * 2 ** ((n + 1) // 2) < 2**63:
            return "pauli"
    return "loop"


def int_terms(rng, size, count, bound=9):
    return {m: rng.choice([-1, 1]) * rng.randint(1, bound) for m in rng.sample(range(size), count)}


def draw_lengths(draw, n, low, high):
    """Term counts, at least two each, of two factors at n >= 1 generators with
    low to high blade pairs between them (at least that many)."""
    size = 1 << n
    high = min(high, size * size)
    pairs = draw(st.integers(min(max(low, 4), high), high))
    len_a = draw(st.integers(max(2, -(-pairs // size)), min(size, pairs // 2)))
    return len_a, max(2, -(-pairs // len_a))


@st.composite
def int_pairs_near_the_pauli_floor(draw):
    """Int multivectors at n = 3..12 with a quarter to four times the Pauli
    floor's blade pairs (at most every pair), so both routes are drawn."""
    n = draw(st.integers(3, 12))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    size = 1 << n
    len_a, len_b = draw_lengths(draw, n, pauli_pairs(n) // 4, 4 * pauli_pairs(n))
    bound = draw(st.sampled_from([2, 9, 1 << 26]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Multivector(sig, int_terms(rng, size, len_a, bound)), Multivector(sig, int_terms(rng, size, len_b, bound))


@st.composite
def pauli_int_pairs(draw):
    """Int multivectors at n = 6..12 with one to two times the Pauli floor's
    blade pairs; coefficients up to 2^26 can pass the Pauli int64 bound,
    which sends them to the loop."""
    n = draw(st.integers(6, 12))
    p = draw(st.integers(0, n))
    len_a, len_b = draw_lengths(draw, n, pauli_pairs(n), 2 * pauli_pairs(n))
    bound = draw(st.sampled_from([1, 9, 1 << 20, 1 << 26]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = 1 << n
    return Multivector((p, n - p), int_terms(rng, size, len_a, bound)), Multivector((p, n - p), int_terms(rng, size, len_b, bound))


PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)


class HalfStep(Fraction):
    """A ``Fraction`` subclass: the coefficient rule reads it as two ints, as it reads a ``Fraction``."""


@st.composite
def fraction_pairs(draw):
    """All-Fraction multivectors and the route their product takes.

    ``loop``: at most 5 and 12 terms, so below the Pauli floor of 2^6
    pairs, n = 0..16, each denominator drawn up to 10^4.  ``pauli``: one to two times
    the floor's blade pairs at n = 5..12, each factor over one denominator
    D <= 10^4, so its common denominator divides D and its scaled
    numerators stay below 10^4, within the Pauli int64 bound.
    ``overflow``: the same at n = 5..10 with one numerator D * 2^40 + 1 a
    factor, coprime to D, so the scaled factors fail the Pauli int64 bound
    and the int pair loop serves them.
    """
    path = draw(st.sampled_from(["loop", "pauli", "overflow"]))
    n = draw(st.integers(*{"loop": (0, 16), "pauli": (5, 12), "overflow": (5, 10)}[path]))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    size = 1 << n
    rng = random.Random(draw(st.integers(0, 2**32)))
    if path == "loop":
        len_a, len_b = draw(st.integers(1, min(size, 5))), draw(st.integers(1, min(size, 12)))
    else:
        len_a, len_b = draw_lengths(draw, n, pauli_pairs(n), 2 * pauli_pairs(n))

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
    return (x, y) if draw(st.booleans()) else (y, x), path.replace("overflow", "loop")


def signed_zero_complex(rng):
    """A nonzero complex with parts drawn from signed zeros and small floats."""
    parts = [0.0, -0.0, 0.5, -1.25, 3.0, rng.uniform(-2, 2)]
    return complex(rng.choice(parts), rng.choice(parts)) or complex(1.0, -0.0)


class TestProductRoutes:
    @settings(max_examples=40, deadline=None)
    @given(fraction_pairs())
    def test_fraction_product_is_exact(self, case):
        (x, y), route = case
        with spy_routes() as routes:
            assert_same_product(x, y)
        assert routes == [route]

    @pytest.mark.parametrize(
        "coeff",
        [lambda m: m % 5 - 2 or 3, lambda m: Fraction(m % 7 - 3 or 5, m % 9 + 1)],
        ids=["int", "fraction"],
    )
    def test_pair_loop_calls_blade_product_once_per_pair(self, coeff):
        sig = Signature(6, 8)
        low_grade = [m for m in range(1 << sig.n) if 1 <= grade(m) <= 3]
        x, y = (Multivector(sig, {m: coeff(m) for m in random.Random(seed).sample(low_grade, 28)}) for seed in (1, 2))
        with spy_routes() as routes, mock.patch.object(algebra, "blade_product", wraps=algebra.blade_product) as spy:
            x * y
        assert spy.call_count == len(x.terms) * len(y.terms) == 28 * 28 and routes == ["loop"]

    @pytest.mark.parametrize(
        "coeff",
        [lambda m: m % 5 - 2 or 3, lambda m: Fraction(m % 7 - 3 or 5, m % 9 + 1)],
        ids=["int", "fraction"],
    )
    def test_one_row_takes_one_sign_mask(self, coeff):
        """A single blade times 20 terms reads one sign mask, by the mirror rule
        when it is the right factor, and makes no blade_product call."""
        sig = Signature(6, 8)
        low_grade = [m for m in range(1 << sig.n) if 1 <= grade(m) <= 3]
        x = Multivector(sig, {m: coeff(m) for m in random.Random(2).sample(low_grade, 20)})
        row = Multivector.from_mask(sig, 0b10_0110_1000_1011, coeff(5))
        for left, right, shift in ((row, x, ()), (x, row, (operator.lshift,))):
            with spy_routes() as routes, mock.patch.object(algebra, "_sign_masks", wraps=algebra._sign_masks) as masks:
                with mock.patch.object(algebra, "blade_product", wraps=algebra.blade_product) as pairs:
                    left * right
            assert masks.call_args_list == [mock.call(0b10_0110_1000_1011, sig.p, *shift)]
            assert pairs.call_count == 0 and routes == ["loop"]
            assert_same_product(left, right)

    @settings(max_examples=60, deadline=None)
    @given(int_pairs_near_the_pauli_floor())
    def test_int_product_matches_reference(self, pair):
        x, y = pair
        with spy_routes() as routes:
            assert_same_product(x, y)
        assert routes == [documented_route(x, y)]

    @settings(max_examples=25, deadline=None)
    @given(pauli_int_pairs())
    def test_pauli_path_matches_reference(self, pair):
        x, y = pair
        with spy_routes() as routes:
            assert_same_product(x, y)
        assert routes == [documented_route(x, y)]

    @pytest.mark.parametrize("kind", ["float", "complex"])
    @pytest.mark.parametrize("n", [0, 3, 6, 8])
    def test_float_and_complex_factors_are_rejected(self, kind, n):
        """Floats and complexes, signed zeros among them, are no coefficients: building a dense
        factor, one row or several raises the rule's message naming the first one, and so does
        scaling an int element by one, so no product ever sees them."""
        rng = random.Random(f"{kind}/{n}")
        sig = Signature(n // 2, n - n // 2)
        draw = (lambda: rng.uniform(-3, 3)) if kind == "float" else (lambda: signed_zero_complex(rng))
        dense = {m: draw() for m in range(1 << n)}
        for terms in (dense, {rng.randrange(1 << n): draw()}, {m: dense[m] for m in rng.sample(range(1 << n), min(1 << n, 5))}):
            with pytest.raises(ValueError) as err:
                Multivector(sig, terms)
            assert str(err.value) == f"a coefficient must be an int or Fraction, got {next(iter(terms.values()))!r}"
        value = draw()
        with pytest.raises(ValueError, match=f"got {re.escape(repr(value))}$"):
            Multivector(sig, {m: m + 1 for m in range(1 << n)}) * value

    def test_complex_sign_cases_are_rejected(self):
        """The values whose int sign factor and signed zeros the pair loop once had to keep
        (-1 * complex(inf, 1) is (-inf+nanj), 0 + (-0.0+1j) is 1j) are rejected, one row or several."""
        sig = Signature(0, 2)
        for value in (complex(math.inf, 1), complex(-0.0, 2), complex(1, -0.0), complex(0.0, -1), -0.0, math.inf, math.nan):
            for terms in ({0b01: value}, {0b01: 1, 0b10: value}):
                with pytest.raises(ValueError, match="a coefficient must be an int or Fraction, got"):
                    Multivector(sig, terms)

    @pytest.mark.parametrize(
        "sig,a,b,route",
        [
            # exact ints up to and past the int64 range: the loop runs on Python ints, the Pauli route within its bound
            ((3, 0), {m: 1 << 29 for m in range(8)}, {m: (1 << 31) - 1 for m in range(8)}, "loop"),
            ((3, 0), {m: 1 << 29 for m in range(8)}, {m: 1 << 31 for m in range(8)}, "loop"),
            ((2, 1), {m: (1 << 31) + m for m in range(8)}, {m: m - 9 for m in range(8)}, "pauli"),
            ((2, 1), {m: (1 << 62) + m for m in range(8)}, {m: m - 4 for m in range(8)}, "loop"),
            # products that cancel to zero, z(1 + e)·(1 - e)w with e^2 = 1:
            # (1 + e1)(1 + e2)(1 + e3) * (1 - e3)(1 + e2)(1 + e1) = 0
            ((3, 0), {m: 1 for m in range(8)}, {0: 1, 1: 1, 2: 1, 3: -1, 4: -1, 5: 1, 6: 1, 7: 1}, "pauli"),
            # (1 + e2)(1 + e1) * (1 - e1)(1 + e2) = 0
            ((2, 0), {0: 1, 1: 1, 2: 1, 3: -1}, {0: 1, 1: -1, 2: 1, 3: -1}, "loop"),
            # z, w over the blades without e1, z(1 + e1) = z + Σ (-1)^|m| z_m e_{m|1}, (1 - e1)w = w - Σ w_m e_{m|1}
            *(
                (
                    sig,
                    {m | s: (-1) ** (s * m.bit_count()) * (m % 7 - 3 or 1) for m in range(0, 1 << sum(sig), 2) for s in (0, 1)},
                    {m | s: (-1) ** s * (m % 5 - 2 or 2) for m in range(0, 1 << sum(sig), 2) for s in (0, 1)},
                    "pauli",
                )
                for sig in ((1, 5), (4, 4))
            ),
            ((0, 0), {0: 3}, {0: -4}, "loop"),
            ((2, 1), {m: m + 1 for m in range(2)}, {m: m - 9 for m in range(4)}, "loop"),
            ((3, 1), {m: m + 1 for m in range(16)}, {5: 2}, "loop"),
            ((3, 1), {m: m + 1 for m in range(16)}, {5: 2, 6: -1}, "loop"),
            ((3, 2), {m: m + 1 for m in range(32)}, {5: 2}, "loop"),
            # all-Fraction factors run on their integer forms, here over the common denominators 3 and 2520
            ((2, 1), {m: Fraction(m + 1, 3) for m in range(8)}, {m: Fraction(-1, m + 2) for m in range(8)}, "pauli"),
            # 1/p over 8 distinct primes: each scaled numerator is the product of the other 7, about 2^70
            ((2, 1), {m: Fraction(1, p) for m, p in enumerate(PRIMES)}, {m: Fraction(m - 4, p) for m, p in enumerate(PRIMES)}, "loop"),
            # every rational coefficient is read as two ints, so a Fraction subclass and bools take the int routes
            ((2, 1), {m: HalfStep(m + 1, 3) for m in range(8)}, {m: Fraction(-1, m + 2) for m in range(8)}, "pauli"),
            ((2, 1), {m: HalfStep(1, p) for m, p in enumerate(PRIMES)}, {m: HalfStep(m - 4, p) for m, p in enumerate(PRIMES)}, "loop"),
            ((2, 1), {m: True for m in range(8)}, {m: True for m in range(8)}, "pauli"),
            ((2, 1), {m: np.int64(m + 1) for m in range(8)}, {m: np.int64(2 - m) for m in range(8)}, "loop"),
            ((2, 1), {0: 1, 1: Fraction(1, 2), 2: 3, 3: -1}, {m: m + 1 for m in range(8)}, "loop"),
            ((6, 6), {m: 1 for m in range(1 << 12)}, {3: 5}, "loop"),  # one row never takes the Pauli route
            # sparse factors at n = 15, 16: below the Pauli floor of 2^24/64 pairs
            ((8, 8), {m * 512: m % 3 + 1 for m in range(128)}, {m * 128: m % 7 - 3 or 4 for m in range(512)}, "loop"),
            ((8, 8), {m * 500: m % 3 + 1 for m in range(129)}, {m * 128: m % 7 - 3 or 4 for m in range(511)}, "loop"),
            ((8, 8), {m * 256: m % 3 + 1 for m in range(256)}, {m * 255: m % 7 - 3 or 4 for m in range(256)}, "loop"),
            ((8, 8), {m * 256: m % 3 + 1 for m in range(255)}, {m * 255: m % 7 - 3 or 4 for m in range(256)}, "loop"),
            ((7, 8), {m * 180: m % 3 + 1 for m in range(182)}, {m * 179: m % 7 - 3 or 4 for m in range(181)}, "loop"),
            ((7, 8), {m * 180: m % 3 + 1 for m in range(181)}, {m * 179: m % 7 - 3 or 4 for m in range(181)}, "loop"),
            # the Pauli floor, max(d^3/64, d^2/2, 2^6) pairs of factors of two terms or more, on both sides
            ((4, 2), {m: m % 5 - 2 or 3 for m in range(2)}, {m: m % 7 - 3 or 1 for m in range(32)}, "pauli"),
            ((4, 2), {m: m % 5 - 2 or 3 for m in range(2)}, {m: m % 7 - 3 or 1 for m in range(31)}, "loop"),
            ((2, 3), {m: m % 5 - 2 or 3 for m in range(32)}, {m: m % 7 - 3 or 1 for m in range(32)}, "pauli"),
            ((2, 2), {m: m % 5 - 2 or 3 for m in range(16)}, {m: m % 7 - 3 or 1 for m in range(16)}, "pauli"),
            ((1, 1), {m: m % 5 - 2 or 3 for m in range(4)}, {m: m % 7 - 3 or 1 for m in range(4)}, "loop"),  # never at n <= 2
            ((3, 4), {m * 5: m % 5 - 2 or 3 for m in range(2)}, {m: m % 7 - 3 or 1 for m in range(64)}, "pauli"),
            ((3, 4), {m * 5: m % 5 - 2 or 3 for m in range(2)}, {m: m % 7 - 3 or 1 for m in range(63)}, "loop"),
            ((5, 3), {m * 7 % 256: m % 5 - 2 or 3 for m in range(2)}, {m: m % 7 - 3 or 1 for m in range(256)}, "pauli"),
            ((5, 3), {m * 7 % 256: m % 5 - 2 or 3 for m in range(1)}, {m: m % 7 - 3 or 1 for m in range(256)}, "loop"),  # one row
            ((2, 7), {m * 3: m % 5 - 2 or 3 for m in range(2)}, {m: m % 7 - 3 or 1 for m in range(256)}, "pauli"),
            ((2, 7), {m * 3: m % 5 - 2 or 3 for m in range(2)}, {m: m % 7 - 3 or 1 for m in range(255)}, "loop"),
            # the Pauli int64 bound 2^m·Σ|a|·Σ|b| < 2^63, here 8 · 2^30 · Σ|b|: met, exactly reached, exceeded
            ((3, 3), {m: 1 << 25 for m in range(32)}, {m: (1 << 24) - (m == 0) for m in range(64)}, "pauli"),
            ((3, 3), {m: 1 << 25 for m in range(32)}, {m: 1 << 24 for m in range(64)}, "loop"),
            ((3, 3), {m: 1 << 25 for m in range(32)}, {m: -(1 << 24) - m for m in range(64)}, "loop"),
            ((3, 3), {m: 1 << 40 for m in range(32)}, {m: 1 << 24 for m in range(64)}, "loop"),
            # dense all-Fraction factors: numerators within the bound, then past it (scaled by 2^44)
            ((4, 4), {m: Fraction(m % 9 - 4 or 1, m % 4 + 1) for m in range(256)}, {m: Fraction(3, m % 6 + 2) for m in range(250)}, "pauli"),
            ((4, 4), {m: Fraction(m % 9 - 4 or 1, 1 << 44 if m == 0 else 1) for m in range(256)}, {m: Fraction(m % 7 - 3 or 1) for m in range(256)}, "loop"),
            # sparse factors at the floor of 2^21/64 pairs at n = 14: 128 x 256 and 128 x 255
            ((7, 7), {m * 61: m % 5 - 2 or 3 for m in range(128)}, {m * 42: m % 7 - 3 or 1 for m in range(256)}, "pauli"),
            ((7, 7), {m * 61: m % 5 - 2 or 3 for m in range(128)}, {m * 42: m % 7 - 3 or 1 for m in range(255)}, "loop"),
        ],
        ids=[
            "int64-bound", "int64-overflow", "ge-2^31", "ge-2^62", "cancels-to-zero", "n2-cancels-to-zero",
            "n6-pauli-cancels-to-zero", "n8-pauli-cancels-to-zero", "n0", "n3-8-pairs", "n4-16-pairs",
            "n4-32-pairs", "n5-32-pairs", "fraction", "fraction-scaled-overflow", "fraction-subclass", "fraction-subclass-scaled-overflow",
            "bool", "np-int64", "mixed-int-fraction", "n12", "n16-density-1/128", "n16-sparser",
            "n16-density-1/256", "n16-below-pair-floor", "n15-density-1/180", "n15-below-pair-floor",
            "n6-pauli-crossover", "n6-below-pauli-crossover", "n5-every-blade", "n4-every-blade", "n2-every-blade",
            "n7-pauli-crossover", "n7-below-pauli-crossover", "n8-pauli-crossover", "n8-below-pauli-crossover", "n9-pauli-crossover",
            "n9-below-pauli-crossover", "pauli-int64-bound", "pauli-int64-bound-reached", "pauli-int64-bound-exceeded",
            "pauli-int64-bound-far-exceeded", "dense-fraction", "dense-fraction-past-pauli-bound",
            "n14-sparse-pauli-crossover", "n14-sparse-below-pauli-crossover",
        ],
    )
    def test_path_selection(self, sig, a, b, route):
        x, y = Multivector(sig, a), Multivector(sig, b)
        with spy_routes() as routes:
            assert_same_product(x, y)
        assert routes == [route]

    def test_pauli_crossover_at_every_n(self):
        """Both sides of the floor, read off the route chosen (no product runs):
        rows times every blade, then sparse factors, at every n; one row never
        takes the Pauli route, the mv-dense shape (230 x 230 terms at n = 8)
        always does and the mv-sparse shape (2n x 2n at n = 12..16) never."""
        assert [pauli_pairs(n) for n in range(17)] == [64] * 7 + [128] * 2 + [512] * 2 + [4096] * 2 + [32768] * 2 + [262144] * 2
        assert [pauli_rows(n) for n in range(17)] == [64, 32, 16, 8, 4] + [2] * 8 + [4, 2, 8, 4]

        def pauli(sig, len_a, len_b):
            a, b = dict.fromkeys(range(len_a), -1), dict.fromkeys(range(len_b), 1)
            return algebra._int_route(sig, a, b) is algebra._pauli_product

        for n in range(17):
            sig = Signature(n // 2, n - n // 2)
            for rows in (pauli_rows(n) - 1, pauli_rows(n)):
                rows = min(rows, 1 << n)
                want = rows >= 2 and rows << n >= pauli_pairs(n)
                assert pauli(sig, rows, 1 << n) == pauli(sig, 1 << n, rows) == want, (n, rows)
            assert not pauli(sig, 1, 1 << n)
            if n >= 6:
                short = 1 << (n + 1) // 2
                long = -(-pauli_pairs(n) // short)
                assert pauli(sig, short, long) and not pauli(sig, short, long - 1), n
        assert pauli(Signature(4, 4), 230, 230)
        assert not any(pauli(Signature(n // 2, n - n // 2), 2 * n, 2 * n) for n in range(12, 17))

    def test_sparse_product_takes_the_loop(self):
        sig = (4, 4)
        x = Multivector(sig, {1: 2, 6: -1, 0b1000_0000: 3})
        y = Multivector(sig, {m: m - 5 for m in range(0, 256, 13)})  # 3 * 20 < 64 pairs
        with spy_routes() as routes:
            assert_same_product(x, y)
        assert routes == ["loop"]

    def test_dense_factor_times_single_blade(self):
        sig = (5, 5)
        x = Multivector(sig, {m: m % 7 - 7 for m in range(1 << 10)})
        y = Multivector.from_mask(sig, 0b1010110011, -2)
        with spy_routes() as routes:
            assert_same_product(x, y)
            assert_same_product(y, x)
        assert routes == ["loop", "loop"]

    @pytest.mark.parametrize("rows,route", [(1, "loop"), (2, "loop"), (3, "loop"), (4, "pauli"), (8, "pauli")])
    @pytest.mark.parametrize("left", [True, False], ids=["rows-left", "rows-right"])
    @pytest.mark.parametrize("p", [0, 8, 16])
    def test_rows_times_every_blade_at_16_generators(self, p, left, rows, route):
        """One row stays on the loop (rows left of the dense factor read the
        rshift sign mask, rows right of it the lshift one), and so do two and
        three rows; four rows, the floor of 2^24/64 pairs, and more take the
        Pauli route."""
        sig = Signature(p, 16 - p)
        rng = random.Random(p)
        masks = [0xFFFF, 1 << 15, rng.randrange(1 << 15, 1 << 16), rng.randrange(1 << 15)]
        masks += rng.sample(range(1 << 16), 4)
        rows = Multivector(sig, {m: rng.choice([-1, 1]) * rng.randint(1, 9) for m in masks[:rows]})
        x = Multivector(sig, checks._every_blade_terms(sig))
        with spy_routes() as routes:
            assert_same_product(*((rows, x) if left else (x, rows)))
        assert routes == [route]

    def test_product_below_the_pauli_floor_imports_no_numpy(self):
        """Products on the pair loop, int and Fraction, one row times every
        blade at n = 16 included, run without loading numpy; the first Pauli
        product loads it."""
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from cliffrep.algebra import Multivector, involution_via_omega, volume_element\n"
            "x = Multivector((8, 8), {m: m + 1 for m in range(1 << 16)})\n"
            "w = volume_element((8, 8))\n"
            "y = Multivector((6, 6), {m: Fraction(m % 7 - 3 or 1, m % 5 + 1) for m in range(0, 1 << 12, 103)})\n"
            "assert (w * x * w).terms and (y * y).terms and involution_via_omega(y).terms\n"
            "print('numpy' in sys.modules)\n"
            "z = Multivector((4, 4), {m: m % 7 - 3 or 1 for m in range(256)})\n"
            "assert (z * z).terms\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\nTrue\n"


class TestPauliProduct:
    """The Jordan-Wigner route against the pair loop on ``blade_product``."""

    @pytest.mark.parametrize("sig", [Signature(p, n - p) for n in (6, 7, 8) for p in range(n + 1)])
    def test_dense_factors_at_every_signature(self, sig):
        rng = random.Random(sig.n * 17 + sig.p)
        size = 1 << sig.n
        x = Multivector(sig, int_terms(rng, size, size))
        y = Multivector(sig, int_terms(rng, size, size - size // 10))
        with spy_routes() as routes:
            assert_same_product(x, y)
            assert_same_product(y, x)
        assert routes == ["pauli", "pauli"]

    @pytest.mark.parametrize("n", range(9, 13))
    def test_sampled_signatures(self, n):
        rng = random.Random(n)
        for p in (n * (n % 2), rng.randint(1, n - 1)):
            sig = Signature(p, n - p)
            x = Multivector(sig, int_terms(rng, 1 << n, 64))
            y = Multivector(sig, int_terms(rng, 1 << n, (1 << n) - 7))
            with spy_routes() as routes:
                assert_same_product(x, y)
                assert_same_product(y, x)
            assert routes == ["pauli", "pauli"]

    def test_above_the_crossover_at_16_generators(self):
        sig = Signature(5, 11)
        rng = random.Random(16)
        x = Multivector(sig, int_terms(rng, 1 << 16, 512))
        y = Multivector(sig, int_terms(rng, 1 << 16, 520))
        with spy_routes() as routes:
            assert_same_product(x, y)
        assert routes == ["pauli"]

    @pytest.mark.parametrize("sig", [Signature(p, n - p) for n in range(9) for p in range(n + 1)])
    def test_images_round_trip(self, sig):
        """The product with the unit, forced onto the route, returns the factor: images and back-map agree."""
        x = {m: m % 11 - 5 for m in range(1 << sig.n)}
        assert algebra._pauli_product(sig, x, {0: 1}) == {m: c for m, c in x.items() if c}
        assert algebra._pauli_product(sig, {0: 1}, x) == {m: c for m, c in x.items() if c}

    @pytest.mark.parametrize("sig", [Signature(2, 1), Signature(3, 3), Signature(8, 8)])
    def test_back_map_rejects_a_matrix_outside_the_image(self, sig):
        """One unit entry has traces ±1, which 2^m does not divide: the exact-division check raises."""
        m = (sig.n + 1) // 2
        image = np.zeros((2 << m, 1 << m), np.int64)
        image[0, 0] = 1
        with pytest.raises(ArithmeticError, match="not divisible by 2\\^"):
            algebra._from_pauli(sig, image)


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

    @pytest.mark.parametrize(
        "mask,message",
        [
            (4, "blade 0x4 invalid for Cl(1,1)"),
            (-1, "blade -0x1 invalid for Cl(1,1)"),
            (1 << 16, "blade 0x10000 invalid for Cl(1,1)"),
            (1.0, "blade mask must be an integer, got 1.0"),
            (None, "blade mask must be an integer, got None"),
            (np.True_, f"blade mask must be an integer, got {np.True_!r}"),
        ],
    )
    def test_every_mask_check_raises_the_constructor_message(self, mask, message):
        """One blade-mask rule: the constructor, ``coefficient``, both sign forms and the tensor maps, on Cl(1,1)."""
        sig = Signature(1, 1)
        pairs = [(sig, (0, 0)), ((0, 0), sig), ((1, 0), (0, 1))]  # A, B and combined algebra Cl(1,1)
        a_side, b_side, both = (tensor.GradedTensorProduct(*pair) for pair in pairs)
        builds = [
            lambda: Multivector(sig, {mask: 1, 1: 1}),
            lambda: Multivector(sig, {1: 2}).coefficient(mask),
            lambda: blade_product(mask, 1, sig),
            lambda: blade_product(1, mask, sig),
            lambda: blade_signs(np.array([mask]), np.array([0, 1]), sig),
            lambda: blade_signs(np.array([0, 1]), np.array([mask]), sig),
            lambda: a_side.embed_a(mask),
            lambda: b_side.embed_b(mask),
            lambda: both.psi_blade(mask),
        ]
        for build in builds:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    @pytest.mark.parametrize("mask", [np.int64(3), np.uint16(3), True])
    def test_construction_stores_integer_masks_as_int(self, mask):
        x = Multivector((2, 0), {mask: 2})
        assert x.terms == {int(mask): 2} and all(type(m) is int for m in x.terms)
        assert repr(x) == ("2*e12" if mask == 3 else "2*e1")
        assert x.coefficient(mask) == 2 and x.coefficient(0) == 0
        assert (x * x).terms == reference_product(x, x) and repr(x * x)

    @pytest.mark.parametrize("mask", [3.0, 1.5, "3", None])
    def test_construction_rejects_non_integer_masks(self, mask):
        with pytest.raises(ValueError, match="blade mask must be an integer, got"):
            Multivector((2, 0), {mask: 2, 1: 1})

    def test_construction_drops_zero_coefficients(self):
        x = Multivector((1, 1), {0: 0, 1: Fraction(0), 2: np.int64(0), 3: Fraction(1, 2)})
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


def crossing_product(a, b, sig):
    """The product of two term dicts on :func:`crossing_blade_product`, zero sums dropped."""
    terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            sign, mask = crossing_blade_product(ma, mb, sig)
            terms[mask] = terms.get(mask, 0) + sign * ca * cb
    return {m: c for m, c in terms.items() if c != 0}


def assert_reduced(x):
    """The stored form: nonzero int numerators over a positive denominator, gcd(den, every numerator) = 1."""
    assert all(type(v) is int and v for v in x._nums.values()) and type(x._den) is int and x._den > 0
    assert math.gcd(x._den, *x._nums.values()) == 1


class TestCoefficientForm:
    """Int numerators over one denominator: the coefficient rule, the reduced form and the reads."""

    @pytest.mark.parametrize("terms", [[(0, 1)], 5, "01", {0, 1}], ids=["pairs", "int", "str", "set"])
    def test_construction_rejects_what_is_no_mapping(self, terms):
        with pytest.raises(ValueError) as err:
            Multivector((1, 1), terms)
        assert str(err.value) == f"terms must be a mapping from blade masks to coefficients, got {terms!r}"

    @pytest.mark.parametrize(
        "value",
        ["1", None, np.float64(0.5), np.float64(2), 0.5, 2.0, -0.0, 1j, complex(2, 0), np.True_],
        ids=["str", "none", "np-float-half", "np-float-two", "float-half", "float-two", "negative-zero", "imaginary", "complex", "np-bool"],
    )
    def test_rejects_every_coefficient_that_is_not_rational(self, value):
        """One message naming the value, alone or beside valid terms, and through scalar multiplication on
        either side (a numpy scalar on the left defers to the element, so it is named as it is)."""
        x = Multivector((1, 1), {0: 1, 3: Fraction(1, 2)})
        builds = [lambda: Multivector((1, 1), {0: value}), lambda: Multivector((1, 1), {1: 2, 0: value}), lambda: x * value, lambda: value * x]
        for build in builds:
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == f"a coefficient must be an int or Fraction, got {value!r}"

    @pytest.mark.parametrize(
        "value,want",
        [(3, 3), (True, 1), (np.int64(-3), -3), (np.uint8(7), 7), (Fraction(3, 6), Fraction(1, 2)), (Fraction(4, 2), Fraction(2)), (HalfStep(1, 2), Fraction(1, 2))],
        ids=["int", "bool", "np-int64", "np-uint8", "fraction", "whole-fraction", "fraction-subclass"],
    )
    def test_reads_every_rational_as_two_ints(self, value, want):
        """An integer reads as an ``int``, any other rational as a ``Fraction``, stored, scaled by and scaling."""
        x = Multivector((1, 1), {3: value})
        assert x.terms == {3: want} and type(x.terms[3]) is type(x.coefficient(3)) is type(want)
        ints = Multivector((1, 1), {0: 2, 1: -1})
        scaled = {m: c * want for m, c in ints.terms.items()}
        for y, terms in ((ints * value, scaled), (value * ints, scaled), (ints * x, crossing_product(ints.terms, {3: want}, (1, 1)))):
            assert y.terms == terms and all(type(c) is type(want) for c in y.terms.values())
            assert_reduced(y)

    def test_one_fraction_input_makes_every_coefficient_a_fraction(self):
        """The intended change from per-term types: {0: 1, 1: Fraction(1, 2)} reads Fraction(1) on e0, and so does
        every element an operation makes from it; an element of integers reads ints throughout."""
        sig = Signature(1, 1)
        x = Multivector(sig, {0: 1, 1: Fraction(1, 2)})
        ints = Multivector(sig, {0: 2, 2: 3})
        assert x.terms == {0: Fraction(1), 1: Fraction(1, 2)} and x == Multivector(sig, {0: Fraction(1), 1: Fraction(1, 2)})
        odd = Multivector(sig, {1: Fraction(1, 2), 2: 1})
        fractions = [x, x * ints, ints * x, x + ints, ints - x, -x, x.reversion(), 2 * x, ints * Fraction(3), graded_bracket(odd, odd).value]
        for y in [*fractions, x * Fraction(2), Multivector(sig, {0: Fraction(2)})]:
            assert all(type(c) is Fraction for c in y.terms.values()) and all(type(y.coefficient(m)) is Fraction for m in y.terms)
        for y in (ints, ints * ints, ints + ints, 3 * ints, ints * np.int64(2), ints.conjugation(), Multivector(sig, {1: True})):
            assert y.terms and all(type(c) is int for c in y.terms.values()) and y._den == 1
        assert Multivector(sig, {0: 1}) == Multivector(sig, {0: Fraction(1)}) and ints * Fraction(3) == 3 * ints
        assert x.coefficient(2) == 0 and type(x.coefficient(2)) is int

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_operation_keeps_the_reduced_form(self, data):
        """Every operation returns the reduced form, which is canonical: the element rebuilt from its own reads equals
        it, numerator for numerator; an element of integers is over 1."""
        sig = data.draw(st.sampled_from(signatures_prop))
        x, y = data.draw(mv_strategy(sig)), data.draw(mv_strategy(sig))
        k = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
        ints = Multivector(sig, {m: c.numerator for m, c in x.terms.items()})
        results = [x, y, x * y, x + y, x - y, -x, x * k, k * y, x.conjugation(), ints, ints * ints, ints + ints, 5 * ints]
        if x.z2_degree() is not None and y.z2_degree() is not None:
            results.append(graded_bracket(x, y).value)
        for z in results:
            assert_reduced(z)
            rebuilt = Multivector(sig, dict(z.terms))
            assert rebuilt == z and (rebuilt._nums, rebuilt._den) == (z._nums, z._den)
        assert ints._den == (ints * ints)._den == (ints + ints)._den == 1
        half = Multivector(sig, {0: Fraction(1, 2), 1: Fraction(-3, 2)})
        assert ((half + half)._nums, (half + half)._den) == ({0: 1, 1: -3}, 1) and ((half - half)._nums, (half - half)._den) == ({}, 1)
        assert ((half * 4)._nums, (half * 4)._den) == ({0: 2, 1: -6}, 1)

    def test_terms_are_cached_and_read_only(self):
        for x in (Multivector((2, 1), {0: Fraction(1, 3), 5: 2}), Multivector((2, 1), {0: 1, 5: -2})):
            terms = x.terms
            assert x.terms == terms and dict(terms) == {0: x.coefficient(0), 5: x.coefficient(5)}
            assert all(x.terms[m] is c for m, c in terms.items())  # each Fraction is built once
            with pytest.raises(TypeError):
                terms[0] = 1
            with pytest.raises(TypeError):
                del terms[5]
            with pytest.raises(AttributeError):
                x.terms = {}
            assert x.terms == terms and len(terms) == 2

    def test_signature_is_read_only(self):
        """An element's masks were checked against its signature, so it cannot be reassigned: a sum or
        product after an attempt still reads the signature the element was built in."""
        x, y = Multivector((1, 1), {1: 1, 3: 1}), Multivector((1, 1), {1: 1})
        for sig in ((0, 1), Signature(1, 1), Signature(0, 2)):
            with pytest.raises(AttributeError):
                x.sig = sig
        assert x.sig == Signature(1, 1) and type(x.sig) is Signature
        assert x + y == Multivector((1, 1), {1: 2, 3: 1}) and x * y == Multivector((1, 1), {0: 1, 2: -1})
        with pytest.raises(ValueError, match="signature mismatch"):
            x + Multivector((0, 1), {1: 1})

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_elements_pickle_and_deep_copy(self, read):
        """Before and after ``.terms`` is read, an element survives pickle, copy and deepcopy, and so does a
        bracket result through ``dataclasses.asdict``."""
        x = Multivector((2, 1), {1: Fraction(1, 3), 2: 2})
        for z in (x, Multivector((2, 1), {1: 1, 2: -2})):
            if read:
                assert len(z.terms) == 2
            for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
                assert twin == z and dict(twin.terms) == dict(z.terms) and twin.terms.keys() == z.terms.keys()
                assert [type(c) for c in twin.terms.values()] == [type(c) for c in z.terms.values()]
        bracket = graded_bracket(x, x)
        if read:
            assert bracket.value.terms is not None
        assert dataclasses.asdict(bracket)["value"] == bracket.value

    @pytest.mark.parametrize("n", range(12, 17))
    def test_mv_sparse_shape_on_every_blade(self, n):
        """Seeded products of two 2n-term ``Fraction`` elements of grades 1-3, the mv-sparse shape, both orders:
        ``coefficient`` on all 2^n blades, then ``.terms``, equal the crossing-count reference in value and type."""
        rng = random.Random(n)
        p = rng.randint(0, n)
        sig = Signature(p, n - p)
        low_grade = [m for m in range(1 << n) if 1 <= grade(m) <= 3]
        a, b = ({m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for m in rng.sample(low_grade, 2 * n)} for _ in range(2))
        for u, v in ((a, b), (b, a)):
            want = crossing_product(u, v, sig)
            got = Multivector(sig, u) * Multivector(sig, v)
            assert [(type(c), c) for c in map(got.coefficient, range(1 << n))] == [(type(c), c) for c in (want.get(m, 0) for m in range(1 << n))]
            assert got.terms == want and all(type(c) is Fraction for c in got.terms.values())
            assert_reduced(got)


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


class TestGradeParts:
    @pytest.mark.parametrize("sig", [(p, n - p) for n in range(7) for p in range(n + 1)])
    def test_parts_split_every_blade_by_grade(self, sig):
        """The grade-k parts of an element with every blade: each non-empty, summing back, signed by the involutions."""
        x = Multivector(sig, {m: m + 1 for m in all_blades(sig)})
        n = sum(sig)
        parts = [Multivector(sig, {m: c for m, c in x.terms.items() if grade(m) == k}) for k in range(n + 1)]
        for k, part in enumerate(parts):
            assert part.terms and all(grade(m) == k for m in part.terms)
        assert sum(parts, Multivector(sig)) == x
        assert x.grade_involution() == sum(((-1) ** k * part for k, part in enumerate(parts)), Multivector(sig))
        assert x.reversion() == sum(((-1) ** (k * (k - 1) // 2) * part for k, part in enumerate(parts)), Multivector(sig))


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
    def test_every_blade_takes_one_row_loops(self, sig):
        """omega * omega^-1, omega * x and (omega x) * omega^-1 each take one sign
        mask; omega_square makes the only blade_product call."""
        x = Multivector(sig, checks._every_blade_terms(sig))
        with spy_routes() as routes, mock.patch.object(algebra, "_sign_masks", wraps=algebra._sign_masks) as masks:
            with mock.patch.object(algebra, "blade_product", wraps=algebra.blade_product) as pairs:
                image = involution_via_omega(x)
        assert routes == ["loop"] * 3 and masks.call_count == 3 and pairs.call_count == 1
        assert image == x.grade_involution()

    @pytest.mark.parametrize("sig", [s for s in signatures_small if s.n % 2 == 0])
    def test_equals_grade_involution(self, sig):
        for mask in all_blades(sig):
            x = Multivector.from_mask(sig, mask)
            assert involution_via_omega(x) == x.grade_involution()


def per_signature_automorphisms(nmax: int) -> checks.CheckResult:
    """The automorphism check in per-signature form, the reference for its per-count tables:
    the element and the expected images built anew for every signature."""
    def failure(s):
        x = Multivector(s, {m: m + 1 for m in all_blades(s)})
        for method, sign in checks.SIGN_OF_GRADE.items():
            by_grade = [sign(k) for k in range(s.n + 1)]
            if getattr(x, method)().terms != {m: by_grade[grade(m)] * c for m, c in x.terms.items()}:
                return f"{s} {method}"
        return None
    return checks._sweep("automorphism signs", checks._signatures(nmax), failure, f"{nmax=}")


def per_signature_omega_conjugation(nmax: int) -> checks.CheckResult:
    def failure(s):
        x = Multivector(s, {m: m + 1 for m in all_blades(s)})
        return None if involution_via_omega(x) == x.grade_involution() else str(s)
    return checks._sweep("omega conjugation = grade involution", checks._signatures(nmax, parity=0), failure, f"even n <= {nmax}")


def _flipped_grade(k: int):
    """``_negate_grades`` that also negates every grade-k blade, in each involution."""
    honest = Multivector._negate_grades

    def negate(x, flips):
        image = honest(x, flips)
        return Multivector(x.sig, {m: -c if grade(m) == k else c for m, c in image.terms.items()})
    return negate


def _one_signature_altered(sig: Signature, method: str):
    """``method`` with the top blade's image negated in ``sig`` only; every other signature's image is honest."""
    honest = getattr(Multivector, method)

    def involution(x):
        image = honest(x)
        if x.sig != sig:
            return image
        top = (1 << sig.n) - 1
        return image - Multivector.from_mask(sig, top, 2 * image.coefficient(top))
    return involution


#: mutants of the involutions: (attribute of Multivector, replacement, the check's failure text)
AUTOMORPHISM_MUTANTS = {
    "reversion-wrong-flip-tuple": ("reversion", lambda x: x._negate_grades((0, 1, 1, 0)), "Cl(0,1) reversion"),
    "grade-4-sign-flipped": ("_negate_grades", _flipped_grade(4), "Cl(0,4) grade_involution"),
    "one-signature-altered": ("conjugation", _one_signature_altered(Signature(2, 3), "conjugation"), "Cl(2,3) conjugation"),
}


class TestAutomorphismChecks:
    """The registry checks apply each map once per signature, to an element
    holding every blade; each mutant below must still turn its check to FAIL."""

    @pytest.mark.parametrize("mutant", AUTOMORPHISM_MUTANTS)
    def test_mutant_fails_the_check(self, mutant):
        """Each mutant fails the check at its first signature in sweep order, as the per-signature
        check did; in the last, the other five signatures of n = 5 keep honest images."""
        attr, replacement, detail = AUTOMORPHISM_MUTANTS[mutant]
        with mock.patch.object(Multivector, attr, replacement):
            r = checks.check_automorphism_signs(6, 0)
            assert r == per_signature_automorphisms(6)
        assert (r.passed, r.detail, r.covered) == (False, detail, 28)

    @pytest.mark.parametrize("nmax", range(-1, 11))
    def test_per_count_tables_give_the_per_signature_results(self, nmax):
        assert checks.check_automorphism_signs(nmax, 0) == per_signature_automorphisms(nmax)
        assert checks.check_omega_conjugation(nmax, 0) == per_signature_omega_conjugation(nmax)

    def test_reversion_sign_wrong_at_one_grade(self):
        def reversion(x):  # +1 at grade 3, where the sign is -1
            return Multivector(x.sig, {m: c if grade(m) in (0, 1, 3, 4) else -c for m, c in x.terms.items()})

        with mock.patch.object(Multivector, "reversion", reversion):
            r = checks.check_automorphism_signs(4, 0)
        assert (r.passed, r.detail) == (False, "Cl(0,3) reversion")

    def test_reversion_swapping_two_blades_of_one_grade(self):
        honest = Multivector.reversion

        def reversion(x):  # e1 and e2 trade places; the grade signs stay right
            terms = dict(honest(x).terms)  # .terms is read-only
            if 0b10 in terms:
                terms[0b01], terms[0b10] = terms[0b10], terms[0b01]
            return Multivector(x.sig, terms)

        with mock.patch.object(Multivector, "reversion", reversion):
            r = checks.check_automorphism_signs(3, 0)
        assert (r.passed, r.detail) == (False, "Cl(0,2) reversion")

    def test_grade_involution_moving_one_blade(self):
        honest = Multivector.grade_involution

        def grade_involution(x):  # e12 lands on e2 = e12 ^ e1, keeping its sign
            terms = dict(honest(x).terms)  # .terms is read-only
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
        assert res == GradedBracketResult(Multivector(sig), 0)

    def test_unit_is_central(self):
        sig = (2, 1)
        one = Multivector.scalar(sig, 1)
        for mask in all_blades(sig):
            x = Multivector.from_mask(sig, mask)
            assert not graded_bracket(one, x).value.terms

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
        assert not (t1 + t2 + t3).terms
