"""Gamma-matrix synthesis: defining relations, faithfulness, volume image."""

import hashlib
import re
from unittest import mock

import numpy as np
import pytest

from cliffrep import checks
from cliffrep.algebra import Multivector, Signature, all_blades, omega_square_mod8
from cliffrep.factorize import karoubi_factorize
from cliffrep.gamma import (
    GeneratorSet,
    blade_images,
    build_generators,
    faithfulness_rank,
    omega_image,
    omega_image_square_sign,
    verify_anticommutation,
)

all_signatures = [Signature(p, n - p) for n in range(0, 8) for p in range(n + 1)]
_X = np.array([[0, 1], [1, 0]])
_Z = np.array([[1, 0], [0, -1]])


class TestBuildGenerators:
    def test_hyperbolic_plane(self):
        g = build_generators((1, 1))
        assert g.dim == 2 and len(g.gammas) == 2
        assert np.array_equal(g.gammas[0] @ g.gammas[0], np.eye(2))
        assert np.array_equal(g.gammas[1] @ g.gammas[1], -np.eye(2))
        anti = g.gammas[0] @ g.gammas[1] + g.gammas[1] @ g.gammas[0]
        assert np.array_equal(anti, np.zeros((2, 2)))

    def test_spacetime_dimensions(self):
        g = build_generators((1, 3))
        assert g.dim == 4 and len(g.gammas) == 4 and not g.reducible

    def test_double_numbers_blocks(self):
        g = build_generators((1, 0))
        assert g.dim == 2 and g.reducible
        assert np.array_equal(g.gammas[0], np.diag([1.0, -1.0]))

    def test_trivial_signature(self):
        g = build_generators((0, 0))
        assert g.dim == 1 and g.gammas == ()
        assert verify_anticommutation(g)

    @pytest.mark.parametrize("sig", all_signatures)
    def test_representation_dimension(self, sig):
        g = build_generators(sig)
        assert g.dim == 1 << ((sig.n + 1) // 2)
        assert g.reducible == (sig.n % 2 == 1)

    def test_size_overflow(self):
        with pytest.raises(ValueError, match="generator synthesis supported up to 12 generators"):
            build_generators((13, 0))

    def test_matrix_bits_unchanged(self):
        """sha256 of the raw bytes of every gamma matrix for all 91 p+q <= 12, n then p
        ascending: ``matrep`` emits these bits, signed zeros included."""
        h = hashlib.sha256()
        for n in range(13):
            for p in range(n + 1):
                for g in build_generators((p, n - p)).gammas:
                    h.update(g.tobytes())
        assert h.hexdigest() == "46819fb8dd2ee37f67cc81cdad8832cfd4299a210cabf29c4013c5161b46ead4"


class TestAnticommutation:
    @pytest.mark.parametrize("sig", all_signatures)
    def test_defining_relations(self, sig):
        assert verify_anticommutation(build_generators(sig))

    @pytest.mark.parametrize("n", [9, 10])
    def test_defining_relations_larger(self, n):
        for p in range(n + 1):
            assert verify_anticommutation(build_generators((p, n - p)))

    def test_mutation_detected(self):
        g = build_generators((1, 3))
        broken = list(g.gammas)
        bad = broken[2].copy()
        bad[0, -1] = -bad[0, -1] if bad[0, -1] else 1
        broken[2] = bad
        mutated = GeneratorSet(g.sig, tuple(broken), g.reducible, g.basis_note)
        assert not verify_anticommutation(mutated)


class TestFaithfulness:
    @pytest.mark.parametrize(
        "sig,rank", [((2, 0), 4), ((1, 1), 4), ((0, 0), 1), ((0, 2), 4), ((3, 0), 8)]
    )
    def test_examples(self, sig, rank):
        assert faithfulness_rank(build_generators(sig)) == rank

    @pytest.mark.parametrize("sig", [Signature(p, n - p) for n in range(13) for p in range(n + 1)])
    def test_monomorphism(self, sig):
        assert faithfulness_rank(build_generators(sig)) == 1 << sig.n

    @pytest.mark.parametrize(
        "sig,gammas,rank",
        [
            # odd n with the volume image +-I: each blade image doubles as another's, the span halves
            (Signature(1, 0), [[[1]]], 1),
            (Signature(2, 1), [_X, _Z, _X @ _Z], 4),
            # odd n with the volume image +-iI: still independent over the reals
            (Signature(0, 1), [[[1j]]], 2),
            (Signature(3, 0), [_X, np.array([[0, -1j], [1j, 0]]), _Z], 8),
            (Signature(0, 2), [1j * _X, 1j * _Z], 4),
        ],
    )
    def test_hand_built_sets(self, sig, gammas, rank):
        """Real span of all 2^n blade images, against a float rank of the images themselves."""
        gen = GeneratorSet(sig, tuple(np.array(g) for g in gammas), reducible=False, basis_note="by hand")
        images = np.array([m.ravel() for m in blade_images(gen).values()])
        assert np.linalg.matrix_rank(np.concatenate([images.real, images.imag], axis=1)) == rank
        assert faithfulness_rank(gen) == rank

    @pytest.mark.parametrize(
        "sig,gammas",
        [
            (Signature(1, 0), [[[1j]]]),  # squares to -1, not +1
            (Signature(2, 0), [_X, _X]),  # commuting generators
            (Signature(2, 1), [_X, _Z, _X]),
        ],
    )
    def test_broken_relations_raise(self, sig, gammas):
        gen = GeneratorSet(sig, tuple(np.array(g) for g in gammas), reducible=False, basis_note="by hand")
        with pytest.raises(ValueError, match=f"gamma matrices of {re.escape(str(sig))} violate the defining relations"):
            faithfulness_rank(gen)

    def test_blade_images_multiply(self):
        sig = Signature(2, 1)
        g = build_generators(sig)
        images = blade_images(g)
        for a in all_blades(sig):
            for b in all_blades(sig):
                from cliffrep.algebra import blade_product

                sign, mask = blade_product(a, b, sig)
                assert np.allclose(images[a] @ images[b], sign * images[mask])


class TestGammaCheck:
    def test_reaches_the_synthesis_limit(self):
        r = checks.check_gamma(16, 0)
        assert (r.passed, r.detail, r.covered) == (True, "n <= 12, faithful", 91)

    def test_one_flipped_entry_at_twelve_generators_fails(self):
        honest = build_generators

        def build(sig):
            gen = honest(sig)
            if sig != Signature(6, 6):
                return gen
            last = gen.gammas[-1].copy()
            row, col = np.argwhere(last)[0]
            last[row, col] = -last[row, col]
            return GeneratorSet(gen.sig, gen.gammas[:-1] + (last,), gen.reducible, gen.basis_note)

        with mock.patch.object(checks.gamma, "build_generators", build):
            r = checks.check_gamma(12, 0)
        assert (r.passed, r.detail) == (False, "Cl(6,6)")


class TestVolumeImage:
    @pytest.mark.parametrize("sig", [s for s in all_signatures if s.n >= 1])
    def test_omega_square_sign(self, sig):
        assert omega_image_square_sign(build_generators(sig)) == omega_square_mod8(sig)

    def test_broken_set_raises(self):
        """A hand-built Cl(2,0) set whose volume image X(X + I) = I + X squares to 2(I + X), not +-I."""
        gen = GeneratorSet(Signature(2, 0), (_X, _X + np.eye(2)), reducible=False, basis_note="by hand")
        with pytest.raises(ValueError, match="volume element image does not square to"):
            omega_image_square_sign(gen)
        with pytest.raises(ValueError, match="violate the defining relations"):
            faithfulness_rank(gen)

    @pytest.mark.parametrize("sig", [s for s in all_signatures if s.n >= 2 and s.n % 2 == 0])
    def test_omega_conjugation_realizes_grade_involution(self, sig):
        g = build_generators(sig)
        om = omega_image(g)
        om_inv = omega_square_mod8(sig) * om  # omega^{-1} = omega / omega^2
        images = blade_images(g)
        for mask in all_blades(sig):
            x = Multivector.from_mask(sig, mask)
            target = x.grade_involution().coefficient(mask)
            assert np.allclose(om @ images[mask] @ om_inv, target * images[mask])


class TestFactorConsistency:
    @pytest.mark.parametrize("sig", [s for s in all_signatures if s.n % 2 == 0 and s.n > 0])
    def test_dimension_matches_factor_count(self, sig):
        g = build_generators(sig)
        assert g.dim == 1 << len(karoubi_factorize(sig).factors)
