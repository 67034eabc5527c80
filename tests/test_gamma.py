"""Gamma-matrix synthesis: defining relations, faithfulness, volume image."""

import hashlib
import json
import re
from functools import reduce
from unittest import mock

import numpy as np
import pytest

from cliffrep import checks, cli
from cliffrep.algebra import Multivector, Signature, all_blades, omega_square_mod8
from cliffrep.factorize import FACTOR_HYPERBOLIC, FACTOR_NEG, FACTOR_POS, karoubi_factorize
from cliffrep.gamma import (
    GammaVerdict,
    GeneratorSet,
    _monomial_forms,
    build_generators,
    faithfulness_rank,
    form_verdict,
    generator_forms,
    omega_image,
    omega_image_square_sign,
    verify_anticommutation,
)

all_signatures = [Signature(p, n - p) for n in range(0, 8) for p in range(n + 1)]
#: the 91 signatures of p+q <= 12, in check_gamma's sweep order: n, then p, ascending
synthesised = [Signature(p, n - p) for n in range(13) for p in range(n + 1)]
#: the 62 signatures of 13 <= p+q <= 16, in the same order: with ``synthesised``, all 153 build_generators makes
synthesised_past_12 = [Signature(p, n - p) for n in range(13, 17) for p in range(n + 1)]
_X = np.array([[0, 1], [1, 0]])
_Z = np.array([[1, 0], [0, -1]])


def blade_images(gen: GeneratorSet) -> dict[int, np.ndarray]:
    """Every blade's image as the ascending product of its generators' gammas: a dense reference for
    small n only, its 2^n images of dim^2 entries each."""
    images = {0: np.eye(gen.dim, dtype=complex)}
    for mask in range(1, 1 << gen.sig.n):
        low = mask & -mask
        images[mask] = gen.gammas[low.bit_length() - 1] @ images[mask ^ low]
    return images


def _turn_phase(g):
    """The first nonzero entry times i: +-1 becomes +-i, or +-i becomes -+1."""
    row, col = np.argwhere(g)[0]
    g[row, col] *= 1j


def _swap_columns(g):
    """Rows 0 and 1 trade the columns of their entries, each keeping its phase: a permutation mutant."""
    (c0,), (c1,) = np.flatnonzero(g[0]), np.flatnonzero(g[1])
    g[0, c1], g[1, c0], g[0, c0], g[1, c1] = g[0, c0], g[1, c1], 0, 0


def _fill_zero(g):
    """A nonzero written into a zero entry of row 0: the set is no longer monomial."""
    g[0, np.flatnonzero(g[0] == 0)[0]] = 1


def _flip_entry(g):
    """The first nonzero entry negated."""
    row, col = np.argwhere(g)[0]
    g[row, col] = -g[row, col]


GAMMA_MUTANTS = {"turned-phase": _turn_phase, "swapped-columns": _swap_columns, "filled-zero": _fill_zero, "flipped-entry": _flip_entry}


#: the forms of X and Z
_FORM_X, _FORM_Z = ((1, 0), (0, 0)), ((0, 1), (0, 2))


def _phase_added(columns, phases, k):
    """Row 0's phase plus k (mod 4)."""
    return columns, ((phases[0] + k) % 4,) + phases[1:]


#: the monomial GAMMA_MUTANTS on a (column, phase) form: row 0 times i, rows 0 and 1 trading
#: columns, and row 0 negated
FORM_MUTANTS = {
    "turned-phase": lambda columns, phases: _phase_added(columns, phases, 1),
    "swapped-columns": lambda columns, phases: ((columns[1], columns[0]) + columns[2:], phases),
    "flipped-entry": lambda columns, phases: _phase_added(columns, phases, 2),
}


#: where the mutant tests put their mutant: n = 2, 5, 8 and 12
MUTATED_SIGNATURES = [Signature(1, 1), Signature(3, 2), Signature(4, 4), Signature(6, 6)]


def form_mutated(sig, mutant):
    """``generator_forms(sig)`` with ``mutant`` applied to its last form."""
    forms, reducible, note = generator_forms(sig)
    return forms[:-1] + (mutant(*forms[-1]),), reducible, note


def mutated(gen: GeneratorSet, mutant) -> GeneratorSet:
    """``gen`` with ``mutant`` applied to a copy of its last gamma."""
    last = gen.gammas[-1].copy()
    mutant(last)
    return GeneratorSet(gen.sig, gen.gammas[:-1] + (last,), gen.reducible, gen.basis_note)


def dense_verdict(gen: GeneratorSet) -> tuple[bool, int]:
    """(relations, omega sign or 0) by dense products: every g_i g_j + g_j g_i against 2 eta_ij I, and
    omega^2 against +-I, all entries exact."""
    eye = np.eye(gen.dim)
    relations = all(
        np.array_equal(gi @ gj + gj @ gi, 2 * gen.metric[i] * eye if i == j else 0 * eye)
        for i, gi in enumerate(gen.gammas)
        for j, gj in enumerate(gen.gammas)
    )
    omega = omega_image(gen)
    square = omega @ omega
    return relations, next((sign for sign in (1, -1) if np.array_equal(square, sign * eye)), 0)


def kronecker_chain(sig: Signature) -> list[np.ndarray]:
    """The dense synthesis the (column, phase) forms replaced, kept as their reference: np.kron chains
    of the complex seed matrices over ``karoubi_factorize``, each later factor's pair left-padded with
    the earlier factors' volume elements, and for odd n the truncation's gammas twice on the block
    diagonal with Z (x) (scaled volume image, a numpy matmul fold) last.  Its bits, signed zeros
    included, are pinned by KRONECKER_CHAIN_DIGEST."""
    x, z, j, ix = (np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]))
    if sig.n % 2:
        trunc, last_metric = (Signature(sig.p, sig.q - 1), -1) if sig.q else (Signature(sig.p - 1, 0), 1)
        base = kronecker_chain(trunc)
        eye = np.eye(1 << (trunc.n // 2), dtype=complex)
        omega = reduce(np.matmul, base, eye)
        scale = 1 if np.array_equal(omega @ omega, last_metric * eye) else 1j
        return [np.kron(np.eye(2, dtype=complex), g) for g in base] + [np.kron(z, scale * omega)]
    pos, neg, left, left_sq = [], [], np.eye(1, dtype=complex), 1
    fact = karoubi_factorize(sig)
    remaining = sig.n
    for i, f in enumerate(fact.factors):
        remaining -= f.n
        a, b = {FACTOR_HYPERBOLIC: (x, j), FACTOR_POS: (x, z), FACTOR_NEG: (ix, j)}[f]
        for seed, seed_sq in ((a, 1 if f.p >= 1 else -1), (b, -1 if f.q >= 1 else 1)):
            (pos if left_sq * seed_sq > 0 else neg).append(np.kron(np.kron(left, seed), np.eye(1 << (remaining // 2), dtype=complex)))
        left = np.kron(left, a @ b)
        left_sq = -left_sq if i in fact.flip_steps else left_sq
    return pos + neg


# sha256 of the raw bytes of kronecker_chain's gammas for all 91 p+q <= 12, n then p ascending: the
# bits build_generators returned while it built these chains, whose -0.0 parts came from the products
KRONECKER_CHAIN_DIGEST = "46819fb8dd2ee37f67cc81cdad8832cfd4299a210cabf29c4013c5161b46ead4"
# the same for the 62 signatures of 13 <= p+q <= 16, n then p ascending, which the chains never reached
KRONECKER_CHAIN_PAST_12_DIGEST = "a4b5fd78e1ac6cba1dde08ce840b13b39e544edcb44df34a72e56d5e393572eb"


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

    @pytest.mark.parametrize("sig", synthesised + synthesised_past_12)
    def test_representation_dimension(self, sig):
        g = build_generators(sig)
        assert g.dim == 1 << ((sig.n + 1) // 2)
        assert g.reducible == (sig.n % 2 == 1)

    def test_size_overflow(self):
        """Past 16 generators the one input rule refuses the signature, before any synthesis."""
        for make in (build_generators, generator_forms):
            with pytest.raises(ValueError, match="^at most 16 generators are supported$"):
                make((9, 8))

    def test_matrix_bits_unchanged(self):
        """sha256 of the raw bytes of every gamma matrix for all 91 p+q <= 12, n then p
        ascending: ``matrep`` emits these values, every zero part +0.0."""
        h = hashlib.sha256()
        for sig in synthesised:
            for g in build_generators(sig).gammas:
                h.update(g.tobytes())
        assert h.hexdigest() == "a5d26653d49edfc54813303cdd671000dc677d12e515ed986a38d8a40b03507d"

    def test_forms_are_the_kronecker_chain_without_signed_zeros(self, capsys):
        """On all 91 p+q <= 12 the gammas equal the dense Kronecker chain's, whose bits the digest pins,
        with each -0.0 part written +0.0, and no part is -0.0; ``matrep``'s text is the chain's, each
        gamma the ``cli._Parts`` of all its entries, as the writer writes it, with each of its 487 674
        "-0.0" tokens written "0.0"."""

        def all_entries(g):
            return tuple([(r, c, v) for r, row in enumerate(part.tolist()) for c, v in enumerate(row)] for part in (g.real, g.imag))
        h, signed_zeros = hashlib.sha256(), 0
        for sig in synthesised:
            chain, gen = kronecker_chain(sig), build_generators(sig)
            h.update(b"".join(g.tobytes() for g in chain))
            assert [g.tobytes() for g in gen.gammas] == [(g + 0.0).tobytes() for g in chain], sig
            parts = np.concatenate([g.view(np.float64) for g in gen.gammas]) if gen.gammas else np.zeros(0)
            assert not np.signbit(parts[parts == 0]).any(), sig
            payload = {
                "p": sig.p, "q": sig.q, "dim": gen.dim, "reducible": gen.reducible, "metric": list(gen.metric),
                "anticommutation_ok": True, "gammas": [cli._matrix_payload(gen.dim, all_entries(g), gen.basis_note) for g in chain],
            }
            text = "".join(cli._json_chunks(payload)) + "\n"
            signed_zeros += text.count("-0.0")
            assert (cli.main(["matrep", "-p", str(sig.p), "-q", str(sig.q)]), capsys.readouterr().out) == (0, text.replace("-0.0", "0.0"))
        assert (h.hexdigest(), signed_zeros) == (KRONECKER_CHAIN_DIGEST, 487_674)

    def test_forms_are_the_kronecker_chain_past_twelve_generators(self):
        """On the 62 signatures of 13 <= p+q <= 16 the gammas equal the dense Kronecker chain's, each -0.0
        part written +0.0, with no -0.0 part; a new digest pins the chain's bits there."""
        h = hashlib.sha256()
        for sig in synthesised_past_12:
            chain, gen = kronecker_chain(sig), build_generators(sig)
            h.update(b"".join(g.tobytes() for g in chain))
            assert [g.tobytes() for g in gen.gammas] == [(g + 0.0).tobytes() for g in chain], sig
            parts = np.concatenate([g.view(np.float64) for g in gen.gammas])
            assert not np.signbit(parts[parts == 0]).any(), sig
        assert h.hexdigest() == KRONECKER_CHAIN_PAST_12_DIGEST

    def test_matrep_at_sixteen_generators(self, tmp_path, capsys):
        """``matrep -p 8 -q 8`` writes the 16 gammas of dim 256, judged by the one rule, and they read back as
        the Kronecker chain's, each -0.0 part written +0.0."""
        out = tmp_path / "m16.json"
        assert cli.main(["matrep", "-p", "8", "-q", "8", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 16 generators of dim 256 to {out}\n"
        payload = json.loads(out.read_text())
        assert (payload["dim"], payload["reducible"], payload["anticommutation_ok"], len(payload["gammas"])) == (256, False, True, 16)
        chain = kronecker_chain(Signature(8, 8))
        assert [cli.matrix_from_json(m).tobytes() for m in payload["gammas"]] == [(g + 0.0).tobytes() for g in chain]


class TestGeneratorSetShape:
    def test_one_generator_short(self):
        with pytest.raises(ValueError, match=r"^Cl\(2,0\) needs 2 square gamma matrices of one dimension, got shapes \[\(2, 2\)\]$"):
            GeneratorSet(Signature(2, 0), (_X,), False, "by hand")

    def test_two_dimensions(self):
        with pytest.raises(ValueError, match=r"^Cl\(2,0\) needs 2 square gamma matrices of one dimension, got shapes \[\(2, 2\), \(3, 3\)\]$"):
            GeneratorSet(Signature(2, 0), (_X, np.eye(3)), False, "by hand")

    @pytest.mark.parametrize(
        "sig,gammas",
        [
            (Signature(1, 0), [_X, _Z]),  # one generator too many
            (Signature(0, 0), [[[1]]]),
            (Signature(1, 0), [np.ones((2, 3))]),  # not square
            (Signature(1, 0), [np.ones(2)]),  # not a matrix
            (Signature(1, 1), [np.eye(2), np.eye(2)[None]]),
        ],
    )
    def test_rejects_a_count_or_shape_off_the_signature(self, sig, gammas):
        with pytest.raises(ValueError, match=f"^{re.escape(str(sig))} needs {sig.n} square gamma matrices of one dimension"):
            GeneratorSet(sig, tuple(np.array(g) for g in gammas), reducible=False, basis_note="by hand")

    @pytest.mark.parametrize("sig", [Signature(1, 0), Signature(2, 0)], ids=str)
    def test_rejects_zero_dimension(self, sig):
        """A 0 x 0 gamma has no row to judge: the set is refused, not passed vacuously."""
        with pytest.raises(ValueError, match=f"^{re.escape(str(sig))} needs gamma matrices of dimension at least 1, got shapes \\[\\(0, 0\\)"):
            GeneratorSet(sig, (np.zeros((0, 0)),) * sig.n, False, "x")

    def test_signature_and_nested_lists_are_coerced(self):
        gen = GeneratorSet((1, 1), (_X, [[0, 1], [-1, 0]]), False, "by hand")
        assert gen.sig == Signature(1, 1) and type(gen.sig) is Signature and gen.gammas[0] is _X
        assert gen.dim == 2 and faithfulness_rank(gen) == 4 and np.array_equal(gen.gammas[1], [[0, 1], [-1, 0]])


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


class TestGammaCheck:
    def test_reaches_the_synthesis_limit(self):
        """The synthesis limit is the one input rule's 16 generators: all 153 signatures are swept."""
        r = checks.check_gamma(16, 0)
        assert (r.passed, r.detail, r.covered) == (True, "n <= 16, faithful", 153)

    @pytest.mark.parametrize("nmax", range(-1, 17))
    def test_budget(self, nmax):
        """Every count up to nmax is swept, each of its n + 1 signatures covered."""
        r = checks.check_gamma(nmax, 1)
        assert (r.passed, r.detail, r.covered) == (True, f"n <= {nmax}, faithful", sum(n + 1 for n in range(nmax + 1)))

    def test_builds_and_reads_no_dense_array(self):
        """The check judges the synthesised forms as they are: with the dense writer and reader made to
        raise, it still passes the full budget."""
        with mock.patch.object(checks.gamma, "build_generators", side_effect=AssertionError("built")), mock.patch.object(
            checks.gamma, "_monomial_forms", side_effect=AssertionError("read")
        ):
            r = checks.check_gamma(12, 1)
        assert (r.passed, r.detail, r.covered) == (True, "n <= 12, faithful", 91)

    def test_one_flipped_entry_at_twelve_generators_fails(self):
        honest = generator_forms
        with mock.patch.object(checks.gamma, "generator_forms", lambda s: form_mutated(s, FORM_MUTANTS["flipped-entry"]) if s == Signature(6, 6) else honest(s)):
            r = checks.check_gamma(12, 0)
        assert (r.passed, r.detail) == (False, "Cl(6,6)")

    @pytest.mark.parametrize("mutant", FORM_MUTANTS)
    @pytest.mark.parametrize("sig", MUTATED_SIGNATURES + [Signature(8, 7), Signature(8, 8)], ids=str)
    def test_mutant_fails(self, mutant, sig):
        """Each form mutant of one set's last gamma fails the 16-generator sweep, which names that set, up to
        Cl(8,7) and Cl(8,8) of dim 256; written dense, it is the dense mutant of the same name."""
        honest = generator_forms
        with mock.patch.object(checks.gamma, "generator_forms", lambda s: form_mutated(s, FORM_MUTANTS[mutant]) if s == sig else honest(s)):
            r = checks.check_gamma(16, 0)
        assert (r.passed, r.detail, r.covered) == (False, str(sig), 153)
        assert _monomial_forms(mutated(build_generators(sig), GAMMA_MUTANTS[mutant])) == form_mutated(sig, FORM_MUTANTS[mutant])[0]

    @pytest.mark.parametrize("mutant", GAMMA_MUTANTS)
    @pytest.mark.parametrize("sig", MUTATED_SIGNATURES, ids=str)
    def test_dense_mutant_fails_the_one_set_functions(self, mutant, sig):
        """Each dense mutant of one set's last gamma breaks the relations by dense products and fails the
        one-set functions; the filled-zero mutant is not monomial, which the error names."""
        gen = mutated(build_generators(sig), GAMMA_MUTANTS[mutant])
        assert not verify_anticommutation(gen) and not dense_verdict(gen)[0]
        with pytest.raises(ValueError, match=f"gamma matrices of {re.escape(str(sig))} violate the defining relations") as raised:
            faithfulness_rank(gen)
        assert ("not monomial" in str(raised.value)) == (mutant == "filled-zero")

    def test_first_mutant_in_sweep_order_is_named(self):
        """With form mutants at Cl(6,6), Cl(2,5) and Cl(5,2), the check names Cl(2,5), first in the sweep's
        order of n, then p, ascending."""
        honest, targets = generator_forms, dict(zip(map(Signature, (6, 2, 5), (6, 5, 2)), FORM_MUTANTS.values()))
        with mock.patch.object(checks.gamma, "generator_forms", lambda s: form_mutated(s, targets[s]) if s in targets else honest(s)):
            r = checks.check_gamma(12, 0)
        assert (r.passed, r.detail) == (False, "Cl(2,5)")

    def test_dense_read_is_the_forms(self):
        """On all 91 p+q <= 12 the dense gammas read back are ``generator_forms``' forms, so the one-set
        functions give each set the check's verdict: the relations, rank 2^n and the mod-8 omega sign."""
        for sig in synthesised:
            forms, gen = generator_forms(sig)[0], build_generators(sig)
            assert _monomial_forms(gen) == forms, sig
            v = form_verdict(forms, sig.metric)
            assert type(v) is GammaVerdict and v == (True, 1 << sig.n, omega_square_mod8(sig) if sig.n else 1), sig
            assert (verify_anticommutation(gen), faithfulness_rank(gen), omega_image_square_sign(gen)) == v, sig

    @pytest.mark.parametrize("n", range(11))
    def test_monomial_verdicts_match_the_dense_products(self, n):
        """On every shipped set of n generators and on each mutant of it, the one-set functions give what
        dense products give: the relations, and the sign of omega^2 (0 if neither +-I).  A set that is not
        monomial fails closed, even where the dense products hold, as the filled-zero mutant
        [[i, 1], [0, -i]] of Cl(0,1) squares to -I."""
        for p in range(n + 1):
            gen = build_generators((p, n - p))
            for g in [gen] + ([mutated(gen, m) for m in GAMMA_MUTANTS.values()] if n >= 1 else []):
                monomial = _monomial_forms(g) is not None
                relations, sign = dense_verdict(g)
                assert verify_anticommutation(g) == (relations and monomial), g.sig
                try:
                    got = omega_image_square_sign(g)
                except ValueError:
                    got = 0
                assert got == (sign if monomial else 0), g.sig


class TestFormVerdict:
    def test_each_broken_relation_fails(self):
        """A square, an anticommutator and the metric each fail the form proof on their own."""
        forms = list(generator_forms((1, 3))[0])
        assert form_verdict(forms, (1, -1, -1, -1)).relations
        assert not form_verdict(forms, (1, 1, -1, -1)).relations  # g_2^2 = -I, not +I
        assert not form_verdict(forms[:2] + [forms[1]] + forms[3:], (1, -1, -1, -1)).relations  # g_2 g_2 + g_2 g_2 = -2I, not 0
        assert not form_verdict(forms[:3] + [_phase_added(*forms[3], 2)], (1, -1, -1, -1)).relations

    @pytest.mark.parametrize(
        "forms,metric,verdict",
        [
            ((), (), (True, 1, 1)),  # the trivial module: omega = I
            ((((0,), (0,)),), (1,), (True, 1, 1)),  # Cl(1,0) on [[1]]: omega = I, the span halves
            ((((0,), (1,)),), (-1,), (True, 2, -1)),  # Cl(0,1) on [[i]]: omega = iI
            ((((0,), (1,)),), (1,), (False, 2, -1)),  # [[i]] squares to -1, not +1
            ((((1, 0), (0, 0)), ((1, 0), (0, 0))), (1, 1), (False, 4, 1)),  # X twice: omega = X^2 = I
            ((((1, 0), (0, 2)),), (-1,), (True, 2, -1)),  # J of Cl(0,1): a permutation with phases
        ],
    )
    def test_hand_written_forms(self, forms, metric, verdict):
        assert form_verdict(forms, metric) == verdict

    @pytest.mark.parametrize(
        "forms,metric,message",
        [
            # Z twice would be judged only up to the metric's length, which skips their failing pair
            pytest.param((_FORM_X, _FORM_Z, _FORM_Z), (1,), "3 forms need 3 metric entries, each +1 or -1, got [1]", id="short-metric"),
            pytest.param((_FORM_X,), (1, 1), "1 forms need 1 metric entries, each +1 or -1, got [1, 1]", id="long-metric"),
            pytest.param((_FORM_X,), (0,), "1 forms need 1 metric entries, each +1 or -1, got [0]", id="zero-metric"),
            pytest.param((((-1, 0), (0, 0)),), (1,), "form 0 is not 2 int columns in 0..1 and 2 int phases in 0..3", id="column-minus-1"),
            pytest.param((((1, 0), (6, 0)),), (1,), "form 0 is not 2 int columns in 0..1 and 2 int phases in 0..3", id="phase-6"),
            pytest.param((_FORM_X, ((0,), (0,))), (1, 1), "form 1 is not 2 int columns in 0..1 and 2 int phases in 0..3", id="two-dims"),
            pytest.param((((1.0, 0), (0, 0)),), (1,), "form 0 is not 2 int columns in 0..1 and 2 int phases in 0..3", id="float-column"),
            pytest.param((((1, 0), (0,)),), (1,), "form 0 is not 2 int columns in 0..1 and 2 int phases in 0..3", id="short-phases"),
            pytest.param((((), ()),), (1,), "forms need dim >= 1 rows", id="dim-0"),
        ],
    )
    def test_malformed_input_is_rejected(self, forms, metric, message):
        """Input the rule cannot judge is one ``ValueError`` naming the mismatch, not a verdict."""
        with pytest.raises(ValueError) as exc:
            form_verdict(forms, metric)
        assert str(exc.value) == message

    def test_agrees_with_the_generator_sets(self):
        """On hand-built dense sets, ``form_verdict`` of the forms read back gives what the one-set
        functions report."""
        gen = GeneratorSet(Signature(2, 1), (_X, _Z, _X @ _Z), reducible=False, basis_note="by hand")
        assert form_verdict(_monomial_forms(gen), gen.metric) == (True, 4, 1) == (verify_anticommutation(gen), faithfulness_rank(gen), omega_image_square_sign(gen))


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
