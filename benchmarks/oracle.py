"""Reference values for the benchmark, computed without cliffrep.

Everything here is re-derived from the mathematics so that a wrong
answer from the program cannot also be the oracle's answer:

* blade signs by counting inversions of the concatenated index word
  (cliffrep counts crossings with bit tricks);
* the real classification from the (p - q) mod 8 table and real-dimension
  bookkeeping;
* CLI output checks that parse text/JSON and compare it with the above.
"""

from __future__ import annotations

import json
import random
import re

# (p - q) mod 8 -> (division ring, doubled)
MOD8_RING = {
    0: ("R", False),
    1: ("R", True),
    2: ("R", False),
    3: ("C", False),
    4: ("H", False),
    5: ("H", True),
    6: ("H", False),
    7: ("C", False),
}
RING_REAL_DIM = {"R": 1, "C": 2, "H": 4}


def indices(mask: int) -> list[int]:
    """0-based generator indices of a blade mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def blade_sign(a: int, b: int, p: int) -> int:
    """Sign s with e_a e_b = s e_(a^b) in Cl(p, q).

    One factor -1 per inversion of the concatenated index word, and one per
    repeated generator with index >= p (those square to -1).
    """
    word = indices(a) + indices(b)
    inversions = sum(1 for i in range(len(word)) for j in range(i) if word[j] > word[i])
    sign = -1 if inversions % 2 else 1
    for i in indices(a & b):
        if i >= p:
            sign = -sign
    return sign


def product_coefficient(a: dict, b: dict, mask: int, p: int):
    """Coefficient of e_mask in the product of sparse multivectors a * b."""
    total = 0
    for ma, ca in a.items():
        cb = b.get(ma ^ mask)
        if cb is not None:
            total += blade_sign(ma, ma ^ mask, p) * ca * cb
    return total


def check_product(a: dict, b: dict, p: int, n: int, coefficient, rng: random.Random, samples: int) -> str | None:
    """Compare ``samples`` seeded output coefficients; None when all agree.

    Half the sampled masks are reachable products e_A e_B, the other half
    uniform over all 2^n blades (mostly zero coefficients).
    """
    keys_a, keys_b = list(a), list(b)
    masks = [rng.choice(keys_a) ^ rng.choice(keys_b) for _ in range(samples // 2)]
    masks += [rng.randrange(1 << n) for _ in range(samples - len(masks))]
    for mask in masks:
        want = product_coefficient(a, b, mask, p)
        got = coefficient(mask)
        if got != want:
            return f"coefficient of blade {mask:#x}: got {got!r}, want {want!r}"
    return None


def real_class(p: int, q: int) -> tuple[str, bool, int]:
    """(ring letter, doubled, matrix size) of Cl(p, q)."""
    ring, doubled = MOD8_RING[(p - q) % 8]
    per_component = (1 << (p + q)) // (2 if doubled else 1)
    size = round((per_component // RING_REAL_DIM[ring]) ** 0.5)
    assert size * size * RING_REAL_DIM[ring] == per_component
    return ring, doubled, size


def table_entry(p: int, q: int) -> str:
    """Periodic-table cell, e.g. ``2H(2)``."""
    ring, doubled, size = real_class(p, q)
    return ("2" if doubled else "") + ring + (f"({size})" if size > 1 else "")


def shape_text(p: int, q: int) -> str:
    """Class text as the CLI prints it, e.g. ``Mat_2(H)`` or ``R⊕R``."""
    ring, doubled, size = real_class(p, q)
    one = f"Mat_{size}({ring})" if size > 1 else ring
    return f"{one}⊕{one}" if doubled else one


def gn_basis(l0, l1) -> list[tuple]:
    """(k, nu) basis of the (l0, l1) module, k then nu ascending."""
    out = []
    k = l0
    while k < l1:
        nu = -k
        while nu <= k:
            out.append((k, nu))
            nu += 1
        k += 1
    return out


def vdw_basis(l, ldot) -> list[tuple]:
    """(m, mdot) basis of |l,m;ldot,mdot>, lexicographic."""
    return [(-l + i, -ldot + j) for i in range(int(2 * l) + 1) for j in range(int(2 * ldot) + 1)]


def _matrix(obj: dict, dim: int) -> list[list[complex]]:
    if obj["dim"] != dim or len(obj["entries"]) != dim * dim:
        raise ValueError(f"matrix is not {dim}x{dim}")
    flat = [complex(re_, im) for re_, im in obj["entries"]]
    return [flat[r * dim : (r + 1) * dim] for r in range(dim)]


def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def _scaled_identity(m, c) -> bool:
    return all(m[r][s] == (c if r == s else 0) for r in range(len(m)) for s in range(len(m)))


# ---- CLI output checks: each returns None on success, else a reason ----


def check_classify(out: str, p: int, q: int) -> str | None:
    got = json.loads(out)
    ring, doubled, size = real_class(p, q)
    want = {
        "p": p,
        "q": q,
        "ring": ring + ("+" + ring if doubled else ""),
        "matrix_size": size,
        "simple": not doubled,
        "hour": (q - p) % 8,
    }
    bad = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
    return f"classify fields {bad}, want {want}" if bad else None


def check_table(out: str, pmax: int, qmax: int) -> str | None:
    lines = out.splitlines()
    if len(lines) != pmax + 3:
        return f"table has {len(lines)} lines"
    for p, row in enumerate(lines[1 : pmax + 2]):
        cells = row.split()
        want = [str(p)] + [table_entry(p, q) for q in range(qmax + 1)]
        if cells != want:
            return f"row {p}: {cells} != {want}"
    want_last = f"reference check: {(pmax + 1) * (qmax + 1)} entries compared, 0 mismatches"
    return None if lines[-1] == want_last else f"table summary {lines[-1]!r}"


_CLOCK_RE = re.compile(r"^step (\d+): Cl\((\d+),(\d+)\) ≅ (\S+), (simple|semi-simple), hour (\d+) \(octave (-?\d+)\)$")


def check_clock(out: str, p: int, q: int, steps: int) -> str | None:
    lines = out.splitlines()
    if len(lines) != steps + 1:
        return f"clock printed {len(lines)} lines for {steps} steps"
    for step, line in enumerate(lines):
        m = _CLOCK_RE.match(line)
        if not m:
            return f"unparsed clock line {line!r}"
        qs = q + step
        _, doubled, _ = real_class(p, qs)
        hour = (qs - p) % 8
        want = (step, p, qs, shape_text(p, qs), "semi-simple" if doubled else "simple", hour, (qs - p - hour) // 8)
        got = (int(m[1]), int(m[2]), int(m[3]), m[4], m[5], int(m[6]), int(m[7]))
        if got != want:
            return f"clock line {got} != {want}"
    return None


def check_factorize(out: str, p: int, q: int) -> str | None:
    lines = out.splitlines()
    head = f"Cl({p},{q}) = "
    if not lines or not lines[0].startswith(head):
        return "factorize header missing"
    factors = [(int(a), int(b)) for a, b in re.findall(r"Cl\((\d+),(\d+)\)", lines[0][len(head) :])]
    n = p + q
    if "] u [" in lines[0]:
        factors = factors[: len(factors) // 2]
    peeled = sum(a + b for a, b in factors)
    want_peeled = n if n % 2 == 0 else n - 1
    if peeled != want_peeled or any(a + b != 2 for a, b in factors if (a, b) != (0, 0)):
        return f"factor list {factors} does not cover {want_peeled} generators in pairs"
    want_last = f"class check vs {shape_text(p, q)}: OK"
    return None if lines[-1] == want_last else f"factorize verdict {lines[-1]!r}"


def check_chain(out: str, spin2: int) -> str | None:
    want = " <-> ".join(f"C^{{{spin2 - j},{-j}}}" for j in range(spin2 + 1))
    return None if out.strip() == want else f"chain {out.strip()!r} != {want!r}"


def check_matrep(out: str, p: int, q: int, pair: tuple[int, int]) -> str | None:
    got = json.loads(out)
    n = p + q
    dim = 1 << ((n + 1) // 2)
    if not got.get("anticommutation_ok"):
        return "anticommutation_ok is not true"
    if (got["p"], got["q"], got["dim"], len(got["gammas"])) != (p, q, dim, n):
        return f"matrep header {(got['p'], got['q'], got['dim'], len(got['gammas']))}"
    if got["metric"] != [1] * p + [-1] * q:
        return f"metric {got['metric']}"
    # independent spot check of one seeded generator pair
    i, j = pair
    gi, gj = _matrix(got["gammas"][i], dim), _matrix(got["gammas"][j], dim)
    eta = got["metric"]
    if not (_scaled_identity(_matmul(gi, gi), eta[i]) and _scaled_identity(_matmul(gj, gj), eta[j])):
        return f"gamma {i} or {j} squares wrongly"
    if i != j:
        anti = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(_matmul(gi, gj), _matmul(gj, gi))]
        if not _scaled_identity(anti, 0):
            return f"gammas {i}, {j} do not anticommute"
    return None


def check_rep(out: str, basis: str, a, b) -> str | None:
    got = json.loads(out)
    if got.get("pass") is not True or not got["commutator_residual"] <= got["tolerance"]:
        return f"rep verdict pass={got.get('pass')} residual={got.get('commutator_residual')}"
    if basis == "gn":
        states, diag_key, diag = gn_basis(a, b), "H3", lambda s: s[1]
    else:
        states, diag_key, diag = vdw_basis(a, b), "X3", lambda s: s[0]
    dim = len(states)
    if got["dim"] != dim or sorted(got["operators"]) != sorted(
        ["H3", "H+", "H-", "F3", "F+", "F-"] if basis == "gn" else ["X3", "X+", "X-", "Y3", "Y+", "Y-"]
    ):
        return f"rep dim {got['dim']} (want {dim}) or operator names {sorted(got['operators'])}"
    entries = got["operators"][diag_key]["entries"]
    if len(entries) != dim * dim:
        return f"{diag_key} has {len(entries)} entries"
    for r, state in enumerate(states):
        if entries[r * dim + r] != [float(diag(state)), 0.0]:
            return f"{diag_key}[{r},{r}] = {entries[r * dim + r]}, want {float(diag(state))}"
    return None
