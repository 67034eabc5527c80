"""Acceptance suite: each criterion runs registry checks at a fixed budget.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line
per criterion with its runtime.  The invariants and their tolerances
live in ``cliffrep.checks``; this table only fixes which checks back
each criterion, at what budget, how much they must cover and how long
they may take.
"""

import time
from typing import NamedTuple

import pytest

from cliffrep import checks


class Criterion(NamedTuple):
    number: int
    description: str
    names: tuple[str, ...]  # registry checks, run in order
    nmax: int  # 0 where no check reads it
    dim_max: int  # 0 where no check reads it
    covered: tuple[int, ...]  # CheckResult.covered, one per name
    budget: float | None  # wall-time limit in seconds


CRITERIA = [
    Criterion(1, "all 64 periodic-table entries reproduced exactly", ("table",), 0, 0, (64,), 1.0),
    Criterion(
        2, "volume-element square matches the mod-8 law on all 90 signatures", ("omega-square",), 12, 0, (90,), 10.0
    ),
    Criterion(3, "center equals the brute-force commutant for all p+q <= 8", ("center",), 8, 0, (45,), 30.0),
    Criterion(
        4,
        "automorphism signs exact on every blade, omega conjugation included",
        ("automorphisms", "omega-conjugation"),
        8, 0, (45, 25), None,
    ),
    Criterion(
        5, "canonical homomorphisms mutually inverse on 495 signature pairs", ("graded-tensor",), 8, 0, (495,), 5.0
    ),
    Criterion(
        6,
        "factor lists compose to the classification; quoted factorizations reproduced",
        ("karoubi",),
        12, 0, (91,), None,
    ),
    Criterion(
        7, "gamma relations exact, faithful rank 2^n, volume image sign correct", ("gamma",), 8, 0, (45,), None
    ),
    Criterion(8, "rotation/boost commutators hold on 28 labels", ("gn-com1",), 0, 64, (28,), 10.0),
    Criterion(
        9,
        "su(2) pairs, conversion spectra and operator identities",
        ("vdw-com2", "gn-vdw"),
        0, 64, (280, 28), None,
    ),
    Criterion(
        10,
        "mod-2 and mod-8 cycle walks match the quoted sequences",
        ("complex-cycle", "real-cycle"),
        0, 0, (6, 17), None,
    ),
    Criterion(
        11,
        "mod-8 size ratio 16, H(x)H = Mat_4(R), cycle consistent with period step",
        ("periodicity", "real-cycle"),
        4, 0, (15, 17), None,
    ),
    Criterion(12, "complex classes double in size every two generators", ("complex-parity",), 12, 0, (11,), None),
    Criterion(13, "even subalgebras are classified by one generator fewer", ("even-subalgebra",), 8, 0, (44,), None),
    Criterion(
        14,
        "automorphism signs and omega conjugation exact on every blade up to 12 generators",
        ("automorphisms", "omega-conjugation"),
        12, 0, (91, 49), None,
    ),
    Criterion(
        15, "canonical homomorphisms mutually inverse on 1820 signature pairs", ("graded-tensor",), 12, 0, (1820,), 5.0
    ),
    Criterion(
        16,
        "gamma relations exact, faithful rank 2^n, volume image sign correct up to 12 generators",
        ("gamma",),
        12, 0, (91,), None,
    ),
    Criterion(
        17,
        "omega conjugation exact on every blade up to 16 generators",
        ("omega-conjugation",),
        16, 0, (81,), None,
    ),
]


def _report(number, description, started, budget=None):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: f"criterion_{c.number:02d}")
def test_criterion(criterion):
    started = time.perf_counter()
    registry = dict(checks.ALL_CHECKS)
    results = [registry[name](criterion.nmax, criterion.dim_max) for name in criterion.names]
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    assert tuple(r.covered for r in results) == criterion.covered
    details = "; ".join(r.detail for r in results)
    _report(criterion.number, f"{criterion.description} [{details}]", started, criterion.budget)


def test_every_check_backs_a_criterion():
    in_table = {name for c in CRITERIA for name in c.names}
    assert [name for name, _ in checks.ALL_CHECKS if name not in in_table] == []
