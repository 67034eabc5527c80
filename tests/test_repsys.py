"""Representation-label arithmetic: cycles, chains, periodicity steps."""

import re
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from cliffrep import repsys
from cliffrep.classify import RingType, classify, classify_complex
from cliffrep.factorize import complex_factorize
from cliffrep.repsys import (
    MAX_CYCLE_HOURS,
    ComplexRepLabel,
    RealRepClass,
    RealRepLabel,
    bw_complex_step,
    bw_real_step,
    chain_neighbors,
    classify_real_rep,
    complex_step_hour,
    interlocking_chain,
    real_period_step,
    run_real_cycle,
)

RING_OF_CLASS = {
    RealRepClass.R0: RingType.R,
    RealRepClass.R2: RingType.R,
    RealRepClass.H4: RingType.H,
    RealRepClass.H6: RingType.H,
    RealRepClass.C3: RingType.C,
    RealRepClass.C7: RingType.C,
    RealRepClass.R02_DOUBLE: RingType.R_R,
    RealRepClass.H46_DOUBLE: RingType.H_H,
}


def interlock(x, y):
    """Interlocking labels: both superscripts differ by exactly 1."""
    return abs(x.a - y.a) == 1 and abs(x.b - y.b) == 1


class TestClassifyRealRep:
    @pytest.mark.parametrize(
        "sig,cls,l0",
        [
            ((1, 3), RealRepClass.H6, F(1)),
            ((1, 5), RealRepClass.H4, F(3, 2)),
            ((1, 7), RealRepClass.R2, F(2)),
            ((1, 1), RealRepClass.R0, F(1, 2)),
            ((1, 0), RealRepClass.R02_DOUBLE, F(0)),
            ((1, 2), RealRepClass.C7, F(1, 2)),
            ((1, 4), RealRepClass.H46_DOUBLE, F(1)),
        ],
    )
    def test_examples(self, sig, cls, l0):
        rep = classify_real_rep(sig)
        assert rep.cls is cls and rep.l0 == l0

    def test_class_matches_ring(self):
        for n in range(0, 13):
            for p in range(n + 1):
                rep = classify_real_rep((p, n - p))
                assert RING_OF_CLASS[rep.cls] is classify((p, n - p)).ring


class TestComplexCycle:
    def test_quoted_walk(self):
        seq = [ComplexRepLabel(0)]
        for _ in range(5):
            seq.append(bw_complex_step(seq[-1]))
        assert seq == [
            ComplexRepLabel(0),
            ComplexRepLabel(1),
            ComplexRepLabel(1, doubled=True),
            ComplexRepLabel(2),
            ComplexRepLabel(2, doubled=True),
            ComplexRepLabel(3),
        ]

    def test_hours_alternate(self):
        rep = ComplexRepLabel(0)
        hours = []
        for _ in range(6):
            hours.append(complex_step_hour(rep))
            rep = bw_complex_step(rep)
        assert hours == [1, 0, 1, 0, 1, 0]

    def test_fermion_boson_alternation(self):
        rep = ComplexRepLabel(0)
        spins = [rep.spin]
        for _ in range(8):
            rep = bw_complex_step(rep)
            if not rep.doubled:
                spins.append(rep.spin)
        assert spins == [F(0), F(1, 2), F(1), F(3, 2), F(2)]
        # consecutive plain labels differ by one unit of a (half unit of spin)
        assert all(b - a == F(1, 2) for a, b in zip(spins, spins[1:]))

    def test_rejects_off_ladder(self):
        with pytest.raises(ValueError):
            bw_complex_step(ComplexRepLabel(1, -1))

    def test_dim_bookkeeping(self):
        assert ComplexRepLabel(2, 0).dim == 4
        assert ComplexRepLabel(2, 0, doubled=True).dim == 8
        assert ComplexRepLabel(1, -1).dim == 4
        assert ComplexRepLabel(0).dim == 1


class TestRealCycle:
    def test_quoted_eight_hour_walk(self):
        states = run_real_cycle(RealRepLabel(RealRepClass.R02_DOUBLE, F(0)), 9)
        expected = [
            (RealRepClass.R02_DOUBLE, F(0)),
            (RealRepClass.R0, F(1, 2)),
            (RealRepClass.R02_DOUBLE, F(1, 2)),
            (RealRepClass.H6, F(1)),
            (RealRepClass.H46_DOUBLE, F(1)),
            (RealRepClass.H4, F(3, 2)),
            (RealRepClass.H46_DOUBLE, F(3, 2)),
            (RealRepClass.R2, F(2)),
            (RealRepClass.R02_DOUBLE, F(2)),
            (RealRepClass.R0, F(5, 2)),  # second cycle starts here
        ]
        assert [(s.cls, s.l0) for s in states] == expected

    @pytest.mark.parametrize(
        "cls,l0,h,out_cls,out_l0",
        [
            (RealRepClass.R02_DOUBLE, F(0), 0, RealRepClass.R0, F(1, 2)),
            (RealRepClass.R02_DOUBLE, F(1, 2), 2, RealRepClass.H6, F(1)),
            (RealRepClass.H46_DOUBLE, F(3, 2), 6, RealRepClass.R2, F(2)),
            (RealRepClass.R2, F(2), 7, RealRepClass.R02_DOUBLE, F(2)),
        ],
    )
    def test_single_transitions(self, cls, l0, h, out_cls, out_l0):
        out = bw_real_step(RealRepLabel(cls, l0), h)
        assert out.cls is out_cls and out.l0 == out_l0

    def test_inconsistent_hour_rejected(self):
        with pytest.raises(ValueError):
            bw_real_step(RealRepLabel(RealRepClass.H6, F(1)), 0)
        with pytest.raises(ValueError):
            bw_real_step(RealRepLabel(RealRepClass.R02_DOUBLE, F(0)), 4)
        with pytest.raises(ValueError):
            bw_real_step(RealRepLabel(RealRepClass.R0, F(1, 2)), 9)

    def test_full_cycle_equals_period_step(self):
        start = RealRepLabel(RealRepClass.R02_DOUBLE, F(0))
        end = run_real_cycle(start, 8)[-1]
        assert end == real_period_step(start)

    def test_cycle_agrees_with_signature_walk(self):
        # walking Cl(1, q): representation class tracks the classification ring
        for q in range(0, 10):
            rep = classify_real_rep((1, q))
            assert RING_OF_CLASS[rep.cls] is classify((1, q)).ring


class TestChains:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, [(1, 0), (0, -1)]),
            (2, [(2, 0), (1, -1), (0, -2)]),
            (3, [(3, 0), (2, -1), (1, -2), (0, -3)]),
            (0, [(0, 0)]),
        ],
    )
    def test_bottom_chains(self, n, expected):
        assert [(c.a, c.b) for c in interlocking_chain(n)] == expected

    def test_consecutive_nodes_interlock(self):
        for n in range(0, 8):
            chain = interlocking_chain(n)
            for x, y in zip(chain, chain[1:]):
                assert interlock(x, y)

    def test_neighbors_stay_in_wedge(self):
        for a in range(0, 4):
            for b in range(-3, 1):
                for nb in chain_neighbors(ComplexRepLabel(a, b)):
                    assert nb.a >= 0 >= nb.b
                    assert interlock(ComplexRepLabel(a, b), nb)

    def test_corner_has_one_neighbor(self):
        assert [(c.a, c.b) for c in chain_neighbors(ComplexRepLabel(0, 0))] == [(1, -1)]


class TestTensorSteps:
    """Tensoring with Cl(0,8) or Cl(8,0): the mod-8 period of the real labels."""

    def test_real_period_step(self):
        rep = RealRepLabel(RealRepClass.H6, F(1))
        out = real_period_step(rep)
        assert out.cls is RealRepClass.H6 and out.l0 == F(3)
        # Cl(1,3) -> Cl(1,11): same class at l0 + 2
        assert classify_real_rep((1, 11)) == out

    def test_octave_signature_gains_eight_generators(self):
        for sig in [(1, 3), (2, 2), (0, 4)]:
            rep = classify_real_rep(sig)
            stepped = real_period_step(rep)
            assert classify_real_rep((sig[0], sig[1] + 8)) == stepped


class TestLabelValidation:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ComplexRepLabel(1, 1), "C^{1,1} lies outside the wedge a >= 0 >= b"),
            (lambda: ComplexRepLabel(-1), "C^{-1,0} lies outside the wedge a >= 0 >= b"),
            (lambda: ComplexRepLabel(1.5), "a must be an integer, got 1.5"),
            (lambda: ComplexRepLabel(1, -0.5), "b must be an integer, got -0.5"),
            (lambda: ComplexRepLabel(1, 0, doubled="no"), "doubled must be a bool, got 'no'"),
            (lambda: ComplexRepLabel(1, 0, doubled=1), "doubled must be a bool, got 1"),
            (lambda: ComplexRepLabel(1, 0, doubled=None), "doubled must be a bool, got None"),
            (lambda: replace(ComplexRepLabel(2), doubled=0), "doubled must be a bool, got 0"),
            (lambda: RealRepLabel(RealRepClass.R0, F(1, 3)), "1/3 is not a half-integer"),
            (lambda: RealRepLabel(RealRepClass.R0, F(-1, 2)), "l0 must be a non-negative half-integer"),
            (lambda: RealRepLabel(RealRepClass.R0, 0.5), "half-integer int or Fraction, got 0.5"),
            (lambda: RealRepLabel("R0", F(0)), "class must be a RealRepClass, got 'R0'"),
            (lambda: classify_complex(2.0), "n must be an integer, got 2.0"),
            (lambda: complex_factorize(4.0), "n must be an integer, got 4.0"),
            (lambda: classify_complex(17), "at most 16 generators are supported"),
            (lambda: classify_complex(10**18), "at most 16 generators are supported"),
            (lambda: complex_factorize(17), "at most 16 generators are supported"),
            (lambda: complex_factorize(10**18), "at most 16 generators are supported"),
            (lambda: complex_factorize(-2), "n must be non-negative"),
            (lambda: interlocking_chain(1.5), "spin doubling 2s must be an integer, got 1.5"),
            (lambda: bw_real_step(RealRepLabel(RealRepClass.R02_DOUBLE, F(0)), 1.5), "hour must be an integer, got 1.5"),
            (lambda: bw_real_step(RealRepLabel(RealRepClass.R02_DOUBLE, F(0)), None), "hour must be an integer, got None"),
            (lambda: run_real_cycle(RealRepLabel(RealRepClass.R0, F(0)), 1.5), "hour count must be an integer, got 1.5"),
            (lambda: run_real_cycle(RealRepLabel(RealRepClass.R0, F(0)), "8"), "hour count must be an integer, got '8'"),
            (lambda: run_real_cycle(RealRepLabel(RealRepClass.R0, F(0)), -3), "hour count must be non-negative"),
            (lambda: run_real_cycle(RealRepLabel(RealRepClass.R0, F(0)), -1), "hour count must be non-negative"),
            (lambda: run_real_cycle(RealRepLabel(RealRepClass.R0, F(0)), 1001), "hour count must be at most 1000, got 1001"),
        ],
    )
    def test_rejected_at_the_boundary(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_hour_count_bound_is_checked_before_any_tick(self, monkeypatch):
        """10^8 hours would build 10^8 labels: the bound raises first.  MAX_CYCLE_HOURS itself is
        walked, 125 periods of l0 + 2."""
        start = RealRepLabel(RealRepClass.R02_DOUBLE, F(0))
        assert run_real_cycle(start, MAX_CYCLE_HOURS)[-1] == RealRepLabel(RealRepClass.R02_DOUBLE, F(MAX_CYCLE_HOURS, 4))
        def no_tick(*args):
            raise AssertionError("a label was built")
        monkeypatch.setattr(repsys, "bw_real_step", no_tick)
        with pytest.raises(ValueError) as err:
            run_real_cycle(start, 10**8)
        assert str(err.value) == f"hour count must be at most {MAX_CYCLE_HOURS}, got {10**8}"

    def test_integral_inputs_are_stored_as_python_numbers(self):
        rep = ComplexRepLabel(np.int64(2), np.int8(-1))
        assert rep == ComplexRepLabel(2, -1) and type(rep.a) is int and type(rep.b) is int
        real = RealRepLabel(RealRepClass.R0, np.int64(1))
        assert real.l0 == 1 and type(real.l0) is F and str(real) == "R0^1"
        assert interlocking_chain(np.int64(1)) == interlocking_chain(1)
        assert classify_complex(np.int64(4)) == classify_complex(4) and complex_factorize(np.int64(4)) == 2
