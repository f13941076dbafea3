"""Reproduction of Table 2 and Figure 3: PMA/PHOS profiles of every
bounder (§2.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounders.registry import get_bounder
from tests.bounders.pathology import exhibits_phos, exhibits_pma, pma_width_gap

#: Table 2 of the paper, extended with the RangeTrim combinations the
#: evaluation uses.  (Hoeffding+RT keeps PMA — RangeTrim only fixes PHOS.)
TABLE2 = {
    "hoeffding": {"pma": True, "phos": True},
    "bernstein": {"pma": False, "phos": True},
    "anderson": {"pma": True, "phos": False},
    "hoeffding+rt": {"pma": True, "phos": False},
    "bernstein+rt": {"pma": False, "phos": False},
}


@pytest.mark.parametrize("name,expected", sorted(TABLE2.items()))
def test_table2_pma(name, expected):
    assert exhibits_pma(get_bounder(name)) == expected["pma"]


@pytest.mark.parametrize("name,expected", sorted(TABLE2.items()))
def test_table2_phos(name, expected):
    assert exhibits_phos(get_bounder(name)) == expected["phos"]


def test_figure3_zero_spread_width_rates():
    """Figure 3, quantified on the real bounders: on constant data the
    Anderson/DKW width is its ε·(b − a) endpoint-mass floor, Θ(1/√m), while
    Bernstein's is Θ(1/m) — per 16× more samples, 4× vs 16× narrower."""
    sizes = (1_000, 16_000, 256_000)
    for name, shrink in (("anderson", 4.0), ("bernstein", 16.0)):
        bounder = get_bounder(name)
        widths = []
        for m in sizes:
            state = bounder.init_state()
            bounder.update_batch(state, np.full(m, 0.5))
            interval = bounder.confidence_interval(state, 0.0, 1.0, 100 * m, 1e-6)
            widths.append(interval.width)
        for wide, narrow in zip(widths, widths[1:]):
            assert wide / narrow == pytest.approx(shrink, rel=1e-6), (name, widths)


def test_bernstein_rt_solves_problem_1():
    """Problem 1: an SSI bounder with neither PMA nor PHOS exists —
    Bernstein+RT (§3's headline result)."""
    bounder = get_bounder("bernstein+rt")
    assert not exhibits_pma(bounder)
    assert not exhibits_phos(bounder)


def test_pma_width_gap_zero_for_hoeffding():
    """Literal Definition 2 witness: clipping a Hoeffding sample's small
    values up to a' leaves the CI width exactly unchanged."""
    gap = pma_width_gap(get_bounder("hoeffding"))
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_pma_width_gap_positive_for_bernstein():
    """Bernstein reacts to the milder evidence: the clipped sample's lower
    variance strictly shrinks the CI."""
    gap = pma_width_gap(get_bounder("bernstein"))
    assert gap > 1e-4


def test_pma_width_gap_positive_for_anderson_on_spread_witness():
    """On *spread* witnesses Anderson's trimmed means also react; its PMA
    is the endpoint-mass floor, caught by the asymptotic detector (see
    pathology module docstring for why the literal Definition 2 test
    cannot separate Anderson from Bernstein on non-degenerate samples)."""
    gap = pma_width_gap(get_bounder("anderson"))
    assert gap > 0.0


def test_phos_detector_counts_either_side():
    """A bounder whose Rbound depends on a (even with a b-free Lbound)
    must register PHOS."""

    class LowerTrimmedOnly:
        """Hoeffding with only the lower bound trimmed (synthetic)."""

        name = "half-trimmed"
        requires_sample_memory = False

        def __init__(self):
            from repro.bounders.hoeffding import HoeffdingSerflingBounder
            from repro.bounders.range_trim import RangeTrimBounder

            self._trim = RangeTrimBounder(HoeffdingSerflingBounder())
            self._plain = HoeffdingSerflingBounder()

        def init_state(self):
            return (self._trim.init_state(), self._plain.init_state())

        def update(self, state, value):
            self._trim.update(state[0], value)
            self._plain.update(state[1], value)

        def update_batch(self, state, values):
            self._trim.update_batch(state[0], values)
            self._plain.update_batch(state[1], values)

        def lbound(self, state, a, b, n, delta):
            return self._trim.lbound(state[0], a, b, n, delta)

        def rbound(self, state, a, b, n, delta):
            return self._plain.rbound(state[1], a, b, n, delta)

    assert exhibits_phos(LowerTrimmedOnly())
