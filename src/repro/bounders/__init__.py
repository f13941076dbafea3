"""Error bounders: the paper's core algorithmic contribution (S1-S7).

This subpackage implements the full §2.2.2 bounder interface, the three
surveyed SSI bounders (Hoeffding-Serfling, empirical Bernstein-Serfling,
Anderson/DKW), and the RangeTrim meta-bounder of §3, which removes the
PHOS pathology.  Every registered bounder is SSI (Definition 1): the
§1 asymptotic intervals it is contrasted with are not offered.
"""

from repro.bounders.anderson import AndersonBounder
from repro.bounders.base import ErrorBounder, Interval
from repro.bounders.bernstein import (
    BernsteinSerflingBounder,
    EmpiricalBernsteinBounder,
    EmpiricalBernsteinSerflingBounder,
)
from repro.bounders.hoeffding import HoeffdingSerflingBounder
from repro.bounders.range_trim import RangeTrimBounder
from repro.bounders.registry import (
    EVALUATED_BOUNDERS,
    available_bounders,
    get_bounder,
    register_bounder,
)

__all__ = [
    "AndersonBounder",
    "BernsteinSerflingBounder",
    "EmpiricalBernsteinBounder",
    "EmpiricalBernsteinSerflingBounder",
    "ErrorBounder",
    "EVALUATED_BOUNDERS",
    "HoeffdingSerflingBounder",
    "Interval",
    "RangeTrimBounder",
    "available_bounders",
    "get_bounder",
    "register_bounder",
]
