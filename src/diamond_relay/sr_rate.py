"""Achievable rate of the alternating (successive) relaying schedule.

The schedule switches between two phases: the source feeds one relay while
the other relay forwards to the destination. With listening fraction lam for
relay 1, relay 1 carries min(lam*c01, (1-lam)*c13) and relay 2 carries
min((1-lam)*c02, lam*c23). Balancing the relay-1 pipe gives branch 1,
balancing the relay-2 pipe gives branch 2, and the schedule's rate is the
better of the two; the overall throughput is concave piecewise-linear in lam
with its kinks exactly at those two balancing points, so nothing beyond the
two branches needs to be searched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .channel_model import LinkCapacities, _integers, plain_dict
from .errors import DegenerateDenominatorError

__all__ = [
    "Winner",
    "SrRateResult",
    "time_fractions",
    "sr_rate_min_form",
    "sr_rate_closed_form",
]


class Winner(enum.Enum):
    """Which balanced branch attains the maximum."""

    BRANCH1 = "branch1"
    BRANCH2 = "branch2"
    TIE = "tie"


@dataclass(frozen=True)
class SrRateResult:
    """Achievable-rate report for one instance.

    lambda1 and lambda2 are the two balancing listening fractions, r1 and r2
    the corresponding branch rates, r_sr = max(r1, r2) the achievable rate.
    winner is TIE when |r1 - r2| <= 1e-12 * r_sr, one relative rule at every
    scale, and otherwise the larger branch. degenerate is set when a branch's
    balancing denominator vanished and its rate was pinned to 0 by convention.
    """

    lambda1: float
    lambda2: float
    r1: float
    r2: float
    r_sr: float
    winner: Winner
    degenerate: bool

    to_dict = plain_dict


def time_fractions(caps: LinkCapacities) -> tuple[float, float]:
    """The two balancing listening fractions (lambda1, lambda2).

    lambda1 = c13/(c13 + c01) equalizes what relay 1 hears with what it can
    drain; lambda2 = c02/(c23 + c02) does the same for relay 2. A dead branch
    (zero denominator) gets fraction 0; sr_rate_min_form flags that case.
    """
    d1 = caps.c13 + caps.c01
    d2 = caps.c23 + caps.c02
    lambda1 = caps.c13 / d1 if d1 > 0.0 else 0.0
    lambda2 = caps.c02 / d2 if d2 > 0.0 else 0.0
    return lambda1, lambda2


def sr_rate_min_form(caps: LinkCapacities) -> SrRateResult:
    """Achievable rate as the better of the two balanced branches.

    r1 = lambda1*c01 + min(lambda1*c23, (1-lambda1)*c02)
    r2 = lambda2*c23 + min((1-lambda2)*c13, lambda2*c01)

    With a vanished denominator the formulas already evaluate to 0 at
    lambda = 0, which is the dead-branch convention; only the flag is extra.
    """
    lambda1, lambda2 = time_fractions(caps)
    degenerate = caps.c13 + caps.c01 == 0.0 or caps.c23 + caps.c02 == 0.0
    r1 = lambda1 * caps.c01 + min(lambda1 * caps.c23, (1.0 - lambda1) * caps.c02)
    r2 = lambda2 * caps.c23 + min((1.0 - lambda2) * caps.c13, lambda2 * caps.c01)
    r_sr = max(r1, r2)
    if abs(r1 - r2) <= 1e-12 * r_sr:
        winner = Winner.TIE
    elif r1 > r2:
        winner = Winner.BRANCH1
    else:
        winner = Winner.BRANCH2
    return SrRateResult(
        lambda1=lambda1,
        lambda2=lambda2,
        r1=r1,
        r2=r2,
        r_sr=r_sr,
        winner=winner,
        degenerate=degenerate,
    )


def sr_rate_closed_form(caps: LinkCapacities) -> tuple[float, float]:
    """Branch rates with the balancing fractions substituted through.

    r1 = (c01*c13 + min(c13*c23, c01*c02)) / (c13 + c01)
    r2 = (c02*c23 + min(c13*c23, c01*c02)) / (c23 + c02)

    Each is evaluated exactly and rounded once: correctly rounded at every scale.

    Raises:
        DegenerateDenominatorError: when c13 + c01 = 0 or c23 + c02 = 0; the
            substituted algebra genuinely divides by zero there, unlike the
            min form which stays meaningful.
    """
    if caps.c13 + caps.c01 <= 0.0:
        raise DegenerateDenominatorError("c13 + c01 = 0: branch-1 closed form divides by zero")
    if caps.c23 + caps.c02 <= 0.0:
        raise DegenerateDenominatorError("c23 + c02 = 0: branch-2 closed form divides by zero")
    D, a, b, c, d, _, _ = _integers(caps)
    cross = min(a * b, c * d)
    return (a * c + cross) / (D * (a + c)), (b * d + cross) / (D * (b + d))
