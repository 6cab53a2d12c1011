"""VoIP quality: R-factor, Mean Opinion Score, interruptions.

The paper (Section 5.3.2) follows Cole & Rosenbluth's E-model
simplification for the G.729 codec:

``R = 94.2 - 0.024 d - 0.11 (d - 177.3) H(d - 177.3) - 11
     - 40 ln(1 + 10 e)``

where *d* is the mouth-to-ear delay in milliseconds, *e* the total
loss fraction (network losses plus late arrivals), and *H* the
Heaviside step.  The ``11`` and ``40 ln(1 + 10 e)`` terms are the
G.729 equipment impairment; note the logarithm is *natural* — with a
base-10 log the loss impairment could never push MoS below 2 even at
100% loss, contradicting the paper's interruption threshold.

MoS is estimated from R as: 1 if R < 0; 4.5 if R > 100; otherwise
``1 + 0.035 R + 7e-6 R (R - 60)(100 - R)``.

The paper deems a VoIP call *interrupted* "when the MoS value drops
below 2 for a three-second period".
"""

import math

__all__ = [
    "FIXED_DELAY_MS",
    "INTERRUPTION_MOS",
    "WINDOW_S",
    "WIRELESS_BUDGET_MS",
    "mos_from_r",
    "mos_score",
    "r_factor",
]

# The paper's G.729 delay budget and interruption rule, all stated by
# the paper: "Aiming for a mouth-to-ear delay of 177 ms ... means that
# packets that take more than 52 ms in the wireless part should be
# considered lost."  Delays in ms.

#: Coding (25) + wired segment (40) + jitter buffer (60).
FIXED_DELAY_MS = 25.0 + 40.0 + 60.0
WIRELESS_BUDGET_MS = 177.0 - FIXED_DELAY_MS
#: Quality window (s), interrupted when its MoS is below 2.
WINDOW_S = 3.0
INTERRUPTION_MOS = 2.0


def r_factor(delay_ms, loss_fraction):
    """Cole-Rosenbluth R-factor for G.729 (A = 0, Is folded into 94.2)."""
    if not 0.0 <= loss_fraction <= 1.0:
        raise ValueError(f"loss fraction {loss_fraction} outside [0, 1]")
    if delay_ms < 0:
        raise ValueError("delay cannot be negative")
    r = 94.2 - 0.024 * delay_ms
    if delay_ms > 177.3:
        r -= 0.11 * (delay_ms - 177.3)
    r -= 11.0
    r -= 40.0 * math.log(1.0 + 10.0 * loss_fraction)
    return r


def mos_from_r(r):
    """Map an R-factor to the 1-4.5 MoS scale.

    The E-model cubic dips marginally below 1 for small positive R
    (e.g. R = 5 gives 0.992), so the result is clamped to [1, 4.5] as
    is conventional.
    """
    if r < 0.0:
        return 1.0
    if r > 100.0:
        return 4.5
    raw = 1.0 + 0.035 * r + 7.0e-6 * r * (r - 60.0) * (100.0 - r)
    return min(max(raw, 1.0), 4.5)


def mos_score(delay_ms, loss_fraction):
    """Convenience: MoS directly from delay and loss."""
    return mos_from_r(r_factor(delay_ms, loss_fraction))

