"""Input waveforms for transmission-line computations.

The paper's t-line case study injects "a trapezoidal pulse function with
width 2e-8 at time t=0" (``pulse(t, 0, 2e-8)``, §2.2/§4.4). These helpers
are plain Python callables; ``pulse`` is also registered as an expression
function of the TLN language so textual programs can write
``lambd(t): pulse(t, 0, 2e-8)``.
"""

from __future__ import annotations

import math


def trapezoid(t: float, t0: float, width: float, rise: float,
              amplitude: float = 1.0) -> float:
    """Trapezoidal pulse: ramps up over ``rise``, holds, ramps down.

    The pulse occupies ``[t0, t0 + width]``; ``rise`` is consumed inside
    the width on both flanks.
    """
    if rise <= 0:
        return amplitude if t0 <= t < t0 + width else 0.0
    x = t - t0
    if x < 0 or x >= width:
        return 0.0
    if x < rise:
        return amplitude * x / rise
    if x > width - rise:
        return amplitude * (width - x) / rise
    return amplitude


def pulse(t: float, t0: float, width: float) -> float:
    """The paper's ``pulse(t, t0, width)``: unit-amplitude trapezoid.

    The rise/fall time is 20% of the width — gentle enough that the
    discretized line's dispersion ripple stays small, reproducing the
    clean 0.5-amplitude plateau of Fig. 4b.
    """
    return trapezoid(t, t0, width, rise=0.2 * width, amplitude=1.0)


def pulse_breakpoints(t0: float, width: float) -> tuple[float, ...]:
    """The times where ``pulse(t, t0, width)``'s slope jumps: its start,
    the ends of its rise and of its plateau, and its end. An adaptive
    solver that lands a step on each never straddles a kink."""
    rise = 0.2 * width
    return (t0, t0 + rise, t0 + (width - rise), t0 + width)


def step(t: float, t0: float, amplitude: float = 1.0) -> float:
    """Heaviside step at ``t0``."""
    return amplitude if t >= t0 else 0.0


def sine_burst(t: float, t0: float, width: float, frequency: float,
               amplitude: float = 1.0) -> float:
    """A windowed sine burst — useful for PUF challenge excitation."""
    if t < t0 or t > t0 + width:
        return 0.0
    return amplitude * math.sin(2.0 * math.pi * frequency * (t - t0))
