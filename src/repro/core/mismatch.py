"""Deterministic mismatch sampling (§4.3).

Writing a nominal value ``x`` to a ``mm(s0,s1)``-annotated attribute stores
a sample from ``N(x, s0 + |x|*s1)``. The paper requires reproducibility:
"Each function invocation sets the random seed used to produce the same
mismatched values. The seed can be varied across invocations to model
multiple fabricated instances of a particular design."

We derive an independent, order-independent random stream for every
``(seed, element name, attribute name)`` triple by seeding a PCG64 generator
with a stable hash of the triple. Two invocations with the same seed produce
identical graphs regardless of construction order; different seeds model
different fabricated chips.

Because every draw owns its stream, many draws can be made at once:
:func:`draw` resolves a list of :class:`MismatchSite` records with all
their streams seeded in one bulk pass (:func:`repro.core.noise.streams`)
— the graph builder queues an instance's mismatched writes as sites,
and a graph template replays its recorded sites under a new seed. The
keying and every sampled value are the same as one draw at a time.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.datatypes import IntType, Mismatch, RealType
from repro.core.noise import streams


def mismatch_annotation(datatype) -> Mismatch | None:
    """The ``mm`` annotation a write of ``datatype`` is sampled from, or
    ``None`` when the value is stored as written."""
    annotation = getattr(datatype, "mismatch", None)
    if annotation is None or not isinstance(datatype, (RealType, IntType)):
        return None
    return annotation


class MismatchSite(NamedTuple):
    """One mismatched write: the stream it draws from and how.

    ``element``/``attr`` name the ``(seed, element, attr)`` stream
    (``attr`` is ``init<i>`` for initial value ``i``); ``sigma`` is
    the annotation's deviation at ``nominal``; an ``integer`` site
    rounds its sample."""

    element: str
    attr: str
    nominal: float
    sigma: float
    integer: bool = False


def draw(seed: int | None, sites) -> list:
    """The value stored for each :class:`MismatchSite` of instance
    ``seed``: ``N(nominal, sigma)`` from the site's own stream, the
    nominal value without a seed or a deviation, rounded for integer
    sites. Every stream is seeded in one bulk :func:`streams` pass —
    the one draw path of graph builds and templates alike."""
    sites = list(sites)
    values = [site.nominal for site in sites]
    if seed is not None:
        drawn = [slot for slot, site in enumerate(sites)
                 if site.sigma != 0.0]
        if drawn:
            rngs = streams([(seed, sites[slot].element, sites[slot].attr)
                            for slot in drawn])
            for slot, rng in zip(drawn, rngs):
                values[slot] = float(rng.normal(values[slot],
                                                sites[slot].sigma))
    return [int(round(value)) if site.integer else value
            for site, value in zip(sites, values)]


def site_of(element: str, attr: str, datatype, nominal,
            ) -> MismatchSite | None:
    """The site a write of ``nominal`` to a ``datatype`` attribute
    draws from, or ``None`` when the value is stored as written."""
    annotation = mismatch_annotation(datatype)
    if annotation is None:
        return None
    nominal = float(nominal)
    return MismatchSite(element, attr, nominal, annotation.sigma(nominal),
                        isinstance(datatype, IntType))

