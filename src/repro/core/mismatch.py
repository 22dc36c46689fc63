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
:meth:`MismatchSampler.sample_many` seeds all their streams in one bulk
pass (:func:`repro.core.noise.streams`) — the graph builder queues an
instance's mismatched writes and resolves them together. The keying and
every sampled value are the same as one draw at a time.
"""

from __future__ import annotations


from repro.core.datatypes import IntType, Mismatch, RealType
from repro.core.noise import streams


def mismatch_annotation(datatype) -> Mismatch | None:
    """The ``mm`` annotation a write of ``datatype`` is sampled from, or
    ``None`` when the value is stored as written."""
    annotation = getattr(datatype, "mismatch", None)
    if annotation is None or not isinstance(datatype, (RealType, IntType)):
        return None
    return annotation


class MismatchSampler:
    """Samples mismatched attribute values for one fabricated instance."""

    def __init__(self, seed: int | None):
        #: None disables mismatch entirely (ideal instance).
        self.seed = seed

    def sample(self, element: str, attr: str, annotation: Mismatch,
               nominal: float) -> float:
        """Draw the mismatched value stored for ``element.attr``."""
        return self.sample_many([(element, attr, annotation, nominal)])[0]

    def sample_many(self, draws) -> list[float]:
        """:meth:`sample` of many ``(element, attr, annotation, nominal)``
        draws, their streams seeded in one bulk pass. A draw with no
        seed or a zero deviation returns its nominal value."""
        draws = list(draws)
        values = [nominal for _, _, _, nominal in draws]
        if self.seed is None:
            return values
        keys, slots = [], []
        for slot, (element, attr, annotation, nominal) in enumerate(draws):
            sigma = annotation.sigma(nominal)
            if sigma != 0.0:
                keys.append((self.seed, element, attr))
                slots.append((slot, sigma))
        if keys:
            for rng, (slot, sigma) in zip(streams(keys), slots):
                values[slot] = float(rng.normal(values[slot], sigma))
        return values

    def resolve(self, element: str, attr: str, datatype, nominal):
        """Apply mismatch if the datatype carries an annotation.

        Returns the value to store as the *resolved* attribute; the nominal
        value is kept separately by the graph.
        """
        return self.resolve_many([(element, attr, datatype, nominal)])[0]

    def resolve_many(self, writes) -> list:
        """:meth:`resolve` of many ``(element, attr, datatype, nominal)``
        writes, with every draw made by one :meth:`sample_many`."""
        writes = list(writes)
        values = [nominal for _, _, _, nominal in writes]
        annotated = [
            (slot, element, attr, annotation, float(nominal))
            for slot, (element, attr, datatype, nominal) in enumerate(writes)
            if (annotation := mismatch_annotation(datatype)) is not None]
        samples = self.sample_many(draw[1:] for draw in annotated)
        for (slot, *_), value in zip(annotated, samples):
            if isinstance(writes[slot][2], IntType):
                value = int(round(value))
            values[slot] = value
        return values
