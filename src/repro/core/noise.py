"""Deterministic transient-noise streams.

The transient-noise story mirrors the §4.3 mismatch story: sampling must
be *reproducible*. Where :mod:`repro.core.mismatch` derives one random
stream per ``(seed, element, attribute)`` triple, the SDE engine derives
one Wiener-increment stream per ``(seed, element, path)`` triple using
the same stable-hash scheme — a SHA-256 digest of the triple seeds a
PCG64 generator. Two runs with the same noise seed see identical noise
realizations regardless of construction order or which other elements
exist; varying the seed models independent noise trials, exactly as
varying the mismatch seed models independent fabricated chips.

``seed`` may be an int (a plain trial) or any printable token — the
noisy-ensemble driver uses ``"<chip_seed>:<trial>"`` so every
(fabricated chip, noise trial) pair owns an independent realization.

Array backends: these streams are *always* drawn on the host PCG64
generator, whatever array backend the solver loops run on — a float32
run consumes the same float64 increments as the float64 run (the
backend's :meth:`~repro.sim.array_api.ArrayBackend.wiener_source`
adapter converts draws at the dtype boundary). The noise
*realization* is therefore backend-independent by construction; only
the arithmetic that consumes it is subject to the backend's dtype.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_seed(seed, element: str, path: str) -> int:
    """Stable 64-bit PRNG seed for a ``(seed, element, path)`` triple."""
    digest = hashlib.sha256(
        f"{seed}|{element}|{path}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed, element: str, path: str) -> np.random.Generator:
    """The independent random stream owned by the triple."""
    return np.random.Generator(
        np.random.PCG64(stream_seed(seed, element, path)))


# --------------------------------------------------------------------------
# Brownian-bridge refinement streams
# --------------------------------------------------------------------------

def bridge_seed(seed, element: str, path: str, level: int) -> int:
    """Stable 64-bit PRNG seed of one *bridge refinement level*.

    The hierarchical Wiener source (:class:`repro.sim.sde_solver.
    BridgeWienerSource`) keys every refinement normal by ``(seed,
    element, path, level, index)``: one PCG64 bit stream per ``(seed,
    element, path, level)`` — suffixed onto the classic triple hash so
    legacy sequential streams are untouched — and one state step per
    ``index`` within it. Because the normal at ``(level, index)`` never
    depends on which *other* indices a solver visited, halving or
    re-halving any step replays the identical refinement draws: the
    realized Wiener path is invariant to the step sequence.
    """
    digest = hashlib.sha256(
        f"{seed}|{element}|{path}|bridge:{level}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def bridge_bits(seed, element: str, path: str,
                level: int) -> np.random.PCG64:
    """The raw bit generator of one bridge level. Exposed as a *bit*
    generator (not a :class:`~numpy.random.Generator`): bridge normals
    are inverse-CDF transformed from exactly one 64-bit word each, so
    ``PCG64.advance`` gives O(1) random access to any ``index`` — the
    property that makes adaptive step sequences reproducible."""
    return np.random.PCG64(bridge_seed(seed, element, path, level))


# --------------------------------------------------------------------------
# Correlated sources: Wiener-path aliasing
# --------------------------------------------------------------------------

#: Element name carried by aliased diffusion terms. Keeping a reserved
#: marker (no graph element is ever named this) makes shared paths
#: self-describing in stream keys, cache keys, and telemetry.
SHARED_ELEMENT = "$shared"


def share_wiener(system, label: str, match=None):
    """Alias Wiener paths across elements: one physical noise process
    driving many diffusion terms (supply ripple, substrate coupling,
    a shared bias line).

    Returns a *new* :class:`~repro.core.odesystem.OdeSystem` whose
    matching diffusion terms are rekeyed to the single stream identity
    ``(SHARED_ELEMENT, label)`` — they then draw one common Wiener
    realization per (noise seed) instead of independent per-element
    ones. Amplitudes, target states, and everything deterministic are
    untouched, and the rekeying lands in ``structural_signature()``
    (term identities are part of it), so aliased and independent
    builds never share a batch, a cache entry, or a Wiener stream.

    :param system: a compiled :class:`OdeSystem` carrying diffusion
        terms.
    :param label: name of the shared source, e.g. ``"supply"`` —
        distinct labels stay independent processes.
    :param match: which terms to alias — ``None`` (all terms), a
        string (terms whose ``element`` starts with it), or a
        predicate ``match(term) -> bool``.
    """
    from repro.core.odesystem import DiffusionTerm, OdeSystem

    if not isinstance(system, OdeSystem):
        raise TypeError(
            f"share_wiener expects a compiled OdeSystem, got "
            f"{type(system).__name__}; compile the graph first")
    if match is None:
        chosen = lambda term: True                      # noqa: E731
    elif isinstance(match, str):
        chosen = lambda term: term.element.startswith(match)  # noqa: E731
    else:
        chosen = match
    rekeyed = tuple(
        DiffusionTerm(state_index=term.state_index,
                      amplitude=term.amplitude,
                      element=SHARED_ELEMENT, path=str(label))
        if chosen(term) else term
        for term in system.diffusion)
    return OdeSystem(system.graph, system.language, system.states,
                     system.state_index, system.rhs_specs,
                     system.algebraic, system.attr_values,
                     system.functions, system.y0, diffusion=rekeyed)
