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

Precision: these streams are *always* drawn in float64, whatever
precision the solver loops run at — a float32 run consumes the float64
increments cast to float32 (see
:class:`~repro.sim.sde_solver.WienerSource`). The noise *realization*
is therefore precision-independent by construction; only the
arithmetic that consumes it runs at the solve's dtype.

Bulk seeding: a stream's generator is exactly ``PCG64(stream_seed(...))``
— but numpy seeds each PCG64 through a ``SeedSequence`` whose mixing
runs word by word under an ``errstate`` guard, several microseconds per
stream, which would dominate noisy sweeps (one stream per row × Wiener
path) and factory builds (one per mismatched attribute).
:func:`seed_words` runs that same mixing as one vectorized uint32 pass
over a whole batch of seeds, and every generator here —
:func:`streams`, :func:`stream` (a batch of one), :func:`bridge_bits` —
is built from its precomputed words, which are numpy's own
``SeedSequence(seed).generate_state(4, np.uint64)``: every drawn value
is that of ``PCG64(seed)``. The triples' own hashes are bulk too:
:func:`stream_seeds` digests a shared ``seed|`` prefix once.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def stream_seed(seed, element: str, path: str) -> int:
    """Stable 64-bit PRNG seed for a ``(seed, element, path)`` triple."""
    digest = hashlib.sha256(
        f"{seed}|{element}|{path}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# --------------------------------------------------------------------------
# Bulk seeding: numpy's SeedSequence mixing, vectorized over seeds
# --------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
#: numpy's SeedSequence hash constants (``bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: Pool size of the default SeedSequence; PCG64 draws four 64-bit
#: (eight 32-bit) state words from it.
_POOL = 4
_STATE_WORDS = 8


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant: it starts at ``init`` and is
    multiplied by ``mult`` once per use, the same for every seed. As a
    column, so row ``i`` scales the ``i``-th call's batch."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint32)[:, None]


#: ``mix_entropy`` makes 4 pool fills + 4·3 cross mixes = 16 hashmix
#: calls; ``generate_state`` makes one per output word.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_HASH_B = _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS)
_SHIFT = np.uint32(16)


def _hashmix(values: np.ndarray, constants: np.ndarray, first: int,
             calls: int) -> np.ndarray:
    """``hashmix`` calls ``first, ..., first + calls - 1``, one per row
    of ``values`` (or each on ``values``, a single row), in wrapping
    uint32 arithmetic."""
    mixed = (values ^ constants[first:first + calls]) \
        * constants[first + 1:first + calls + 1]
    return mixed ^ (mixed >> _SHIFT)


def seed_words(seeds) -> np.ndarray:
    """numpy's PCG64 seeding words for many 64-bit seeds at once.

    Row ``i`` equals ``SeedSequence(seeds[i]).generate_state(4,
    np.uint64)`` bit for bit: the same hashmix/mix schedule, run as
    wrapping uint32 passes over the whole batch — and over every call
    of the schedule that does not depend on an earlier one (the four
    pool fills, the three mixes of one source word, the eight output
    words). A seed below ``2**32`` is one entropy word to numpy and two
    here (high word zero); both mix identically, because numpy pads a
    short pool with ``hashmix(0)``. Returns shape ``(n, 4)`` uint64.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    entropy = np.zeros((_POOL, seeds.shape[0]), dtype=np.uint32)
    entropy[0] = seeds & np.uint64(_MASK32)
    entropy[1] = seeds >> np.uint64(32)
    pool = _hashmix(entropy, _HASH_A, 0, _POOL)
    call = _POOL
    for src in range(_POOL):
        dst = [word for word in range(_POOL) if word != src]
        hashed = _hashmix(pool[src], _HASH_A, call, _POOL - 1)
        call += _POOL - 1
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] \
            - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    state = _hashmix(pool[np.arange(_STATE_WORDS) % _POOL], _HASH_B, 0,
                     _STATE_WORDS)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8") \
        .astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose state words are already computed: hands
    PCG64 one row of :func:`seed_words`."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError(
                "precomputed seed words serve PCG64's 4 x uint64 only")
        return self.words


def bit_generators(seeds) -> list[np.random.PCG64]:
    """``[PCG64(seed) for seed in seeds]``, bit-identical, seeded in
    one vectorized pass (:func:`seed_words`)."""
    return [np.random.PCG64(_SeedWords(words))
            for words in seed_words(seeds)]


def stream_seeds(keys) -> list[int]:
    """:func:`stream_seed` of many ``(seed, element, path)`` triples.
    A run of triples sharing one ``seed`` object (an instance's mismatch
    sites) hashes its ``seed|`` prefix once and copies the digest."""
    last = prefix = None
    words = []
    for seed, element, path in keys:
        if prefix is None or seed is not last:
            last, prefix = seed, hashlib.sha256(f"{seed}|".encode())
        digest = prefix.copy()
        digest.update(f"{element}|{path}".encode())
        words.append(int.from_bytes(digest.digest()[:8], "little"))
    return words


def streams(keys) -> list[np.random.Generator]:
    """The random streams owned by many ``(seed, element, path)``
    triples, seeded in bulk. Each equals :func:`stream` of its triple."""
    return [np.random.Generator(bits)
            for bits in bit_generators(stream_seeds(keys))]


def stream(seed, element: str, path: str) -> np.random.Generator:
    """The independent random stream owned by the triple."""
    return streams([(seed, element, path)])[0]


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
    return bit_generators([bridge_seed(seed, element, path, level)])[0]


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
    from repro.core.odesystem import OdeSystem

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
    return system.with_stream_keys(
        (SHARED_ELEMENT, str(label)) if chosen(term)
        else term.stream_key() for term in system.diffusion)
