"""Shared-memory result transport for the persistent worker pool.

Returning a shard's trajectory tensor through the multiprocessing pipe
costs the worker a pickle of an ``(n_rows, n_states, n_points)`` float
array and the parent an unpickle plus a concatenate — two full copies
plus serialization per shard, on the sweep sizes of the paper's Fig. 4
/ Table 1 studies easily hundreds of megabytes per run. This module
removes that round trip: the parent allocates one :class:`ShmBlock` per
batched group, workers attach by a lightweight picklable *header*
(name, shape, dtype — a few dozen bytes) and integrate **directly into
their row slice** of the shared tensor, and the parent materializes the
finished block with a single memcpy. Trajectory data never passes
through ``pickle``.

Lifetime contract: the parent (creator) owns the segment — it unlinks
exactly once, in a ``finally`` path, so success, worker crashes, and
``KeyboardInterrupt`` all leave ``/dev/shm`` clean (test-enforced via
:func:`active_blocks`). Workers only ever attach + close. A worker that
reports to a resource tracker of its own untracks its attachment, so
that tracker never unlinks (or warns about) a segment the worker does
not own; a worker sharing the parent's tracker leaves the parent's
registration alone.
"""

from __future__ import annotations

import os
import uuid
import warnings
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro import telemetry
from repro.errors import SimulationError

#: Parent-created segments that have not been unlinked yet, mapped to
#: their size in bytes. Tests assert this drains back to empty — a
#: leaked ``/dev/shm`` block outlives the sweep and, accumulated over a
#: long session, fills the shared-memory filesystem.
_ACTIVE: dict[str, int] = {}


def active_blocks() -> list[str]:
    """Parent-owned segments still awaiting unlink (leak detector)."""
    return sorted(_ACTIVE)


def active_block_sizes() -> dict[str, int]:
    """Like :func:`active_blocks`, with each segment's byte size."""
    return dict(sorted(_ACTIVE.items()))


def warn_leaked_blocks(context: str) -> list[str]:
    """Emit a :class:`ResourceWarning` naming (and sizing) any segments
    still alive — the pool-shutdown leak check. Returns the leaked
    names so callers/tests can assert on them."""
    leaked = active_block_sizes()
    if leaked:
        detail = ", ".join(f"{name} ({nbytes} bytes)"
                           for name, nbytes in leaked.items())
        warnings.warn(
            f"{context}: {len(leaked)} shared-memory block(s) still "
            f"active after shutdown: {detail}. The owner should have "
            f"unlinked them; /dev/shm will fill up if this repeats.",
            ResourceWarning, stacklevel=2)
    return sorted(leaked)


def _tracker_pid():
    """Pid of the resource tracker this process reports to, as far as
    this process knows it (``None`` before one started, and in a spawned
    child, which inherits only the tracker's pipe). Private API, hence
    the defensive lookup."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return getattr(tracker, "_pid", None)


#: Tracker pid this process inherited at fork (or import). A fork child
#: of a process whose tracker already ran shares that tracker; only a
#: tracker started later, by this process itself, is its own.
_INHERITED_TRACKER = _tracker_pid()


def _note_fork() -> None:
    global _INHERITED_TRACKER
    _INHERITED_TRACKER = _tracker_pid()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_note_fork)


def _owns_tracker() -> bool:
    """Whether this process started the resource tracker it reports
    to. A worker forked (or spawned) after the parent's tracker started
    shares it instead: one registration per segment name, held by the
    parent."""
    pid = _tracker_pid()
    return pid is not None and pid != _INHERITED_TRACKER


def _untrack(segment) -> None:
    """Unregister a worker-side attachment from a tracker of the
    worker's own.

    Before Python 3.13 (``track=False``), *attaching* to a segment also
    registers it with the process's resource tracker. A tracker the
    worker started itself would unlink the segment when the worker
    exits — wrong, the parent is the sole owner of the unlink — so that
    registration is dropped. A tracker shared with the parent holds one
    registration per name: dropping it would unregister the *parent's*
    registration, the parent's own unlink would then unregister a name
    the tracker no longer holds (a ``KeyError`` traceback from the
    tracker), and a parent crash in between would leak the segment. So
    a shared tracker is left alone, as is a segment this process
    created. Private API, hence the defensive except."""
    if segment.name in _ACTIVE or not _owns_tracker():
        return
    try:  # pragma: no cover - depends on stdlib internals
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


class ShmBlock:
    """One shared-memory tensor: a float block workers fill in place.

    Create with :meth:`create` in the parent, ship :attr:`header` to
    workers, attach there with :meth:`attach`. All numpy views are
    created and dropped *inside* the accessor methods so ``close()``
    never trips over exported buffers.
    """

    def __init__(self, segment, shape, dtype, owner: bool):
        self._segment = segment
        self.shape = tuple(int(n) for n in shape)
        self.dtype = np.dtype(dtype)
        self.owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, shape, dtype=np.float64) -> "ShmBlock":
        """Allocate a parent-owned block sized for ``shape`` doubles."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes <= 0:
            raise SimulationError(
                f"cannot allocate an empty shared-memory block "
                f"(shape {tuple(shape)})")
        name = f"arkshm_{uuid.uuid4().hex[:16]}"
        segment = shared_memory.SharedMemory(name=name, create=True,
                                             size=nbytes)
        _ACTIVE[segment.name] = nbytes
        telemetry.add("shm.blocks")
        telemetry.add("shm.bytes_allocated", nbytes)
        telemetry.gauge_max("mem.shm_bytes_high_water",
                            sum(_ACTIVE.values()))
        return cls(segment, shape, dtype, owner=True)

    @property
    def header(self) -> tuple:
        """The picklable descriptor workers attach by: a few dozen
        bytes instead of the tensor itself."""
        return (self._segment.name, self.shape, self.dtype.str)

    @classmethod
    def attach(cls, header) -> "ShmBlock":
        """Attach to an existing block from its header (worker side)."""
        name, shape, dtype = header
        segment = shared_memory.SharedMemory(name=name)
        _untrack(segment)
        return cls(segment, shape, dtype, owner=False)

    # ------------------------------------------------------------------
    # Data access (views never escape, so close() is always legal)
    # ------------------------------------------------------------------

    def write_rows(self, offset: int, rows: np.ndarray) -> None:
        """Store ``rows`` at ``[offset:offset+len(rows)]`` along the
        leading axis — the worker's single in-place store."""
        view = np.ndarray(self.shape, dtype=self.dtype,
                          buffer=self._segment.buf)
        view[offset:offset + rows.shape[0]] = rows

    def read_copy(self) -> np.ndarray:
        """The whole tensor as a regular array (the parent's single
        memcpy out of the segment)."""
        view = np.ndarray(self.shape, dtype=self.dtype,
                          buffer=self._segment.buf)
        return view.copy()

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (both sides; idempotent)."""
        if not self._closed:
            self._closed = True
            self._segment.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner only; idempotent).
        Safe while workers still hold mappings — POSIX keeps the memory
        alive until the last mapping closes."""
        if not self.owner:
            return
        if self._segment.name in _ACTIVE:
            del _ACTIVE[self._segment.name]
            self._segment.unlink()

    def discard(self) -> None:
        """close + unlink in one call — the parent's cleanup path."""
        self.close()
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShmBlock {self._segment.name} shape={self.shape} "
                f"owner={self.owner}>")
