"""Trajectory cache for the batched ensemble engines.

The paper's §4.3 design loop reruns the *same* transient ensembles many
times: a readout-tolerance sweep re-reads one mismatch ensemble at many
thresholds, a PUF attack re-simulates the same chips per challenge
batch, a parameter study revisits grid points. Every rerun used to pay
the full integration again. :class:`TrajectoryCache` memoizes batched
solves keyed by *everything that determines the result bit-for-bit*:

* the batch's structural signature (state layout, production terms,
  algebraic definitions, diffusion terms);
* every per-instance attribute value (numeric values hashed exactly;
  callable values through their stable ``_ark_vector_key`` /
  builtin / importable-module identity);
* the stacked initial states;
* the output grid (``t_span``/``n_points`` or an explicit ``t_eval``)
  and every solver option that steers the integrator (method, rtol,
  atol, max_step, SDE noise seeds, and the canonical
  ``array_backend`` spelling — ``numpy:float64`` or ``numpy:float32``
  — so numerically different executions never collide).

``dense`` is a retired key entry: the batched adaptive solver once
had a clip-to-grid mode, and every deterministic (``"batch"``) key
hashed its ``dense=True`` flag. The flag is gone from the solver options, so
:meth:`TrajectoryCache.key_for` folds in :data:`RETIRED_BATCH_OPTIONS`
when it is absent, and every key, stored disk entries included, keeps
its bytes. Likewise a retired method spelling (``rkf45``, which
:func:`~repro.sim.batch_solver.solve_batch` still runs as ``dopri5``)
is hashed as the method it names, so a solve keyed under either
spelling replays the other's entry.

A batch whose identity cannot be established *stably* — e.g. a
registered closure with no ``_ark_vector_key`` — is reported as
uncachable (``key_for`` returns ``None``) rather than risking a
wrong-answer collision; callers fall through to a plain solve.

Backends: an in-memory LRU (default) plus an optional on-disk store
(``directory=...``) holding one ``.npz`` per entry, so long sweeps
survive process restarts. Hits return copies — a caller mutating a
returned trajectory cannot poison the store.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import uuid
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core import expr as E
from repro.core.odesystem import OdeSystem
from repro.sim.batch_codegen import canonical_spec
from repro.sim.batch_solver import RETIRED_METHODS


#: Folded into every key: bump whenever solver numerics change in a
#: way no keyed option captures (integrator coefficients, emitter
#: layout), so persisted disk entries from older code are invalidated
#: instead of silently replayed as current results.
#: 2: the unified execution-plan layer keys ``freeze_tol`` (and the
#: noisy path keys the full solver-option set), so pre-plan disk
#: entries no longer match.
#: 3: keys fold in the *canonical* array-backend spec (backend name +
#: dtype, e.g. ``numpy:float64``), so a float32 or jax solve can never
#: replay a float64/numpy entry — and ``None``/``"numpy"``/
#: ``"numpy:float64"`` spellings of the default all share one key.
#: 4: the adaptive SDE method ``heun-adaptive`` lends
#: ``rtol``/``atol`` a *solver-accuracy* role on the noisy path
#: (previously they only steered the freeze criterion there), and
#: correlated-noise aliasing (``share_wiener``) rekeys diffusion
#: stream identities — both change what an option set means, so older
#: noisy entries must not replay.
CACHE_SCHEMA = 4

#: Option entries every ``"batch"`` key hashes although no solve
#: passes them any more (see the module docstring).
RETIRED_BATCH_OPTIONS = {"dense": True}

#: Value types a key hashes as plain numbers without a per-value check.
_PLAIN_NUMBERS = {float, int}


def _function_token(name: str, fn) -> tuple | None:
    """A process-independent identity for a registered function, or
    ``None`` when there is none (anonymous closures — uncachable,
    because ``id()`` can be recycled within a process and is
    meaningless across processes)."""
    vector_key = getattr(fn, "_ark_vector_key", None)
    if vector_key is not None:
        return ("vk", repr(vector_key))
    if E.BUILTIN_FUNCTIONS.get(name) is fn:
        return ("builtin", name)
    module_name = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if module_name and qualname and "<locals>" not in qualname:
        target = sys.modules.get(module_name)
        for part in qualname.split("."):
            target = getattr(target, part, None)
            if target is None:
                break
        if target is fn:
            return ("module", module_name, qualname)
    return None


def _value_token(value) -> tuple | None:
    """Hashable identity of one attribute value (or None: uncachable)."""
    if isinstance(value, (bool,)):
        return ("bool", value)
    if isinstance(value, (int, float, np.floating, np.integer)):
        return ("num", float(value))
    if callable(value):
        token = _function_token("", value)
        return None if token is None else ("call",) + token
    if isinstance(value, str):
        return ("str", value)
    return None


@dataclass
class CacheStats:
    """Hit/miss/eviction counters, surfaced on the cache object itself.

    Field access (``cache.stats.hits``) keeps working for existing
    callers; ``cache.stats()`` additionally returns the whole block as
    a plain dict snapshot, which is what benchmarks and ``RunReport``
    consumers embed.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    uncachable: int = 0
    evictions: int = 0
    #: disk entries that existed but could not be read back (truncated
    #: write from a crashed run, filesystem corruption...) — counted as
    #: misses and warned about, never raised mid-sweep.
    corrupt: int = 0
    bytes_stored: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __call__(self) -> dict:
        """Snapshot as a plain dict (includes the derived hit rate)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "uncachable": self.uncachable,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "bytes_stored": self.bytes_stored,
            "hit_rate": self.hit_rate,
        }


@dataclass
class TrajectoryCache:
    """LRU (+ optional disk) store of batched trajectories.

    :param maxsize: in-memory entries kept (least-recently-used
        eviction); 0 disables the memory tier (disk only).
    :param directory: optional path for the persistent tier; created on
        first store. Each entry is one uncompressed ``.npz``.
    """

    maxsize: int = 64
    directory: str | pathlib.Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict)

    def key_for(self, systems: list[OdeSystem], kind: str,
                options: dict) -> str | None:
        """Cache key of a batched solve, or ``None`` when any part of
        the batch's identity is unstable (then the caller must solve).

        :param systems: the structurally compatible batch, in row order.
        :param kind: solver family tag (``"batch"`` or ``"sde"``) so a
            deterministic and a stochastic run never share a key.
        :param options: every solver option that steers the result —
            grid spec, method, tolerances, noise seeds... Values may be
            scalars, strings, ``None``, tuples, or numpy arrays.
        """
        lead = systems[0]
        hasher = hashlib.sha256()
        hasher.update(f"schema={CACHE_SCHEMA};".encode())
        hasher.update(kind.encode())
        signature = lead.structural_signature()
        # The signature's function-identity element (position 4, see
        # OdeSystem.structural_signature) uses id() for untagged
        # callables — stable within a process but meaningless on disk
        # and recyclable by the allocator, so it is replaced by stable
        # tokens (or the whole batch is declared uncachable).
        function_tokens = []
        for name, fn in sorted(lead.functions.items()):
            token = _function_token(name, fn)
            if token is None:
                self.stats.uncachable += 1
                telemetry.add("cache.uncachable")
                return None
            function_tokens.append((name, token))
        stable = (signature[0], signature[1], signature[2],
                  signature[3], tuple(function_tokens), signature[5])
        hasher.update(repr(stable).encode())
        for key in sorted(lead.attr_values):
            values = [system.attr_values.get(key) for system in systems]
            # One type check per column; the per-value check only runs
            # for columns holding other types (numpy scalars, bools...).
            if set(map(type, values)) <= _PLAIN_NUMBERS or all(
                    isinstance(v, (int, float, np.floating, np.integer))
                    and not isinstance(v, bool) for v in values):
                hasher.update(repr(key).encode())
                hasher.update(np.asarray(values, dtype=float).tobytes())
                continue
            tokens = [_value_token(v) for v in values]
            if any(token is None for token in tokens):
                self.stats.uncachable += 1
                telemetry.add("cache.uncachable")
                return None
            hasher.update(repr((key, tokens)).encode())
        hasher.update(np.stack([system.y0 for system in systems])
                      .tobytes())
        if kind == "batch":
            options = {**RETIRED_BATCH_OPTIONS, **options}
            method = options.get("method")
            if method in RETIRED_METHODS:
                options["method"] = RETIRED_METHODS[method]
        for name in sorted(options):
            value = options[name]
            if name == "array_backend":
                # Canonicalize so every spelling of the default
                # (None, "numpy", "numpy:float64") shares one key while
                # float32 gets its own; see
                # :func:`repro.sim.batch_codegen.canonical_spec`.
                value = canonical_spec(value)
            hasher.update(name.encode())
            if isinstance(value, np.ndarray):
                hasher.update(value.astype(float).tobytes())
            else:
                hasher.update(repr(value).encode())
        return hasher.hexdigest()

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------

    def _disk_path(self, key: str) -> pathlib.Path | None:
        if self.directory is None:
            return None
        return pathlib.Path(self.directory) / f"{key}.npz"

    def get(self, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The stored ``(t, y)`` pair (copies), or ``None`` on miss.

        A disk entry that exists but cannot be read back (torn write
        from a crashed run, disk corruption) is a *miss*, not an error:
        it is counted in ``stats.corrupt``, warned about once, and the
        caller re-solves — a damaged cache file must never abort a
        sweep that would have succeeded without a cache.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            telemetry.add("cache.hits")
            return entry[0].copy(), entry[1].copy()
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                with np.load(path) as payload:
                    t, y = payload["t"], payload["y"]
            except Exception as error:
                self.stats.corrupt += 1
                self.stats.misses += 1
                telemetry.add("cache.corrupt")
                telemetry.add("cache.misses")
                warnings.warn(
                    f"trajectory cache entry {path} is unreadable "
                    f"({type(error).__name__}: {error}); treating as "
                    f"a miss and re-solving", RuntimeWarning,
                    stacklevel=2)
                return None
            self._remember(key, t, y)
            self.stats.hits += 1
            telemetry.add("cache.hits")
            return t.copy(), y.copy()
        self.stats.misses += 1
        telemetry.add("cache.misses")
        return None

    def put(self, key: str, t: np.ndarray, y: np.ndarray):
        """Store one batched result (arrays are copied in). ``y``
        keeps its dtype — a float32-policy entry must replay as
        float32, not silently widen on the warm path.

        A disk write that fails (unwritable or missing directory, full
        disk) keeps the in-memory entry, warns, and is counted in the
        ``cache.store_failed`` telemetry counter, not in ``stats``: the
        solve it would have saved is already done, and losing its
        result to a cache error would abort a sweep that succeeds
        without a cache."""
        t = np.asarray(t, dtype=float).copy()
        y = np.asarray(y).copy()
        self._remember(key, t, y)
        path = self._disk_path(key)
        if path is not None:
            # Write-then-rename so neither a crashed run nor several
            # processes storing the same key concurrently (pool workers
            # or parallel sweeps sharing one --cache-dir) can ever
            # publish a torn .npz; the temp name must be per-writer for
            # the rename to be atomic, and the fsync before the rename
            # keeps a power loss from replacing a good entry with an
            # empty file (rename can be durable before the data is).
            temporary = path.with_suffix(
                f".{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp.npz")
            try:
                try:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    with open(temporary, "wb") as handle:
                        np.savez(handle, t=t, y=y)
                        handle.flush()
                        os.fsync(handle.fileno())
                    temporary.replace(path)
                finally:
                    temporary.unlink(missing_ok=True)
            except OSError as error:
                telemetry.add("cache.store_failed")
                warnings.warn(
                    f"trajectory cache entry {path} could not be "
                    f"written ({type(error).__name__}: {error}); kept "
                    f"in memory only", RuntimeWarning, stacklevel=2)
                return
        self.stats.stores += 1
        self.stats.bytes_stored += t.nbytes + y.nbytes
        telemetry.add("cache.stores")
        telemetry.add("cache.bytes_stored", t.nbytes + y.nbytes)

    def _remember(self, key: str, t: np.ndarray, y: np.ndarray):
        if self.maxsize < 1:
            return
        self._entries[key] = (t, y)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            telemetry.add("cache.evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self):
        """Drop the in-memory tier (disk entries are kept)."""
        self._entries.clear()


_DEFAULT_CACHE: TrajectoryCache | None = None


def default_cache() -> TrajectoryCache:
    """The process-wide cache used by ``cache=True`` drivers."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = TrajectoryCache()
    return _DEFAULT_CACHE


def resolve_cache(cache) -> TrajectoryCache | None:
    """Normalize a driver's ``cache`` argument: ``None``/``False`` (no
    caching), ``True`` (process-wide default), a directory path (disk
    backed), or a :class:`TrajectoryCache` instance."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_cache()
    if isinstance(cache, (str, pathlib.Path)):
        return TrajectoryCache(directory=cache)
    if isinstance(cache, TrajectoryCache):
        return cache
    raise TypeError(
        f"cache must be None, bool, a path, or a TrajectoryCache, got "
        f"{type(cache).__name__}")
