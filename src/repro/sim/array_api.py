"""Pluggable array-namespace backends for the batched engines.

Every hot path in the simulation stack — the emitted batched kernels
(:mod:`repro.sim.batch_codegen`), the ODE solvers
(:mod:`repro.sim.batch_solver`), and the SDE solvers
(:mod:`repro.sim.sde_solver`) — runs against a *narrow* array-namespace
interface instead of importing numpy directly. An
:class:`ArrayBackend` bundles:

* ``xp`` — the array namespace handle every kernel and solver op
  dispatches through;
* ``asarray`` / ``to_numpy`` — the host boundary: constants in,
  trajectories out (conversion happens only at trajectory assembly);
* a **dtype policy** (``float64`` default, ``float32`` opt-in) applied
  to every array that enters the namespace;
* a **Wiener-stream adapter** — the deterministic per-``(seed,
  element, path)`` PCG64 draws of :mod:`repro.core.noise` are always
  generated on the host (so realizations are backend-independent) and
  converted at the policy dtype; on ``numpy``/``float64`` the draws
  pass through untouched, keeping noise bit-identical to the
  pre-abstraction engine.

``numpy`` is the one registered backend. Numpy/float64 results are
**bit-identical** to the pre-abstraction engine (test-enforced — the
same gate every prior refactor shipped under); float32 is
tolerance-gated against float64. Emitted kernels fill preallocated
buffers in place, so a namespace plugged in through the seam must have
mutable arrays.

Backend resolution accepts a *spec string* — ``"numpy"``,
``"numpy:float32"`` — an :class:`ArrayBackend` instance, or ``None``
(the numpy default). Spec strings are what travels through
:class:`~repro.sim.plan.ExecutionPlan` options, worker payloads, and
trajectory-cache keys: they are picklable and their canonical form
(:meth:`ArrayBackend.spec`) names both the backend and the dtype, so a
float32 run can never collide with a float64 cache entry.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "array_backend_names",
    "canonical_spec",
    "resolve_array_backend",
]

#: Dtype policies a backend accepts (the canonical spelling is the key).
_DTYPES = {"float64": np.float64, "float32": np.float32}


def _canonical_dtype(dtype) -> str:
    """Normalize a dtype spec (name, numpy dtype, or type) onto the
    canonical policy name, rejecting anything outside the policy set —
    the solvers' error control and the cache's key hashing are only
    specified for real floating point."""
    if dtype is None:
        return "float64"
    name = np.dtype(dtype).name
    if name not in _DTYPES:
        raise SimulationError(
            f"unsupported array dtype {name!r}; the dtype policy "
            f"accepts {', '.join(sorted(_DTYPES))}")
    return name


class ArrayBackend:
    """One array namespace the batched engines can run on.

    Subclasses provide :attr:`name` and the ``xp`` property; the base
    class implements the dtype policy and the host boundary in terms of
    ``xp``. All hooks default to eager/host semantics so a minimal
    backend only overrides what its namespace actually does
    differently.
    """

    #: Registry name (also the cache-key/telemetry tag).
    name = "?"

    def __init__(self, dtype=None):
        self.dtype_name = _canonical_dtype(dtype)

    # -- namespace ----------------------------------------------------

    @property
    def xp(self):
        """The array namespace handle (a module-like object)."""
        raise NotImplementedError

    @property
    def dtype(self):
        """The policy dtype as a numpy dtype."""
        return np.dtype(self.dtype_name)

    # -- host boundary ------------------------------------------------

    def asarray(self, value):
        """A backend array of the policy dtype (host constants in)."""
        return self.xp.asarray(value, dtype=self.dtype)

    def to_numpy(self, value) -> np.ndarray:
        """Host transfer (trajectory assembly out). Identity-cheap on
        numpy: ``np.asarray`` of a float64 array is the array itself."""
        return np.asarray(value)

    def empty_like(self, value):
        """Uninitialized work buffer matching an array (the emitted
        kernels fill it in place)."""
        return self.xp.empty_like(value)

    # -- kernel hooks -------------------------------------------------

    def vector_functions(self) -> dict:
        """The namespace's counterparts of the scalar builtins (see
        :data:`repro.sim.batch_codegen.VECTOR_FUNCTIONS` for the numpy
        instance this generalizes)."""
        xp = self.xp
        return {
            "sin": xp.sin, "cos": xp.cos, "tan": xp.tan, "exp": xp.exp,
            "ln": xp.log, "log": xp.log, "sqrt": xp.sqrt,
            "abs": xp.abs, "tanh": xp.tanh, "sgn": xp.sign,
            "min": xp.minimum, "max": xp.maximum, "pow": xp.power,
        }

    # -- Wiener adapter -----------------------------------------------

    def wiener_source(self, noise_seeds, paths, block: int = 256):
        """The batch's Wiener-increment source. Draws always come from
        the host-side deterministic PCG64 streams of
        :mod:`repro.core.noise` — realizations are backend-independent
        — and are converted to backend arrays at the policy dtype. On
        numpy/float64 the draws pass through bit-identically."""
        from repro.sim.sde_solver import WienerSource

        source = WienerSource(noise_seeds, paths, block=block)
        if type(self) is NumpyBackend and self.dtype_name == "float64":
            return source
        return _ConvertingWiener(source, self)

    # -- identity -----------------------------------------------------

    def spec(self) -> str:
        """Canonical, picklable spec string: ``"<name>:<dtype>"``.
        Resolves back to an equivalent backend, and is what plan
        options, worker payloads, and cache keys carry."""
        return f"{self.name}:{self.dtype_name}"

    def __repr__(self) -> str:
        return f"<array-backend {self.spec()}>"


class _ConvertingWiener:
    """Wiener adapter of non-default backends: host draws in, backend
    arrays of the policy dtype out (see
    :meth:`ArrayBackend.wiener_source`)."""

    def __init__(self, source, backend: ArrayBackend):
        self._source = source
        self._backend = backend

    @property
    def paths(self):
        return self._source.paths

    @property
    def seconds(self) -> float:
        return self._source.seconds

    def normals(self, step: int):
        return self._backend.asarray(self._source.normals(step))


class NumpyBackend(ArrayBackend):
    """The default: plain numpy, eager, mutable.

    With the default float64 policy every operation the solvers and
    kernels perform is the exact operation the pre-abstraction engine
    performed — results are bit-identical (test-enforced).
    """

    name = "numpy"

    @property
    def xp(self):
        return np

    def vector_functions(self) -> dict:
        from repro.sim.batch_codegen import VECTOR_FUNCTIONS

        return VECTOR_FUNCTIONS


#: Registered backend factories: ``name -> callable(dtype) ->
#: ArrayBackend``.
ARRAY_BACKENDS: dict = {"numpy": NumpyBackend}


def array_backend_names() -> tuple[str, ...]:
    """The registered array-backend names, sorted."""
    return tuple(sorted(ARRAY_BACKENDS))


def parse_backend_spec(spec: str) -> tuple[str, str | None]:
    """Split a ``"name[:dtype]"`` spec string; the name is *not*
    validated here (callers decide between raising and listing)."""
    name, _, dtype = spec.partition(":")
    return name.strip(), (dtype.strip() or None)


def canonical_spec(spec=None) -> str:
    """The canonical ``"name:dtype"`` form of an array-backend argument
    — ``None`` means the default ``"numpy:float64"`` — computed
    *without* constructing the backend. The name is not checked
    against the registry here (resolution and plan validation do
    that)."""
    if spec is None:
        return "numpy:float64"
    if isinstance(spec, ArrayBackend):
        return spec.spec()
    name, dtype = parse_backend_spec(str(spec))
    return f"{name}:{_canonical_dtype(dtype)}"


#: Resolution cache: the default backend (and repeated spec strings)
#: resolve to one shared instance, so kernel caches keyed per backend
#: stay warm across solves.
_RESOLVED: dict = {}


def resolve_array_backend(spec=None) -> ArrayBackend:
    """Normalize an array-backend argument: ``None`` (the numpy
    default), a spec string (``"numpy"``, ``"numpy:float32"``), or an
    :class:`ArrayBackend` instance (passed through). Unknown names
    raise with the registered list."""
    if spec is None:
        spec = "numpy"
    if isinstance(spec, ArrayBackend):
        return spec
    if not isinstance(spec, str):
        raise SimulationError(
            f"array_backend must be a spec string or an ArrayBackend, "
            f"got {type(spec).__name__}")
    name, dtype = parse_backend_spec(spec)
    if name not in ARRAY_BACKENDS:
        raise SimulationError(
            f"unknown array backend {name!r}; registered array "
            f"backends: {', '.join(array_backend_names())}")
    key = (name, _canonical_dtype(dtype))
    backend = _RESOLVED.get(key)
    if backend is None:
        backend = ARRAY_BACKENDS[name](dtype)
        _RESOLVED[key] = backend
    return backend
