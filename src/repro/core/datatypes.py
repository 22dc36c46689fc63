"""Bounded datatypes of the Ark language (Fig. 6, lines 1-2).

Ark values are bounded reals ``real[x0,x1]``, bounded integers
``int[i0,i1]``, or function values ``lambd(v*)``. Reals and integers may
carry a mismatch annotation ``mm(s0,s1)`` (§4.3) that models process
variation: assigning a nominal value ``x`` to a mismatched attribute stores a
sample from ``N(x, s0 + |x|*s1)`` instead.

They may additionally carry a *transient-noise* annotation
``ns(sigma[,kind])``: where mismatch perturbs the stored value once at
fabrication time, noise makes the parameter fluctuate *during* the
transient. The compiler lowers each production term that references a
noise-annotated attribute to a diffusion term of a stochastic
differential equation (see :mod:`repro.core.compiler` and
:mod:`repro.sim.sde_solver`), to first order in the fluctuation.

The paper's §4.3 prose writes the standard deviation as ``x*s0 + s1``, but
every usage in the paper (``mm(0,0.1)`` described as "10% relative
mismatch", ``mm(0.02,0)`` producing a real offset on a nominal-0 attribute)
is only consistent with ``s0`` absolute and ``s1`` relative. We implement
``sigma = s0 + |x|*s1``; see DESIGN.md §5.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import DatatypeError

#: Unbounded end of a range, usable as either bound.
INF = math.inf


@dataclass(frozen=True)
class Mismatch:
    """Process-variation annotation ``mm(s0, s1)``.

    :param s0: absolute component of the standard deviation.
    :param s1: relative component (multiplied by ``|x|``).
    """

    s0: float
    s1: float

    def __post_init__(self):
        if self.s0 < 0 or self.s1 < 0:
            raise DatatypeError(
                f"mismatch deviations must be non-negative, got "
                f"mm({self.s0}, {self.s1})")

    def sigma(self, nominal: float) -> float:
        """Standard deviation used when a nominal value is assigned."""
        return self.s0 + abs(nominal) * self.s1

    def __str__(self) -> str:
        return f"mm({self.s0},{self.s1})"


@dataclass(frozen=True)
class Noise:
    """Transient-noise annotation ``ns(sigma, kind)``.

    Models thermal fluctuation of a device parameter during the
    transient: the annotated attribute's value ``a`` is read as
    ``a + amplitude(a) * xi(t)`` with ``xi`` white noise, so every
    production term referencing it picks up a diffusion term (to first
    order, i.e. assuming the term has power ±1 in the parameter — true
    for the conductance/capacitance/coupling forms of the shipped
    paradigm languages).

    :param sigma: fluctuation strength (units of the attribute per
        √second for ``abs``, dimensionless per √second for ``rel``).
    :param kind: ``"abs"`` — amplitude is ``sigma`` regardless of the
        stored value; ``"rel"`` — amplitude is ``sigma * |a|`` (the
        well-conditioned common case, e.g. 1% RMS parameter
        fluctuation).
    """

    sigma: float
    kind: str = "abs"

    KINDS = ("abs", "rel")

    def __post_init__(self):
        if self.sigma < 0:
            raise DatatypeError(
                f"noise deviation must be non-negative, got "
                f"ns({self.sigma}, {self.kind})")
        if self.kind not in self.KINDS:
            raise DatatypeError(
                f"unknown noise kind {self.kind!r}; expected one of "
                f"{', '.join(self.KINDS)}")

    def amplitude(self, value: float) -> float:
        """Fluctuation amplitude when the stored value is ``value``."""
        if self.kind == "rel":
            return self.sigma * abs(value)
        return self.sigma

    def __str__(self) -> str:
        if self.kind == "abs":
            return f"ns({self.sigma})"
        return f"ns({self.sigma},{self.kind})"


@dataclass(frozen=True)
class RealType:
    """Bounded real datatype ``real[lo,hi]`` with optional mismatch."""

    lo: float
    hi: float
    mismatch: Mismatch | None = None
    noise: Noise | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise DatatypeError(
                f"real range is empty: [{self.lo}, {self.hi}]")

    def check(self, value: object, context: str = "value") -> float:
        """Validate ``value`` against this datatype and return it as float.

        Range checks apply to the *nominal* value; mismatch sampling happens
        afterwards and may leave the range (the paper assigns ``real[1,1]
        mm(0,0.1)``, whose samples necessarily leave ``[1,1]``).
        """
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DatatypeError(
                f"{context}: expected a real number, got {value!r}")
        value = float(value)
        if math.isnan(value):
            raise DatatypeError(f"{context}: NaN is not a valid real value")
        if not (self.lo <= value <= self.hi):
            raise DatatypeError(
                f"{context}: {value} outside declared range "
                f"[{self.lo}, {self.hi}]")
        return value

    def is_subrange_of(self, other: "RealType") -> bool:
        """True when this range is contained in ``other``'s range.

        Used by the inheritance checker: an overriding attribute "must ...
        operate on a smaller value range than the parent attribute"
        (non-strict containment; the paper's own GmC-TLN override keeps the
        parent's exact range).
        """
        return other.lo <= self.lo and self.hi <= other.hi

    def __str__(self) -> str:
        base = f"real[{self.lo},{self.hi}]"
        if self.mismatch is not None:
            base += f" {self.mismatch}"
        if self.noise is not None:
            base += f" {self.noise}"
        return base


@dataclass(frozen=True)
class IntType:
    """Bounded integer datatype ``int[lo,hi]`` with optional mismatch."""

    lo: int
    hi: int
    mismatch: Mismatch | None = None
    noise: Noise | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise DatatypeError(
                f"int range is empty: [{self.lo}, {self.hi}]")

    def check(self, value: object, context: str = "value") -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            else:
                raise DatatypeError(
                    f"{context}: expected an integer, got {value!r}")
        if not (self.lo <= value <= self.hi):
            raise DatatypeError(
                f"{context}: {value} outside declared range "
                f"[{self.lo}, {self.hi}]")
        return int(value)

    def is_subrange_of(self, other: "IntType") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def __str__(self) -> str:
        base = f"int[{self.lo},{self.hi}]"
        if self.mismatch is not None:
            base += f" {self.mismatch}"
        if self.noise is not None:
            base += f" {self.noise}"
        return base


@dataclass(frozen=True)
class LambdaType:
    """Function datatype ``lambd(v*)``: ``arity`` real arguments, real
    result. Assigned values must be Python callables of that arity."""

    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise DatatypeError("lambda arity must be non-negative")

    def check(self, value: object, context: str = "value"):
        if not callable(value):
            raise DatatypeError(
                f"{context}: expected a callable of {self.arity} argument(s),"
                f" got {value!r}")
        return value

    def is_subrange_of(self, other: "LambdaType") -> bool:
        """Lambda types are compatible only with identical arity."""
        return self.arity == other.arity

    def __str__(self) -> str:
        args = ",".join(f"a{i}" for i in range(self.arity))
        return f"lambd({args})"


#: Union of the three Ark datatypes.
Datatype = RealType | IntType | LambdaType


def _noise_annotation(ns) -> Noise | None:
    if ns is None or isinstance(ns, Noise):
        return ns
    if isinstance(ns, (int, float)):
        return Noise(float(ns))
    return Noise(*ns)


def real(lo: float, hi: float, mm: tuple[float, float] | None = None,
         ns: "Noise | float | tuple | None" = None) -> RealType:
    """Convenience constructor mirroring ``real[lo,hi] mm(s0,s1)
    ns(sigma,kind)``; ``ns`` accepts a :class:`Noise`, a bare sigma, or
    a ``(sigma, kind)`` tuple."""
    annotation = Mismatch(*mm) if mm is not None else None
    return RealType(float(lo), float(hi), annotation,
                    _noise_annotation(ns))


def integer(lo: int, hi: int, mm: tuple[float, float] | None = None,
            ns: "Noise | float | tuple | None" = None) -> IntType:
    """Convenience constructor mirroring ``int[lo,hi]``. The bounds must
    be finite integers; integral floats such as ``3.0`` are accepted."""
    if not all(float(bound).is_integer() for bound in (lo, hi)):
        raise DatatypeError(
            f"int bounds must be finite integers, got [{lo}, {hi}]")
    annotation = Mismatch(*mm) if mm is not None else None
    return IntType(int(lo), int(hi), annotation, _noise_annotation(ns))


def lambd(arity: int) -> LambdaType:
    """Convenience constructor mirroring ``lambd(a0,...)``."""
    return LambdaType(arity)


def same_kind(a: Datatype, b: Datatype) -> bool:
    """True when two datatypes are of the same kind (real/int/lambda).

    Inheritance requires overridden attributes to "retain the same datatype
    (real, integer, lambda)".
    """
    return type(a) is type(b)
