"""Attribute and initial-value declarations (Fig. 6, line 4).

``attr v = SigT Prog`` declares a named attribute of a node or edge type;
``init(i) SigT Prog`` declares the datatype of the i-th derivative's initial
value. Both may be ``const`` (non-programmable, §4.3): a const attribute must
be bound to a constant at instantiation time and may not be wired to a
function argument.

The mismatch annotation rides on the datatype: a hardware-extension type
typically *adds* it when overriding a parent attribute (the GmC-TLN
``Vm`` overrides ``V.c`` with ``mm(0,0.1)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.datatypes import Datatype, same_kind
from repro.errors import DatatypeError, InheritanceError


@dataclass(frozen=True)
class AttrDecl:
    """Declaration of a named attribute.

    :param name: attribute name (``c``, ``g``, ``k``, ``fn``...).
    :param datatype: bounded datatype, possibly mismatch-annotated.
    :param const: non-programmable (§4.3); cannot be set from function args.
    :param default: optional value assigned when a function does not set the
        attribute explicitly.
    """

    name: str
    datatype: Datatype
    const: bool = False
    default: object | None = None

    def __post_init__(self):
        if self.default is not None:
            self.datatype.check(self.default,
                                f"default of attribute `{self.name}`")

    def check_override(self, parent: "AttrDecl") -> None:
        """Validate this declaration as an override of ``parent`` (§4.1.1).

        Overrides must keep the datatype kind and narrow (or keep) the value
        range. A const declaration cannot be made programmable again.
        """
        if self.name != parent.name:
            raise InheritanceError(
                f"attribute override renames `{parent.name}` to "
                f"`{self.name}`")
        if not same_kind(self.datatype, parent.datatype):
            raise InheritanceError(
                f"attribute `{self.name}` override changes datatype kind "
                f"from {parent.datatype} to {self.datatype}")
        if not self.datatype.is_subrange_of(parent.datatype):
            raise InheritanceError(
                f"attribute `{self.name}` override widens the value range: "
                f"{self.datatype} is not contained in {parent.datatype}")
        if parent.const and not self.const:
            raise InheritanceError(
                f"attribute `{self.name}` override drops `const` from the "
                "parent declaration")


@dataclass(frozen=True)
class InitDecl:
    """Declaration of the initial value of the ``index``-th derivative."""

    index: int
    datatype: Datatype
    const: bool = False
    default: object | None = None

    def __post_init__(self):
        if self.index < 0:
            raise DatatypeError(
                f"init index must be non-negative, got {self.index}")
        if self.default is not None:
            self.datatype.check(self.default,
                                f"default of init({self.index})")

    def check_override(self, parent: "InitDecl") -> None:
        """Validate this declaration as an override of ``parent``."""
        if self.index != parent.index:
            raise InheritanceError(
                f"init override changes index {parent.index} to "
                f"{self.index}")
        if not same_kind(self.datatype, parent.datatype):
            raise InheritanceError(
                f"init({self.index}) override changes datatype kind from "
                f"{parent.datatype} to {self.datatype}")
        if not self.datatype.is_subrange_of(parent.datatype):
            raise InheritanceError(
                f"init({self.index}) override widens the value range: "
                f"{self.datatype} is not contained in {parent.datatype}")
        if parent.const and not self.const:
            raise InheritanceError(
                f"init({self.index}) override drops `const` from the parent "
                "declaration")
