"""Reconfigurable multi-branch t-line PUF topology.

Generalizes the paper's ``br-func`` (Fig. 8): a main transmission line
carries several switchable open-ended branch stubs of different lengths.
Each challenge bit switches one stub's junction edge; enabled stubs add
reflections (echoes) at stub-specific delays, so every challenge shapes a
different ``OUT_V`` trajectory. Fabrication variation enters through the
GmC-TLN mismatch types — following the paper's Fig. 4d conclusion, the
default design uses Gm (edge) mismatch, the stronger entropy source.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.builder import GraphBuilder, fabricate
from repro.core.graph import DynamicalGraph
from repro.core.language import Language
from repro.errors import GraphError
from repro.paradigms.tln.functions import TLineSpec, _LineBuilder, \
    _pick_language, _variant_types


@dataclass(frozen=True)
class PufDesign:
    """A switchable-branch TLN PUF design.

    :param spec: electrical parameters of the main line.
    :param branch_positions: indices of main-line V nodes (0-based,
        interior) that carry a stub; one challenge bit each.
    :param branch_lengths: stub lengths in LC segments (same order).
    :param variant: mismatch source — ``"gm"`` (default, per the paper's
        recommendation), ``"cint"``, or ``"ideal"`` (no mismatch; useful
        as a negative control: all chips identical).
    :param switch_alpha: off-state feedthrough fraction of the branch
        switches (§4.3 ``off`` rules via the sw-tln language); 0 models
        ideal isolation, 1 a switch with no isolation at all.
    :param noise: per-segment transient thermal-noise amplitude (the
        ns-tln ``En.nsig``); > 0 makes every built chip a stochastic
        system, so repeated noisy evaluations of *one* chip probe
        intra-chip reliability with actual perturbed dynamics instead
        of readout-stage noise.
    :param shared_supply: model the noise as *supply ripple* instead of
        independent per-segment thermal sources: every diffusion term
        of the built chip is aliased onto one shared Wiener path
        (:func:`repro.core.noise.share_wiener` with label
        ``"supply"``), so all segments see the same correlated
        disturbance — the common-mode scenario a differential response
        encoding should reject far better than independent noise.
        Requires ``noise > 0``. Consumed by
        :class:`repro.puf.response.ChipFactory`, i.e. by every batched
        evaluation/reliability driver.
    """

    spec: TLineSpec = TLineSpec()
    branch_positions: tuple[int, ...] = (5, 12, 19)
    branch_lengths: tuple[int, ...] = (6, 10, 14)
    variant: str = "gm"
    switch_alpha: float = 0.0
    noise: float = 0.0
    shared_supply: bool = False

    def __post_init__(self):
        # Tuples whatever was passed: the design is a memo key
        # (:func:`repro.core.builder.fabricate`), so it must hash.
        object.__setattr__(self, "branch_positions",
                           tuple(self.branch_positions))
        object.__setattr__(self, "branch_lengths",
                           tuple(self.branch_lengths))
        if self.shared_supply and self.noise <= 0.0:
            raise GraphError(
                "shared_supply models correlated supply ripple over "
                "the transient-noise sources; it needs noise > 0")
        if len(self.branch_positions) != len(self.branch_lengths):
            raise GraphError(
                "branch_positions and branch_lengths must align")
        if not 0.0 <= self.switch_alpha <= 1.0:
            raise GraphError(
                f"switch_alpha must be in [0, 1], got "
                f"{self.switch_alpha}")
        if self.noise < 0.0:
            raise GraphError(
                f"noise amplitude must be >= 0, got {self.noise}")
        for position in self.branch_positions:
            if not 0 <= position < self.spec.n_segments - 1:
                raise GraphError(
                    f"branch position {position} outside the main line's "
                    f"interior V nodes (0..{self.spec.n_segments - 2})")

    @property
    def n_bits(self) -> int:
        """Challenge width: one bit per switchable branch."""
        return len(self.branch_positions)

    def build(self, challenge: int | str | list[int],
              seed: int | None = None,
              language: Language | None = None) -> DynamicalGraph:
        """Instantiate the PUF for one challenge and one fabricated chip.

        :param challenge: challenge bits (int, "101"-style string, or bit
            list); bit k enables branch k.
        :param seed: mismatch seed — the chip identity (§4.3).
        """
        bits = self._challenge_bits(challenge)
        node_variant = "cint" if self.variant == "cint" else "ideal"
        edge_variant = "gm" if self.variant == "gm" else "ideal"
        v_type, i_type, e_type = _variant_types(node_variant,
                                                edge_variant)
        parasitic = self.switch_alpha > 0.0
        noisy = self.noise > 0.0
        if language is None and noisy:
            # ns-tln sits on top of sw-tln, so one chain covers the
            # noise, parasitic, and mismatch stacks simultaneously.
            from repro.paradigms.tln.noisy import ns_tln_language
            language = ns_tln_language()
        elif language is None and parasitic:
            from repro.paradigms.tln.switches import sw_tln_language
            language = sw_tln_language()
        language = _pick_language(language, node_variant, edge_variant)
        junction_type = "Esw" if parasitic else None
        self_edge_type = "En" if noisy else "E"
        self_edge_attrs = {"nsig": self.noise} if noisy else None

        def lay_out(seed) -> GraphBuilder:
            line = _LineBuilder(language, "tln-puf", self.spec, v_type,
                                i_type, e_type, seed,
                                self_edge_type=self_edge_type,
                                self_edge_attrs=self_edge_attrs)
            line.add_v("IN_V", g=0.0)
            line.add_v("OUT_V", g=self.spec.termination)
            line.add_source("IN_V")
            line.chain("IN_V", "OUT_V", self.spec.n_segments)
            for index, (position, length) in enumerate(
                    zip(self.branch_positions, self.branch_lengths)):
                end = f"Vstub{index}_end"
                line.add_v(end, g=0.0)
                # Switching the stub's junction edge on/off realizes
                # the challenge bit.
                junction = line.chain(f"V_{position}", end, length,
                                      prefix=f"s{index}",
                                      first_edge_type=junction_type)
                if parasitic:
                    line.builder.set_attr(junction, "alpha",
                                          self.switch_alpha)
                line.builder.set_switch(junction, bool(bits[index]))
            return line.builder

        return fabricate(language, ("tln-puf", self, tuple(bits)),
                         lay_out, seed)

    def _challenge_bits(self, challenge) -> list[int]:
        if isinstance(challenge, int):
            if not 0 <= challenge < (1 << self.n_bits):
                raise GraphError(
                    f"challenge {challenge} outside "
                    f"[0, {(1 << self.n_bits) - 1}]")
            return [(challenge >> k) & 1 for k in range(self.n_bits)]
        if isinstance(challenge, str):
            if len(challenge) != self.n_bits or \
                    set(challenge) - {"0", "1"}:
                raise GraphError(
                    f"challenge string must be {self.n_bits} binary "
                    f"digits, got {challenge!r}")
            return [int(c) for c in challenge]
        bits = [int(bool(b)) for b in challenge]
        if len(bits) != self.n_bits:
            raise GraphError(
                f"challenge needs {self.n_bits} bits, got {len(bits)}")
        return bits
