"""The ns-tln language: transient thermal noise on TLN segments.

The second half of the paper's nonideality story: where GmC-TLN models
*fabrication* variation (a parameter sampled once per chip, §4.3),
``ns-tln`` models *transient* noise — every segment's damping self edge
becomes a noisy element injecting white current/voltage noise into its
node. Physically this is the thermal noise of the GmC integrator: a
noise current of spectral amplitude ``nsig`` (A·√s) into a capacitance
``c`` perturbs ``dV/dt`` by ``nsig/c · ξ(t)``, and dually for the
inductive (I) segments.

``En`` inherits the plain self-edge type ``E`` and adds the ``nsig``
amplitude attribute — ``const``, because a noise floor is physics, not
a programmable knob (§4.3). Its production rules restate the damping
term and add the ``noise(...)`` injection; production lookup is
most-specific-first, so a graph whose self edges stay type ``E``
compiles to exactly the deterministic system it always did, while
swapping ``En`` in (the :class:`~repro.puf.challenge.PufDesign`
``noise`` knob does this) adds one independent Wiener path per segment.

``ns-tln`` inherits sw-tln, so the full PUF stack — Gm mismatch,
off-state switch parasitics, and transient noise — composes in one
language chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from repro.core.language import Language
from repro.lang import parse_program
from repro.paradigms.tln.functions import TLineSpec
from repro.paradigms.tln.switches import sw_tln_language

NS_TLN_SOURCE = """
lang ns-tln inherits sw-tln {
    etyp En inherit E {attr nsig=real[0,inf] const};

    // Noisy damping self edges: the inherited -G*V/C / -R*I/L terms
    // plus a white-noise injection scaled by the segment's c or l.
    prod(e:En, s:V->s:V) s <= -s.g/s.c*var(s) + noise(e.nsig/s.c);
    prod(e:En, s:I->s:I) s <= -s.r/s.l*var(s) + noise(e.nsig/s.l);
}
"""


def build_ns_tln_language(parent: Language | None = None) -> Language:
    """Construct a fresh ns-tln instance on top of ``parent``."""
    parent = parent or sw_tln_language()
    program = parse_program(NS_TLN_SOURCE,
                            languages={"sw-tln": parent})
    return program.languages["ns-tln"]


@cache
def ns_tln_language() -> Language:
    """The shared ns-tln language instance."""
    return build_ns_tln_language(sw_tln_language())


@dataclass(frozen=True)
class NoisyTlineFactory:
    """A picklable ``factory(seed)`` producing noisy fabricated
    t-lines for the unified ensemble driver.

    Process-pool sharding ships the factory to worker processes, so a
    ``lambda``/closure silently degrades to in-process execution; this
    module-level class pickles, letting (chip × trial) SDE sweeps over
    mismatched noisy t-lines shard across cores (16 chips x 8 trials
    = 128 rows, past the 64-row pool threshold)::

        from repro.sim import run_ensemble

        result = run_ensemble(
            NoisyTlineFactory(TLineSpec(n_segments=10), noise=1e-8),
            seeds=range(16), t_span=(0.0, 8e-8),
            trials=8, processes=4)
    """

    spec: TLineSpec = field(default_factory=TLineSpec)
    noise: float = 1e-8
    node_variant: str = "ideal"
    edge_variant: str = "ideal"

    def __call__(self, seed):
        from repro.paradigms.tln.functions import linear_tline

        return linear_tline(self.spec, seed=seed, noise=self.noise,
                            node_variant=self.node_variant,
                            edge_variant=self.edge_variant)
