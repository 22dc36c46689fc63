"""Shared fixtures: small reusable languages and graphs.

The *leaky* language (weighted leaky integrators) is the smallest
non-trivial Ark language: one node type, one edge type, a self rule and a
coupling rule, and a cardinality constraint. Most core tests use it; the
paradigm tests use the real TLN/CNN/OBC languages.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.builder import GraphBuilder
from repro.core.language import Language


def build_leaky_language() -> Language:
    lang = Language("leaky")
    lang.node_type("X", order=1, reduction="sum",
                   attrs=[("tau", repro.real(0.1, 10.0))])
    lang.edge_type("W", attrs=[("w", repro.real(-5.0, 5.0))])
    lang.prod("prod(e:W, s:X->s:X) s <= -var(s)/s.tau")
    lang.prod("prod(e:W, s:X->t:X) t <= e.w*var(s)/t.tau")
    lang.cstr("cstr X {acc[match(1,1,W,X), match(0,inf,W,X->[X]),"
              " match(0,inf,W,[X]->X)]}")
    return lang


@pytest.fixture(scope="session")
def leaky_language() -> Language:
    return build_leaky_language()


def build_two_pole(language: Language, w: float = 2.0):
    builder = GraphBuilder(language, "two-pole")
    builder.node("x0", "X").set_attr("x0", "tau", 1.0)
    builder.node("x1", "X").set_attr("x1", "tau", 0.5)
    builder.edge("x0", "x0", "leak0", "W").set_attr("leak0", "w", 0.0)
    builder.edge("x1", "x1", "leak1", "W").set_attr("leak1", "w", 0.0)
    builder.edge("x0", "x1", "couple", "W").set_attr("couple", "w", w)
    builder.set_init("x0", 1.0).set_init("x1", 0.0)
    return builder.finish()


@pytest.fixture()
def two_pole(leaky_language):
    return build_two_pole(leaky_language)


@pytest.fixture(scope="session")
def tln():
    from repro.paradigms.tln import tln_language
    return tln_language()


@pytest.fixture(scope="session")
def gmc():
    from repro.paradigms.tln import gmc_tln_language
    return gmc_tln_language()


@pytest.fixture()
def small_pool_groups(monkeypatch):
    """Send every batched group to the worker pool when ``processes >
    1``, not only groups of 64 or more rows, so the pool's mechanics
    can be tested on small sweeps."""
    monkeypatch.setattr("repro.sim.plan.DEFAULT_SHARD_MIN", 1)


@pytest.fixture(scope="session")
def small_spec():
    from repro.paradigms.tln import TLineSpec
    return TLineSpec(n_segments=6)
