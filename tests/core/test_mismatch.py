"""Unit tests for seeded mismatch sampling (§4.3 semantics)."""

import numpy as np
import pytest

from repro.core.datatypes import Mismatch, integer, lambd, real
from repro.core.mismatch import MismatchSite, draw, site_of


def site(element, attr, annotation, nominal):
    """The site a write of ``nominal`` under ``annotation`` draws from."""
    return MismatchSite(element, attr, nominal, annotation.sigma(nominal))


class TestDeterminism:
    def test_same_seed_same_sample(self):
        a = draw(1, [site("n", "c", Mismatch(0, 0.1), 1.0)])
        b = draw(1, [site("n", "c", Mismatch(0, 0.1), 1.0)])
        assert a == b

    def test_different_seed_different_sample(self):
        a = draw(1, [site("n", "c", Mismatch(0, 0.1), 1.0)])
        b = draw(2, [site("n", "c", Mismatch(0, 0.1), 1.0)])
        assert a != b

    def test_different_element_different_stream(self):
        a, b = draw(1, [site("n1", "c", Mismatch(0, 0.1), 1.0),
                        site("n2", "c", Mismatch(0, 0.1), 1.0)])
        assert a != b

    def test_different_attr_different_stream(self):
        a, b = draw(1, [site("n", "c", Mismatch(0, 0.1), 1.0),
                        site("n", "g", Mismatch(0, 0.1), 1.0)])
        assert a != b

    def test_order_independent(self):
        first = site("a", "x", Mismatch(0, 0.1), 1.0)
        other = site("b", "x", Mismatch(0, 0.1), 1.0)
        alone = draw(5, [first])[0]
        assert draw(5, [first, other])[0] == alone
        assert draw(5, [other, first])[1] == alone


class TestSemantics:
    def test_none_seed_returns_nominal(self):
        assert draw(None, [site("n", "c", Mismatch(0, 0.5), 3.0)]) == [3.0]

    def test_zero_sigma_returns_nominal(self):
        assert draw(3, [site("n", "c", Mismatch(0, 0.1), 0.0)]) == [0.0]

    def test_absolute_component(self):
        # mm(0.02, 0) on nominal 0 (the ofs-obc offset) must vary.
        value, = draw(3, [site("e", "offset", Mismatch(0.02, 0.0), 0.0)])
        assert value != 0.0
        assert abs(value) < 0.2  # within 10 sigma

    def test_distribution_statistics(self):
        at = site("n", "c", Mismatch(0.0, 0.1), 2.0)
        samples = np.array([draw(seed, [at])[0] for seed in range(800)])
        assert samples.mean() == pytest.approx(2.0, abs=0.03)
        assert samples.std() == pytest.approx(0.2, rel=0.15)

    def test_resolve_skips_unannotated(self):
        assert site_of("n", "c", real(0, 10), 5.0) is None

    def test_resolve_applies_annotation(self):
        at = site_of("n", "c", real(0, 10, mm=(0, 0.1)), 5.0)
        assert draw(3, [at]) != [5.0]

    def test_resolve_rounds_integers(self):
        at = site_of("n", "k", integer(0, 100, mm=(5, 0)), 50)
        value, = draw(3, [at])
        assert isinstance(value, int)

    def test_resolve_skips_lambda(self):
        fn = lambda t: t  # noqa: E731 (the lambda-ness is the point)
        assert site_of("n", "fn", lambd(1), fn) is None
