"""Property tests on datatypes, mismatch sampling, and range algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datatypes import Mismatch, RealType, integer
from repro.core.mismatch import MismatchSite, draw, site_of
from repro.errors import DatatypeError

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e9, max_value=1e9)


@st.composite
def real_types(draw):
    lo = draw(finite)
    width = draw(st.floats(min_value=0.0, max_value=1e9,
                           allow_nan=False))
    return RealType(lo, lo + width)


@given(real_types(), finite)
def test_check_accepts_iff_in_range(datatype, value):
    inside = datatype.lo <= value <= datatype.hi
    if inside:
        assert datatype.check(value) == value
    else:
        try:
            datatype.check(value)
            raised = False
        except DatatypeError:
            raised = True
        assert raised


@given(real_types(), real_types())
def test_subrange_is_containment(a, b):
    assert a.is_subrange_of(b) == (b.lo <= a.lo and a.hi <= b.hi)


@given(real_types())
def test_subrange_reflexive(datatype):
    assert datatype.is_subrange_of(datatype)


@given(real_types(), real_types(), real_types())
def test_subrange_transitive(a, b, c):
    if a.is_subrange_of(b) and b.is_subrange_of(c):
        assert a.is_subrange_of(c)


@given(st.integers(0, 2**31 - 1), st.text(min_size=1, max_size=8),
       st.text(min_size=1, max_size=8),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=60)
def test_mismatch_deterministic_per_key(seed, element, attr, nominal):
    at = MismatchSite(element, attr, nominal,
                      Mismatch(0.01, 0.05).sigma(nominal))
    assert draw(seed, [at]) == draw(seed, [at])


@given(st.integers(0, 2**31 - 1),
       st.floats(min_value=0.1, max_value=100, allow_nan=False))
@settings(max_examples=60)
def test_mismatch_within_ten_sigma(seed, nominal):
    sigma = Mismatch(0.0, 0.1).sigma(nominal)
    value, = draw(seed, [MismatchSite("n", "a", nominal, sigma)])
    assert abs(value - nominal) <= 10 * sigma


@given(st.integers(0, 2**31 - 1))
def test_integer_mismatch_stays_integer(seed):
    value, = draw(seed, [site_of(
        "n", "k", integer(-1000, 1000, mm=(5.0, 0.0)), 10)])
    assert isinstance(value, int)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False),
       st.floats(min_value=0, max_value=5),
       st.floats(min_value=0, max_value=5))
def test_sigma_formula(nominal, s0, s1):
    annotation = Mismatch(s0, s1)
    assert annotation.sigma(nominal) == s0 + abs(nominal) * s1
