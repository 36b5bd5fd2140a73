"""Property tests for composition over Z (needs hypothesis, test-only)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riordan import ZZ, TruncSeries, compose  # noqa: E402

# Small, large and huge magnitudes, so the packed slots run from 2 bytes to
# many limbs within one draw.
coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**30), 10**30),
)


@st.composite
def triples(draw):
    # f, g, h over Z at one truncation N <= 59 (length n <= 60); g and h
    # have zero constant term.
    n = draw(st.integers(1, 60))
    series = st.lists(coefficients, min_size=n, max_size=n)
    f = draw(series)
    g, h = ([0] + draw(series)[1:] for _ in range(2))
    return tuple(TruncSeries(ZZ, cs) for cs in (f, g, h))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(triples())
def test_z_composition_is_associative(fgh):
    f, g, h = fgh
    assert compose(compose(f, g), h) == compose(f, compose(g, h))
