"""Property tests for composition and the inverses (needs hypothesis, test-only)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riordan import (  # noqa: E402
    ZZ,
    CoeffRing,
    NottSeries,
    TruncSeries,
    UnitSeries,
    comp_inverse,
    compose,
    inv_unit,
    mul,
)

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


@st.composite
def substitutions(draw):
    # g = x + ... of length 2..130 over Z (magnitudes as above) or over F_p,
    # on both sides of the Newton crossover at length 24.
    p = draw(st.sampled_from((None, 2, 3, 5, 65537, 10**18 + 3)))
    n = draw(st.integers(2, 130))
    cs = coefficients if p is None else st.integers(0, p - 1)
    if p is None and n > 40:
        cs = st.integers(-(10**6), 10**6)  # past 40, 10^30 makes each example seconds long
    return NottSeries(CoeffRing(p), [0, 1] + draw(st.lists(cs, min_size=n - 2, max_size=n - 2)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(substitutions())
def test_reversion_is_a_two_sided_inverse(g):
    x = NottSeries.identity(g.ring, g.trunc)
    r = comp_inverse(g)
    assert compose(g, r) == x
    assert compose(r, g) == x
    h = UnitSeries(g.ring, (1,) + g.coeffs[2:] + (0,))
    assert mul(h, inv_unit(h)) == UnitSeries.one(g.ring, g.trunc)
