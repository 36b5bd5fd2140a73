"""Group law, matrix representation, and subgroup-band tests."""

import math
import random

import pytest

from riordan import (
    ZZ,
    CoeffRing,
    NottSeries,
    RiordanElem,
    RiordanMatrix,
    UnitSeries,
    band_membership,
    comp_inverse,
    compose,
    conj_in_subgroup,
    format_riordan,
    inv_unit,
    matrix_band_zero,
    parse_riordan,
    rinv,
    rmul,
    to_matrix,
)
from util import powers_by_loops, rand_elem, rand_nott, rand_unit

F2 = CoeffRing(2)
F3 = CoeffRing(3)
F5 = CoeffRing(5)


def test_rmul_pin():
    a = RiordanElem(UnitSeries(F3, (1, 1, 0, 0, 0)), NottSeries(F3, (0, 1, 1, 0, 0)))
    sq = rmul(a, a)
    assert sq.h.coeffs == (1, 2, 2, 1, 0)
    assert sq.g.coeffs == (0, 1, 2, 2, 1)


def test_rmul_specializations():
    rng = random.Random(11)
    for _ in range(10):
        h1 = rand_unit(rng, F5, 8)
        h2 = rand_unit(rng, F5, 8)
        g1 = rand_nott(rng, F5, 8)
        x = NottSeries.identity(F5, 8)
        one = UnitSeries.one(F5, 8)
        # (1, g1) * (h2, x) substitutes g1 into h2 and keeps g1
        prod = rmul(RiordanElem(one, g1), RiordanElem(h2, x))
        assert prod.g == g1
        assert prod.h.coeffs == compose(h2, g1).coeffs
        # the unit part embeds: (h, x) * (h', x) = (h h', x)
        both = rmul(RiordanElem(h1, x), RiordanElem(h2, x))
        assert both.g == x
        assert both.h.coeff(1) == F5.reduce(h1.coeff(1) + h2.coeff(1))


def test_group_axioms_random():
    rng = random.Random(12)
    for ring in (F2, F3, F5, ZZ):
        for _ in range(10):
            a = rand_elem(rng, ring, 10)
            b = rand_elem(rng, ring, 10)
            c = rand_elem(rng, ring, 10)
            e = RiordanElem.identity(ring, 10)
            assert rmul(rmul(a, b), c) == rmul(a, rmul(b, c))
            assert rmul(a, e) == a
            assert rmul(e, a) == a
            assert rmul(a, rinv(a)) == e
            assert rmul(rinv(a), a) == e
            assert rinv(rinv(a)) == a


def test_rinv_round_trip_at_high_truncation():
    rng = random.Random(96)
    a = rand_elem(rng, F5, 96)
    e = RiordanElem.identity(F5, 96)
    assert rmul(a, rinv(a)) == e
    assert rmul(rinv(a), a) == e


def test_rinv_components():
    rng = random.Random(13)
    h = rand_unit(rng, F3, 9)
    g = rand_nott(rng, F3, 9)
    x = NottSeries.identity(F3, 9)
    one = UnitSeries.one(F3, 9)
    assert rinv(RiordanElem(h, x)) == RiordanElem(inv_unit(h), x)
    assert rinv(RiordanElem(one, g)) == RiordanElem(one, comp_inverse(g))
    e = RiordanElem.identity(F3, 9)
    assert rinv(e) == e


def test_elem_construction_and_levels():
    with pytest.raises(ValueError):
        RiordanElem(UnitSeries(F3, (1, 0)), NottSeries(F5, (0, 1)))
    with pytest.raises(ValueError):
        RiordanElem(UnitSeries(F3, (1, 0)), NottSeries(F3, (0, 1, 0)))
    a = RiordanElem(UnitSeries(F3, (1, 0, 1, 0)), NottSeries(F3, (0, 1, 0, 1)))
    assert a.in_levels(2, 2)
    assert not a.in_levels(3, 2)
    assert not a.in_levels(2, 3)


def test_to_matrix_identity_and_pascal():
    e = RiordanElem.identity(F3, 6)
    ident = to_matrix(e, 6)
    assert all(ident[i, j] == (1 if i == j else 0) for i in range(6) for j in range(6))
    # (1/(1-x), x/(1-x)) is the Pascal array
    for ring, size in ((F5, 8), (ZZ, 6)):
        geom = inv_unit(UnitSeries(ring, (1, -1) + (0,) * (size - 1)))
        g = NottSeries(ring, tuple(geom.coeffs[k - 1] if k else 0 for k in range(size + 1)))
        mat = to_matrix(RiordanElem(geom, g), size)
        for i in range(size):
            for j in range(size):
                assert mat[i, j] == ring.reduce(math.comb(i, j))


def test_to_matrix_columns_match_the_looped_power_table():
    # column j is row j of the power table of g started at h (its first= row)
    rng = random.Random(1414)
    for ring in (F2, F5, CoeffRing(65537), CoeffRing(10**6 + 3), CoeffRing(10**18 + 3), ZZ):
        a = rand_elem(rng, ring, 40)
        for m in (1, 2, 13, 32, 41):
            cols = powers_by_loops(a.g.coeffs[:m], ring.p, first=a.h.coeffs[:m])
            assert to_matrix(a, m).entries == tuple(zip(*cols)), (ring, m)


def test_to_matrix_is_a_homomorphism():
    rng = random.Random(14)
    for _ in range(60):
        a = rand_elem(rng, F3, 8)
        b = rand_elem(rng, F3, 8)
        assert to_matrix(rmul(a, b), 8) == to_matrix(a, 8) * to_matrix(b, 8)


def test_matrix_truncate_compatible():
    rng = random.Random(15)
    a = rand_elem(rng, F5, 9)
    assert to_matrix(a, 10).truncate(6) == to_matrix(a, 6)
    with pytest.raises(ValueError):
        to_matrix(a, 4).truncate(5)
    with pytest.raises(ValueError):
        to_matrix(a, 12)  # needs trunc >= 11


def test_matrix_separates_elements_at_matching_size():
    rng = random.Random(16)
    for _ in range(30):
        a = rand_elem(rng, F3, 6)
        b = rand_elem(rng, F3, 6)
        if a != b:
            assert to_matrix(a, 7) != to_matrix(b, 7)
    # a single top-degree disturbance in g is already visible
    a = RiordanElem.identity(F3, 6)
    gc = list(a.g.coeffs)
    gc[6] = 1
    b = RiordanElem(a.h, NottSeries(F3, tuple(gc)))
    assert to_matrix(a, 7) != to_matrix(b, 7)


def test_matrix_validation_and_csv():
    with pytest.raises(ValueError):
        RiordanMatrix(F3, ((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        RiordanMatrix(F3, ((1, 0), (0, 2)))
    mat = to_matrix(RiordanElem(UnitSeries(F3, (1, 1, 0)), NottSeries(F3, (0, 1, 1))), 3)
    assert mat.csv() == "1,0,0\n1,1,0\n0,2,1"
    with pytest.raises(ValueError):
        mat * to_matrix(RiordanElem.identity(F3, 4), 4)
    with pytest.raises(ValueError):
        mat * to_matrix(RiordanElem.identity(F5, 3), 3)


def test_band_membership_pins():
    e = RiordanElem.identity(F3, 8)
    for n in (1, 2, 5, 8):
        assert band_membership(e, n)
    a = RiordanElem(UnitSeries(F3, (1, 0, 1, 0)), NottSeries(F3, (0, 1, 0, 1)))
    assert band_membership(a, 2)
    assert not band_membership(a, 3)
    with pytest.raises(ValueError):
        band_membership(a, 5)


def test_band_series_and_matrix_routes_agree():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 7)
        a = rand_elem(rng, F3, 8)
        assert band_membership(a, n) == matrix_band_zero(to_matrix(a, n + 1), n)


def test_conj_in_subgroup():
    rng = random.Random(18)
    e = RiordanElem.identity(F3, 10)
    inner = rand_elem(rng, F3, 10, m=2, n=2)
    assert conj_in_subgroup(e, inner, 2, 2, 1, 1)
    for m1, n1, m2, n2 in ((3, 3, 2, 2), (2, 2, 1, 1)):
        for _ in range(40):
            outer = rand_elem(rng, F3, 10, m=m2, n=n2)
            inner = rand_elem(rng, F3, 10, m=m1, n=n1)
            assert conj_in_subgroup(outer, inner, m1, n1, m2, n2)
    with pytest.raises(ValueError):
        conj_in_subgroup(e, inner, 3, 1, 1, 1)  # m2 + n1 < m1
    with pytest.raises(ValueError):
        conj_in_subgroup(e, inner, 1, 1, 2, 2)  # m1 < m2


def test_sizes_and_levels_must_be_integers():
    # As in the series layer (coeff(2.5), project(2.5)), a size or a level
    # that is not an integer is refused instead of truncated or parsed.
    a = RiordanElem.identity(F3, 6)
    mat = to_matrix(a, 4)
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(TypeError):
            to_matrix(a, bad)
        with pytest.raises(TypeError):
            band_membership(a, bad)
        with pytest.raises(TypeError):
            matrix_band_zero(mat, bad)
        for k in range(4):
            levels = [1, 1, 1, 1]
            levels[k] = bad
            with pytest.raises(TypeError):
                conj_in_subgroup(a, a, *levels)
    assert band_membership(a, 2) and matrix_band_zero(mat, 3)
    assert conj_in_subgroup(a, a, 1, 1, 1, 1)


def test_unit_factor_is_normal():
    rng = random.Random(19)
    x = NottSeries.identity(F3, 9)
    for _ in range(20):
        a = RiordanElem(rand_unit(rng, F3, 9), x)
        b = RiordanElem(rand_unit(rng, F3, 9), x)
        assert rmul(a, b).g == x
        assert rinv(a).g == x
        r = rand_elem(rng, F3, 9)
        assert rmul(rmul(rinv(r), a), r).g == x


def test_parse_format_riordan():
    rng = random.Random(20)
    for ring in (F3, ZZ):
        a = rand_elem(rng, ring, 6)
        assert parse_riordan(format_riordan(a)) == a
    text = "riordan\nring=Fp:3; trunc=2; coeffs=1,1,0\nring=Fp:3; trunc=2; coeffs=0,1,1"
    a = parse_riordan(text)
    assert format_riordan(a) == text
    with pytest.raises(ValueError):
        parse_riordan("ring=Fp:3; trunc=2; coeffs=1,1,0\nring=Fp:3; trunc=2; coeffs=0,1,1")
    with pytest.raises(ValueError):
        parse_riordan("riordan\nring=Fp:3; trunc=2; coeffs=1,1,0")
    with pytest.raises(ValueError):
        parse_riordan("riordan\nring=Fp:3; trunc=2; coeffs=0,1,1\nring=Fp:3; trunc=2; coeffs=0,1,1")
