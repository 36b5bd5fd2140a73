"""Series kernels: pinned values, ring axioms, and the coefficient identities."""

import itertools
import math
import random

import pytest

from riordan import (
    ZZ,
    CoeffRing,
    NottSeries,
    TruncSeries,
    UnitSeries,
    comp_inverse,
    compose,
    format_series,
    inv_unit,
    mul,
    parse_series,
    poly_str,
    twist,
)
from riordan import RiordanElem, rmul, series, to_matrix
from riordan.series import (
    _MR_LIMIT,
    _NEWTON_MIN_N,
    _compose,
    _inv_unit_coeffs,
    _is_prime,
    _mul_coeffs,
    _pack,
    _powers,
    _reversion,
    _slot_size,
    _spack,
    _sunpack,
    _unpack,
)
from util import (
    horner_compose,
    inv_unit_by_loop,
    mul_coeffs_by_loops,
    powers_by_loops,
    rand_nott,
    rand_series,
    rand_unit,
    reversion_by_degree,
    reversion_online,
)

F2 = CoeffRing(2)
F3 = CoeffRing(3)
F5 = CoeffRing(5)

RINGS = (F2, F3, F5, ZZ)


def ts(ring, *coeffs):
    return TruncSeries(ring, coeffs)


def add_series(a, b):
    # Coefficientwise sum; the library keeps addition out of the public API,
    # so distributivity is checked against this oracle-side construction.
    return TruncSeries(a.ring, tuple(a.ring.reduce(x + y) for x, y in zip(a.coeffs, b.coeffs)))


def test_ring_construction():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            CoeffRing(bad)
    assert CoeffRing(2).p == 2
    assert ZZ.p is None
    assert CoeffRing(7).is_field
    assert not ZZ.is_field
    assert CoeffRing(5).reduce(-3) == 2
    assert ZZ.reduce(-3) == -3


def test_primality_matches_sympy():
    isprime = pytest.importorskip("sympy").isprime
    for n in range(20001):
        assert _is_prime(n) == isprime(n), n
    rng = random.Random(83)
    near = [10**20 + rng.randrange(-10**6, 10**6) for _ in range(2000)]
    for n in near + [1000003, 1000000000000000003]:
        assert _is_prime(n) == isprime(n), n
    assert any(_is_prime(n) for n in near)
    # strong pseudoprimes to the bases 2..7 and to 2..23
    for n in (3215031751, 3825123056546413051):
        assert not isprime(n) and not _is_prime(n)


def test_primality_refuses_past_the_miller_rabin_limit():
    for n in (_MR_LIMIT, _MR_LIMIT + 1, 10**30):
        with pytest.raises(ValueError, match=str(_MR_LIMIT)):
            CoeffRing(n)


def test_series_construction_reduces_canonically():
    s = TruncSeries(F5, (6, -1, 10))
    assert s.coeffs == (1, 4, 0)
    assert s.trunc == 2
    z = TruncSeries(ZZ, (6, -1, 10))
    assert z.coeffs == (6, -1, 10)


def test_wrapper_invariants():
    with pytest.raises(ValueError):
        UnitSeries(F3, (2, 1))
    with pytest.raises(ValueError):
        UnitSeries(F3, ())
    with pytest.raises(ValueError):
        NottSeries(F3, (1, 1))
    with pytest.raises(ValueError):
        NottSeries(F3, (0, 2))
    u = ts(F3, 1, 2, 0).as_unit()
    assert isinstance(u, UnitSeries)
    with pytest.raises(ValueError):
        ts(F3, 0, 2, 0).as_nott()


def test_level_and_membership():
    u = UnitSeries(F3, (1, 0, 0, 1, 0))
    assert u.level() == 3
    assert [u.in_level(k) for k in (1, 2, 3, 4)] == [True, True, True, False]
    assert UnitSeries.one(F3, 4).level() is None
    g = NottSeries(F3, (0, 1, 0, 0, 1, 0))
    assert g.level() == 3
    assert [g.in_level(k) for k in (1, 2, 3, 4)] == [True, True, True, False]
    assert NottSeries.identity(F3, 5).level() is None


def test_coeff_access():
    s = ts(ZZ, 1, 0, 3)
    assert s.coeff(2) == 3
    assert s.coeff(0) == 1
    with pytest.raises(IndexError):
        s.coeff(3)


def test_mul_pins():
    assert mul(ts(ZZ, 1, 1, 0, 0, 0), ts(ZZ, 1, -1, 0, 0, 0)).coeffs == (1, 0, -1, 0, 0)
    ones = ts(ZZ, 1, 1, 1, 1, 1, 1)
    assert mul(ts(ZZ, 1, 1, 0, 0, 0, 0), ones).coeffs == (1, 2, 2, 2, 2, 2)
    rng = random.Random(1)
    for ring in RINGS:
        h = rand_series(rng, ring, 9)
        one = TruncSeries(ring, (1,) + (0,) * 9)
        assert mul(h, one) == h


def test_mul_requires_matching_ring_and_trunc():
    with pytest.raises(ValueError):
        mul(ts(F3, 1, 1), ts(F5, 1, 1))
    with pytest.raises(ValueError):
        mul(ts(F3, 1, 1), ts(F3, 1, 1, 0))


def test_ring_axioms_random():
    rng = random.Random(2)
    for ring in RINGS:
        for trunc in (5, 12, 24):
            for _ in range(12):
                a = rand_series(rng, ring, trunc)
                b = rand_series(rng, ring, trunc)
                c = rand_series(rng, ring, trunc)
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, b) == mul(b, a)
                assert mul(a, add_series(b, c)) == add_series(mul(a, b), mul(a, c))


def test_inv_unit_pins():
    geo = inv_unit(UnitSeries(ZZ, (1, 1, 0, 0, 0, 0, 0)))
    assert geo.coeffs == (1, -1, 1, -1, 1, -1, 1)
    assert inv_unit(UnitSeries.one(F3, 5)) == UnitSeries.one(F3, 5)
    v = inv_unit(UnitSeries(F5, (1, 0, 0, 2, 0, 0, 0, 0)))
    assert v.coeffs == (1, 0, 0, 3, 0, 0, 4, 0)


def test_inv_unit_properties():
    rng = random.Random(3)
    for ring in RINGS:
        for _ in range(10):
            h = rand_unit(rng, ring, 12)
            one = UnitSeries.one(ring, 12)
            assert mul(h, inv_unit(h)) == one
            assert inv_unit(inv_unit(h)) == h
    # depth is preserved and the leading coefficient flips sign
    for ring in (F3, F5, ZZ):
        for n in (2, 3, 5):
            h = rand_unit(rng, ring, 12, n=n, exact=True)
            v = inv_unit(h)
            assert v.in_level(n)
            assert v.coeff(n) == ring.reduce(-h.coeff(n))


def test_compose_pins():
    # binomial collapse mod 3: only C(3,0) and C(3,3) survive
    f = ts(F3, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0)
    g = NottSeries(F3, (0, 1, 0, 1, 0, 0, 0, 0, 0, 0))
    assert compose(f, g).coeffs == (1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
    # generic binomial family: (1+x^i) o (x+x^(j+1)) = 1 + sum C(i,n) x^(nj+i)
    for p, i, j in ((5, 3, 1), (3, 4, 2), (5, 6, 3)):
        ring = CoeffRing(p)
        trunc = i * (j + 1)
        fc = [0] * (trunc + 1)
        fc[0] = 1
        fc[i] = 1
        gc = [0] * (trunc + 1)
        gc[1] = 1
        gc[j + 1] = 1
        out = compose(TruncSeries(ring, tuple(fc)), NottSeries(ring, tuple(gc)))
        want = [0] * (trunc + 1)
        want[0] = 1
        for n in range(i + 1):
            want[n * j + i] += math.comb(i, n)
        assert out.coeffs == tuple(ring.reduce(w) for w in want)


def test_compose_identity_and_errors():
    rng = random.Random(4)
    for ring in RINGS:
        f = rand_series(rng, ring, 10)
        assert compose(f, NottSeries.identity(ring, 10)) == f
    with pytest.raises(ValueError):
        compose(ts(F3, 1, 1, 0), ts(F3, 1, 1, 0))
    with pytest.raises(ValueError):
        compose(ts(F3, 1, 1), NottSeries(F5, (0, 1)))


def test_compose_is_multiplicative_and_associative():
    rng = random.Random(5)
    for ring, trunc in ((F3, 14), (F5, 14), (ZZ, 10)):
        for _ in range(8):
            f1 = rand_series(rng, ring, trunc)
            f2 = rand_series(rng, ring, trunc)
            g = rand_nott(rng, ring, trunc)
            k = rand_nott(rng, ring, trunc)
            assert compose(mul(f1, f2), g) == mul(compose(f1, g), compose(f2, g))
            assert compose(compose(f1, g), k) == compose(f1, compose(g, k))


def test_comp_inverse_pins():
    assert comp_inverse(NottSeries.identity(F3, 6)) == NottSeries.identity(F3, 6)
    cat = comp_inverse(NottSeries(ZZ, (0, 1, 1, 0, 0, 0, 0, 0, 0)))
    # signed Catalan numbers solve (x+x^2)^(-1)
    assert cat.coeffs == (0, 1, -1, 2, -5, 14, -42, 132, -429)


def test_comp_inverse_defining_property():
    rng = random.Random(6)
    for _ in range(30):
        g = rand_nott(rng, F3, 16)
        gid = NottSeries.identity(F3, 16)
        assert compose(g, comp_inverse(g)) == gid
        assert compose(comp_inverse(g), g) == gid
    for _ in range(10):
        g = rand_nott(rng, ZZ, 8)
        gid = NottSeries.identity(ZZ, 8)
        assert compose(g, comp_inverse(g)) == gid
        assert compose(comp_inverse(g), g) == gid


def test_kernels_match_brute_force_references():
    rng = random.Random(60)
    for ring in (F3, F5, ZZ):
        mod = ring.p
        for trunc in (1, 2, 5, 12, 24, 48):
            f = rand_series(rng, ring, trunc).coeffs
            g = rand_nott(rng, ring, trunc).coeffs
            # any g with zero constant term substitutes, not only x + ...
            g0 = (0,) + rand_series(rng, ring, trunc).coeffs[1:]
            for sub in (g, g0):
                assert _compose([f], sub, mod) == [horner_compose(f, sub, mod)]
            r, fr = _reversion(g, f, mod)
            assert r == reversion_by_degree(g, mod)
            assert fr == horner_compose(f, r, mod)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_kernels_match_sympy_ring_series(p):
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    from sympy import GF
    from sympy.polys.rings import ring as poly_ring

    R, x = poly_ring("x", GF(p))
    ring = CoeffRing(p)
    rng = random.Random(70 + p)

    def poly(s):
        return sum((c * x**i for i, c in enumerate(s.coeffs)), R.zero)

    def coeffs(q, trunc):
        got = {m[0]: int(c) % p for m, c in q.items()}
        return tuple(got.get(i, 0) for i in range(trunc + 1))

    for trunc in (3, 12, 24):
        f = rand_series(rng, ring, trunc)
        g = rand_nott(rng, ring, trunc)
        want = ring_series.rs_series_reversion(poly(g), x, trunc + 1, x)
        assert comp_inverse(g).coeffs == coeffs(want, trunc)
        want = ring_series.rs_subs(poly(f), {x: poly(g)}, x, trunc + 1)
        assert compose(f, g).coeffs == coeffs(want, trunc)


# The packed F_p kernels against the coefficient loops they replaced, kept in
# tests/util.py.  All-(p-1) operands fill every product slot to its bound.

def _residues(rng, mod, n):
    if mod is None:
        return tuple(rng.randrange(-9, 10) for _ in range(n))
    return tuple(rng.randrange(mod) for _ in range(n))


def _check_kernels(rng, mod, n):
    top = (mod - 1,) * n if mod is not None else (-9,) * n
    for a, b in ((_residues(rng, mod, n), _residues(rng, mod, n)), (top, top)):
        assert _mul_coeffs(a, b, mod) == mul_coeffs_by_loops(a, b, mod), (mod, n)
        g = (0,) + b[1:]
        assert _powers(g, mod) == powers_by_loops(g, mod), (mod, n)
        assert _powers(g, mod, first=a) == powers_by_loops(g, mod, first=a), (mod, n)
        # two fs share the baby steps of g, and f = 0 gives 0
        fa = horner_compose(a, g, mod)
        fb = fa if b == a else horner_compose(b, g, mod)
        assert _compose([a, b, (0,) * n], g, mod) == [fa, fb, (0,) * n], (mod, n)
        unit = (1,) + b[1:]
        assert _inv_unit_coeffs(unit, mod) == inv_unit_by_loop(unit, mod), (mod, n)
        if n >= 2:
            g = (0, 1) + b[2:]
            r = reversion_online(g, mod)[1]
            assert _reversion(g, a, mod) == (r, horner_compose(a, r, mod)), (mod, n)


@pytest.mark.parametrize("mod", (2, 3, 5, 7, 65537, 10**6 + 3, 10**18 + 3, None))
def test_packed_kernels_match_the_loops(mod):
    rng = random.Random(1400 + (mod or 0) % 997)
    for n in range(1, 131):
        a, b = _residues(rng, mod, n), _residues(rng, mod, n)
        assert _mul_coeffs(a, b, mod) == mul_coeffs_by_loops(a, b, mod), n
    # every length up to past the Newton crossover at 24, then a few long ones
    lengths = list(range(1, 41)) + [64, 97, 130]
    for n in lengths if mod is not None else lengths[:-2]:
        _check_kernels(rng, mod, n)


def _inverse_draws(rng, mod, n):
    # (coefficient row, lengths to check): random and all p - 1 (over Z all
    # -9) at every length, and over Z two rows with magnitudes near 10^6 at
    # the lengths around the Newton crossover and three long ones.
    every, some = range(1, n + 1), list(range(1, 41)) + [64, 97, n]
    yield _residues(rng, mod, n), every
    yield ((mod - 1,) * n if mod is not None else (-9,) * n), every
    if mod is None:
        yield tuple(rng.choice((-1, 1)) * (10**6 - rng.randrange(10)) for _ in range(n)), some
        yield (10**6,) * n, some


@pytest.mark.parametrize("mod", (2, 3, 5, 65537, 10**6 + 3, 10**18 + 3, None))
def test_inverse_kernels_match_the_loops_at_every_length(mod):
    # Both inverses and f(r) commute with truncation, so the loop references
    # at length 130 give the answer at every shorter length, on both sides of
    # each Newton crossover.  As in the group inverse, f = 1/h.  f(r) is
    # sum_j f_j r^j off the loop's power table, which equals
    # horner_compose(f, r) and over Z takes milliseconds where Horner takes
    # seconds on the rows near 10^6.  Over F_2 and F_3 the derivatives in the
    # reversion's step lose every term k a_k with p | k.
    rng = random.Random(2200 + (mod or 0) % 997)
    n = 130
    for cs, lengths in _inverse_draws(rng, mod, n):
        g, unit = (0, 1) + cs[2:], (1,) + cs[1:]
        pw, c = reversion_online(g, mod), inv_unit_by_loop(unit, mod)
        r = pw[1]
        fr = tuple(sum(c[j] * pw[j][k] for j in range(k + 1)) for k in range(n))
        fr = fr if mod is None else tuple(v % mod for v in fr)
        for k in lengths:
            assert _inv_unit_coeffs(unit[:k], mod) == c[:k], (mod, k)
            if k >= 2:
                assert _reversion(g[:k], None, mod) == (r[:k], None), (mod, k)
                assert _reversion(g[:k], c[:k], mod) == (r[:k], fr[:k]), (mod, k)


def _slot_edges(bits):
    # (p, n, inside): for n = 20 and 40, the largest prime p with
    # n (p-1)^2 < 2^bits and the least prime past it; at that p, the longest
    # n inside the limit and the next n.  The Fermat primes 257 and 65537 hit
    # the limit exactly at n = 1.
    limit = 1 << bits
    edges = [(p, 1, False) for p in (257, 65537) if (p - 1) ** 2 == limit]
    for n in (20, 40):
        q = math.isqrt((limit - 1) // n) + 1
        p_in = next(p for p in range(q, 1, -1) if _is_prime(p))
        p_out = next(p for p in itertools.count(q + 1) if _is_prime(p))
        n_max = (limit - 1) // (p_in - 1) ** 2
        edges += [(p_in, n, True), (p_out, n, False), (p_in, n_max, True), (p_in, n_max + 1, False)]
    return edges


@pytest.mark.parametrize("bits", (16, 32, 64))
def test_packed_kernels_at_the_slot_limits(bits):
    rng = random.Random(bits)
    for p, n, inside in _slot_edges(bits):
        assert (n * (p - 1) ** 2 < 1 << bits) == inside
        size = _slot_size((n * (p - 1) ** 2).bit_length())
        if inside:
            assert size * 8 == bits
        else:
            # one bit past the limit: the next array slot, or past 8 bytes
            # the least whole-byte slot, read by slices
            assert size == {16: 4, 32: 8, 64: 9}[bits]
        _check_kernels(rng, p, n)


def _horner_by_products(f, g, mod):
    # f(g) by Horner's rule on the packed product: one product per coefficient.
    out = (0,) * len(g)
    for c in reversed(f):
        out = _mul_coeffs(out, g, mod)
        out = ((out[0] + c) % mod,) + out[1:]
    return out


@pytest.mark.parametrize("mod", (2, 3, 5, 65537, 10**6 + 3, 10**18 + 3))
def test_fp_substitutions_at_long_lengths(mod):
    # Past n = 256 at p = 65537 an unreduced baby step overflows its 8-byte
    # slot in the next product, which no length up to 130 shows.
    rng = random.Random(2100 + mod % 997)
    n = 300
    top = (mod - 1,) * n
    f, g = _residues(rng, mod, n), (0,) + _residues(rng, mod, n)[1:]
    for sub in (g, (0,) + top[1:]):
        want = [_horner_by_products(f, sub, mod), _horner_by_products(top, sub, mod)]
        assert _compose([f, top], sub, mod) == want
    # the Newton kernels; the reversion loop would take seconds here
    for g in ((0, 1) + g[2:], (0, 1) + top[2:]):
        r, fr = _reversion(g, top, mod)
        assert _horner_by_products(g, r, mod) == (0, 1) + (0,) * (n - 2)
        assert fr == _horner_by_products(top, r, mod)
        unit = (1,) + g[1:]
        assert _inv_unit_coeffs(unit, mod) == inv_unit_by_loop(unit, mod)


def _without_array_codes(monkeypatch):
    # A host with no array code for a slot, as on a big-endian one, whose
    # array items are not little-endian slots: every slot is read by slices.
    monkeypatch.setattr(series, "_UNSIGNED_CODES", {})
    monkeypatch.setattr(series, "_SIGNED_CODES", {})


def test_newton_steps_start_at_each_crossover(monkeypatch):
    # Both inverses take Newton steps from one length, whatever the ring, the
    # slot size or the host's array codes.  Each Newton step of the reversion
    # composes once at its length, g and f in one call, so the compositions
    # are the same with or without f; the step corrects r, and f(r) when f is
    # given, by one product each.  Each step of the unit inverse takes two
    # products.
    assert _NEWTON_MIN_N == 24
    composed, multiplied = [], []
    compose_, mul_ = series._compose, series._mul_coeffs

    def recording_compose(fs, g, mod):
        composed.append(len(g))
        return compose_(fs, g, mod)

    def recording_mul(a, b, mod):
        multiplied.append(len(a))
        return mul_(a, b, mod)

    monkeypatch.setattr(series, "_compose", recording_compose)
    monkeypatch.setattr(series, "_mul_coeffs", recording_mul)
    # n: (lengths composed, product lengths without f, with f)
    steps = {
        2: ([], [], []),
        23: ([], [], []),
        24: ([24], [11], [11, 11]),
        25: ([25], [12], [12, 12]),
        31: ([31], [15], [15, 15]),
        32: ([32], [15], [15, 15]),
        33: ([33], [16], [16, 16]),
        64: ([33, 64], [16, 31], [16, 31, 31]),
    }
    # n: the unit inverse's product lengths
    products = {24: [24, 12], 25: [25, 12], 31: [31, 15], 32: [32, 16], 33: [33, 16], 64: [32, 16, 64, 32]}
    for arrays in (True, False):
        if not arrays:
            _without_array_codes(monkeypatch)
        for n, (lengths, bare, with_f) in steps.items():
            for mod in (3, 10**18 + 3, None):
                g, f = (0, 1) + (1,) * (n - 2), (2,) * n
                r = reversion_online(g, mod)[1]
                composed.clear()
                multiplied.clear()
                assert _reversion(g, f, mod) == (r, horner_compose(f, r, mod))
                assert (composed, multiplied) == (lengths, with_f), (arrays, mod, n)
                composed.clear()
                multiplied.clear()
                assert _reversion(g, None, mod) == (r, None)
                assert (composed, multiplied) == (lengths, bare), (arrays, mod, n)
                unit = (1,) + g[1:]
                multiplied.clear()
                assert _inv_unit_coeffs(unit, mod) == inv_unit_by_loop(unit, mod)
                assert multiplied == products.get(n, []), (arrays, mod, n)


@pytest.mark.parametrize("mod", (2, 3, 5, None))
def test_kernels_without_array_codes_match_the_loops(monkeypatch, mod):
    _without_array_codes(monkeypatch)
    rng = random.Random(1900 + (mod or 0))
    # from 24 the inverses take Newton steps on the sliced codec
    for n in list(range(1, 18)) + [24, 32, 33, 64, 97]:
        _check_kernels(rng, mod, n)
        f, g = _residues(rng, mod, n), (0,) + _residues(rng, mod, n)[1:]
        assert _compose([f], g, mod) == [horner_compose(f, g, mod)], (mod, n)


@pytest.mark.parametrize("arrays", (True, False))
def test_codecs_round_trip_at_the_extremes(monkeypatch, arrays):
    if not arrays:
        _without_array_codes(monkeypatch)
    for size in (2, 4, 8, 9, 16, 17):
        top = (1 << 8 * size) - 1
        cs = (0, top, 1, top - 1, 0, top)
        v = _pack(cs, size)
        assert v == sum(c << 8 * size * k for k, c in enumerate(cs)), size
        # reduction mod 2^(8 size) leaves every slot as it is
        assert _unpack(v, len(cs), size, top + 1) == cs, size
        half = (1 << 8 * size - 1) - 1
        cs = (0, half, -half, -1, 1, -half, half, 0)
        v = _spack(cs, size)
        assert v == sum(c << 8 * size * k for k, c in enumerate(cs)), size
        assert _sunpack(v, len(cs), size) == cs, size


# Over Z the packed kernels against the same loops, with slots sized from
# the operands: magnitudes 0 to 10^30, all signs, and the substitutions whose
# width bound is special (f = 0, f constant, g = x, g negative past x).

_MAGNITUDES = (0, 1, 2, 9, 10**30)


def _z_draws(rng, n):
    # (name, coefficients) for each magnitude, with signs mixed and all
    # negative, and one draw mixing every magnitude.
    for mag in _MAGNITUDES:
        yield f"{mag}", tuple(rng.randint(-mag, mag) for _ in range(n))
        yield f"-{mag}", (-mag,) * n
    yield "mixed", tuple(rng.choice((-1, 1)) * rng.choice(_MAGNITUDES) for _ in range(n))


def _z_substitutions(n, cs):
    # g with zero constant term built from cs: as drawn, x + cs past x, x,
    # and x minus |cs| past x.
    yield (0,) + cs[1:]
    if n >= 2:
        yield (0, 1) + cs[2:]
        yield (0, 1) + (0,) * (n - 2)
        yield (0, 1) + tuple(-abs(c) or -1 for c in cs[2:])


def test_z_products_match_the_loops():
    rng = random.Random(1500)
    for n in range(1, 131):
        draws = dict(_z_draws(rng, n))
        for name, a in draws.items():
            b = draws[rng.choice(list(draws))]
            assert _mul_coeffs(a, b, None) == mul_coeffs_by_loops(a, b, None), (n, name)
            assert _mul_coeffs(a, a, None) == mul_coeffs_by_loops(a, a, None), (n, name)


def _check_z_substitutions(rng, n):
    draws = dict(_z_draws(rng, n))
    fs = [(0,) * n, (rng.choice((-1, 1)) * 10**30,) + (0,) * (n - 1), (7,) + (0,) * (n - 1)]
    for name, cs in draws.items():
        f = draws[rng.choice(list(draws))]
        for g in _z_substitutions(n, cs):
            for h in fs + [f]:
                assert _compose([h], g, None) == [horner_compose(h, g, None)], (n, name, g)
            want = powers_by_loops(g, None, first=f)
            assert _powers(g, None, first=f) == want, (n, name)
            if n < 2 or g[1] != 1:
                continue
            # the group kernels on (h, g) pairs: h from f with constant term 1
            hf = (1,) + f[1:]
            a = RiordanElem(UnitSeries(ZZ, hf), NottSeries(ZZ, g))
            b = RiordanElem(UnitSeries(ZZ, (1,) + cs[1:]), NottSeries(ZZ, (0, 1) + f[2:]))
            ab = rmul(a, b)
            assert ab.h.coeffs == mul_coeffs_by_loops(hf, horner_compose(b.h.coeffs, g, None), None)
            assert ab.g.coeffs == horner_compose(b.g.coeffs, g, None)
            # twist(h, g) * h = h(g), so the check needs no inverse
            tw = twist(a.h, a.g).coeffs
            assert mul_coeffs_by_loops(tw, hf, None) == horner_compose(hf, g, None), (n, name)
            cols = powers_by_loops(g, None, first=hf)
            assert to_matrix(a, n).entries == tuple(zip(*cols)), (n, name)


def test_z_substitutions_match_the_loops():
    rng = random.Random(1501)
    for n in list(range(1, 17)) + [20, 24, 32]:
        _check_z_substitutions(rng, n)


def test_z_substitutions_match_the_loops_at_long_lengths():
    rng = random.Random(1502)
    for n in (97, 130):
        draws = dict(_z_draws(rng, n))
        for name in ("9", "-9", "mixed"):
            f, g = draws[name], (0, 1) + draws["-2"][2:]
            assert _compose([f, (0,) * n], g, None) == [horner_compose(f, g, None), (0,) * n], (n, name)
            assert _powers(g, None, first=f) == powers_by_loops(g, None, first=f), (n, name)


def test_z_inverses_at_length_300():
    # Horner's rule on packed Z products takes about 25 s per check here, so
    # g(r) = x and f(r)(g) = f are checked with _compose, which the tests
    # above hold to Horner's rule at lengths up to 130.  With magnitudes near
    # 10^6 the reversion alone takes about 10 s at this length, so those
    # operands check only the unit inverse.
    rng = random.Random(1503)
    n = 300
    cs = tuple(rng.randrange(-9, 10) for _ in range(n))
    near = tuple(rng.choice((-1, 1)) * (10**6 - rng.randrange(10)) for _ in range(n))
    for row in (cs, near):
        unit = (1,) + row[1:]
        assert _inv_unit_coeffs(unit, None) == inv_unit_by_loop(unit, None)
    g, f = (0, 1) + cs[2:], (1,) + cs[1:]
    r, fr = _reversion(g, f, None)
    assert _compose([g], r, None) == [(0, 1) + (0,) * (n - 2)]
    assert _compose([fr], g, None) == [f]


def test_z_composition_width_is_what_keeps_it_exact(monkeypatch):
    # f = M (x + x^2 + ...) and g = x + x^2 + ... give f(g) = M x / (1 - 2x),
    # whose top coefficient M 2^(n-2) is within bits(n) + 3 bits of the
    # bound, so a slot two bytes narrower cannot hold it.
    n, M = 64, 10**30
    f, g = (0,) + (M,) * (n - 1), (0,) + (1,) * (n - 1)
    want = horner_compose(f, g, None)
    width = series._compose_width([f], g)
    assert width - max(want).bit_length() <= n.bit_length() + 3
    assert _compose([f], g, None) == [want]
    monkeypatch.setattr(series, "_compose_width", lambda fs, g: width - 16)
    assert _compose([f], g, None) != [want]


def test_truncation_coherence():
    rng = random.Random(7)
    for ring in (F3, F5, ZZ):
        for _ in range(6):
            a = rand_series(rng, ring, 14)
            b = rand_series(rng, ring, 14)
            h = rand_unit(rng, ring, 14)
            g = rand_nott(rng, ring, 14)
            k = rand_nott(rng, ring, 14)
            for m in (3, 9, 14):
                assert mul(a, b).project(m) == mul(a.project(m), b.project(m))
                assert inv_unit(h).project(m) == inv_unit(h.project(m))
                assert compose(a, g).project(m) == compose(a.project(m), g.project(m))
                assert comp_inverse(k).project(m) == comp_inverse(k.project(m))
    with pytest.raises(ValueError):
        rand_series(rng, F3, 4).project(9)


def test_substitution_coefficient_window():
    # h in H^n, g in N^(m-1): h(g) keeps the coefficients of h strictly below
    # degree m+n-1 and picks up n*a_n*b_m exactly there.
    rng = random.Random(8)
    trunc = 20
    for ring in (F3, F5):
        for _ in range(40):
            n = rng.randrange(1, 5)
            m = rng.randrange(2, 6)
            h = rand_unit(rng, ring, trunc, n=n, exact=True)
            g = rand_nott(rng, ring, trunc, n=m - 1, exact=True)
            hg = compose(h, g)
            for k in range(n, m + n - 1):
                assert hg.coeff(k) == h.coeff(k)
            want = ring.reduce(n * h.coeff(n) * g.coeff(m) + h.coeff(m + n - 1))
            assert hg.coeff(m + n - 1) == want


def test_twist_pins():
    h = UnitSeries(F3, (1, 1, 2, 0))
    assert twist(h, NottSeries.identity(F3, 3)).coeffs == (1, 0, 0, 0)
    t = twist(UnitSeries(F5, (1, 0, 1, 0, 0, 0, 0, 0, 0)), NottSeries(F5, (0, 1, 0, 1, 0, 0, 0, 0, 0)))
    assert t.coeffs[1:4] == (0, 0, 0)
    assert t.coeff(4) == 2  # n*a_n*b_m = 2*1*1


def test_twist_kills_p_divisible_depth():
    # n = p makes the leading commutator coefficient n*a_n*b_m vanish mod p
    for m in (2, 4):
        trunc = m + 6
        hc = [0] * (trunc + 1)
        hc[0] = 1
        hc[3] = 1
        gc = [0] * (trunc + 1)
        gc[1] = 1
        gc[m] = 1
        t = twist(UnitSeries(F3, tuple(hc)), NottSeries(F3, tuple(gc)))
        assert t.coeff(m + 2) == 0
        assert t.in_level(m + 3)


def test_twist_depth_is_sharp():
    rng = random.Random(9)
    trunc = 20
    for ring in (F3, F5):
        p = ring.p
        for _ in range(40):
            n = rng.randrange(1, 5)
            m = rng.randrange(2, 6)
            h = rand_unit(rng, ring, trunc, n=n, exact=True)
            g = rand_nott(rng, ring, trunc, n=m - 1, exact=True)
            t = twist(h, g)
            for k in range(1, m + n - 1):
                assert t.coeff(k) == 0
            lead = n * h.coeff(n) * g.coeff(m)
            assert t.coeff(m + n - 1) == ring.reduce(lead)
            assert t.in_level(m + n - 1)
            assert t.in_level(m + n) == (lead % p == 0)


def test_unit_subgroup_generator_identities():
    # the two displayed factorizations behind finite generation of the unit part
    trunc = 12
    for a1 in range(-6, 7):
        lhs = UnitSeries(ZZ, (1, a1 + 1) + (0,) * (trunc - 1))
        alt = UnitSeries(ZZ, tuple([1] + [a1 * (-1) ** (k + 1) for k in range(1, trunc + 1)]))
        assert mul(UnitSeries(ZZ, (1, 1) + (0,) * (trunc - 1)), alt) == lhs
        geom = UnitSeries(ZZ, tuple(a1**k for k in range(trunc + 1)))
        assert inv_unit(geom) == UnitSeries(ZZ, (1, -a1) + (0,) * (trunc - 1))


def test_parse_format_round_trip():
    rng = random.Random(10)
    for ring in RINGS:
        for _ in range(8):
            s = rand_series(rng, ring, rng.randrange(0, 9))
            assert parse_series(format_series(s)) == s
    s = parse_series("ring=Z; trunc=3; coeffs=1,-5,0,14")
    assert format_series(s) == "ring=Z; trunc=3; coeffs=1,-5,0,14"
    assert poly_str(s) == "1 - 5*x + 14*x^3"
    assert poly_str(ts(F3, 1, 0, 0)) == "1"
    assert poly_str(ts(F3, 0, 0)) == "0"


def test_parse_rejects_malformed_literals():
    bad = (
        "ring=Fp:3; trunc=2; coeffs=1,2",          # wrong arity
        "ring=Fp:3; trunc=2; coeffs=1,-1,0",       # negative outside Z
        "ring=Fp:4; trunc=1; coeffs=1,2",          # composite modulus
        "trunc=1; coeffs=1,2",                     # missing field
        "ring=Z; trunc=1; coeffs=1,2; coeffs=1,2", # duplicate field
        "ring=Z; trunc=1; coeffs=1,x",             # junk coefficient
        "ring=Z; trunc=2; coeffs=1,١,0",           # non-ASCII digit
        "ring=Fp:٣; trunc=1; coeffs=1,2",          # non-ASCII modulus
        "ring=Z; trunc=٢; coeffs=1,2,0",           # non-ASCII truncation
        "ring=Z; trunc=1; coeffs=+1,2",            # plus sign
        "ring=Z; trunc=1; coeffs=1,0_2",           # underscore
        "ring=Z; trunc=1_0; coeffs=1,2",           # underscore in the truncation
        "ring=Z; trunc=-1; coeffs=1",              # negative truncation
    )
    for line in bad:
        with pytest.raises(ValueError):
            parse_series(line)
