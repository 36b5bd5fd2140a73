"""Index sets, admissibility, densities, and the dimension machinery."""

import math
import random
from bisect import bisect_left
from fractions import Fraction as Fr

import pytest

from riordan import (
    CapExceededError,
    ClassificationError,
    FiltrationSpec,
    IndexSet,
    Jxi,
    W_value,
    admissible_check,
    binom_mod_p,
    classify_pair,
    density,
    density_convergence,
    format_index_set,
    group_closure_crosscheck,
    hausdorff_dim,
    max_elements,
    parse_index_set,
    spectrum_sample,
    sumset_closed,
    verify_violation,
    w_value,
)
from riordan import index_sets
from riordan.index_sets import sumset_certification_bound
from util import (
    W_by_fractions,
    admissibility_by_brute,
    admissible_check_by_walk,
    canonical_form_by_scan,
    combine_by_scan,
    density_curve_by_scan,
    dominated_ns_by_product,
    reversal_scan,
    sumset_by_pairs,
    sumset_closed_unclamped,
)

N3 = IndexSet.multiples(3)
NAT = IndexSet.naturals()


def rand_index_set(rng):
    period = rng.randrange(1, 7)
    residues = tuple(r for r in range(period) if rng.random() < 0.4)
    threshold = rng.randrange(0, 9)
    exceptional = tuple(e for e in range(1, threshold) if rng.random() < 0.3)
    return IndexSet(threshold=threshold, exceptional=exceptional, period=period, residues=residues)


def brute_members(s, hi):
    return {k for k in range(1, hi + 1) if k in s}


def test_canonical_forms():
    assert IndexSet(period=6, residues=(0, 3)) == N3
    assert IndexSet.progression(2, 4) == IndexSet(period=4, residues=(2,))
    # periodic tail plus matching low members folds back to the pure set
    folded = IndexSet(threshold=7, exceptional=(3, 6), period=3, residues=(0,))
    assert folded == N3
    assert folded.threshold == 0 and folded.exceptional == ()
    fin = IndexSet.from_finite((2, 5))
    assert (fin.threshold, fin.exceptional, fin.period, fin.residues) == (6, (2, 5), 1, frozenset())
    assert fin.is_finite() and not fin.is_empty()
    assert IndexSet.empty().is_empty
    assert len({N3, IndexSet(period=6, residues=(0, 3))}) == 1
    with pytest.raises(AttributeError):
        N3.threshold = 9
    with pytest.raises(ValueError):
        IndexSet(period=0)
    with pytest.raises(ValueError):
        IndexSet(threshold=-1)


def rand_raw_fields(rng):
    """Raw constructor fields whose minimal period is often a proper divisor."""
    period = rng.choice((1, 2, 6, 12, 30, 36, 60, 72, 96, 120, 144, rng.randrange(1, 145)))
    d = rng.choice([k for k in range(1, period + 1) if period % k == 0])
    base = [r for r in range(d) if rng.random() < 0.4]
    residues = {r + k * d for r in base for k in range(period // d)}
    if rng.random() < 0.3:
        residues ^= {rng.randrange(period)}
    threshold = rng.randrange(0, 41)
    exceptional = [e for e in range(1, threshold) if rng.random() < 0.3]
    if rng.random() < 0.5:
        # members that follow the residue rule, so the threshold can fold
        exceptional = [e for e in range(1, threshold) if e % period in residues] + exceptional[:2]
    return threshold, exceptional, period, residues


def test_canonical_forms_match_the_divisor_scan():
    rng = random.Random(36)
    for _ in range(1500):
        fields = rand_raw_fields(rng)
        s = IndexSet(*fields)
        assert (s.threshold, s.exceptional, s.period, s.residues) == canonical_form_by_scan(*fields)


def test_one_line_payload_forms_are_exact():
    big = IndexSet(0, (), 10**18 + 3, (5,))
    assert (big.threshold, big.period, big.residues) == (0, 10**18 + 3, frozenset({5}))
    assert IndexSet(10**12, (), 1, ()) == IndexSet.empty()
    s = IndexSet(10**18, (3,), 10**18, (5,))
    assert (s.threshold, s.exceptional, s.period, s.residues) == (6, (3,), 10**18, frozenset({5}))
    # a run of non-members folds down to the nearest lower member at once
    s = IndexSet(10**15, (7, 9), 10**6, ())
    assert (s.threshold, s.exceptional, s.period) == (10, (7, 9), 1)
    s = IndexSet(10**15, (), 2 * 3**20, (0, 3**20))
    last = (10**15 - 1) // 3**20 * 3**20
    assert (s.threshold, s.period, s.residues) == (last + 1, 3**20, frozenset({0}))


def test_membership_and_counting_against_scan():
    rng = random.Random(31)
    for _ in range(40):
        s = rand_index_set(rng)
        hi = s.threshold + 3 * s.period + 40
        members = brute_members(s, hi)
        assert {k for k in range(1, hi + 1) if k in s} == members
        for n in (0, 1, 7, hi):
            assert s.count_upto(n) == sum(1 for m in members if m <= n)
        if members:
            want_gcd = math.gcd(*members)
            assert s.gcd_value() == want_gcd
        for k in (2, 3, 4, 5):
            tail = range(s.threshold + 1, s.threshold + 2 * k * s.period + 1)
            want = {m % k for m in tail if m in s}
            assert s.eventual_residues(k) == want


def test_first_in_class():
    assert IndexSet.multiples(6).first_in_class(0, 1) == 6
    assert IndexSet.multiples(6).first_in_class(0, 13) == 18


def test_boolean_ops_against_scan():
    rng = random.Random(32)
    for _ in range(30):
        a = rand_index_set(rng)
        b = rand_index_set(rng)
        hi = 4 * a.period * b.period + a.threshold + b.threshold + 60
        ma, mb = brute_members(a, hi), brute_members(b, hi)
        for got, want in (
            (a.union(b), ma | mb),
            (a.intersect(b), ma & mb),
            (a.difference(b), ma - mb),
        ):
            assert brute_members(got, hi) == want
        assert a.union(b) == b.union(a)
        assert a.intersect(b) == b.intersect(a)
        assert a.issubset(a.union(b))
        assert a.difference(b).issubset(a)


def test_density_pins():
    assert density(N3).value == Fr(1, 3)
    assert density(NAT).value == Fr(1)
    assert density(IndexSet.empty()).value == 0
    assert density(IndexSet.from_finite((4, 9))).value == 0
    four_ninths = IndexSet(period=9, residues=(0, 2, 5, 8))
    dv = density(four_ninths)
    assert dv.exists and dv.lower == dv.upper == Fr(4, 9)
    # density is count_upto asymptotics: compare against a long scan
    n = 9 * 2000
    assert Fr(four_ninths.count_upto(n), n) == Fr(4, 9)


def test_sumset_closure():
    rep = sumset_closed(N3)
    assert rep.closed and rep.certified and rep.witness is None
    assert sumset_closed(NAT).closed
    rep = sumset_closed(IndexSet.progression(2, 4))
    assert not rep.closed and rep.witness == (2, 2, 4)
    rep = sumset_closed(IndexSet.from_finite((2, 3)))
    assert not rep.closed and rep.witness == (2, 2, 4)
    # a bound below 2*(threshold + period) cannot certify closure
    rep = sumset_closed(N3, bound=5)
    assert rep.closed and not rep.certified
    # witnesses must be actual members with a non-member sum
    rng = random.Random(33)
    for _ in range(40):
        s = rand_index_set(rng)
        rep = sumset_closed(s)
        if rep.witness is not None:
            i1, i2, total = rep.witness
            assert i1 in s and i2 in s and total == i1 + i2 and total not in s


def test_sumset_matches_the_pair_scan():
    rng = random.Random(37)
    for _ in range(300):
        s = IndexSet(*rand_raw_fields(rng))
        for bound in (None, 4, 7, 30, 200):
            rep = sumset_closed(s, bound)
            want = sumset_certification_bound(s) if bound is None else bound
            closed, witness = sumset_by_pairs(s, want)
            assert (rep.closed, rep.witness, rep.bound) == (closed, witness, want)
            assert rep.certified == (not closed or want >= sumset_certification_bound(s))


def hundreds_period_set(rng):
    """A set of period 100..400: g*N from a threshold on (closed), the same
    with one more class (a late or no witness), or a sparse random set."""
    g = rng.randrange(100, 401)
    kind = rng.randrange(3)
    if kind == 2:
        residues = [r for r in range(g) if rng.random() < 0.05] or [0]
        return IndexSet(rng.randrange(0, 60), (), g, residues), g
    threshold = g * rng.randrange(0, 4) + rng.randrange(0, g)
    exceptional = [e for e in range(g, threshold, g) if 2 * e >= threshold]
    residues = {0} if kind == 0 else {0, rng.randrange(1, g)}
    return IndexSet(threshold, exceptional, g, residues), g


def test_clamped_scans_match_the_unclamped_references():
    # the sumset scan stops at 2(T+m); below, at and above that bound the
    # reports equal those of the scan read to 2*bound, field by field
    rng = random.Random(1111)
    for _ in range(40):
        I, g = hundreds_period_set(rng)
        p = rng.choice((2, 3, 5, 7))
        J = rng.choice((IndexSet.empty(), IndexSet.multiples(g), IndexSet.multiples(2 * g),
                        IndexSet.multiples(rng.randrange(3, 20))))
        cert = sumset_certification_bound(I)
        for bound in (cert // 3, cert - 1, cert, cert + 1, 2 * cert + 5):
            assert sumset_closed(I, bound) == sumset_closed_unclamped(I, bound)
            assert admissible_check(I, J, p, bound) == admissible_check_by_walk(I, J, p, bound)


def test_binom_mod_p():
    for p in (2, 3, 5):
        for a in range(61):
            for b in range(a + 1):
                assert binom_mod_p(a, b, p) == math.comb(a, b) % p
    for a, b in ((0, 1), (4, 5), (3, -1)):
        with pytest.raises(ValueError):
            binom_mod_p(a, b, 3)


def test_dominated_ns_matches_direct_lucas_scan():
    from riordan.index_sets import _dominated_ns

    for p in (2, 3, 5):
        for a in (1, 4, 9, 26, 27, 40):
            want = tuple(n for n in range(1, a + 1) if math.comb(a, n) % p != 0)
            assert _dominated_ns(a, p) == want


def test_dominated_ns_matches_the_digit_products_up_to_a_million():
    from riordan.index_sets import _dominated_ns

    rng = random.Random(2020)
    for p in (2, 3, 5, 7, 11):
        top = p ** int(math.log(10**5, p)) - 1  # every digit p - 1
        for a in [rng.randrange(1, 10**6 + 1) for _ in range(6)] + [top, 10**6]:
            assert _dominated_ns(a, p) == dominated_ns_by_product(a, p), (a, p)


def test_admissible_pins():
    rep = admissible_check(N3, IndexSet.progression(2, 3), 3, bound=500)
    assert rep.passed
    assert rep.verdict == "pass-up-to-bound"
    assert rep.condition2_certified
    assert rep.violation is None

    rep = admissible_check(IndexSet.multiples(2), NAT, 3)
    assert not rep.passed
    v = rep.violation
    assert (v.condition, v.index, v.n, v.partner, v.value) == (3, 2, 1, 1, 3)
    assert verify_violation(v, IndexSet.multiples(2), NAT, 3)

    rep = admissible_check(IndexSet.multiples(2), IndexSet.progression(2, 4), 3)
    v = rep.violation
    assert (v.condition, v.index, v.n, v.partner, v.value) == (1, 2, 3, 2, 8)

    with pytest.raises(ValueError):
        admissible_check(N3, N3, 3, bound=3)


def brute_violation(I, J, p, hi):
    """Direct three-condition scan with small windows; None when clean."""
    mi, mj = brute_members(I, hi), brute_members(J, hi)
    for i1 in mi:
        for i2 in mi:
            if i1 + i2 not in I:
                return ("2", i1, i2)
    for j in mj:
        for n in range(1, j + 2):
            if math.comb(j + 1, n) % p == 0:
                continue
            for jp in mj:
                if j + n * jp not in J:
                    return ("1", j, n, jp)
    for i in mi:
        for n in range(1, i + 1):
            if math.comb(i, n) % p == 0:
                continue
            for jp in mj:
                if i + n * jp not in I:
                    return ("3", i, n, jp)
    return None


def test_admissible_fuzz_against_brute_scan():
    rng = random.Random(34)
    for _ in range(40):
        I, J = rand_index_set(rng), rand_index_set(rng)
        rep = admissible_check(I, J, 3, bound=80)
        if rep.violation is not None:
            v = rep.violation
            assert verify_violation(v, I, J, 3)
            # re-derive the failure by hand
            if v.condition == 2:
                assert v.index in I and v.partner in I and v.value not in I
            elif v.condition == 1:
                assert v.index in J and v.partner in J and v.value not in J
                assert math.comb(v.index + 1, v.n) % 3 != 0
            else:
                assert v.index in I and v.partner in J and v.value not in I
                assert math.comb(v.index, v.n) % 3 != 0
        if brute_violation(I, J, 3, 12) is not None:
            assert rep.violation is not None


SPECTRUM_PARAMS = {
    "interval-point": lambda p: [{"xi": Fr(k, p**2)} for k in (0, 1, p - 1, p)],
    "p-power": lambda p: [{"r": r} for r in (1, 2, 3)],
    "half-plus": lambda p: [{"r": r} for r in (1, 2, 3)],
    "band": lambda p: [{"s": s, "xi": Fr(k, p**3)} for s in (1, p - 1) for k in (1, p + 2)],
    "lattice": lambda p: [{"s": s, "r": r, "u": u} for s in (1, 2) for r, u in ((1, 1), (2, 3))],
}


def test_class_scan_matches_the_per_n_walk_on_spectrum_families():
    for p in (3, 5, 7):
        for family, params in SPECTRUM_PARAMS.items():
            for par in params(p):
                sp = spectrum_sample(p, family, par)
                rep = admissible_check(sp.I, sp.J, p, bound=400)
                assert rep.passed
                assert rep == admissible_check_by_walk(sp.I, sp.J, p, bound=400), (p, family, par)


def test_class_scan_names_the_walks_violations():
    # condition 1 and condition 3 witnesses; the last two fail only after
    # dozens of passing bases
    late5 = (0, 4, 24, 29, 34, 40, 44, 45, 49, 50, 54, 55, 59, 69, 79, 85, 95, 99, 100, 104, 115, 124)
    late7 = (48, 49, 62, 63, 69, 77, 83, 90, 91, 97, 98, 105, 112, 126, 139, 140, 146, 154, 160,
             167, 174, 175, 196, 203, 223, 230, 231, 238, 245, 251, 259, 266, 279, 280, 300, 307,
             308, 328, 335, 336)
    pairs = [
        (IndexSet.multiples(2), IndexSet.progression(2, 4), 3, (1, 2, 3, 2, 8)),
        (IndexSet.multiples(2), NAT, 3, (3, 2, 1, 1, 3)),
        (IndexSet.multiples(4), IndexSet(period=8, residues=(1, 4, 7)), 2, (1, 1, 2, 1, 3)),
        (N3, IndexSet(period=125, residues=late5), 5, (1, 29, 5, 34, 199)),
        (IndexSet.multiples(7), IndexSet(period=343, residues=late7), 7, (1, 48, 49, 48, 2400)),
    ]
    for I, J, p, want in pairs:
        rep = admissible_check(I, J, p, bound=500)
        assert rep == admissible_check_by_walk(I, J, p, bound=500), (I, J, p)
        v = rep.violation
        assert (v.condition, v.index, v.n, v.partner, v.value) == want


def _structured_index_set(rng, p, thresholded):
    # classes of q*N, often with p-power q and the class pN-1, so that some
    # pairs pass and failures come late
    q = rng.choice((1, 2, 3, p, p * p, 2 * p))
    m = q * rng.choice((1, 1, p, 2))
    res = {r for r in range(0, m, q) if rng.random() < 0.6}
    res |= {r for r in range(p - 1, m, p) if rng.random() < 0.5}
    t = rng.randrange(0, 12) if thresholded else 0
    exc = {e for e in range(1, t) if rng.random() < 0.5}
    return IndexSet(t, exc, m, res)


def test_class_scan_matches_the_per_n_walk_on_seeded_pairs():
    rng = random.Random(1010)
    verdicts = set()
    for k in range(240):
        p = (2, 3, 5, 7)[k % 4]
        thresholded = k % 3 == 0
        I = _structured_index_set(rng, p, thresholded)
        J = _structured_index_set(rng, p, thresholded and rng.random() < 0.5)
        rep = admissible_check(I, J, p, bound=150)
        assert rep == admissible_check_by_walk(I, J, p, bound=150), (p, I, J)
        verdicts.add(rep.violation.condition if rep.violation else None)
    assert verdicts == {None, 1, 2, 3}


def test_set_algebra_matches_the_per_integer_scan():
    rng = random.Random(77)
    for _ in range(300):
        a, b = rand_index_set(rng), rand_index_set(rng)
        for op in ("union", "intersect", "difference"):
            assert getattr(a, op)(b) == combine_by_scan(a, b, op), (a, b, op)


def test_set_algebra_matches_the_scan_at_large_periods():
    # periods d*u and d*v, u and v coprime, so the lcm d*u*v is in
    # [10^3, 10^4]; thresholds up to 300
    rng = random.Random(2021)
    lcms = set()
    for _ in range(12):
        d, u, v = 0, 2, 2
        while math.gcd(u, v) > 1 or not 1000 <= d * u * v <= 10**4:
            d, u, v = rng.randrange(40, 200), rng.randrange(2, 12), rng.randrange(2, 12)
        sets = []
        for m in (d * u, d * v):
            t = rng.randrange(0, 301)
            density = rng.random()
            residues = [r for r in range(m) if rng.random() < density]
            sets.append(IndexSet(t, [e for e in range(1, t) if rng.random() < 0.5], m, residues))
        a, b = sets
        lcms.add(math.lcm(a.period, b.period))
        for x, y in ((a, b), (b, a)):
            for op in ("union", "intersect", "difference"):
                assert getattr(x, op)(y) == combine_by_scan(x, y, op), (x, y, op)
    assert min(lcms) >= 1000 and max(lcms) > 5000


def test_set_algebra_past_the_cap_is_refused_before_any_row(monkeypatch):
    monkeypatch.setenv("RIORDAN_MAX_ELEMS", "2000")
    rows = []
    flags = index_sets._member_flags
    monkeypatch.setattr(index_sets, "_member_flags", lambda s, top: rows.append(top) or flags(s, top))
    far = IndexSet.multiples(1999)
    assert far.union(NAT) == NAT and rows
    rows.clear()
    for a, b, what in (
        (far, IndexSet.multiples(3), "lcm\\(periods\\)=5997 residues and a threshold of 0"),
        (IndexSet.from_finite({2000}), N3, "lcm\\(periods\\)=3 residues and a threshold of 2001"),
    ):
        for op in ("union", "intersect", "difference"):
            with pytest.raises(CapExceededError, match=f"combining index sets needs {what}; the cap is 2000"):
                getattr(a, op)(b)
    assert rows == []


def test_set_algebra_past_the_int_to_str_limit_names_no_decimal():
    # two printable periods whose lcm has 5874 digits, past the 4300-digit limit
    a, b = IndexSet(period=2**10000, residues={0}), IndexSet(period=3**6000, residues={0})
    with pytest.raises(CapExceededError) as info:
        a.union(b)
    assert str(info.value) == (
        "combining index sets needs lcm(periods)=at least 10^4300 residues and a threshold of 0; "
        f"the cap is {max_elements()}"
    )


def test_admissible_agrees_with_brute_oracle_past_target_thresholds():
    # I keeps every integer up to 2*bound and most of a longer exceptional
    # run, so condition 3 sends partner values below I's threshold (where
    # holes matter) and past it (where I's residues decide)
    rng = random.Random(41)
    bound = 12
    seen = set()
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        t, m = rng.randrange(2 * bound, 6 * bound), rng.randrange(1, 5)
        exceptional = [e for e in range(1, t) if e <= 2 * bound or rng.random() < 0.9]
        I = IndexSet(t, exceptional, m, [r for r in range(m) if rng.random() < 0.5])
        d, tj = rng.randrange(1, 4), rng.randrange(0, 9)
        J = IndexSet(tj, [e for e in range(d, tj, d) if rng.random() < 0.8], d, [0])
        rep = admissible_check(I, J, p, bound=bound)
        got = None if rep.passed else (rep.violation.condition, rep.violation.index, rep.violation.n)
        want = admissibility_by_brute(I, J, p, bound)
        assert got == want, (p, I, J)
        seen.add(want[0] if want else None)
    assert seen >= {None, 1, 3}
    # a hole below the threshold, reached from the first partner class only
    # past one phase cycle
    I = IndexSet(59, [e for e in range(1, 59) if e not in (26, 47, 54)], 1, [0])
    rep = admissible_check(I, NAT, 3, bound=12)
    assert (rep.violation.condition, rep.violation.index, rep.violation.n) == (3, 1, 1)
    assert (rep.violation.partner, rep.violation.value) == (25, 26)


def test_group_closure_crosscheck():
    rep = group_closure_crosscheck(N3, IndexSet.progression(2, 3), 3)
    assert rep.consistent and rep.escape is None
    assert rep.samples == 200 and rep.trunc == 20
    rep = group_closure_crosscheck(IndexSet.multiples(2), NAT, 3, trunc=12, samples=50)
    assert not rep.consistent
    assert "degree 3" in rep.escape
    rep = group_closure_crosscheck(IndexSet.multiples(27), IndexSet.multiples(6), 3)
    assert (rep.consistent, rep.samples, rep.escape) == (True, 200, None)
    rep = group_closure_crosscheck(IndexSet.multiples(5), IndexSet(period=4, residues={1}), 3)
    assert (rep.consistent, rep.samples) == (False, 1)
    assert rep.escape == "product: h-coefficient at degree 6 outside I"


def test_digit_weight_pins():
    assert W_value(1, 3) == Fr(1, 3)
    assert W_value(2, 3) == Fr(2, 3)
    assert W_value(5, 3) == Fr(7, 9)
    assert W_value(1, 5) == Fr(1, 5)
    assert W_value(2, 5) == Fr(2, 5)
    assert w_value(2, 3) == Fr(1, 9)
    assert w_value(8, 3) == Fr(1, 27)


def test_W_value_matches_the_fraction_sum():
    for p in (2, 3, 5, 7):
        for m in range(1, 3000):
            assert W_value(m, p) == W_by_fractions(m, p)


def test_jxi_matches_the_fraction_scan_for_every_xi():
    # every xi = k/p^K with K <= 4 is some k/p^4; J(xi) has period dividing
    # p^5, so one period of the Fraction scan decides the whole set
    for p in (2, 3, 5, 7):
        top = p**5
        ws = sorted((W_by_fractions(j + 1, p), j) for j in range(p - 1, top + 1, p))
        for k in range(p**3 + 1):
            xi = Fr(k, p**4)
            J = Jxi(xi, p, emit_bound=1)
            below = [j for _, j in ws[: bisect_left(ws, (xi, -1))]]
            assert J.count_upto(top) == len(below)
            assert all(j in J for j in below)


def test_jxi_pins():
    assert Jxi(Fr(1, 9), 3) == IndexSet(period=9, residues=(8,))
    # xi = 1/p is the single class p - 1 at any p, also past the cap
    for p in (2, 3, 5, 7, 1000003, 10**9 + 7, 10**18 + 3):
        assert Jxi(Fr(1, p), p) == IndexSet(period=p, residues=(p - 1,))
    assert Jxi(Fr(2, 9), 3) == IndexSet(period=9, residues=(2, 8))
    assert Jxi(Fr(4, 27), 3) == IndexSet(period=27, residues=(2, 8, 17, 26))
    assert Jxi(Fr(0), 3).is_empty()
    for bad in (Fr(1, 2), Fr(-1, 9), Fr(1, 6)):
        with pytest.raises(ValueError):
            Jxi(bad, 3)
    # a re-verification over no index would check nothing
    for emit_bound in (0, -5):
        with pytest.raises(ValueError, match="emit_bound"):
            Jxi(Fr(1, 9), 3, emit_bound=emit_bound)
    assert Jxi(Fr(1, 9), 3, emit_bound=1) == IndexSet(period=9, residues=(8,))


def test_jxi_cap_refuses_only_a_longer_expansion(monkeypatch):
    monkeypatch.setenv("RIORDAN_MAX_ELEMS", "2")
    assert Jxi(Fr(1, 3), 3, emit_bound=2) == IndexSet(period=3, residues=(2,))
    with pytest.raises(CapExceededError, match=r"J\(xi\) has period 3\^2; the cap is 2"):
        Jxi(Fr(1, 9), 3, emit_bound=2)


def seeded_xis(p, rng):
    """One xi per digit length K of p*xi whose period p^(K+1) is within the cap."""
    yield Fr(0)
    yield Fr(1, p)
    K = 1
    while p ** (K + 1) <= max_elements():
        k = rng.randrange(1, p**K)
        while k % p == 0:
            k = rng.randrange(1, p**K)
        yield Fr(k, p ** (K + 1))
        K += 1


def test_jxi_check_matches_the_reversal_scan():
    rng = random.Random(1112)
    for p in (2, 3, 5, 7, 11):
        for xi in seeded_xis(p, rng):
            out = Jxi(xi, p, emit_bound=1)
            for emit_bound in (1, 2, p - 1, p, 10**4):
                assert Jxi(xi, p, emit_bound=emit_bound) == out
                assert reversal_scan(out, xi, p, emit_bound) is out


def raised(call, *args, **kwargs):
    """The RuntimeError text of call(*args, **kwargs), or None when it returns."""
    try:
        call(*args, **kwargs)
    except RuntimeError as exc:
        return str(exc)
    return None


def test_jxi_check_names_the_first_flipped_index(monkeypatch):
    # one residue toggled in the decomposition: the check raises at the same
    # least j, with the same text, as the per-index reversal scan (or, when
    # the flip lies past emit_bound, neither raises)
    decompose = index_sets._jxi_decomposition
    rng = random.Random(1113)
    caught = 0
    for p in (2, 3, 5, 7, 11):
        for xi in list(seeded_xis(p, rng))[:6]:
            out = decompose(xi, p)
            m = out.period
            for r in {0, (p - 1) % m, rng.randrange(m), rng.randrange(m)}:
                flipped = IndexSet(period=m, residues=out.residues ^ {r})
                monkeypatch.setattr(index_sets, "_jxi_decomposition", lambda *_: flipped)
                for emit_bound in (p, 500):
                    want = raised(reversal_scan, flipped, xi, p, emit_bound)
                    assert raised(Jxi, xi, p, emit_bound=emit_bound) == want
                    caught += want is not None
    assert caught > 100


def test_scan_bounds_go_through_the_cap(monkeypatch):
    # each scan is refused exactly when it would read past the cap
    monkeypatch.setenv("RIORDAN_MAX_ELEMS", "2000")
    assert admissible_check(N3, IndexSet.progression(2, 3), 3, bound=1000).passed
    with pytest.raises(CapExceededError, match="admissibility scan .* 2\\*bound=2002; the cap is 2000"):
        admissible_check(N3, IndexSet.progression(2, 3), 3, bound=1001)
    assert Jxi(Fr(1, 9), 3, emit_bound=2000) == IndexSet(period=9, residues=(8,))
    with pytest.raises(CapExceededError, match="emit_bound=2001; the cap is 2000"):
        Jxi(Fr(1, 9), 3, emit_bound=2001)
    assert sumset_closed(N3, bound=1000).closed
    with pytest.raises(CapExceededError, match="2\\*bound=2002"):
        sumset_closed(N3, bound=1001)
    # the default bound 2(threshold + period) is capped like an explicit one
    monkeypatch.setenv("RIORDAN_MAX_ELEMS", "12")
    assert sumset_closed(N3).certified
    monkeypatch.setenv("RIORDAN_MAX_ELEMS", "11")
    with pytest.raises(CapExceededError, match="2\\*bound=12"):
        sumset_closed(N3)


def test_jxi_agrees_with_digit_weight():
    for p, xis in ((3, (Fr(1, 9), Fr(2, 9), Fr(1, 3))), (5, (Fr(1, 5), Fr(2, 25)))):
        for xi in xis:
            J = Jxi(xi, p)
            for j in range(1, 400):
                if j % p == p - 1:
                    assert (j in J) == (w_value(j, p) < xi)
                else:
                    assert j not in J


def test_density_convergence():
    rep = density_convergence(3, 1, Fr(1, 3), limit=10**4)
    assert rep.exact == Fr(1, 3)
    assert rep.rows[-1].n == 10**4 and rep.rows[-1].count == 3333
    assert rep.within_bound
    assert rep.final_error <= Fr(1, 10**4) * 3 * rep.period
    fast = density_convergence(3, 2, Fr(1, 9), limit=2000)
    assert [(r.n, r.count, r.estimate) for r in fast.rows] == density_curve_by_scan(3, 2, Fr(1, 9), 2000)
    with pytest.raises(ValueError):
        density_convergence(3, 6, Fr(1, 9))


def test_filtration_specs():
    ident = FiltrationSpec.identity()
    half = FiltrationSpec.ceil_half()
    assert [ident.value(n) for n in (1, 5, 8)] == [1, 5, 8]
    assert [half.value(n) for n in (1, 5, 8)] == [1, 3, 4]
    assert half.alpha == Fr(1, 2)
    table = FiltrationSpec.from_table({n: (n + 1) // 2 for n in range(1, 9)})
    assert table.alpha is None and table.domain_max == 8
    assert table.value(8) == 4
    with pytest.raises(ValueError):
        table.value(9)
    with pytest.raises(ValueError):
        FiltrationSpec.from_table({1: 1, 2: 1, 3: 4})  # not subadditive
    with pytest.raises(ValueError):
        FiltrationSpec.from_table({1: 2, 2: 2})  # sigma(1) != 1
    with pytest.raises(ValueError):
        FiltrationSpec.from_table({1: 1, 2: 0})  # decreasing
    with pytest.raises(ValueError):
        FiltrationSpec.from_table({1: 1, 3: 2})  # gap
    assert FiltrationSpec.from_table_lines(["1 1", "2,1", "# note", "3 2"]).value(3) == 2
    with pytest.raises(ValueError):
        FiltrationSpec.from_table_lines(["1 1 1"])
    # tokens follow the integer rule of every literal, so int()'s extras fail
    for line in ("2 +2", "2 1_0", "2 \u0662", "\u0662 2"):
        with pytest.raises(ValueError, match="malformed table"):
            FiltrationSpec.from_table_lines(["1 1", line])


def test_hausdorff_pins():
    J_mix = IndexSet.multiples(9).union(IndexSet.progression(2, 3))
    rep = hausdorff_dim(N3, J_mix, 3)
    assert rep.exact == Fr(7, 18)
    assert rep.agrees and rep.filtration == "identity"
    assert rep.rows[-1].n == 2048
    assert abs(rep.rows[-1].estimate - rep.exact) <= rep.error_bound
    assert hausdorff_dim(N3, J_mix, 3, filtration=FiltrationSpec.ceil_half()).exact == Fr(11, 27)
    assert hausdorff_dim(N3, IndexSet.progression(2, 3), 3).exact == Fr(1, 3)
    assert hausdorff_dim(IndexSet.empty(), IndexSet.empty(), 3).exact == 0


def test_hausdorff_table_filtration_reports_rows_only():
    J_mix = IndexSet.multiples(9).union(IndexSet.progression(2, 3))
    table = FiltrationSpec.from_table({n: (n + 1) // 2 for n in range(1, 9)})
    rep = hausdorff_dim(N3, J_mix, 3, filtration=table, grid_bound=8)
    assert rep.exact is None and rep.alpha is None and rep.agrees is None
    assert [row.n for row in rep.rows] == [2, 4, 8]
    assert rep.rows[-1].estimate == Fr(3, 10)


def test_hausdorff_admissibility_gate():
    with pytest.raises(ValueError):
        hausdorff_dim(IndexSet.multiples(2), NAT, 3)
    rep = hausdorff_dim(IndexSet.multiples(2), NAT, 3, check_admissible=False)
    assert rep.exact == Fr(3, 4)


def test_classify_pins():
    assert classify_pair(IndexSet.empty(), Jxi(Fr(1, 3), 3), 3).case == "1"
    got = classify_pair(IndexSet.multiples(9), N3, 3)
    assert got.case == "2ii" and got.params == {"s": 1, "r": 2, "u": 3}
    assert got.j_density == Fr(1, 3)
    got = classify_pair(N3, IndexSet.multiples(9).union(IndexSet.progression(2, 3)), 3)
    assert got.case == "2iii"
    assert got.params == {"s": 1, "r": 1, "v": 2, "t": 3, "u": 1}
    assert got.j_density == Fr(4, 9)
    got = classify_pair(N3, NAT, 3)
    assert got.case == "2ii" and got.params == {"s": 1, "r": 1, "u": 1}
    got = classify_pair(N3, Jxi(Fr(1, 9), 3), 3)
    assert got.case == "2i" and got.params == {"s": 1, "r": 1}
    with pytest.raises(ClassificationError):
        classify_pair(IndexSet.multiples(2).union(IndexSet.from_finite((3,))), IndexSet.multiples(2), 3)


def test_spectrum_samples():
    expected = {
        ("interval-point", (("xi", Fr(1, 9)),)): Fr(2, 9),
        ("interval-point", (("xi", Fr(1, 3)),)): Fr(1, 3),
        ("p-power", (("r", 2),)): Fr(7, 18),
        ("half-plus", (("r", 2),)): Fr(13, 18),
        ("band", (("s", 2), ("xi", Fr(1, 9)))): Fr(5, 18),
        ("lattice", (("s", 1), ("r", 1), ("u", 1))): Fr(2, 3),
        ("lattice", (("s", 2), ("r", 1), ("u", 3))): Fr(1, 6),
    }
    for (family, params), want in expected.items():
        rep = spectrum_sample(3, family, dict(params))
        assert rep.closed_form == want
        assert rep.report.exact == want
        assert rep.family == family


def test_spectrum_rejects_bad_parameters():
    cases = (
        ("band", {"s": 3, "xi": Fr(1, 9)}),
        ("lattice", {"s": 3, "r": 1, "u": 1}),
        ("interval-point", {"xi": Fr(1, 2)}),
        ("p-power", {"r": 0}),
        ("nope", {}),
    )
    for family, params in cases:
        with pytest.raises(ValueError):
            spectrum_sample(3, family, params)


def test_parse_format_round_trip():
    rng = random.Random(35)
    for _ in range(30):
        s = rand_index_set(rng)
        assert parse_index_set(format_index_set(s)) == s
    line = "T=6; except=2,5; period=1; residues="
    assert format_index_set(parse_index_set(line)) == line
    assert parse_index_set("period=3; residues=0; T=0; except=") == N3  # order-insensitive
    for bad in (
        "T=0; period=3; residues=0",
        "T=0; except=; period=0; residues=0",
        "T=-1; except=; period=1; residues=",
        "T=0; except=; period=1; residues=; junk=1",
        # int() alone takes '_', '+' and non-ASCII digits
        "T=0; except=; period=1_0; residues=+3,0_1",
        "T=0; except=; period=10; residues=+3",
        "T=0; except=; period=10; residues=0_1",
        "T=0; except=; period=٩; residues=٨",
        "T=0; except=; period=10; residues=٨",
        "T=٠; except=; period=1; residues=",
        "T=2; except=+1; period=1; residues=",
    ):
        with pytest.raises(ValueError):
            parse_index_set(bad)
    # the fields convert in the order T, except, period, residues, and every
    # conversion comes before the range checks
    for bad, message in (
        ("T=x; except=y; period=z; residues=w", "'x'"),
        ("T=0; except=y; period=z; residues=w", "'y'"),
        ("T=0; except=; period=z; residues=w", "'z'"),
        ("T=-1; except=; period=0; residues=1,w", "'w'"),
        ("T=0; except=; period=1_0; residues=+3,0_1", "malformed period '1_0'"),
        ("T=0; except=; period=10; residues=3,+3", "malformed residue '\\+3'"),
        ("T=0; except=; period=10; residues= ٨ ", "malformed residue '٨'"),
        ("T=-1; except=; period=0; residues=1", "threshold must be >= 0"),
        ("T=0; except=; period=0; residues=1", "period must be >= 1"),
        ("T=2; except=5; period=3; residues=3", r"residues must lie in \[0, period\)"),
        ("T=2; except=5; period=3; residues= 1 , 2", r"exceptional members must lie in \[1, threshold\)"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_index_set(bad)
    assert parse_index_set("T=0; except=; period=3; residues= 1 , 2").residues == {1, 2}
