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
    parse_index_set,
    spectrum_sample,
    sumset_closed,
    verify_violation,
    w_value,
)
from riordan.index_sets import sumset_certification_bound
from util import W_by_fractions, canonical_form_by_scan, sumset_by_pairs

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
    assert dv.exists and dv.ldense == dv.udense == Fr(4, 9)
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


def test_group_closure_crosscheck():
    rep = group_closure_crosscheck(N3, IndexSet.progression(2, 3), 3)
    assert rep.consistent and rep.escape is None
    assert rep.samples == 200 and rep.trunc == 20
    rep = group_closure_crosscheck(IndexSet.multiples(2), NAT, 3, trunc=12, samples=50)
    assert not rep.consistent
    assert "degree 3" in rep.escape


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
    assert Jxi(Fr(1, 3), 3) == IndexSet(period=3, residues=(2,))
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
    scan = density_convergence(3, 2, Fr(1, 9), limit=2000, source="scan")
    fast = density_convergence(3, 2, Fr(1, 9), limit=2000)
    assert scan.rows == fast.rows
    with pytest.raises(ValueError):
        density_convergence(3, 6, Fr(1, 9))
    with pytest.raises(ValueError):
        density_convergence(3, 1, Fr(1, 9), source="oops")


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
    ):
        with pytest.raises(ValueError):
            parse_index_set(bad)
