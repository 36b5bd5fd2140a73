"""Finite quotient machinery: codec, closures, central series, and towers."""

import itertools
import random

import pytest

from riordan import quotients
from riordan import (
    CapExceededError,
    CoeffRing,
    NottSeries,
    QuotientGroup,
    RiordanElem,
    UnitSeries,
    commutator_subgroup,
    generation_check,
    hm_generation_check,
    lcs_level_exponent,
    lower_central_series,
    max_elements,
    rinv,
    rmul,
    sigma_filtration_check,
    tower_consistency,
    verify_lcs_formula,
    width_report,
)
from util import (
    closed_exhaustively,
    closure_by_bfs,
    mul_by_loops,
    rand_elem,
    tower_consistency_by_tuple_at,
    tuple_at_draws,
)

F3 = CoeffRing(3)


def elem(p, trunc, h_coeffs, g_coeffs):
    ring = CoeffRing(p)
    return RiordanElem(UnitSeries(ring, tuple(h_coeffs)), NottSeries(ring, tuple(g_coeffs)))


def test_constructor_validation():
    with pytest.raises(ValueError):
        QuotientGroup(4, 3)
    with pytest.raises(ValueError):
        QuotientGroup(3, 1)
    G = QuotientGroup(3, 4)
    assert (G.p, G.level, G.na, G.order) == (3, 4, 3, 729)
    assert G.identity == (0, 0, 0, 0, 0, 0)


def test_canonicalize_pins():
    G = QuotientGroup(3, 4)
    ring = CoeffRing(3)
    assert G.canonicalize(RiordanElem.identity(ring, 4)) == G.identity
    a = elem(3, 4, (1, 0, 1, 0, 0), (0, 1, 0, 1, 0))
    assert G.canonicalize(a) == (0, 1, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        G.canonicalize(elem(3, 3, (1, 0, 1, 0), (0, 1, 0, 1)))  # trunc too small
    with pytest.raises(ValueError):
        G.canonicalize(rand_elem(random.Random(0), CoeffRing(5), 4))  # wrong prime


def test_canonicalize_is_coset_invariant():
    # multiplying by anything in the level-4 band must not move the tuple
    G = QuotientGroup(3, 4)
    rng = random.Random(21)
    for _ in range(50):
        a = rand_elem(rng, F3, 7)
        r = rand_elem(rng, F3, 7, m=4, n=4)
        assert G.canonicalize(a) == G.canonicalize(rmul(a, r))


def test_codec_is_a_bijection():
    G = QuotientGroup(2, 3)
    seen = set()
    for t in G.iter_elements():
        G.validate_tuple(t)
        assert G.canonicalize(G.lift(t)) == t
        seen.add(t)
    assert len(seen) == G.order == 16


def test_validate_tuple_errors():
    G = QuotientGroup(3, 3)
    with pytest.raises(ValueError):
        G.validate_tuple((0, 0, 0))
    with pytest.raises(ValueError):
        G.validate_tuple((0, 0, 0, 3))


def test_project_drops_to_previous_level():
    G = QuotientGroup(3, 3)
    assert G.project((1, 2, 0, 1)) == (1, 0)
    with pytest.raises(ValueError):
        QuotientGroup(3, 2).project((1, 0))


def test_quotient_law_matches_series_law():
    G = QuotientGroup(3, 4)
    rng = random.Random(22)
    for _ in range(30):
        t1 = tuple(rng.randrange(3) for _ in range(6))
        t2 = tuple(rng.randrange(3) for _ in range(6))
        lifted = rmul(G.lift(t1), G.lift(t2))
        assert G.mul(t1, t2) == G.canonicalize(lifted)
        assert G.inv(t1) == G.canonicalize(rinv(G.lift(t1)))
        assert G.conj(t1, t2) == G.mul(G.mul(G.inv(t2), t1), t2)
        assert G.comm(t1, t2) == G.mul(G.inv(G.mul(t2, t1)), G.mul(t1, t2))
    assert G.mul(G.identity, G.identity) == G.identity


@pytest.mark.parametrize("p, level", [(3, 3), (2, 5), (3, 30), (3, 33), (5, 30), (5, 33), (65537, 30), (65537, 33)])
def test_quotient_inverse_is_a_two_sided_inverse(p, level):
    # The oracle is the law alone, so it holds even where G.inv and rinv
    # share a kernel: every x at (3,3) and (2,5), samples either side of the
    # length where the inverses switch to Newton steps.
    G = QuotientGroup(p, level)
    width = 2 * G.na
    if p ** width <= 256:
        xs = list(itertools.product(range(p), repeat=width))
    else:
        rng = random.Random(23 * level + p % 1000)
        xs = [(p - 1,) * width] + [tuple(rng.randrange(p) for _ in range(width)) for _ in range(20)]
    for x in xs:
        xi = G.inv(x)
        assert G.mul(x, xi) == G.mul(xi, x) == G.identity, x


@pytest.mark.parametrize(
    "p, level", [(2, 9), (3, 5), (7, 4), (5, 26), (3, 45), (2147483647, 3), (2147483647, 4)]
)
def test_packed_law_matches_the_loop_law(p, level):
    # the all-(p-1) pair fills every packed slot closest to its bound
    G = QuotientGroup(p, level)
    width = 2 * G.na
    rng = random.Random(41 * level + p % 1000)
    pairs = [((p - 1,) * width, (p - 1,) * width), (G.identity, (p - 1,) * width)]
    pairs += [tuple(tuple(rng.randrange(p) for _ in range(width)) for _ in "xy") for _ in range(40)]
    for x, y in pairs:
        assert G.mul(x, y) == mul_by_loops(G, x, y)


def test_full_group_keeps_three_generators():
    # d(G) = rank of G/Phi(G): b_3 is new at level 3 and, at p = 2, b_5 at level 7
    for p in (2, 3, 5, 7):
        for level in range(2, 14):
            kept = len(QuotientGroup(p, level).full_group().gens)
            if level == 2:
                assert kept == 2
            elif p == 2 and level >= 7:
                assert kept == 4, (p, level)
            else:
                assert kept == 3, (p, level)


def test_full_group_over_a_large_prime_takes_few_products(monkeypatch):
    # square-and-multiply: each pc slot costs O(log p) products, not O(p)
    G, law, calls = QuotientGroup(65537, 3), QuotientGroup.mul, []

    def counting(self, x, y):
        calls.append(None)
        return law(self, x, y)

    monkeypatch.setattr(QuotientGroup, "mul", counting)
    assert G.full_group().order == 65537**4
    assert len(calls) < 1000


@pytest.mark.parametrize(
    "run, products",
    [
        (lambda: width_report(QuotientGroup(5, 30), 6), 60120),
        (lambda: verify_lcs_formula(QuotientGroup(7, 20), 6), 21739),
        (lambda: hm_generation_check(5, 6, 2), 2050),
        # exponents 1 and 2 are both stored squares: nothing to keep at p = 3
        (lambda: verify_lcs_formula(QuotientGroup(3, 30), 6), 48218),
        # past _SIFT_MEMO_MAX_P a sift step multiplies by the stored squares
        (lambda: verify_lcs_formula(QuotientGroup(101, 12), 4), 7954),
    ],
    ids=["width-5-30", "lcs-7-20", "hm-5-6-2", "lcs-3-30", "lcs-101-12"],
)
def test_sift_reuses_the_powers_it_built(monkeypatch, run, products):
    # every product of the run, the 8 of each group's construction-time spot
    # check included; a kept u^-e makes a repeated exponent cost one product
    law, calls = QuotientGroup.mul, []

    def counting(self, x, y):
        calls.append(None)
        return law(self, x, y)

    monkeypatch.setattr(QuotientGroup, "mul", counting)
    run()
    assert len(calls) == products


def test_power_cache_stays_bounded(monkeypatch):
    hi, lo = QuotientGroup(3, 12), QuotientGroup(3, 11)
    packed = QuotientGroup._packed_powers
    sizes = []

    def recording(self, b):
        rows = packed(self, b)
        sizes.append(len(self._pow_cache))
        return rows

    monkeypatch.setattr(QuotientGroup, "_packed_powers", recording)
    rep = tower_consistency(hi, lo, samples=5000, seed=3)
    assert rep.passed and rep.pairs_checked == 5000
    # 5000 random left factors over 3^11 b-parts overflow the cache at least once
    assert len(sizes) == 10000
    full = sizes.index(quotients._POW_CACHE_LIMIT)
    assert max(sizes) == quotients._POW_CACHE_LIMIT
    assert min(sizes[full:]) == 1  # cleared, then refilled


@pytest.mark.parametrize("p, level", [(3, 3), (2, 4)])
def test_tower_tuples_decode_bijectively(p, level):
    G = QuotientGroup(p, level)
    decoded = [quotients._tuple_at(n, p, 2 * G.na) for n in range(G.order)]
    assert decoded == list(G.iter_elements())


def test_closure_pins():
    G3 = QuotientGroup(3, 3)
    assert G3.subgroup([G3.identity]).order == 1
    one_plus_x = G3.canonicalize(elem(3, 3, (1, 1, 0, 0), (0, 1, 0, 0)))
    assert G3.subgroup([one_plus_x]).order == 3  # (1+x) has order 3 in H/H^3

    G4 = QuotientGroup(3, 4)
    gen = G4.canonicalize(elem(3, 4, (1, 1, 0, 0, 0), (0, 1, 0, 0, 0)))
    assert G4.subgroup([gen]).order == 9  # order 9 in H/H^4, still proper

    nott_pair = [
        G4.canonicalize(elem(3, 4, (1, 0, 0, 0, 0), (0, 1, 1, 0, 0))),
        G4.canonicalize(elem(3, 4, (1, 0, 0, 0, 0), (0, 1, 0, 1, 0))),
    ]
    handle = G4.subgroup(nott_pair)
    assert handle.order == 27
    assert all(t[:3] == (0, 0, 0) for t in handle.element_set())  # stays inside the g-factor

    units = [t for t in G3.iter_elements() if sum(v != 0 for v in t) == 1]
    assert G3.subgroup(units).order == 81

    with pytest.raises(ValueError):
        G3.subgroup([])


@pytest.mark.parametrize("p, level", [(3, 5), (3, 6), (5, 4), (2, 6), (7, 4)])
def test_every_closure_passes_the_exhaustive_oracle(monkeypatch, p, level):
    closures = []
    subgroup = QuotientGroup.subgroup

    def recording(self, gens):
        handle = subgroup(self, gens)
        closures.append(handle)
        return handle

    # the full group is itself a closure; build it before recording, so the
    # count below holds only the closures listed there
    G = QuotientGroup(p, level)
    G.full_group()
    monkeypatch.setattr(QuotientGroup, "subgroup", recording)
    closures += lower_central_series(G, level)[1:]
    rng = random.Random(31 * p + level)
    for k in (1, 1, 2, 2):
        G.subgroup([tuple(rng.randrange(p) for _ in range(2 * G.na)) for _ in range(k)])
    for m in range(2, level):
        hm_generation_check(p, level, m)
    for m, n in ((1, 2), (2, 1), (2, 3)):
        closures.append(commutator_subgroup(G.standard_subgroup(m, n), G.standard_subgroup(n, m)))
    # LCS terms, random closures, one hm closure per m, band commutators
    assert len(closures) == (level - 1) + 4 + (level - 2) + 3
    for handle in closures:
        assert closed_exhaustively(handle.group, handle.element_set(), handle.gens), handle
        assert handle.element_set() == closure_by_bfs(handle.group, handle.gens), handle


def test_coset_count_catches_a_corrupted_law(monkeypatch):
    # one corrupted product makes the commutator [a, b] fail the pc certificate
    G = QuotientGroup(3, 3)
    a, b = (1, 0, 0, 0), (0, 0, 1, 0)
    law = QuotientGroup.mul

    def corrupted(self, x, y):
        return self.identity if (x, y) == (a, b) else law(self, x, y)

    monkeypatch.setattr(QuotientGroup, "mul", corrupted)
    with pytest.raises(RuntimeError, match="pc certificate failed: the commutator"):
        G.subgroup([a, b])


def test_closure_respects_element_cap(monkeypatch):
    monkeypatch.setenv("RIORDAN_MAX_ELEMS", "10")
    assert max_elements() == 10
    G = QuotientGroup(3, 3)
    units = [t for t in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    # closure does not enumerate; only element_set() is capped
    handle = G.subgroup(units)
    assert handle.order == 81
    with pytest.raises(CapExceededError):
        handle.element_set()
    with pytest.raises(CapExceededError):
        list(G.iter_elements())
    with pytest.raises(CapExceededError):
        G.full_group().element_set()
    monkeypatch.delenv("RIORDAN_MAX_ELEMS")
    assert max_elements() == 1 << 20


def test_standard_subgroup_orders_and_elements():
    G = QuotientGroup(3, 3)
    H22 = G.standard_subgroup(2, 2)
    assert H22.name == "H^2xN^2"
    assert H22.order == 9
    assert H22.element_set() == {t for t in G.iter_elements() if t[0] == 0 and t[2] == 0}
    assert G.standard_subgroup(1, 1).order == G.order
    assert G.standard_subgroup(4, 1).order == 9  # unit part dies past the level
    assert QuotientGroup(3, 5).standard_subgroup(2, 3).order == 243
    with pytest.raises(ValueError):
        G.standard_subgroup(0, 1)
    # membership agrees with the element set
    sub = G.standard_subgroup(2, 3)
    assert {t for t in G.iter_elements() if t in sub} == sub.element_set()


def test_commutator_subgroup_matches_all_pairs_oracle():
    G4 = QuotientGroup(3, 4)
    # at (3,4) the commutators of these generator pairs generate only 9
    # elements; with their conjugates, [A, B] has 27
    cases = [(QuotientGroup(p, level).full_group(),) * 2 for p, level in ((2, 3), (3, 3))]
    cases.append((G4.subgroup([(2, 0, 2, 0, 1, 0), (0, 0, 2, 2, 0, 1)]), G4.subgroup([(1, 2, 0, 2, 0, 1)])))
    # B <= A in the first two cases (A's generators conjugate), not in the third
    assert [all(b in A for b in B.gens) for A, B in cases] == [True, True, False]
    for A, B in cases:
        G = A.group
        derived = commutator_subgroup(A, B)
        seeds = {G.comm(a, b) for a in sorted(A.element_set()) for b in sorted(B.element_set())}
        # oracle: BFS over plain set products, no generator shortcuts
        closure = set(seeds) | {G.identity}
        frontier = list(closure)
        while frontier:
            t = frontier.pop()
            for s in seeds:
                nxt = G.mul(t, s)
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
        assert derived.element_set() == closure


def test_commutator_requires_shared_parent():
    A = QuotientGroup(3, 3).full_group()
    B = QuotientGroup(3, 4).full_group()
    with pytest.raises(ValueError):
        commutator_subgroup(A, B)


def test_level_two_quotient_is_abelian():
    G = QuotientGroup(3, 2)
    elems = list(G.iter_elements())
    assert all(G.mul(a, b) == G.mul(b, a) for a in elems for b in elems)
    chain = lower_central_series(G, 2)
    assert [h.order for h in chain] == [9, 1]


def test_lcs_level_exponent():
    assert [lcs_level_exponent(i, 3) for i in range(2, 7)] == [2, 3, 5, 6, 8]
    assert [lcs_level_exponent(i, 5) for i in range(2, 7)] == [2, 3, 4, 5, 7]
    assert [lcs_level_exponent(i, 7) for i in range(2, 7)] == [2, 3, 4, 5, 6]


def test_lcs_pins_and_formula():
    G = QuotientGroup(3, 4)
    chain = lower_central_series(G, 4)
    assert [h.order for h in chain] == [729, 27, 3, 1]
    # descending, each step normal in G (spot conjugations)
    rng = random.Random(23)
    for hi, lo in zip(chain, chain[1:]):
        assert lo.element_set() <= hi.element_set()
        for t in sorted(lo.element_set())[:5]:
            g = tuple(rng.randrange(3) for _ in range(6))
            assert G.conj(t, g) in lo
    rows = verify_lcs_formula(G, 4)
    assert [r.i for r in rows] == [2, 3, 4]
    assert [r.tau for r in rows] == [2, 3, 5]
    assert all(r.passed and r.brute_order == r.formula_order for r in rows)
    assert [r.brute_order for r in rows] == [27, 3, 1]


def test_lcs_formula_fails_a_wrong_subgroup_of_the_right_order(monkeypatch):
    # H^3xN^2 has the order of gamma_2 = H^2xN^3 at (3,4) but is another subgroup
    G = QuotientGroup(3, 4)
    wrong = [G.full_group(), G.standard_subgroup(3, 2)]
    monkeypatch.setattr(quotients, "lower_central_series", lambda G, depth: wrong)
    (row,) = verify_lcs_formula(G, 2)
    assert (row.brute_order, row.formula_order, row.passed) == (27, 27, False)


def test_lcs_formula_refuses_p2():
    G = QuotientGroup(2, 4)
    with pytest.raises(ValueError):
        verify_lcs_formula(G, 3)
    # brute-force chain still works at p=2
    chain = lower_central_series(G, 3)
    assert chain[0].order == 64
    assert all(b.element_set() <= a.element_set() for a, b in zip(chain, chain[1:]))


def test_width_report_pins():
    entries = width_report(QuotientGroup(3, 4), 4)
    got = [(e.i, e.gamma_order, e.width, e.boundary_flag, e.exceeds_bound) for e in entries]
    assert got == [
        (1, 729, 3, False, False),
        (2, 27, 2, False, False),
        (3, 3, 1, True, False),
        (4, 1, 0, True, False),
    ]


def test_generation_check():
    G = QuotientGroup(2, 3)
    everything = [G.lift(t) for t in G.iter_elements()]
    rep = generation_check(G, everything)
    assert rep.generates and rep.closure_order == rep.group_order == 16

    G4 = QuotientGroup(3, 4)
    single = [elem(3, 4, (1, 1, 0, 0, 0), (0, 1, 0, 0, 0))]
    rep = generation_check(G4, single)
    assert not rep.generates
    assert rep.closure_order == 9
    full = single + [
        elem(3, 4, (1, 0, 0, 0, 0), (0, 1, 1, 0, 0)),
        elem(3, 4, (1, 0, 0, 0, 0), (0, 1, 0, 1, 0)),
    ]
    rep = generation_check(G4, full)
    assert rep.generates and rep.closure_order == 729


def test_hm_generation_small():
    rep = hm_generation_check(3, 4, 2)
    assert rep.matches and rep.closure_order == rep.expected_order == 9
    rep = hm_generation_check(3, 4, 3)
    assert rep.matches and rep.closure_order == 3
    with pytest.raises(ValueError):
        hm_generation_check(3, 4, 1)
    with pytest.raises(ValueError):
        hm_generation_check(3, 4, 4)


def test_tower_consistency():
    rep = tower_consistency(QuotientGroup(2, 3), QuotientGroup(2, 2))
    assert rep.passed and rep.surjective
    assert rep.mode == "exhaustive"
    assert rep.pairs_checked == 256
    rep = tower_consistency(QuotientGroup(3, 4), QuotientGroup(3, 3), samples=500, seed=1)
    assert rep.passed and rep.surjective
    assert rep.mode == "sampled"
    assert rep.pairs_checked == 500
    # surjectivity is decided by the zero-padding section, not by the samples
    rep = tower_consistency(QuotientGroup(3, 5), QuotientGroup(3, 4), samples=1, seed=2)
    assert (rep.passed, rep.pairs_checked, rep.mode, rep.surjective) == (True, 1, "sampled", True)
    for bad in (0, -4):
        with pytest.raises(ValueError):
            tower_consistency(QuotientGroup(3, 4), QuotientGroup(3, 3), samples=bad)
    with pytest.raises(ValueError):
        tower_consistency(QuotientGroup(3, 4), QuotientGroup(3, 2))
    with pytest.raises(ValueError):
        tower_consistency(QuotientGroup(3, 3), QuotientGroup(2, 2))


def test_tower_consistency_reports_a_corrupted_product(monkeypatch):
    law = QuotientGroup.mul
    hi2, lo2 = QuotientGroup(2, 3), QuotientGroup(2, 2)
    hi3, lo3 = QuotientGroup(3, 4), QuotientGroup(3, 3)
    elems = list(hi2.iter_elements())
    rng = random.Random(7)
    draws = [quotients._tuple_at(rng.randrange(hi3.order), 3, 2 * hi3.na) for _ in range(8)]
    # the sixth exhaustive pair, and the fourth sampled pair at seed 7
    bad = {(hi2, elems[0], elems[5]), (hi3, draws[6], draws[7])}

    def corrupted(self, x, y):
        out = law(self, x, y)
        if (self, x, y) in bad:
            return ((out[0] + 1) % self.p,) + out[1:]  # moves the projected a_1
        return out

    monkeypatch.setattr(QuotientGroup, "mul", corrupted)
    rep = tower_consistency(hi2, lo2)
    assert (rep.passed, rep.pairs_checked, rep.mode, rep.surjective) == (False, 6, "exhaustive", True)
    rep = tower_consistency(hi3, lo3, samples=50, seed=7)
    assert (rep.passed, rep.pairs_checked, rep.mode, rep.surjective) == (False, 4, "sampled", True)


def _projected_draws(G, samples, seed):
    lo = G.na - 1

    def proj(x):
        return x[:lo] + x[G.na : G.na + lo]

    return [(x, proj(x), y, proj(y)) for x, y in tuple_at_draws(G, samples, seed)]


@pytest.mark.parametrize("p", [2, 3, 5, 65537, 10**6 + 3])
def test_sampled_pairs_are_the_tuple_at_draws(p):
    # table and per-digit decoding; 997 samples is a count that is no power
    # of p, so no table fills exactly 4 * samples
    for level in (3, 4, 5, 8, 13, 14, 30):
        G = QuotientGroup(p, level)
        lo = G.na - 1

        def proj(x):
            return x[:lo] + x[G.na : G.na + lo]

        for samples in (1, 997) + ((4000,) if level in (5, 30) else ()):
            seed = level * samples
            pairs = list(quotients._sampled_pairs(G, samples, seed, proj))
            assert pairs == _projected_draws(G, samples, seed), (p, level, samples)


def test_tower_reports_match_the_tuple_at_reference():
    cases = [
        (QuotientGroup(2, 3), QuotientGroup(2, 2), None, 0),
        (QuotientGroup(3, 3), QuotientGroup(3, 2), None, 0),
        (QuotientGroup(3, 5), QuotientGroup(3, 4), 4000, 11),
        (QuotientGroup(2, 9), QuotientGroup(2, 8), 997, 12),
        (QuotientGroup(65537, 4), QuotientGroup(65537, 3), 50, 13),
    ]
    for hi, lo, samples, seed in cases:
        rep = tower_consistency(hi, lo, samples=samples, seed=seed)
        assert rep == tower_consistency_by_tuple_at(hi, lo, samples=samples, seed=seed)
        assert rep.passed and rep.pairs_checked == (samples or hi.order**2)


def test_tower_part_tables_stay_within_the_limit():
    limit = quotients._PART_TABLE_LIMIT
    for samples in (1, 3, 20, 1100, 10**6):
        for p in (2, 3, 5, 7, 61, 65537, 10**6 + 3):
            for width in (1, 2, 4, 12, 13, 29):
                table = quotients._part_table(p, width, samples)
                if table is not None:
                    assert len(table) <= min(limit, 4 * samples), (samples, p, width)
                    decoded = [quotients._tuple_at(n, p, width) for n in range(p**width)]
                    assert table == [(t, t[:-1]) for t in decoded]
    sizes = {
        (p, width, samples): quotients._part_table(p, width, samples)
        for p, width, samples in [(3, 4, 4000), (3, 4, 21), (3, 4, 20), (2, 12, 1100), (2, 13, 10**6)]
    }
    assert {k: v and len(v) for k, v in sizes.items()} == {
        (3, 4, 4000): 81,  # the (3,5) tower of the benchmark
        (3, 4, 21): 81,
        (3, 4, 20): None,  # more entries than the 80 parts the pairs read
        (2, 12, 1100): limit,
        (2, 13, 10**6): None,  # past the limit, whatever the samples
    }


def test_tower_check_names_a_late_corrupted_pair(monkeypatch):
    law = QuotientGroup.mul
    hi, lo = QuotientGroup(3, 10), QuotientGroup(3, 9)
    ex_hi, ex_lo = QuotientGroup(2, 3), QuotientGroup(2, 2)
    late = list(tuple_at_draws(hi, 3000, 5))[-1]  # the 3000th sampled pair at seed 5
    elems = list(ex_hi.iter_elements())
    bad = {(hi,) + late, (ex_hi, elems[12], elems[7])}  # exhaustive pair 12 * 16 + 8

    def corrupted(self, x, y):
        out = law(self, x, y)
        if (self, x, y) in bad:
            return out[:-2] + ((out[-2] + 1) % self.p, out[-1])  # moves the projected top b
        return out

    monkeypatch.setattr(QuotientGroup, "mul", corrupted)
    for args, pairs, mode in (((hi, lo, 4000, 5), 3000, "sampled"), ((ex_hi, ex_lo), 200, "exhaustive")):
        rep = tower_consistency(*args)
        assert rep == tower_consistency_by_tuple_at(*args)
        assert (rep.passed, rep.pairs_checked, rep.mode, rep.surjective) == (False, pairs, mode, True)


def test_generation_report_counts_kept_generators():
    G4 = QuotientGroup(3, 4)
    one_plus_x = elem(3, 4, (1, 1, 0, 0, 0), (0, 1, 0, 0, 0))
    nott = [elem(3, 4, (1, 0, 0, 0, 0), (0, 1, 1, 0, 0)), elem(3, 4, (1, 0, 0, 0, 0), (0, 1, 0, 1, 0))]
    # a repeated candidate, and a power of an earlier one, are not kept
    square = rmul(one_plus_x, one_plus_x)
    cases = [([one_plus_x], 1), ([one_plus_x, one_plus_x, square], 1), ([one_plus_x] + nott, 3)]
    for candidates, kept in cases:
        rep = generation_check(G4, candidates)
        assert rep.generators == kept
        assert rep.generators == len(G4.subgroup([G4.canonicalize(c) for c in candidates]).gens)


def test_sigma_filtration_check():
    for i, j in ((1, 1), (1, 2), (2, 1)):
        rep = sigma_filtration_check(3, 4, lambda n: n, i, j)
        assert rep.contained
        assert rep.i == i and rep.j == j
    rep = sigma_filtration_check(3, 6, lambda n: (n + 1) // 2, 2, 3)
    assert rep.contained
    with pytest.raises(ValueError):
        sigma_filtration_check(3, 4, lambda n: n + 1, 1, 1)  # sigma(1) != 1
    with pytest.raises(ValueError):
        sigma_filtration_check(3, 4, lambda n: {1: 1, 2: 3, 3: 2}.get(n, n), 1, 2)  # not monotone
    with pytest.raises(ValueError):
        sigma_filtration_check(3, 4, lambda n: n * n, 1, 2)  # not subadditive
    with pytest.raises(ValueError):
        sigma_filtration_check(3, 4, lambda n: n, 2, 2)  # i + j must stay below the level


def test_subgroup_handles_report_membership():
    G = QuotientGroup(3, 3)
    sub = G.standard_subgroup(2, 2)
    assert G.identity in sub
    assert (1, 0, 0, 0) not in sub
    assert sub.group is G
