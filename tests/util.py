"""Seeded builders and brute-force reference engines shared by the suite."""

import itertools
import random
from collections import deque
from fractions import Fraction
from math import lcm

from riordan import (
    AdmissibilityReport,
    CapExceededError,
    CoeffRing,
    IndexSet,
    NottSeries,
    RiordanElem,
    SumsetReport,
    TowerReport,
    TruncSeries,
    UnitSeries,
    Violation,
    binom_mod_p,
    max_elements,
    verify_violation,
)
from riordan.index_sets import _reversal, _shift_check, sumset_certification_bound
from riordan.quotients import _tuple_at
from riordan.series import require_within_cap


def rand_coeff(rng, ring):
    if ring.p is None:
        return rng.randrange(-9, 10)
    return rng.randrange(ring.p)


def nonzero_coeff(rng, ring):
    if ring.p is None:
        v = rng.randrange(1, 10)
        return -v if rng.random() < 0.5 else v
    return rng.randrange(1, ring.p)


def rand_series(rng, ring, trunc):
    return TruncSeries(ring, tuple(rand_coeff(rng, ring) for _ in range(trunc + 1)))


def rand_unit(rng, ring, trunc, n=1, exact=False):
    """Random element of H^n; exact forces the degree-n coefficient nonzero."""
    c = [0] * (trunc + 1)
    c[0] = 1
    for k in range(n, trunc + 1):
        c[k] = rand_coeff(rng, ring)
    if exact and n <= trunc:
        c[n] = nonzero_coeff(rng, ring)
    return UnitSeries(ring, tuple(c))


def rand_nott(rng, ring, trunc, n=1, exact=False):
    """Random element of N^n; exact forces the degree-(n+1) coefficient nonzero."""
    c = [0] * (trunc + 1)
    c[1] = 1
    for k in range(n + 1, trunc + 1):
        c[k] = rand_coeff(rng, ring)
    if exact and n + 1 <= trunc:
        c[n + 1] = nonzero_coeff(rng, ring)
    return NottSeries(ring, tuple(c))


def rand_elem(rng, ring, trunc, m=1, n=1):
    return RiordanElem(rand_unit(rng, ring, trunc, m), rand_nott(rng, ring, trunc, n))


# Brute-force substitution references: slower than the library's packed
# kernels and written independently of them.

def horner_compose(f, g, mod):
    """f(g) by Horner's rule, one full truncated product per coefficient of f."""
    n = len(f)
    out = [0] * n
    for k in range(n - 1, -1, -1):
        new = [0] * n
        for i in range(n):
            if out[i]:
                for j in range(1, n - i):
                    new[i + j] += out[i] * g[j]
        new[0] += f[k]
        out = new if mod is None else [c % mod for c in new]
    return tuple(out)


def reversion_by_degree(g, mod):
    """The compositional inverse of g = (0, 1, b2, ...), one Horner pass per degree.

    The degree-m coefficient of g(r) involves r_m only through the linear
    term, so r_m = -[x^m](sum_{j>=2} b_j r^j) evaluated with r_m = 0.
    """
    r = [0, 1]
    for m in range(2, len(g)):
        r.append(0)
        s = horner_compose((0, 0) + tuple(g[2 : m + 1]), tuple(r), mod)
        r[m] = -s[m] if mod is None else -s[m] % mod
    return tuple(r)


# Series-kernel references: the coefficient loops the library ran before its
# packed kernels and its Newton steps (F_p, then Z), for any ring and any
# integer inputs.

def mul_coeffs_by_loops(a, b, mod):
    """The truncated product of two coefficient sequences of equal length."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai:
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    if mod is None:
        return tuple(out)
    return tuple(c % mod for c in out)


def powers_by_loops(g, mod, first=None):
    """The table first * g^j for j = 0..N, one looped product per row."""
    if g[0]:
        raise ValueError("substituted series must have zero constant term")
    pw = [tuple(first) if first is not None else (1,) + (0,) * (len(g) - 1)]
    for _ in range(len(g) - 1):
        pw.append(mul_coeffs_by_loops(pw[-1], g, mod))
    return tuple(pw)


def inv_unit_by_loop(a, mod):
    """The inverse of a unit a (a[0] = 1), solved coefficient by coefficient."""
    n = len(a)
    out = [0] * n
    out[0] = 1
    for k in range(1, n):
        s = 0
        for i in range(1, k + 1):
            if a[i]:
                s += a[i] * out[k - i]
        out[k] = -s if mod is None else -s % mod
    return tuple(out)


def reversion_online(g, mod):
    """The power table of r with g(r) = x, solved column by column."""
    n = len(g)
    pw = [[0] * n for _ in range(n)]
    r = pw[1]
    pw[0][0] = r[1] = 1
    for m in range(2, n):
        s = 0
        for j in range(2, m + 1):
            prev = pw[j - 1]
            c = 0
            for i in range(j - 1, m):
                if prev[i]:
                    c += prev[i] * r[m - i]
            pw[j][m] = c = c if mod is None else c % mod
            if g[j]:
                s += g[j] * c
        r[m] = -s if mod is None else -s % mod
    return tuple(tuple(row) for row in pw)


# Quotient-law reference: the coefficient loops the library used before the
# packed-integer law, with the power table rebuilt on every call.

def mul_by_loops(G, x, y):
    """The quotient law of G on coordinate tuples: substitute x's g into both components of y."""
    p, na, L = G.p, G.na, G.level
    # powers g_x^0..g_x^L
    pows = powers_by_loops((0, 1) + x[na:], p)
    # h-part: h_x * h_y(g_x)
    acc = list(pows[0])
    for i in range(1, L):
        c = y[i - 1]
        if c:
            pi = pows[i]
            for k in range(i, L + 1):
                acc[k] += c * pi[k]
    hx = (1,) + x[:na] + (0,)
    h = mul_coeffs_by_loops(hx, tuple(acc), p)
    # g-part: g_x + sum_j y_bj * g_x^j
    gacc = list(pows[1])
    for j in range(2, L + 1):
        c = y[na + j - 2]
        if c:
            pj = pows[j]
            for k in range(j, L + 1):
                gacc[k] += c * pj[k]
    return h[1:L] + tuple(c % p for c in gacc[2 : L + 1])


# Tower-check reference: the loops tower_consistency ran before its part
# tables, one _tuple_at decode (one divmod per digit) per drawn tuple and one
# projection per product.

def tuple_at_draws(G, samples, seed):
    """The seeded (x, y) pairs of a sampled tower check on G, x drawn first."""
    rng = random.Random(seed)
    p, order, width = G.p, G.order, 2 * G.na
    for _ in range(samples):
        x = _tuple_at(rng.randrange(order), p, width)
        y = _tuple_at(rng.randrange(order), p, width)
        yield x, y


def tower_consistency_by_tuple_at(G_hi, G_lo, samples=None, seed=0):
    """tower_consistency on consecutive levels of one prime, decoding per digit."""
    na_hi, na_lo = G_hi.na, G_lo.na

    def proj(x):
        return x[:na_lo] + x[na_hi : na_hi + na_lo]

    def pad(x):
        return x[:na_lo] + (0,) + x[na_lo:] + (0,)

    if proj(G_hi.identity) != G_lo.identity:
        return TowerReport(False, 0, "exhaustive", False)
    labels = tuple(range(2 * na_lo))
    surjective = proj(pad(labels)) == labels
    if samples is None:
        elems = list(G_hi.iter_elements())
        pairs = 0
        for x in elems:
            for y in elems:
                pairs += 1
                if proj(G_hi.mul(x, y)) != G_lo.mul(proj(x), proj(y)):
                    return TowerReport(False, pairs, "exhaustive", surjective)
        return TowerReport(surjective, pairs, "exhaustive", surjective)
    for k, (x, y) in enumerate(tuple_at_draws(G_hi, samples, seed)):
        if proj(G_hi.mul(x, y)) != G_lo.mul(proj(x), proj(y)):
            return TowerReport(False, k + 1, "sampled", surjective)
    return TowerReport(surjective, samples, "sampled", surjective)


# Exhaustive closure reference, written independently of the coset walk:
# every element times every generator, |S| * |gens| products.

def closed_exhaustively(G, elems, gens):
    """Whether elems holds the identity and the generators and is closed under them."""
    elems = set(elems)
    if G.identity not in elems or not elems.issuperset(gens):
        return False
    return all(G.mul(x, g) in elems for x in elems for g in gens)


# Coset-walk closure reference, written independently of the pc engine: the
# breadth-first closure the library used before sifting, with its coset count.

def _extend_by_cosets(G, elems, kept, g):
    # Grow the subgroup K = `elems` to S = <K, g> = union of the cosets K*r.
    # BFS walks coset representatives r (the identity is the first) by
    # right multiplication with the kept generators, and stops only when
    # r*s lies in S for every r and kept s.  Since K*S = S, S is then
    # closed under the generators, and a finite set holding the identity
    # and closed under the generators is the subgroup they generate.
    # Under a group law the cosets are disjoint, so |S| = |K| * reps; a
    # short count exposes a law that is not a group law.
    kept.append(g)
    base = sorted(elems)
    cap = max_elements()
    mul = G.mul
    reps = 1
    queue = deque([g])
    while queue:
        r = queue.popleft()
        if r in elems:
            continue
        if len(elems) + len(base) > cap:
            raise CapExceededError(
                f"closure exceeded the element cap {cap} at p={G.p}, level={G.level}"
            )
        reps += 1
        for t in base:
            elems.add(mul(t, r))
        for s in kept:
            queue.append(mul(r, s))
    if len(elems) != len(base) * reps:
        raise RuntimeError(
            f"coset count failed: {len(elems)} elements from {reps} cosets of "
            f"{len(base)} at p={G.p}, level={G.level}"
        )


def closure_by_bfs(G, gens):
    """The element set of the subgroup of G generated by gens, by coset BFS."""
    elems = {G.identity}
    kept = []
    for g in gens:
        if g not in elems:
            _extend_by_cosets(G, elems, kept, g)
    return elems


# Index-set references: direct scans, written independently of the integer
# kernels in index_sets.py (prime-divisor period, bitset sumset, digit reversal).

def canonical_form_by_scan(threshold, exceptional, period, residues):
    """(T, except, period, residues) by the divisor scan and one-point threshold steps.

    The minimal period is the smallest divisor d of the period whose
    classes reproduce every residue; the threshold then drops one point at
    a time while the boundary point already follows the residue rule.
    """
    t, m = int(threshold), int(period)
    res = frozenset(int(r) for r in residues)
    exc = set(int(e) for e in exceptional)
    for d in range(1, m + 1):
        if m % d:
            continue
        base = frozenset(r % d for r in res)
        if all(((x % d) in base) == (x in res) for x in range(m)):
            m, res = d, base
            break
    while t > 0:
        b = t - 1
        if b == 0:
            t = 0
            break
        if (b in exc) == ((b % m) in res):
            t = b
            exc.discard(b)
        else:
            break
    return t, tuple(sorted(exc)), m, res


def sumset_by_pairs(s, bound):
    """(closed, witness): every member pair i <= j up to bound, in (i, j) order."""
    members = [n for n in range(1, bound + 1) if n in s]
    for idx, i in enumerate(members):
        for j in members[idx:]:
            if (i + j) not in s:
                return False, (i, j, i + j)
    return True, None


def W_by_fractions(m, p):
    """sum(m_n p^(-n-1)) over the base-p digits m_n of m, in Fractions."""
    out = Fraction(0)
    scale = Fraction(1, p)
    while m:
        m, d = divmod(m, p)
        out += d * scale
        scale /= p
    return out


def density_curve_by_scan(p, s, xi, limit):
    """(n, count, count/n) at n = 2, 4, 8, ... and limit, counting j <= n in s*N
    with j = -1 mod p and w(j) = W(j+1) < xi, each weight summed in Fractions."""
    rows, count, n = [], 0, 2
    for j in range(1, limit + 1):
        if j % s == 0 and j % p == p - 1 and W_by_fractions(j + 1, p) < xi:
            count += 1
        if j == n or j == limit:
            rows.append((j, count, Fraction(count, j)))
            n *= 2
    return rows


def admissibility_by_brute(I, J, p, bound):
    """(condition, index, n) of the first violation, in admissible_check's order, or None.

    (1) j + n*w in J for j in J up to bound, C(j+1, n) nonzero mod p, w in J;
    (2) i + i2 in I for members i <= i2 <= bound (n is None);
    (3) i + n*w in I for i in I up to bound, C(i, n) nonzero mod p, w in J.
    Every partner w in J below max(J.threshold, target.threshold) + M, with
    M = J.period * target.period, is tried as it is.  That reach is exact:
    values below the target threshold come from w below it, and past both
    thresholds w and w + M are members together and give values in one
    class mod the target period.
    """

    def scan(target, shift):
        # indices b from target, binomial on b + shift, partners from J
        reach = max(J.threshold, target.threshold) + J.period * target.period
        partners = [w for w in range(1, reach) if w in J]
        for b in range(1, bound + 1):
            if b not in target:
                continue
            a = b + shift
            for n in range(1, a + 1):
                if binom_mod_p(a, n, p) and any(b + n * w not in target for w in partners):
                    return b, n
        return None

    bad = scan(J, 1)
    if bad is not None:
        return (1,) + bad
    closed, witness = sumset_by_pairs(I, bound)
    if not closed:
        return 2, witness[0], None
    bad = scan(I, 0)
    return None if bad is None else (3,) + bad


# The per-index scans the index layer ran before its member-flags kernel:
# one membership test per index, the sumset scan read to 2*bound whatever
# the certificate, and one digit reversal per J(xi) index.

def members_upto_by_scan(s, bound):
    """The members of s in [1, bound], one membership test per integer."""
    return [x for x in range(1, bound + 1) if x in s]


def sumset_closed_unclamped(s, bound=None):
    """sumset_closed with membership to 2*bound, built one residue class at a time."""
    cert = sumset_certification_bound(s)
    if bound is None:
        bound = cert
    bound = int(bound)
    require_within_cap(2 * bound, f"the sumset scan reads membership up to 2*bound={2 * bound}")
    row = bytearray(b"0") * (max(2 * bound, 0) + 1)
    lo = max(s.threshold, 1)
    for r in s.residues:
        first = s.first_in_class(r, lo)
        row[first::s.period] = b"1" * len(range(first, len(row), s.period))
    for e in s.exceptional:
        if e < len(row):
            row[e] = ord("1")
    inside = int(row[::-1], 2)
    rest = inside & ((2 << max(bound, 0)) - 1)
    while rest:
        i = (rest & -rest).bit_length() - 1
        escape = (rest << i) & ~inside
        if escape:
            v = (escape & -escape).bit_length() - 1
            return SumsetReport(False, True, bound, (i, v - i, v))
        rest &= rest - 1
    return SumsetReport(True, bound >= cert, bound, None)


def reversal_scan(out, xi, p, emit_bound):
    """Jxi's re-verification of the decomposition out, one j at a time.

    Raises RuntimeError at the least j <= emit_bound where j in out differs
    from w(j) < xi, decided as rev*den < num*p^L from the digit reversal
    of j + 1; returns out when they agree.
    """
    xi = Fraction(xi)
    num, den = xi.numerator, xi.denominator
    for j in range(1, emit_bound + 1):
        direct = False
        if j % p == p - 1:
            rev, scale = _reversal(j + 1, p)
            direct = rev * den < num * scale
        if direct != (j in out):
            raise RuntimeError(f"progression decomposition disagrees with the w-scan at j={j}")
    return out


# The per-n admissibility walk and the per-integer set combination the
# library used before its class-set scan and lifted-residue set algebra.

def dominated_ns_by_product(a, p):
    """All n in [1, a] with C(a, n) nonzero mod p, by digit products, sorted."""
    digits = []
    x = a
    while x:
        x, d = divmod(x, p)
        digits.append(d)
    out = []
    for combo in itertools.product(*(range(d + 1) for d in digits)):
        n = 0
        for pos, e in enumerate(combo):
            n += e * p**pos
        if n:
            out.append(n)
    return tuple(sorted(out))


def admissible_check_by_walk(I, J, p, bound=1000):
    """admissible_check with every dominated n of every base visited in turn,
    the bases listed and the sumset scanned by the per-index references above."""
    CoeffRing(p)
    bound = int(bound)
    if bound < 4:
        raise ValueError("bound must be >= 4")
    require_within_cap(
        2 * bound, f"the admissibility scan reads membership up to 2*bound={2 * bound}"
    )

    def scan(base_set, cond):
        # cond 1: partner J, target J, binomial on base+1
        # cond 3: partner J, target I, binomial on base
        target = J if cond == 1 else I
        pure = J.threshold == 0 and target.threshold == 0
        cache = {}
        mt = target.period
        for b in members_upto_by_scan(base_set, bound):
            a = b + 1 if cond == 1 else b
            for n in dominated_ns_by_product(a, p):
                if pure:
                    key = (b % mt, n % mt)
                    hit = cache.get(key)
                    if hit is False:
                        continue
                bad = _shift_check(b, n, J, target)
                if pure:
                    cache[key] = bad is not None
                if bad is not None:
                    w, v = bad
                    return Violation(cond, b, n, w, v)
        return None

    bad = scan(J, 1)
    cert = True
    if bad is None:
        rep = sumset_closed_unclamped(I, bound)
        cert = rep.certified
        if not rep.closed:
            i, i2, v = rep.witness
            bad = Violation(2, i, None, i2, v)
    if bad is None:
        bad = scan(I, 3)
    if bad is not None:
        if not verify_violation(bad, I, J, p):
            raise RuntimeError(f"admissibility witness failed re-verification: {bad}")
        return AdmissibilityReport("violation", bound, p, cert, bad)
    return AdmissibilityReport("pass-up-to-bound", bound, p, cert, None)


COMBINE_KEEP = {
    "union": lambda a, b: a or b,
    "intersect": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
}


def combine_by_scan(s, other, op):
    """s.union / intersect / difference(other), one keep() call per integer."""
    keep = COMBINE_KEEP[op]
    m = lcm(s.period, other.period)
    t = max(s.threshold, other.threshold)
    require_within_cap(
        max(m, t),
        f"combining index sets needs lcm(periods)={m} residues and a threshold of {t}",
    )
    res = {
        x
        for x in range(m)
        if keep((x % s.period) in s.residues, (x % other.period) in other.residues)
    }
    exc = {n for n in range(1, t) if keep(n in s, n in other)}
    return IndexSet(t, exc, m, res)
