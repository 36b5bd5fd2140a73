"""Eventually periodic index sets and the index-subgroup calculus over F_p.

An IndexSet holds a subset of the positive integers in threshold+period
form: finitely many exceptional members below a threshold, and a union of
residue classes from the threshold on.  That shape is closed under the
boolean operations, has exact rational density, and makes the binomial
admissibility conditions decidable: the unbounded inner quantifiers reduce
to finite phase scans (see admissible_check).

On top sit the digit-reflection value W, the progression decomposition of
the sets J(xi), density-convergence curves, Hausdorff dimensions of index
subgroups under configurable filtrations, the classification of admissible
pairs, and the witness families populating the dimension spectrum.

All values are immutable; every function is deterministic.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .group import RiordanElem, rinv, rmul
from .series import (
    CapExceededError,
    CoeffRing,
    NottSeries,
    UnitSeries,
    _literal_fields,
    max_elements,
)


@dataclass(frozen=True)
class DensityValue:
    """Exact density of an eventually periodic set; lower = upper here."""

    lower: Fraction
    upper: Fraction

    @property
    def exists(self):
        return self.lower == self.upper

    @property
    def value(self):
        if not self.exists:
            raise ValueError("density does not exist")
        return self.lower

    # the liminf/limsup names used in the literature
    @property
    def ldense(self):
        return self.lower

    @property
    def udense(self):
        return self.upper


def _prime_divisors(n):
    """The distinct primes dividing n >= 1, by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


class IndexSet:
    """A subset of the positive integers in canonical threshold+period form.

    Membership: n in exceptional if n < threshold, else n mod period in
    residues.  Construction normalizes to the minimal period and minimal
    threshold, so equal sets compare equal.
    """

    __slots__ = ("threshold", "exceptional", "period", "residues")

    def __init__(self, threshold=0, exceptional=(), period=1, residues=()):
        t = int(threshold)
        m = int(period)
        if t < 0:
            raise ValueError("threshold must be >= 0")
        if m < 1:
            raise ValueError("period must be >= 1")
        res = frozenset(int(r) for r in residues)
        if any(r < 0 or r >= m for r in res):
            raise ValueError("residues must lie in [0, period)")
        exc = set(int(e) for e in exceptional)
        if any(e < 1 or e >= t for e in exc):
            raise ValueError("exceptional members must lie in [1, threshold)")

        # minimal period: the shifts fixing res form a subgroup d0*Z/m, and
        # each class mod d0 holds m/d0 residues, so m/d0 divides
        # gcd(m, |res|).  Strip each prime q of that gcd while res is
        # invariant under a shift by d/q; an empty or full res has period 1.
        d = m
        if not res or len(res) == m:
            d = 1
        else:
            g = gcd(m, len(res))
            for q in _prime_divisors(g):
                while g % q == 0 and all((r + d // q) % m in res for r in res):
                    g //= q
                    d //= q
        if d < m:
            m, res = d, frozenset(r % d for r in res)
        # minimal threshold: absorb the boundary point b while it already
        # follows the residue rule.  A run of points that are neither
        # exceptional nor in a class is absorbed at once, down to one above
        # the nearest lower point that is (exc stays sorted, all below t).
        exc = sorted(exc)
        classes = None
        while t > 1:
            b = t - 1
            top = exc[-1] if exc else 0
            if b == top:
                if (b % m) not in res:
                    break
                exc.pop()
                t = b
            elif (b % m) in res:
                break
            else:
                near = 0
                if res:
                    if classes is None:
                        classes = sorted(res)
                    x = (b - 1) % m
                    k = bisect_right(classes, x)
                    # the last class point <= b-1: in b-1's block, else the block below
                    near = b - 1 - x + (classes[k - 1] if k else classes[-1] - m)
                t = max(top, near, 0) + 1
        if t == 1:
            t = 0

        self.threshold = t
        self.exceptional = tuple(exc)
        self.period = m
        self.residues = res

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def naturals(cls):
        return cls(period=1, residues={0})

    @classmethod
    def from_finite(cls, members):
        members = set(int(n) for n in members)
        if not members:
            return cls.empty()
        if min(members) < 1:
            raise ValueError("members must be positive")
        return cls(threshold=max(members) + 1, exceptional=members)

    @classmethod
    def multiples(cls, d):
        d = int(d)
        if d < 1:
            raise ValueError("multiples() needs d >= 1")
        return cls(period=d, residues={0})

    @classmethod
    def progression(cls, a, d):
        """{a, a+d, a+2d, ...} for a >= 1, d >= 1."""
        a, d = int(a), int(d)
        if a < 1 or d < 1:
            raise ValueError("progression() needs a >= 1 and d >= 1")
        return cls(threshold=a, period=d, residues={a % d})

    # -- membership and counting -----------------------------------------

    def __contains__(self, n):
        n = int(n)
        if n < 1:
            return False
        if n < self.threshold:
            return n in self.exceptional
        return (n % self.period) in self.residues

    def count_upto(self, bound):
        """|{n in self : n <= bound}| by closed formula."""
        bound = int(bound)
        if bound < 1:
            return 0
        count = sum(1 for e in self.exceptional if e <= bound)
        lo = max(self.threshold, 1)
        if bound >= lo:
            m = self.period
            for r in self.residues:
                first = lo + ((r - lo) % m)
                if first <= bound:
                    count += (bound - first) // m + 1
        return count

    def first_in_class(self, r, lo):
        """The least n >= lo with n = r mod period (class helper)."""
        lo = max(int(lo), 1)
        return lo + ((r - lo) % self.period)

    # -- predicates --------------------------------------------------------

    def is_finite(self):
        return not self.residues

    def is_empty(self):
        return not self.residues and not self.exceptional

    def issubset(self, other):
        return self.difference(other).is_empty()

    def gcd_value(self):
        """gcd of all members (0 for the empty set)."""
        g = 0
        for e in self.exceptional:
            g = gcd(g, e)
        for r in self.residues:
            g = gcd(g, gcd(r, self.period) if r else self.period)
        return g

    def eventual_residues(self, k):
        """Residues mod k hit by infinitely many members."""
        k = int(k)
        if k < 1:
            raise ValueError("modulus must be >= 1")
        m = self.period
        reps = k // gcd(m, k)
        return frozenset((r + t * m) % k for r in self.residues for t in range(reps))

    # -- boolean algebra ---------------------------------------------------

    def _combine(self, other, keep):
        if not isinstance(other, IndexSet):
            raise TypeError("expected an IndexSet")
        m = lcm(self.period, other.period)
        t = max(self.threshold, other.threshold)
        if max(m, t) > max_elements():
            raise CapExceededError(
                f"combining index sets needs lcm(periods)={m} residues and a threshold of "
                f"{t}; the cap is {max_elements()}"
            )
        res = {
            x
            for x in range(m)
            if keep((x % self.period) in self.residues, (x % other.period) in other.residues)
        }
        exc = {n for n in range(1, t) if keep(n in self, n in other)}
        return IndexSet(t, exc, m, res)

    def union(self, other):
        return self._combine(other, lambda a, b: a or b)

    def intersect(self, other):
        return self._combine(other, lambda a, b: a and b)

    def difference(self, other):
        return self._combine(other, lambda a, b: a and not b)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IndexSet):
            return NotImplemented
        return (
            self.threshold == other.threshold
            and self.exceptional == other.exceptional
            and self.period == other.period
            and self.residues == other.residues
        )

    def __hash__(self):
        return hash((self.threshold, self.exceptional, self.period, self.residues))

    def __repr__(self):
        return f"IndexSet({format_index_set(self)!r})"

    def __setattr__(self, name, value):
        if hasattr(self, "residues"):
            raise AttributeError("IndexSet is immutable")
        super().__setattr__(name, value)


def format_index_set(s):
    """The literal form `T=..; except=..; period=..; residues=..`."""
    exc = ",".join(str(e) for e in s.exceptional)
    res = ",".join(str(r) for r in sorted(s.residues))
    return f"T={s.threshold}; except={exc}; period={s.period}; residues={res}"


def parse_index_set(line):
    fields = _literal_fields(line, "index-set")
    expected = {"T", "except", "period", "residues"}
    if set(fields) != expected:
        raise ValueError("index-set literal needs exactly the fields T, except, period, residues")

    def int_list(raw):
        if not raw:
            return ()
        return tuple(int(tok) for tok in raw.split(","))

    return IndexSet(
        threshold=int(fields["T"]),
        exceptional=int_list(fields["except"]),
        period=int(fields["period"]),
        residues=int_list(fields["residues"]),
    )


def density(s):
    """Exact density |residues|/period (lower = upper for this shape)."""
    d = Fraction(len(s.residues), s.period)
    return DensityValue(d, d)


@dataclass(frozen=True)
class SumsetReport:
    closed: bool
    certified: bool
    bound: int
    witness: tuple | None  # (i, i2, i + i2) escaping the set


def sumset_certification_bound(s):
    """Scans up to 2(T+m) decide sumset closure for the whole set."""
    return 2 * (s.threshold + s.period)


def _member_bits(s, top):
    """The members of s in [1, top] as the set bits of one int."""
    row = bytearray(b"0") * (max(int(top), 0) + 1)
    lo = max(s.threshold, 1)
    for r in s.residues:
        first = s.first_in_class(r, lo)
        row[first::s.period] = b"1" * len(range(first, len(row), s.period))
    for e in s.exceptional:
        if e < len(row):
            row[e] = ord("1")
    return int(row[::-1], 2)


def sumset_closed(s, bound=None):
    """Is s closed under addition?  Scan pairs <= bound, witness first.

    With bound >= 2(threshold+period) the scan certifies closure for all
    members: any pair reduces, class by class, to a scanned pair with the
    same sum residue and comparable threshold side.  A smaller bound
    downgrades the verdict to up-to-bound.

    Membership up to 2*bound is one int.  For each member i in ascending
    order, rest holds the members j >= i, so the lowest set bit of
    (rest << i) & ~inside is the least i+j outside s: the first witness of
    the pair scan in (i, j) order.  A 2*bound above the enumeration cap
    raises CapExceededError.
    """
    cert = sumset_certification_bound(s)
    if bound is None:
        bound = cert
    bound = int(bound)
    if 2 * bound > max_elements():
        raise CapExceededError(
            f"the sumset scan reads membership up to 2*bound={2 * bound}; the cap is {max_elements()}"
        )
    inside = _member_bits(s, 2 * bound)
    rest = inside & ((2 << max(bound, 0)) - 1)
    while rest:
        i = (rest & -rest).bit_length() - 1
        escape = (rest << i) & ~inside
        if escape:
            v = (escape & -escape).bit_length() - 1
            return SumsetReport(False, True, bound, (i, v - i, v))
        rest &= rest - 1
    return SumsetReport(True, bound >= cert, bound, None)


def binom_mod_p(a, b, p):
    """C(a, b) mod p by base-p digit products."""
    a, b = int(a), int(b)
    CoeffRing(p)  # validates primality
    if b < 0 or b > a:
        raise ValueError("need 0 <= b <= a")
    out = 1
    while b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        if db > da:
            return 0
        num = den = 1
        for k in range(db):
            num = num * (da - k) % p
            den = den * (k + 1) % p
        out = out * num * pow(den, p - 2, p) % p
    return out


@lru_cache(maxsize=None)
def _dominated_ns(a, p):
    """All n in [1, a] with C(a, n) nonzero mod p, ascending.

    By Lucas these are exactly the n whose base-p digits are dominated by
    the digits of a, so they are enumerated by digit products.
    """
    digits = []
    x = a
    while x:
        x, d = divmod(x, p)
        digits.append(d)
    if not digits:
        return ()
    out = []
    for combo in itertools.product(*(range(d + 1) for d in digits)):
        n = 0
        for pos, e in enumerate(combo):
            n += e * p**pos
        if n:
            out.append(n)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Violation:
    """A concrete counterexample to one admissibility condition.

    condition 1: index=j in J, partner=j2 in J, value=j+n*j2 not in J.
    condition 2: index=i, partner=i2 in I, value=i+i2 not in I (n unused).
    condition 3: index=i in I, partner=j in J, value=i+n*j not in I.
    """

    condition: int
    index: int
    n: int | None
    partner: int
    value: int


def verify_violation(v, I, J, p):
    """Re-check a witness against the quoted condition, independently."""
    if v.condition == 1:
        return (
            v.index in J
            and v.partner in J
            and binom_mod_p(v.index + 1, v.n, p) != 0
            and v.value == v.index + v.n * v.partner
            and v.value not in J
        )
    if v.condition == 2:
        return v.index in I and v.partner in I and v.value == v.index + v.partner and v.value not in I
    if v.condition == 3:
        return (
            v.index in I
            and v.partner in J
            and binom_mod_p(v.index, v.n, p) != 0
            and v.value == v.index + v.n * v.partner
            and v.value not in I
        )
    raise ValueError(f"unknown condition {v.condition}")


@dataclass(frozen=True)
class AdmissibilityReport:
    verdict: str  # "pass-up-to-bound" | "violation"
    bound: int
    p: int
    condition2_certified: bool
    violation: Violation | None

    @property
    def passed(self):
        return self.verdict == "pass-up-to-bound"


def _shift_check(base, n, partner, target):
    """Does base + n*w stay in target for EVERY w in partner?  Exact.

    Exceptional partner members are checked directly.  Each partner residue
    class is checked through one full phase cycle of values mod the target
    period; values that land below the target threshold are re-checked at a
    bumped representative in the same class.  Returns None, or a witness
    (w, base + n*w) escaping the target.
    """
    for e in partner.exceptional:
        v = base + n * e
        if v not in target:
            return (e, v)
    mp, mt = partner.period, target.period
    cycle = mt // gcd(n * mp, mt)
    lo = max(partner.threshold, 1)
    stride = n * mp
    for r in sorted(partner.residues):
        w0 = partner.first_in_class(r, lo)
        for t in range(cycle):
            w = w0 + t * mp
            v = base + n * w
            if v not in target:
                return (w, v)
            if v < target.threshold:
                # same value class, pushed past the threshold
                k = -(-(target.threshold - v) // (stride * cycle))
                w2 = w + k * cycle * mp
                v2 = base + n * w2
                if v2 not in target:
                    return (w2, v2)
    return None


def _members_upto(s, bound):
    return [x for x in range(1, bound + 1) if x in s]


def admissible_check(I, J, p, bound=1000):
    """The three binomial conditions for (I, J) to define an index subgroup.

    (1) j + n*J stays in J whenever j in J and C(j+1, n) is nonzero mod p;
    (2) I is closed under addition (certified exactly when the bound allows);
    (3) i + n*J stays in I whenever i in I and C(i, n) is nonzero mod p.

    The outer indices i, j run up to the bound; the inner quantifier over J
    is exact (see _shift_check).  Conditions are tried in order and the
    first violation wins; every witness re-verifies independently.  The
    sumset step reads membership up to 2*bound, so a 2*bound above the
    enumeration cap raises CapExceededError before any scan.
    """
    CoeffRing(p)
    bound = int(bound)
    if bound < 4:
        raise ValueError("bound must be >= 4")
    if 2 * bound > max_elements():
        raise CapExceededError(
            f"the admissibility scan reads membership up to 2*bound={2 * bound}; "
            f"the cap is {max_elements()}"
        )

    def scan(base_set, cond):
        # cond 1: partner J, target J, binomial on base+1
        # cond 3: partner J, target I, binomial on base
        target = J if cond == 1 else I
        pure = J.threshold == 0 and target.threshold == 0
        cache = {}
        mt = target.period
        for b in _members_upto(base_set, bound):
            a = b + 1 if cond == 1 else b
            for n in _dominated_ns(a, p):
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
        rep = sumset_closed(I, bound)
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


@dataclass(frozen=True)
class CrosscheckReport:
    consistent: bool
    samples: int
    trunc: int
    escape: str | None


def group_closure_crosscheck(I, J, p, trunc=20, samples=200, seed=0):
    """Sample the candidate index subgroup and test closure under the law.

    Elements have h supported on degrees in I and g = x + sum of terms
    x^(j+1) over j in J (the g-support indexes the filtration level).
    Products and inverses must keep that shape; the first escape is
    reported and disproves admissibility.
    """
    ring = CoeffRing(p)
    trunc = int(trunc)
    rng = random.Random(seed)
    hdegs = [d for d in range(1, trunc + 1) if d in I]
    gdegs = [d for d in range(2, trunc + 2) if (d - 1) in J]

    def rand_elem():
        hc = [0] * (trunc + 1)
        hc[0] = 1
        for d in hdegs:
            hc[d] = rng.randrange(p)
        gc = [0] * (trunc + 1)
        gc[1] = 1
        for d in gdegs:
            if d <= trunc:
                gc[d] = rng.randrange(p)
        return RiordanElem(UnitSeries(ring, hc), NottSeries(ring, gc))

    def escape_of(elem):
        for d in range(1, trunc + 1):
            if elem.h.coeff(d) and d not in I:
                return f"h-coefficient at degree {d} outside I"
        for d in range(2, trunc + 1):
            if elem.g.coeff(d) and (d - 1) not in J:
                return f"g-coefficient at degree {d} outside J"
        return None

    for k in range(int(samples)):
        x = rand_elem()
        y = rand_elem()
        for label, elem in (("product", rmul(x, y)), ("inverse", rinv(x))):
            esc = escape_of(elem)
            if esc is not None:
                return CrosscheckReport(False, k + 1, trunc, f"{label}: {esc}")
    return CrosscheckReport(True, int(samples), trunc, None)


def _reversal(m, p):
    """(rev, p^L) for m >= 1 with L base-p digits read in reverse: W(m) = rev/p^L."""
    rev, scale = 0, 1
    while m:
        m, d = divmod(m, p)
        rev = rev * p + d
        scale *= p
    return rev, scale


def W_value(m, p):
    """The digit-reflection value sum(m_n p^(-n-1)) of m in base p."""
    m = int(m)
    CoeffRing(p)
    if m < 1:
        raise ValueError("W is defined for m >= 1")
    return Fraction(*_reversal(m, p))


def w_value(j, p):
    """w(j) = W(j+1)."""
    j = int(j)
    if j < 0:
        raise ValueError("w is defined for j >= 0")
    return W_value(j + 1, p)


def Jxi(xi, p, emit_bound=10**4):
    """The set {j = -1 mod p : w(j) < xi} as explicit progressions.

    xi must be a rational in [0, 1/p] with p-power denominator; the result
    is a union of residue classes mod p^(K+1) where K is the digit length
    of p*xi.  Membership is re-verified against the direct w(j) < xi scan
    up to emit_bound >= 1 before returning, in integers:
    w(j) = rev/p^L < num/den exactly when rev*den < num*p^L.  A period
    p^(K+1) or an emit_bound above the enumeration cap raises
    CapExceededError.
    """
    CoeffRing(p)
    emit_bound = int(emit_bound)
    if emit_bound < 1:
        raise ValueError(f"emit_bound must be >= 1, got {emit_bound}")
    if emit_bound > max_elements():
        raise CapExceededError(
            f"the J(xi) re-verification scans j up to emit_bound={emit_bound}; "
            f"the cap is {max_elements()}"
        )
    xi = Fraction(xi)
    if xi < 0 or xi > Fraction(1, p):
        raise ValueError("xi must lie in [0, 1/p]")
    den = xi.denominator
    while den % p == 0:
        den //= p
    if den != 1:
        raise ValueError("xi must have a p-power denominator")

    if xi == 0:
        out = IndexSet.empty()
    elif xi == Fraction(1, p):
        # every j = -1 mod p has w(j) < 1/p: the leading base-p digit of
        # j+1 is 0 and the expansion is finite
        out = IndexSet(period=p, residues={p - 1})
    else:
        digits = []
        x = xi * p
        while x:
            x *= p
            d = int(x)
            digits.append(d)
            x -= d
        K = len(digits)
        P = p ** (K + 1)
        if P > max_elements():
            raise CapExceededError(f"J(xi) has period {p}^{K + 1}; the cap is {max_elements()}")
        residues = set()
        prefix = 0
        for n in range(1, K + 1):
            c = digits[n - 1]
            step = p ** (n + 1)
            for t in range(c):
                anchor = prefix + t * p**n
                for u in range(P // step):
                    residues.add((anchor - 1 + u * step) % P)
            prefix += c * p**n
        out = IndexSet(period=P, residues=residues)

    num, den = xi.numerator, xi.denominator
    for j in range(1, emit_bound + 1):
        direct = False
        if j % p == p - 1:
            rev, scale = _reversal(j + 1, p)
            direct = rev * den < num * scale
        if direct != (j in out):
            raise RuntimeError(f"progression decomposition disagrees with the w-scan at j={j}")
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    count: int
    estimate: Fraction


@dataclass(frozen=True)
class ConvergenceReport:
    p: int
    s: int
    xi: Fraction
    exact: Fraction
    period: int
    rows: tuple
    final_error: Fraction

    @property
    def within_bound(self):
        n = self.rows[-1].n
        return self.final_error <= Fraction(self.p * self.period, n)


def density_convergence(p, s, xi, limit=10**5, source="indexset"):
    """Counting curve of J(xi) intersected with s*N against the limit xi/s.

    source "indexset" counts through the progression decomposition;
    source "scan" evaluates w(j) < xi directly for every j (slower, fully
    independent).  Requires gcd(s, p) = 1.
    """
    CoeffRing(p)
    s = int(s)
    limit = int(limit)
    if s < 1 or s % p == 0:
        raise ValueError("s must be positive and coprime to p")
    if limit < 2:
        raise ValueError("limit must be >= 2")
    xi = Fraction(xi)
    grid = []
    n = 2
    while n < limit:
        grid.append(n)
        n *= 2
    grid.append(limit)

    rows = []
    if source == "indexset":
        J = Jxi(xi, p).intersect(IndexSet.multiples(s))
        period = J.period
        for n in grid:
            c = J.count_upto(n)
            rows.append(ConvergenceRow(n, c, Fraction(c, n)))
    elif source == "scan":
        J = Jxi(xi, p)  # only for the period bound in the report
        period = lcm(J.period, s)
        num, den = xi.numerator, xi.denominator
        count = 0
        it = iter(grid)
        nxt = next(it)
        for j in range(1, limit + 1):
            if j % s == 0 and j % p == p - 1:
                rev, scale = _reversal(j + 1, p)
                if rev * den < num * scale:
                    count += 1
            if j == nxt:
                rows.append(ConvergenceRow(j, count, Fraction(count, j)))
                nxt = next(it, None)
    else:
        raise ValueError("source must be 'indexset' or 'scan'")

    exact = xi / s
    final_error = abs(rows[-1].estimate - exact)
    return ConvergenceReport(p, s, xi, exact, period, tuple(rows), final_error)


class FiltrationSpec:
    """A filtration exponent map sigma with optional linear growth rate.

    sigma must satisfy sigma(1) = 1, be nondecreasing, and be subadditive
    on the range it is evaluated over.  The presets carry those properties
    by construction and an exact growth rate alpha; table-backed maps are
    checked exhaustively on their domain and report no closed form.
    """

    __slots__ = ("name", "sigma", "alpha", "domain_max", "_trusted")

    def __init__(self, name, sigma, alpha, domain_max=None, _trusted=False):
        self.name = name
        self.sigma = sigma
        self.alpha = None if alpha is None else Fraction(alpha)
        self.domain_max = domain_max
        self._trusted = _trusted

    @classmethod
    def identity(cls):
        return cls("identity", lambda n: n, Fraction(1), _trusted=True)

    @classmethod
    def ceil_half(cls):
        return cls("ceilhalf", lambda n: (n + 1) // 2, Fraction(1, 2), _trusted=True)

    @classmethod
    def from_table(cls, values):
        """values maps n -> sigma(n) on a contiguous range 1..N."""
        table = {int(k): int(v) for k, v in dict(values).items()}
        n_max = max(table) if table else 0
        if sorted(table) != list(range(1, n_max + 1)):
            raise ValueError("table must cover a contiguous range 1..N")
        spec = cls(
            "table", lambda n, _t=table: _t[n], None, domain_max=n_max
        )
        spec.validate_range(n_max)
        return spec

    @classmethod
    def from_table_lines(cls, lines):
        table = {}
        for raw in lines:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            toks = raw.replace(",", " ").split()
            if len(toks) != 2:
                raise ValueError(f"malformed table line {raw!r}")
            table[int(toks[0])] = int(toks[1])
        return cls.from_table(table)

    def value(self, n):
        n = int(n)
        if n < 1:
            raise ValueError("sigma is defined on n >= 1")
        if self.domain_max is not None and n > self.domain_max:
            raise ValueError(f"sigma table covers only n <= {self.domain_max}")
        return int(self.sigma(n))

    def validate_range(self, up_to):
        """Check the side conditions on 1..up_to (presets hold by design)."""
        if self._trusted:
            return
        vals = [self.value(n) for n in range(1, up_to + 1)]
        if not vals or vals[0] != 1:
            raise ValueError("sigma(1) must be 1")
        for k in range(1, len(vals)):
            if vals[k] < vals[k - 1]:
                raise ValueError(f"sigma must be nondecreasing, fails at n={k + 1}")
        for a in range(1, up_to + 1):
            for b in range(a, up_to - a + 1):
                if vals[a + b - 1] > vals[a - 1] + vals[b - 1]:
                    raise ValueError(f"sigma must be subadditive, fails at {a}+{b}")

    def __repr__(self):
        return f"FiltrationSpec({self.name}, alpha={self.alpha})"


@dataclass(frozen=True)
class DimensionRow:
    n: int
    numerator: int
    denominator: int
    estimate: Fraction


@dataclass(frozen=True)
class DimensionReport:
    filtration: str
    alpha: Fraction | None
    exact: Fraction | None
    rows: tuple
    error_bound: Fraction | None
    agrees: bool | None


def hausdorff_dim(
    I,
    J,
    p,
    filtration=None,
    *,
    check_admissible=True,
    grid_bound=2048,
    admissible_bound=1000,
):
    """Hausdorff dimension of the index subgroup for a filtration choice.

    For sigma with growth rate alpha the closed form is
    alpha/(1+alpha) * dense(I) + 1/(1+alpha) * dense(J); the finite-level
    counting sequence is returned alongside and must agree within a
    period-sized error at the last grid point.  Table filtrations with no
    growth rate return the sequence only.
    """
    if filtration is None:
        filtration = FiltrationSpec.identity()
    if check_admissible:
        rep = admissible_check(I, J, p, bound=admissible_bound)
        if not rep.passed:
            raise ValueError(f"pair is not admissible: {rep.violation}")

    top = grid_bound
    if filtration.domain_max is not None:
        top = min(top, filtration.domain_max)
    if top < 2:
        raise ValueError("grid bound too small")
    filtration.validate_range(top)

    grid = []
    n = 2
    while n < top:
        grid.append(n)
        n *= 2
    grid.append(top)

    rows = []
    for n in grid:
        sn = filtration.value(n)
        num = I.count_upto(sn - 1) + J.count_upto(n - 1)
        den = (sn - 1) + (n - 1)
        rows.append(DimensionRow(n, num, den, Fraction(num, den)))

    alpha = filtration.alpha
    if alpha is None:
        return DimensionReport(filtration.name, None, None, tuple(rows), None, None)
    dI = density(I).value
    dJ = density(J).value
    exact = alpha / (1 + alpha) * dI + 1 / (1 + alpha) * dJ
    ci = I.threshold + I.period + 1
    cj = J.threshold + J.period + 1
    error_bound = Fraction(ci + cj + 2, rows[-1].denominator)
    agrees = abs(rows[-1].estimate - exact) <= error_bound
    return DimensionReport(filtration.name, alpha, exact, tuple(rows), error_bound, agrees)


class ClassificationError(ValueError):
    """An admissible pair failed to match the structural case analysis."""


@dataclass(frozen=True)
class Classification:
    case: str  # "1" | "2i" | "2ii" | "2iii"
    params: dict
    j_density: Fraction


def _vp(n, p):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def classify_pair(I, J, p):
    """Match an admissible pair to its structural case and parameters.

    Case 1: I empty.  Otherwise I must be cofinite in q*N for q = gcd(I) =
    s*p^r with p not dividing s (minimal s, the p-part goes to r).  J then
    falls into: (i) inside (pN-1) and s*N; (ii) cofinite in s0*N for
    s0 = gcd(J minus (pN-1)), with u = s0/s; (iii) split between p^v*N and
    pN-1 classes mod s0, with v = v_p(s0) >= 1, s1 = s0/p^v, u = s1/s and
    t the number of nonzero eventual classes mod s0.  Each case must
    reproduce dense(J) by its formula; any mismatch raises
    ClassificationError loudly, since it would contradict admissibility.
    """
    CoeffRing(p)
    dJ = density(J).value
    if I.is_empty():
        return Classification("1", {}, dJ)

    q = I.gcd_value()
    r = _vp(q, p)
    s = q // p**r
    if not IndexSet.multiples(q).difference(I).is_finite():
        raise ClassificationError(
            f"I has gcd {q} but is not cofinite in {q}N; no case applies"
        )

    pm1 = IndexSet(period=p, residues={p - 1})
    if J.issubset(pm1.intersect(IndexSet.multiples(s))):
        return Classification("2i", {"s": s, "r": r}, dJ)

    S = J.difference(pm1)
    if S.is_empty():
        raise ClassificationError(
            "J lies in pN-1 but not in sN; no case applies"
        )
    s0 = S.gcd_value()

    if J.issubset(IndexSet.multiples(s0)) and IndexSet.multiples(s0).difference(J).is_finite():
        if s0 % s:
            raise ClassificationError(f"s0={s0} is not a multiple of s={s}")
        u = s0 // s
        if dJ != Fraction(1, s * u):
            raise ClassificationError(
                f"case 2ii density mismatch: dense(J)={dJ} != 1/{s * u}"
            )
        return Classification("2ii", {"s": s, "r": r, "u": u}, dJ)

    v = _vp(s0, p)
    if v < 1:
        raise ClassificationError(
            f"J is not cofinite in {s0}N and gcd {s0} has no p-part; no case applies"
        )
    s1 = s0 // p**v
    shape = IndexSet.multiples(s1).intersect(IndexSet.multiples(p**v).union(pm1))
    if not J.issubset(shape):
        raise ClassificationError(
            f"J escapes s1*N intersect (p^v*N union pN-1) for s1={s1}, v={v}"
        )
    classes = J.eventual_residues(s0)
    union = IndexSet(period=s0, residues=classes)
    if not union.difference(J).is_finite():
        raise ClassificationError("J is not cofinite in its eventual classes mod s0")
    if 0 not in classes:
        raise ClassificationError("case 2iii needs the zero class mod s0")
    t = len(classes) - 1
    if t < 1:
        raise ClassificationError("case 2iii needs at least one nonzero class")
    if s1 % s:
        raise ClassificationError(f"s1={s1} is not a multiple of s={s}")
    u = s1 // s
    if dJ != Fraction(1 + t, s * u * p**v):
        raise ClassificationError(
            f"case 2iii density mismatch: dense(J)={dJ} != (1+{t})/{s * u * p**v}"
        )
    return Classification("2iii", {"s": s, "r": r, "v": v, "t": t, "u": u}, dJ)


@dataclass(frozen=True)
class SpectrumReport:
    family: str
    params: dict
    I: IndexSet
    J: IndexSet
    closed_form: Fraction
    report: DimensionReport


def spectrum_sample(p, family, params):
    """One witness pair from the dimension spectrum, fully verified.

    Builds the (I, J) pair behind the requested spectrum family, runs the
    admissibility checker, computes the dimension under the identity
    filtration, and confirms it equals the family's closed form.
    """
    CoeffRing(p)
    params = dict(params)
    pm1 = IndexSet(period=p, residues={p - 1})

    def need(*names):
        missing = [k for k in names if k not in params]
        extra = [k for k in params if k not in names]
        if missing or extra:
            raise ValueError(
                f"family {family!r} takes parameters {list(names)}"
            )

    if family == "interval-point":
        need("xi")
        xi = Fraction(params["xi"])
        I = IndexSet.multiples(p)
        J = Jxi(xi, p)
        closed = Fraction(1, 2 * p) + xi / 2
    elif family == "p-power":
        need("r")
        r = int(params["r"])
        if r < 1:
            raise ValueError("p-power needs r >= 1")
        I = IndexSet.multiples(p)
        J = IndexSet.multiples(p**r).union(pm1)
        closed = Fraction(1, p) + Fraction(1, 2 * p**r)
    elif family == "half-plus":
        need("r")
        r = int(params["r"])
        if r < 1:
            raise ValueError("half-plus needs r >= 1")
        I = IndexSet.naturals()
        J = IndexSet.multiples(p**r).union(pm1)
        closed = Fraction(1, 2) + Fraction(1, 2 * p) + Fraction(1, 2 * p**r)
    elif family == "band":
        need("s", "xi")
        s = int(params["s"])
        xi = Fraction(params["xi"])
        if not 1 <= s < p:
            raise ValueError("band needs 1 <= s < p")
        I = IndexSet.multiples(s)
        J = Jxi(xi, p).intersect(I)
        closed = (1 + xi) / (2 * s)
    elif family == "lattice":
        need("s", "r", "u")
        s, r, u = int(params["s"]), int(params["r"]), int(params["u"])
        if s < 1 or s % p == 0:
            raise ValueError("lattice needs s >= 1 coprime to p")
        if r < 1 or u < 1:
            raise ValueError("lattice needs r >= 1 and u >= 1")
        I = IndexSet.multiples(s * p**r)
        J = IndexSet.multiples(s * u)
        closed = Fraction(1, 2 * s * p**r) + Fraction(1, 2 * s * u)
    else:
        raise ValueError(f"unknown spectrum family {family!r}")

    adm = admissible_check(I, J, p, bound=1000)
    if not adm.passed:
        raise RuntimeError(
            f"spectrum family {family} produced an inadmissible pair: {adm.violation}"
        )
    report = hausdorff_dim(I, J, p, check_admissible=False)
    if report.exact != closed:
        raise RuntimeError(
            f"spectrum family {family}: dimension {report.exact} != closed form {closed}"
        )
    return SpectrumReport(family, params, I, J, closed, report)
