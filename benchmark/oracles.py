"""Reference checks for benchmark outputs, written apart from the library.

Each check settles an answer by a route other than the function under
test: group identities, the matrix homomorphism, closed forms from the
paper, the Burnside basis theorem, direct digit scans, and exact stdout
pins taken from the README.  Nothing here imports riordan; callers pass
in the library functions an identity needs.
"""

from __future__ import annotations

import math
from fractions import Fraction


# -- series and group ------------------------------------------------------


def reduce(coeffs, mod):
    return tuple(coeffs) if mod is None else tuple(c % mod for c in coeffs)


def conv(a, b, mod):
    """Truncated Cauchy product, the textbook double loop."""
    n = len(a)
    return reduce([sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)], mod)


def mat_vec(rows, f, mod):
    """rows . f for a square matrix given as rows, f a coefficient vector."""
    return reduce([sum(r[j] * f[j] for j in range(len(f))) for r in rows], mod)


def identity_coeffs(n, unit):
    """1 (unit=True) or x (unit=False) at truncation degree n."""
    out = [0] * (n + 1)
    out[0 if unit else 1] = 1
    return tuple(out)


# -- quotient groups ---------------------------------------------------------


def lcs_tau(i, p):
    """Filtration depth of gamma_i from the closed form, p > 2."""
    return i + (i - 2) // (p - 1)


def band_order(p, level, m, n):
    """|H^m x N^n| in the level quotient: free a_k, k >= m, and b_k, k >= n+1."""
    return p ** (max(0, level - m) + max(0, level - n))


def lcs_order(p, level, i):
    """|gamma_i| in the level quotient, p > 2 (gamma_1 is the whole group)."""
    if i == 1:
        return p ** (2 * (level - 1))
    tau = lcs_tau(i, p)
    return band_order(p, level, tau, tau + 1)


def is_power_of(n, p):
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def frattini_image(x, p, level):
    """The map x -> (a_1, b_2, b_3 - b_2^2) mod p onto G/Phi(G) = F_p^3.

    It is a homomorphism (b_3 of a product picks up 2 b_2 b_2'), its kernel
    H^2 x N^3 is gamma_2 by the closed form, and the quotient is elementary
    abelian, so the kernel is the Frattini subgroup for p > 2 and level >= 3.
    """
    na = level - 1
    b2, b3 = x[na], x[na + 1]
    return (x[0] % p, b2 % p, (b3 - b2 * b2) % p)


def rank_mod_p(vectors, p):
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def generates_by_burnside(tuples, p, level):
    """Burnside basis theorem: a set generates the p-group iff it spans G/Phi(G)."""
    return rank_mod_p([frattini_image(x, p, level) for x in tuples], p) == 3


# -- index sets --------------------------------------------------------------


class LiteralSet:
    """Membership and density read straight off an index-set literal's fields."""

    def __init__(self, threshold, exceptional, period, residues):
        self.threshold = threshold
        self.exceptional = frozenset(exceptional)
        self.period = period
        self.residues = frozenset(residues)

    def __contains__(self, n):
        if n < self.threshold:
            return n in self.exceptional
        return n % self.period in self.residues

    @property
    def density(self):
        return Fraction(len(self.residues), self.period)

    def intersect(self, other):
        m = math.lcm(self.period, other.period)
        return from_predicate(m, lambda n: n in self and n in other)

    def literal(self):
        exc = ",".join(str(e) for e in sorted(self.exceptional))
        res = ",".join(str(r) for r in sorted(self.residues))
        return f"T={self.threshold}; except={exc}; period={self.period}; residues={res}"


def from_predicate(period, member):
    """The purely periodic set whose class r holds when member(r or period) does."""
    return LiteralSet(0, (), period, [r for r in range(period) if member(r or period)])


def parse_literal(line):
    fields = dict(part.strip().split("=", 1) for part in line.split(";"))

    def ints(text):
        return [int(t) for t in text.split(",")] if text else []

    return LiteralSet(int(fields["T"]), ints(fields["except"]), int(fields["period"]),
                      ints(fields["residues"]))


def multiples(d):
    return LiteralSet(0, (), d, (0,))


def union_classes(*pairs):
    """The union of residue classes r mod d, as one literal over the lcm."""
    m = math.lcm(*(d for _, d in pairs))
    return LiteralSet(0, (), m, {x for r, d in pairs for x in range(r % d, m, d)})


def w_below(j, p, xi):
    """w(j) < xi by integer digit reversal of j+1 (no Fractions)."""
    m, rev, length = j + 1, 0, 0
    while m:
        m, d = divmod(m, p)
        rev = rev * p + d
        length += 1
    # W(j+1) = rev / p^length
    return rev * xi.denominator < xi.numerator * p**length


def in_jxi(j, p, xi):
    return j % p == p - 1 and w_below(j, p, xi)


def binom_mod(a, b, p):
    out = 1
    while a or b:
        out = out * math.comb(a % p, b % p) % p
        a //= p
        b //= p
    return out


def witness_holds(v, I, J, p):
    """Re-check an admissibility witness (condition, index, n, partner, value)."""
    if v.condition == 1:
        return (v.index in J and v.partner in J and binom_mod(v.index + 1, v.n, p)
                and v.value == v.index + v.n * v.partner and v.value not in J)
    if v.condition == 2:
        return (v.index in I and v.partner in I and v.value == v.index + v.partner
                and v.value not in I)
    if v.condition == 3:
        return (v.index in I and v.partner in J and binom_mod(v.index, v.n, p)
                and v.value == v.index + v.n * v.partner and v.value not in I)
    return False


def dimension(dI, dJ, alpha):
    """Closed-form Hausdorff dimension for a filtration of growth rate alpha."""
    return alpha / (1 + alpha) * dI + 1 / (1 + alpha) * dJ


def key_values(line):
    """'a=1 b=2' -> {'a': '1', 'b': '2'}."""
    return dict(tok.split("=", 1) for tok in line.split())
