"""Seeded builders and brute-force reference engines shared by the suite."""

from fractions import Fraction

from riordan import NottSeries, RiordanElem, TruncSeries, UnitSeries


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


# Brute-force substitution references: slower than the library's power-table
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


# Exhaustive closure reference, written independently of the coset walk:
# every element times every generator, |S| * |gens| products.

def closed_exhaustively(G, elems, gens):
    """Whether elems holds the identity and the generators and is closed under them."""
    elems = set(elems)
    if G.identity not in elems or not elems.issuperset(gens):
        return False
    return all(G.mul(x, g) in elems for x in elems for g in gens)


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
