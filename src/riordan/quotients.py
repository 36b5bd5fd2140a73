"""Finite quotients of the Riordan group over F_p, as explicit p-groups.

Fixing a prime p and a level n >= 2, the quotient of the full group by the
band subgroup H^n semidirect N^n is a finite p-group of order p^(2(n-1)).
Its elements are coded as coordinate tuples

    (a_1, ..., a_{n-1}, b_2, ..., b_n)

listing the h coefficients below degree n and the g coefficients up to
degree n, each reduced mod p.  The group law is evaluated on packed
integers (Kronecker substitution: one coefficient every w bits), with the
packed powers of the left factor's substitution series cached per b-part
in a bounded cache, and is spot-checked against the series product at
construction.

On top of the law sit the structural statements: subgroup closure by
sifting into an induced polycyclic sequence along the band filtration,
commutator subgroups via normal closure of generator commutators, the lower
central series and its closed form, width, generation checks, twist
generation of H^m, the projection tower, and sigma-filtration containments.
Subgroup orders, memberships and equalities cost polynomial work in the
level and in log p; only an explicit element_set() enumerates, and every
enumeration is counted against the enumeration cap by
series.require_within_cap before it starts.  Membership in a band
H^m semidirect N^n is a coordinate test and takes no product; the whole
quotient is the band H^1 semidirect N^1, carrying the three coordinate
generators its closure keeps (four at p = 2 from level 7 on), and a
computed subgroup equals a band when the orders agree and its generators
pass the band's test.  Every product in the engine takes its left factor
from a small fixed set (the basis, the stored squares of its inverses and
the conjugators), so the power cache hits.

Everything returned is immutable; closure work touches no shared mutable
state beyond a per-group cache of packed substitution powers, bounded by
_POW_CACHE_LIMIT tables (concurrent inserts can pass it by one table per
thread), so concurrent use on distinct handles is safe.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from .group import RiordanElem, rmul
from .index_sets import FiltrationSpec
from .series import (
    CoeffRing,
    NottSeries,
    UnitSeries,
    _inv_unit_coeffs,
    _powers,
    _reversion,
    require_power_within_cap,
    require_within_cap,
    twist,
)

# Packed power tables kept per quotient group; the cache is cleared when it
# is full.  The pc engine's left factors fill 492 in verify_lcs_formula at
# (3,45), depth 6, and 495 in width_report at (5,30), depth 6; random left
# factors fill it and clear it.
_POW_CACHE_LIMIT = 1024

# Sampled tower checks read each part of a draw from a table of its p^na
# tuples only when that table holds at most this many entries.
_PART_TABLE_LIMIT = 4096


class SubgroupHandle:
    """A subgroup of one quotient: generators, order, membership and elements.

    Membership is a predicate: a sift for closures, coordinate tests for
    the band subgroups.  The element set is enumerated only on demand,
    subject to the element cap.  The generator tuple always generates the
    subgroup.
    """

    __slots__ = ("group", "gens", "order", "name", "_elements", "_member", "_builder")

    def __init__(self, group, gens, order, member, builder, name="subgroup"):
        self.group = group
        self.gens = tuple(gens)
        self.order = order
        self.name = name
        self._elements = None
        self._member = member
        self._builder = builder

    def __contains__(self, x):
        return self._member(x)

    def element_set(self):
        """The full element set; raises CapExceededError past the cap."""
        if self._elements is None:
            require_within_cap(self.order, f"subgroup {self.name} has {self.order} elements")
            self._elements = frozenset(self._builder())
            if len(self._elements) != self.order:
                raise RuntimeError(
                    f"subgroup {self.name}: enumerated {len(self._elements)} elements, "
                    f"expected {self.order}"
                )
        return self._elements

    def __repr__(self):
        return (
            f"SubgroupHandle({self.name}, p={self.group.p}, level={self.group.level}, "
            f"order={self.order}, gens={len(self.gens)})"
        )


class _PcSequence:
    """An induced polycyclic sequence of a subgroup of one quotient.

    The band filtration G_k = H^k semidirect N^k is central, its layers
    G_k/G_{k+1} are elementary abelian with coordinates (a_k, b_{k+1}), and
    [G_i, G_j] lies in G_{i+j}.  Slot 2(k-1) is pivot a_k and slot 2k-1 is
    pivot b_{k+1}; an element leads at its first nonzero slot, and the
    identity leads past the last one.  The sequence keeps at most one basis
    element u per slot, led by that slot and kept as it was added, with the
    inverse of its pivot coordinate c and the powers u^-(2^k) of its inverse
    up to the top bit of p.  Sifting clears a leading coordinate a by u^-e
    with e = a c^-1 mod p, built from the stored squares by
    square-and-multiply in popcount(e) products, until the element is the
    identity or leads at an empty slot; each layer is central modulo the
    next, so u^-e x clears the same pivot as x u^-e.  Closure puts each new
    basis element's p-th power and its commutators with the earlier basis
    elements (and its conjugates by `conjugators`) on the queue.  The
    normal-form words in the basis are then the subgroup, of order p^(number
    of basis elements); see Holt, Eick and O'Brien, Handbook of
    Computational Group Theory (2005), ch. 8.  Every product takes its left
    factor from the basis, the stored squares and the conjugators, so the
    group's power cache, keyed by the left factor, hits.

    Certificate: every sift step must clear its pivot and leave no earlier
    slot nonzero, every u^p must lie in a deeper layer than u, and every
    commutator in a deeper layer than both factors.  A group law with this
    filtration satisfies all three; anything else raises RuntimeError.  The
    first also bounds every sift by the number of slots.
    """

    __slots__ = ("group", "_conjugators", "_basis", "_inv_sq", "_inv_pivot", "_size")

    def __init__(self, group, conjugators=()):
        self.group = group
        self._conjugators = conjugators  # (t, t^-1) pairs
        self._basis = [None] * (2 * group.na)
        # per filled slot: (u^-1, u^-2, u^-4, ...) up to the top bit of p
        self._inv_sq = [None] * (2 * group.na)
        # per filled slot: the inverse mod p of u's pivot coordinate
        self._inv_pivot = [None] * (2 * group.na)
        self._size = 0

    @property
    def order(self):
        return self.group.p ** self._size

    @property
    def basis(self):
        """The basis elements in slot order."""
        return [u for u in self._basis if u is not None]

    def _squares(self, z, e):
        # z, z^2, z^4, ... up to the top bit of e
        sq = [z]
        for _ in range(e.bit_length() - 1):
            sq.append(self.group.mul(sq[-1], sq[-1]))
        return sq

    def _power(self, sq, e, x=None):
        # z^e x from sq[k] = z^(2^k), each product's left factor from sq;
        # z^e itself when x is None (then e >= 1)
        for k, z in enumerate(sq):
            if e >> k & 1:
                x = z if x is None else self.group.mul(z, x)
        return x

    def _lead(self, x):
        na = self.group.na
        for k in range(na):
            if x[k]:
                return 2 * k
            if x[na + k]:
                return 2 * k + 1
        return 2 * na

    def sift(self, x):
        """Inverse basis powers times x: the identity exactly when x is a member."""
        p, coord = self.group.p, self.group.pc_coords
        inv_sq, inv_pivot = self._inv_sq, self._inv_pivot
        s = self._lead(x)
        while s < len(coord) and inv_sq[s] is not None:
            y = self._power(inv_sq[s], x[coord[s]] * inv_pivot[s] % p, x)
            t = self._lead(y)
            if t <= s:
                raise RuntimeError(
                    f"pc certificate failed: sifting {x} at slot {s} did not clear its "
                    f"pivot at p={p}, level={self.group.level}"
                )
            x, s = y, t
        return x

    def __contains__(self, x):
        return self.sift(x) == self.group.identity

    def _check_below(self, x, s, what):
        # x must lie in a deeper layer of the filtration than slot s
        if self._lead(x) // 2 <= s // 2:
            raise RuntimeError(
                f"pc certificate failed: {what} {x} does not lie below layer {s // 2 + 1} "
                f"at p={self.group.p}, level={self.group.level}"
            )

    def add(self, x):
        """Close the sequence under x; returns whether x was not yet a member."""
        G = self.group
        p, mul, coord = G.p, G.mul, G.pc_coords
        basis, inv_sq, inv_pivot = self._basis, self._inv_sq, self._inv_pivot
        size = self._size
        queue = deque([x])
        while queue:
            u = self.sift(queue.popleft())
            s = self._lead(u)
            if s == len(coord):
                continue
            sq = self._squares(G.inv(u), p)
            power = self._power(sq, p)  # u^-p lies in the subgroup exactly when u^p does
            self._check_below(power, s, "the p-th power")
            queue.append(power)
            for t, v in enumerate(basis):
                if v is not None:
                    c = mul(inv_sq[t][0], mul(sq[0], mul(v, u)))  # [v, u]
                    self._check_below(c, max(s, t), "the commutator")
                    queue.append(c)
            for t, ti in self._conjugators:
                queue.append(mul(ti, mul(u, t)))
            basis[s], inv_sq[s], inv_pivot[s] = u, tuple(sq), pow(u[coord[s]], -1, p)
            self._size += 1
        return self._size > size

    def elements(self):
        """Every normal-form word u_1^-e_1 ... u_m^-e_m, 0 <= e_i < p."""
        p, words = self.group.p, [self.group.identity]
        for sq in reversed(self._inv_sq):
            if sq is not None:
                words = words + [self._power(sq, e, w) for e in range(1, p) for w in words]
        return words


def _quotient_params(p, level):
    # (p, level) of a quotient, checked without building it.
    p = CoeffRing(p).p  # validates primality
    level = int(level)
    if level < 2:
        raise ValueError("quotient level must be >= 2")
    return p, level


def _require_fits(a, p, level):
    # A Riordan element's ring and truncation must suit the (p, level)
    # quotient; checked without building it.
    if a.ring.p != p:
        raise ValueError(f"element ring {a.ring} does not match F_{p}")
    if a.trunc < level:
        raise ValueError(f"truncation {a.trunc} is below the quotient level {level}")


class QuotientGroup:
    """The quotient of the Riordan group over F_p at a given level n >= 2."""

    __slots__ = (
        "p", "level", "na", "order", "identity", "pc_coords", "_w", "_pow_cache", "_full"
    )

    def __init__(self, p, level):
        p, level = _quotient_params(p, level)
        self.p = p
        self.level = level
        self.na = level - 1
        self.order = p ** (2 * (level - 1))
        self.identity = (0,) * (2 * (level - 1))
        # the coordinate of each pc slot: a_1, b_2, a_2, b_3, ...
        self.pc_coords = tuple(s // 2 + self.na * (s % 2) for s in range(2 * self.na))
        self._w = (level * level * self.p**3).bit_length()  # packed slot width, see mul
        self._pow_cache = {}
        self._full = None
        self._spot_check_law()

    # -- codec ---------------------------------------------------------

    def canonicalize(self, a):
        """The coordinate tuple of a Riordan element modulo level-n tails.

        Two elements canonicalize equally exactly when they differ by a
        factor in H^n semidirect N^n; requires trunc >= level.
        """
        if not isinstance(a, RiordanElem):
            raise TypeError("canonicalize expects a RiordanElem")
        n = self.level
        _require_fits(a, self.p, n)
        return tuple(a.h.coeffs[1:n]) + tuple(a.g.coeffs[2 : n + 1])

    def lift(self, x):
        """The canonical series representative of a coordinate tuple."""
        x = self.validate_tuple(x)
        ring = CoeffRing(self.p)
        na = self.na
        h = UnitSeries(ring, (1,) + x[:na] + (0,))
        g = NottSeries(ring, (0, 1) + x[na:])
        return RiordanElem(h, g)

    def validate_tuple(self, x):
        x = tuple(int(v) for v in x)
        if len(x) != 2 * self.na:
            raise ValueError(f"element tuple must have length {2 * self.na}")
        if any(v < 0 or v >= self.p for v in x):
            raise ValueError(f"coordinates must lie in 0..{self.p - 1}")
        return x

    def project(self, x):
        """The image tuple in the quotient one level down."""
        if self.level <= 2:
            raise ValueError("no quotient below level 2")
        na, lo = self.na, self.na - 1
        return x[:lo] + x[na : na + lo]

    # -- group law ------------------------------------------------------

    def _packed_powers(self, b):
        # g^0..g^L for g = x + sum b_j x^j, each row packed into one int with
        # coefficient k in bits [k*w, (k+1)*w); cleared when full.
        cache = self._pow_cache
        P = cache.get(b)
        if P is None:
            if len(cache) >= _POW_CACHE_LIMIT:
                cache.clear()
            w, rows = self._w, []
            for j, row in enumerate(_powers((0, 1) + b, self.p)):
                v = 0
                for c in reversed(row[j:]):  # row j starts at x^j
                    v = (v << w) | c
                rows.append(v << (w * j))
            P = cache[b] = tuple(rows)
        return P

    def mul(self, x, y):
        """The quotient law: substitute x's g into both components of y.

        Kronecker substitution on packed rows P[j] = g_x^j (entries < p):
        h = h_x * (P[0] + sum_i y_ai P[i]) and g = P[1] + sum_j y_bj P[j].
        With L = level, a slot of the h accumulator is at most
        1 + (L-1)(p-1)^2 < L p^2, a slot of h_x at most p-1 over L terms, so
        every slot of the product h stays below L^2 p^3 < 2^w, and a slot of
        g below L p^2.  No slot overflows, so no carry ever moves a bit
        upward into the next slot, and each slot is the exact integer
        coefficient, reduced mod p on unpacking.
        """
        p, na, w = self.p, self.na, self._w
        P = self._packed_powers(x[na:])
        acc, g = P[0], P[1]
        i = 1
        for c in y[:na]:
            if c:
                acc += c * P[i]
            i += 1
        i = 2
        for c in y[na:]:
            if c:
                g += c * P[i]
            i += 1
        hx = 0
        for c in reversed(x[:na]):
            hx = (hx << w) | c
        h = ((hx << w) + 1) * acc
        mask = (1 << w) - 1
        out = []
        for _ in range(na):  # h slots 1..L-1
            h >>= w
            out.append((h & mask) % p)
        g >>= w
        for _ in range(na):  # g slots 2..L
            g >>= w
            out.append((g & mask) % p)
        return tuple(out)

    def inv(self, x):
        """The inverse of x: gbar = g^(-1) and h^(-1)(gbar) from one reversion call."""
        p, na, L = self.p, self.na, self.level
        gbar, h = _reversion((0, 1) + x[na:], _inv_unit_coeffs((1,) + x[:na] + (0,), p), p)
        return h[1:L] + gbar[2:]

    def conj(self, x, t):
        """x conjugated by t: t^(-1) x t."""
        return self.mul(self.mul(self.inv(t), x), t)

    def comm(self, x, y):
        """The commutator x^(-1) y^(-1) x y."""
        return self.mul(self.inv(self.mul(y, x)), self.mul(x, y))

    def _spot_check_law(self):
        # Construction-time agreement between the tuple law and the series
        # product followed by canonicalization.
        rng = random.Random(11)
        width = 2 * self.na
        for _ in range(8):
            x = tuple(rng.randrange(self.p) for _ in range(width))
            y = tuple(rng.randrange(self.p) for _ in range(width))
            via_series = self.canonicalize(rmul(self.lift(x), self.lift(y)))
            if via_series != self.mul(x, y):
                raise RuntimeError(
                    f"quotient law disagrees with the series product at p={self.p}, "
                    f"level={self.level}"
                )

    # -- enumeration and closure ----------------------------------------

    def iter_elements(self):
        """All coordinate tuples in lexicographic order, subject to the cap."""
        require_within_cap(self.order, f"the quotient has {self.order} elements")
        return itertools.product(range(self.p), repeat=2 * self.na)

    def _verify_closed(self, pc, gens):
        # The pc certificate proves the closure; these are the construction
        # invariants, one sift per kept generator.
        for g in gens:
            if g not in pc:
                raise RuntimeError(
                    f"subgroup verification failed: generator {g} does not sift to the identity"
                )

    def subgroup(self, gens):
        """The subgroup generated by coordinate tuples, as a pc-backed handle.

        A generator is kept only if it is not in the closure of the earlier
        kept ones, so the handle's generator tuple has no redundant entry
        at the point it was added.
        """
        gens = [self.validate_tuple(g) for g in gens]
        if not gens:
            raise ValueError("subgroup needs at least one generator")
        pc = _PcSequence(self)
        kept = [g for g in gens if pc.add(g)]
        self._verify_closed(pc, kept)
        return SubgroupHandle(self, kept, pc.order, pc.__contains__, pc.elements, name="closure")

    # -- structural subgroups --------------------------------------------

    def standard_subgroup(self, m, n):
        """The image of H^m semidirect N^n in this quotient."""
        m, n = int(m), int(n)
        if m < 1 or n < 1:
            raise ValueError("band parameters must be >= 1")
        p, na = self.p, self.na
        afree = tuple(range(m - 1, na))
        bfree = tuple(range(na + n - 1, 2 * na))
        free = afree + bfree
        azero = tuple(range(0, min(m - 1, na)))
        bzero = tuple(range(na, min(na + n - 1, 2 * na)))
        zero = azero + bzero

        def member(x, _zero=zero):
            return all(x[i] == 0 for i in _zero)

        def build(_free=free, _width=2 * na, _p=p):
            for combo in itertools.product(range(_p), repeat=len(_free)):
                t = [0] * _width
                for pos, v in zip(_free, combo):
                    t[pos] = v
                yield tuple(t)

        gens = []
        for pos in free:
            t = [0] * (2 * na)
            t[pos] = 1
            gens.append(tuple(t))
        order = p ** len(free)
        return SubgroupHandle(
            self, gens, order, member=member, builder=build, name=f"H^{m}xN^{n}"
        )

    def full_group(self):
        """The whole quotient as the band H^1 semidirect N^1, with few generators.

        The closure of the coordinate generators, taken in pc slot order
        a_1, b_2, a_2, b_3, ..., keeps only those not yet generated: three at
        odd p from level 3 on (G/Phi(G) has rank 3, by the Burnside basis
        theorem), four at p = 2 from level 7 on.  Its pc order certifies that
        they generate; the handle carries them, and its membership and
        element set are the band's coordinate test and enumeration.
        """
        if self._full is None:
            width = 2 * self.na
            units = [tuple(int(i == c) for i in range(width)) for c in self.pc_coords]
            closure = self.subgroup(units)
            if closure.order != self.order:
                raise RuntimeError(
                    f"the coordinate generators close to order {closure.order}, not "
                    f"{self.order}, at p={self.p}, level={self.level}"
                )
            handle = self.standard_subgroup(1, 1)
            handle.gens, handle.name = closure.gens, "R"
            self._full = handle
        return self._full

    def __repr__(self):
        return f"QuotientGroup(p={self.p}, level={self.level}, order={self.order})"


def commutator_subgroup(A, B):
    """The subgroup generated by all commutators [a, b], a in A, b in B.

    Generator-based normal closure: sift the commutators of generator
    pairs, with every new basis element's conjugates by the generators of
    <A, B> on the closure queue.  This equals [A, B] exactly in a finite
    group, with no all-pairs pass.  When every generator of B sifts into A,
    <A, B> = A and A's generators suffice.  Both handles must carry true
    generating sets of their subgroups; the result's generators are its
    pc basis.
    """
    G = A.group
    if B.group is not G:
        raise ValueError("handles belong to different quotient groups")
    inverse = {t: G.inv(t) for t in A.gens + B.gens}
    conjugators = A.gens if all(y in A for y in B.gens) else A.gens + B.gens
    pc = _PcSequence(G, [(t, inverse[t]) for t in dict.fromkeys(conjugators)])
    for x in A.gens:
        for y in B.gens:
            pc.add(G.mul(inverse[x], G.mul(inverse[y], G.mul(x, y))))  # [x, y]
    basis = pc.basis
    G._verify_closed(pc, basis)
    return SubgroupHandle(G, basis, pc.order, pc.__contains__, pc.elements, name="commutator")


def _lcs_depth(depth, p=None):
    # Checked before any quotient is built; a given p must suit the closed form.
    if p == 2:
        raise ValueError(
            "the lower-central-series closed form requires p > 2; "
            "lower_central_series still works at p = 2"
        )
    depth = int(depth)
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return depth


def lower_central_series(G, depth):
    """[gamma_1, ..., gamma_depth] with gamma_{i+1} = [G, gamma_i]."""
    depth = _lcs_depth(depth)
    full = G.full_group()
    chain = [full]
    while len(chain) < depth:
        chain.append(commutator_subgroup(full, chain[-1]))
    return chain


@dataclass(frozen=True)
class LcsCheckRow:
    i: int
    tau: int
    brute_order: int
    formula_order: int
    passed: bool


def lcs_level_exponent(i, p):
    """The closed-form filtration depth of gamma_i for p > 2."""
    if p == 2:
        raise ValueError("the closed form requires p > 2")
    if i < 2:
        raise ValueError("defined for i >= 2")
    return i + (i - 2) // (p - 1)


def verify_lcs_formula(G, depth):
    """Compare each computed gamma_i against H^tau semidirect N^(tau+1).

    tau = i + floor((i-2)/(p-1)); requires p > 2 (the series itself stays
    available at p = 2 through lower_central_series).  Equality is decided
    by equal orders and by every generator of gamma_i passing the band's
    coordinate test: a subgroup inside a band of its own order is the band.
    """
    depth = _lcs_depth(depth, G.p)
    chain = lower_central_series(G, depth)
    rows = []
    for i in range(2, depth + 1):
        tau = lcs_level_exponent(i, G.p)
        expected = G.standard_subgroup(tau, tau + 1)
        brute = chain[i - 1]
        ok = brute.order == expected.order and all(g in expected for g in brute.gens)
        rows.append(LcsCheckRow(i, tau, brute.order, expected.order, ok))
    return rows


@dataclass(frozen=True)
class WidthEntry:
    i: int
    gamma_order: int
    width: int
    boundary_flag: bool
    exceeds_bound: bool


def _width_depth(depth):
    # The depth of a width report, checked before any quotient is built.
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return depth


def width_report(G, depth):
    """log_p of each lower-central index, with truncation-boundary flags.

    boundary_flag marks rows whose value is forced by the quotient level
    rather than the group (the next gamma already falls outside the level);
    exceeds_bound marks widths above 4.
    """
    depth = _width_depth(depth)
    chain = lower_central_series(G, depth + 1)
    entries = []
    for i in range(1, depth + 1):
        o1, o2 = chain[i - 1].order, chain[i].order
        if o1 % o2:
            raise RuntimeError("lower central series is not descending")
        q = o1 // o2
        width = 0
        while q > 1:
            if q % G.p:
                raise RuntimeError("subgroup index is not a power of p")
            q //= G.p
            width += 1
        if G.p == 2:
            flag = o2 == 1
        else:
            flag = lcs_level_exponent(i + 1, G.p) + 1 > G.level
        entries.append(WidthEntry(i, o1, width, flag, width > 4))
    return entries


@dataclass(frozen=True)
class GenerationReport:
    generates: bool
    closure_order: int
    group_order: int
    generators: int


def generation_check(G, candidates):
    """Whether the candidates (Riordan elements or tuples) generate the quotient.

    generators counts the candidates the closure kept; see subgroup().
    """
    gens = []
    for c in candidates:
        gens.append(G.canonicalize(c) if isinstance(c, RiordanElem) else G.validate_tuple(c))
    handle = G.subgroup(gens)
    return GenerationReport(handle.order == G.order, handle.order, G.order, len(handle.gens))


@dataclass(frozen=True)
class HmGenerationReport:
    matches: bool
    closure_order: int
    expected_order: int
    p: int
    level: int
    m: int
    generators: int


def hm_generation_check(p, level, m):
    """Twists of 1+x against depth-(m-1) substitutions generate H^m.

    The twist representatives run over cosets of N^(m-1) modulo N^(level-1);
    their closure matches the image of H^m when the orders agree and every
    kept generator passes its coordinate test.
    """
    level, m = int(level), int(m)
    if not 2 <= m < level:
        raise ValueError("need 2 <= m < level")
    ring = CoeffRing(p)  # validates primality
    # the candidates are exactly the elements of H^m: an enumeration
    require_power_within_cap(ring.p, level - m, "hm-check would build {} twist candidates")
    G = QuotientGroup(p, level)
    h = UnitSeries(ring, (1, 1) + (0,) * (level - 1))
    x_series = NottSeries.identity(ring, level)
    gens = []
    for combo in itertools.product(range(p), repeat=level - m):
        gc = [0] * (level + 1)
        gc[1] = 1
        for k, v in zip(range(m, level), combo):
            gc[k] = v
        t = twist(h, NottSeries(ring, gc))
        gens.append(G.canonicalize(RiordanElem(t, x_series)))
    handle = G.subgroup(gens)
    expected = G.standard_subgroup(m, level)
    matches = handle.order == expected.order and all(g in expected for g in handle.gens)
    return HmGenerationReport(
        matches, handle.order, expected.order, G.p, level, m, len(handle.gens)
    )


def _tuple_at(n, p, width):
    # The n-th tuple of itertools.product(range(p), repeat=width): the base-p
    # digits of n, most significant first.
    t = [0] * width
    for i in range(width - 1, -1, -1):
        n, t[i] = divmod(n, p)
    return tuple(t)


def _part_table(p, width, samples):
    # [(t, t[:-1]) for t = _tuple_at(n, p, width)], indexed by n; None when
    # its p^width entries exceed _PART_TABLE_LIMIT or the 4 * samples parts
    # the pairs read.
    if p**width > min(_PART_TABLE_LIMIT, 4 * samples):
        return None
    return [(t, t[:-1]) for t in itertools.product(range(p), repeat=width)]


@dataclass(frozen=True)
class TowerReport:
    passed: bool
    pairs_checked: int
    mode: str
    surjective: bool


def _sampled_pairs(G, samples, seed, proj):
    # (x, proj(x), y, proj(y)) for seeded x, y: each tuple the base-p digits
    # of one draw from range(order), x drawn first; proj drops the last digit
    # of the a-part and of the b-part.  When the part table fits, a draw
    # splits at p^na into its a-part and b-part, each read from the table
    # with its last digit dropped; otherwise every digit costs one divmod.
    draw, order, p, na = random.Random(seed).randrange, G.order, G.p, G.na
    table = _part_table(p, na, samples)
    if table is None:
        for _ in range(samples):
            x = _tuple_at(draw(order), p, 2 * na)
            y = _tuple_at(draw(order), p, 2 * na)
            yield x, proj(x), y, proj(y)
        return
    split = p**na
    for _ in range(samples):
        xa, xb = divmod(draw(order), split)
        ya, yb = divmod(draw(order), split)
        (xa, pxa), (xb, pxb), (ya, pya), (yb, pyb) = table[xa], table[xb], table[ya], table[yb]
        yield xa + xb, pxa + pxb, ya + yb, pya + pyb


def _tower_samples(p, level, samples):
    # samples as an int, or None for every pair of the level quotient, each
    # count refused past the cap before any quotient is built.
    if samples is None:
        require_power_within_cap(p, 4 * (level - 1), "exhaustive tower check needs {} pairs (pass samples=)")
        return None
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    require_within_cap(samples, f"the tower check would draw {samples} sample pairs")
    return samples


def tower_consistency(G_hi, G_lo, samples=None, seed=0):
    """Coordinate truncation is a surjective homomorphism one level down.

    samples=None checks every pair exhaustively (small groups only);
    otherwise that many (at least one) seeded random pairs are checked,
    each tuple the base-p digits of one draw from range(order).  Both the
    pair count and the number of samples go through the enumeration cap.
    """
    if G_hi.p != G_lo.p:
        raise ValueError("quotients must share the prime")
    if G_hi.level != G_lo.level + 1:
        raise ValueError("levels must be consecutive (high, low)")
    samples = _tower_samples(G_hi.p, G_hi.level, samples)
    na_hi, na_lo = G_hi.na, G_lo.na

    def proj(x):
        return x[:na_lo] + x[na_hi : na_hi + na_lo]

    def pad(x):
        return x[:na_lo] + (0,) + x[na_lo:] + (0,)

    if proj(G_hi.identity) != G_lo.identity:
        return TowerReport(False, 0, "exhaustive", False)
    # Zero padding lifts every lower tuple; pad and proj only move coordinates,
    # so one tuple of distinct labels proves proj(pad(x)) == x for every x.
    labels = tuple(range(2 * na_lo))
    surjective = proj(pad(labels)) == labels
    if samples is None:
        mode = "exhaustive"
        elems = [(x, proj(x)) for x in G_hi.iter_elements()]
        quadruples = ((x, px, y, py) for x, px in elems for y, py in elems)
    else:
        mode, quadruples = "sampled", _sampled_pairs(G_hi, samples, seed, proj)
    mul_hi, mul_lo = G_hi.mul, G_lo.mul
    pairs = 0
    for x, px, y, py in quadruples:
        pairs += 1
        if proj(mul_hi(x, y)) != mul_lo(px, py):
            return TowerReport(False, pairs, mode, surjective)
    return TowerReport(surjective, pairs, mode, surjective)


@dataclass(frozen=True)
class SigmaCheckReport:
    contained: bool
    i: int
    j: int
    commutator_order: int
    target_name: str
    target_order: int


def sigma_filtration_check(p, level, sigma, i, j):
    """[G_i, G_j] lands in G_{i+j} for the filtration H^sigma(n) semidirect N^n.

    sigma must satisfy sigma(1) = 1, be nondecreasing, and be subadditive on
    1..level; i + j must stay below the level so the target is visible.
    """
    level, i, j = int(level), int(i), int(j)
    if i < 1 or j < 1:
        raise ValueError("filtration indices must be >= 1")
    if i + j >= level:
        raise ValueError("need i + j < level")
    spec = FiltrationSpec("sigma", sigma, None)
    spec.validate_range(level)
    G = QuotientGroup(p, level)
    A = G.standard_subgroup(spec.value(i), i)
    B = G.standard_subgroup(spec.value(j), j)
    K = commutator_subgroup(A, B)
    target = G.standard_subgroup(spec.value(i + j), i + j)
    contained = all(x in target for x in K.gens)
    return SigmaCheckReport(contained, i, j, K.order, target.name, target.order)
