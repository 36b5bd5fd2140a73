"""Exact truncated formal power series over a prime field or over the integers.

A series stores its coefficients c0..cN for a truncation degree N fixed at
construction.  All arithmetic is exact: coefficients over F_p are kept
canonically reduced to {0, ..., p-1}, integer coefficients are unbounded.
Operations never mix rings or truncations; move down explicitly with
``project``.

Values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.  The module
also holds the enumeration cap that the quotient and index-set layers share,
and the two places that refuse an enumeration past it: require_within_cap
for a count and require_power_within_cap for a count p^k.
"""

from __future__ import annotations

import os
import sys
from array import array
from functools import partial
from itertools import compress, repeat
from math import isqrt, log10
from operator import add, lshift, sub
from operator import index as _as_int
from operator import mul as _int_mul

DEFAULT_MAX_ELEMENTS = 1 << 20


class CapExceededError(RuntimeError):
    """Raised when an operation would enumerate more elements than allowed."""


def max_elements():
    """The enumeration cap; override with the RIORDAN_MAX_ELEMS env var."""
    raw = os.environ.get("RIORDAN_MAX_ELEMS")
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    value = int(raw)
    if value < 1:
        raise ValueError("RIORDAN_MAX_ELEMS must be a positive integer")
    return value


def require_within_cap(count, what):
    """Refuse an enumeration of count items above the cap, before it starts.

    what names the enumeration and its size; the cap is appended to it in
    the CapExceededError message.
    """
    cap = max_elements()
    if count > cap:
        raise CapExceededError(f"{what}; the cap is {cap}")


def _int_str_limit():
    # The interpreter's limit on int-to-str conversion, in digits; its
    # default where the limit is switched off.
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _power_text(p, k):
    # p^k in decimal, or "p^k" where the decimal would pass _int_str_limit();
    # p^k is not computed then.  p^k has floor(k log10 p) + 1 digits.
    if k * log10(p) >= _int_str_limit():
        return f"{p}^{k}"
    return str(p**k)


def require_power_within_cap(p, k, what):
    """Refuse p^k items above the cap, before computing p^k when it is large.

    what has one {} for the count, which is written in decimal, or as "p^k"
    past the interpreter's int-to-str limit.  p^k >= 2^(k (bits(p) - 1)),
    so once that exponent reaches the cap's bit length p^k is refused from
    k alone; otherwise p^k is computed (about twice the cap's bits at most)
    and returned when it is within the cap.
    """
    cap = max_elements()
    if k * (p.bit_length() - 1) < cap.bit_length():
        count = p**k
        if count <= cap:
            return count
    raise CapExceededError(f"{what.format(_power_text(p, k))}; the cap is {cap}")


# Deterministic Miller-Rabin: the first 13 prime bases decide every n below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoeffRing:
    """The coefficient ring: F_p for a prime p, or the integers (p is None)."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            p = _as_int(p)
            if not _is_prime(p):
                raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    @classmethod
    def integers(cls):
        return cls(None)

    @classmethod
    def prime_field(cls, p):
        return cls(p)

    @property
    def is_field(self):
        return self.p is not None

    def reduce(self, c):
        c = _as_int(c)
        if self.p is None:
            return c
        return c % self.p

    def reduce_all(self, cs):
        """The tuple of reduce(c) for c in cs, with no Python call per coefficient."""
        cs = tuple(map(_as_int, cs))
        return cs if self.p is None else tuple(map(self.p.__rmod__, cs))

    def __eq__(self, other):
        return isinstance(other, CoeffRing) and self.p == other.p

    def __hash__(self):
        return hash(("CoeffRing", self.p))

    def __repr__(self):
        return f"CoeffRing({self.p!r})"

    def __str__(self):
        return "Z" if self.p is None else f"Fp:{self.p}"


ZZ = CoeffRing(None)


def _require_match(a, b):
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    if a.trunc != b.trunc:
        raise ValueError(f"truncation mismatch: {a.trunc} vs {b.trunc}")


# Coefficient kernels.  These work on plain tuples/lists so the quotient-group
# code can reuse them without building series objects; mod is a prime or None.
# Over F_p every coefficient passed in must already be a residue in [0, p).
#
# Products and substitutions run on packed integers (Kronecker substitution):
# coefficient k of an operand sits in byte-aligned slot k of one int, so
# packing (an array or a bytes join read by int.from_bytes), the product and
# unpacking (memoryview.cast, or int.from_bytes per slot) run in C.  Both
# rings take one slot rule, _slot_size: 2, 4 or 8 bytes, the sizes an array
# code reads on a little-endian host, else whole bytes read by slices.
#
# Over Z the slots are signed.  A product of a and b of length n takes a slot
# of W = bits(max|a|) + bits(max|b|) + bits(n) + 2 bits, so each product
# coefficient c has |c| < 2^(W-2).  With L-byte slots an operand packs as
# sum c_k 2^(8Lk); adding the bias sum 2^(8L-1) 2^(8Lk) and masking to n
# slots leaves c_k + 2^(8L-1) in [0, 2^(8L)) in slot k, with no carry between
# slots, so subtracting 2^(8L-1) from each slot decodes exactly.
#
# Reduction mod x^n followed by x -> 2^(8L) maps Z[x]/(x^n) into Z/2^(8Ln) as
# a ring homomorphism, so composition in both rings runs on packed ints masked
# to n slots (baby and giant steps, Brent and Kung, J. ACM 25 (1978)): g^0..
# g^(k-1) and g^k for k = ceil(sqrt(n)), one sum of baby steps per chunk of k
# coefficients of f, and a Horner pass in g^k.  Over Z only the result must
# fit its slots; _compose_width bounds it by Cauchy's estimate.  Over F_p the
# baby and giant steps and the Horner value after each chunk are reduced to
# residues, so a chunk's slot adds at most n terms of at most (p-1)^2.
_UNSIGNED_CODES = {array(code).itemsize: code for code in "HIQ"} if sys.byteorder == "little" else {}
_SIGNED_CODES = {array(code).itemsize: code for code in "hiq"} if sys.byteorder == "little" else {}

# From this length on, the unit inverse and the reversion take Newton steps
# (Brent and Kung, ibid.) seeded by their loops; the length alone decides.
# At n = 24-31 a step took at most 1.12x its loop's time where slots have
# array codes, but the unit inverse's 1.27-2.33x where slots are read by
# slices, as at p = 10^18+3 (BENCH_23.json, BENCH_24.json).
_NEWTON_MIN_N = 24


def _slot_size(width):
    # Bytes of a slot of at least width bits: 2, 4 or 8, else whole bytes.
    size = -(-width // 8)
    return 2 if size <= 2 else 4 if size <= 4 else 8 if size <= 8 else size


def _residue_slot_size(n, mod):
    # The F_p slot for length-n operands of residues in [0, p): a product slot
    # sums at most n terms of at most (p-1)^2, so bits(n (p-1)^2) suffice.
    return _slot_size((n * (mod - 1) ** 2).bit_length())


def _pack(coeffs, size):
    # sum_k c_k 2^(8 size k) for 0 <= c_k < 2^(8 size).
    code = _UNSIGNED_CODES.get(size)
    if code:
        return int.from_bytes(array(code, coeffs), "little")
    return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(size), repeat("little"))), "little")


def _slots(raw, size, codes, signed):
    # The size-byte little-endian slots of raw: an array view when codes has
    # one for size, else one int.from_bytes per slice.
    code = codes.get(size)
    if code:
        return memoryview(raw).cast(code)
    cuts = map(slice, range(0, len(raw), size), range(size, len(raw) + size, size))
    return map(partial(int.from_bytes, byteorder="little", signed=signed), map(raw.__getitem__, cuts))


def _unpack(v, n, size, mod):
    # Slots 0..n-1 of v reduced mod p; v must be below 2^(8 size n).
    return tuple([c % mod for c in _slots(v.to_bytes(n * size, "little"), size, _UNSIGNED_CODES, False)])


def _bits(cs):
    # bits(max |c|) over a nonempty sequence of ints.
    return max(max(cs), -min(cs)).bit_length()


def _bias(n, size):
    # The top bit of each of n slots: sum_{k<n} 2^(8 size - 1) 2^(8 size k).
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _spack(coeffs, size):
    # sum_k c_k 2^(8 size k) for |c_k| < 2^(8 size - 1), through the biased
    # slots c_k + 2^(8 size - 1): an array holds c_k in two's complement, and
    # XOR with the bias adds 2^(8 size - 1) to each slot.
    bias = _bias(len(coeffs), size)
    code = _SIGNED_CODES.get(size)
    if code:
        return (int.from_bytes(array(code, coeffs), "little") ^ bias) - bias
    return _pack(map(add, coeffs, repeat(1 << 8 * size - 1)), size) - bias


def _sunpack(v, n, size):
    # The n signed slots of v mod 2^(8 size n), each of magnitude below
    # 2^(8 size - 1): (v + bias) mod 2^(8 size n) holds c_k + 2^(8 size - 1)
    # in slot k, and XOR with the bias leaves c_k in two's complement.
    bias = _bias(n, size)
    raw = (((v + bias) & ((1 << 8 * size * n) - 1)) ^ bias).to_bytes(n * size, "little")
    return tuple(_slots(raw, size, _SIGNED_CODES, True))


def _mul_coeffs(a, b, mod):
    n = len(a)
    if mod is None:
        size = _slot_size(_bits(a) + _bits(b) + n.bit_length() + 2)
        return _sunpack(_spack(a, size) * _spack(b, size), n, size)
    size = _residue_slot_size(n, mod)
    return _unpack(_pack(a, size) * _pack(b, size) & ((1 << 8 * size * n) - 1), n, size, mod)


def _neg(cs, mod):
    return tuple([-c for c in cs] if mod is None else [-c % mod for c in cs])


def _inv_unit_coeffs(a, mod):
    # a[0] must be 1.
    n = len(a)
    if n >= _NEWTON_MIN_N:
        # c = 1/a mod x^m for m = ceil(n/2), so a c = 1 + x^m e and
        # 1/a = c (2 - a c) = c - x^m c e mod x^n.
        m = (n + 1) // 2
        c = _inv_unit_coeffs(a[:m], mod)
        e = _mul_coeffs(a, c + (0,) * (n - m), mod)[m:]
        return c + _neg(_mul_coeffs(c[: n - m], e, mod), mod)
    # solve sum_{i} a_i c_{k-i} = [k == 0] for c.
    out = [0] * n
    out[0] = 1
    for k in range(1, n):
        s = 0
        for i in range(1, k + 1):
            ai = a[i]
            if ai:
                s += ai * out[k - i]
        out[k] = -s % mod if mod is not None else -s
    return tuple(out)


def _powers(g, mod, first=None):
    # The table first * g^j for j = 0..N, first defaulting to 1.  g[0] must be
    # 0 so truncation commutes with substitution; row j then starts at x^j.
    if g[0]:
        raise ValueError("substituted series must have zero constant term")
    n = len(g)
    pw = [tuple(first) if first is not None else (1,) + (0,) * (n - 1)]
    # Row j is x^j t_j with t_j = t_{j-1} * (g/x) cut to n - j slots.
    if mod is None:
        # Each row takes a signed slot from its own magnitudes.  While the
        # slot size stays, the product masked to n - j slots is t_j packed
        # (the packing is a ring homomorphism mod x^(n-j)), so a row is
        # repacked only when the size grows; g/x is packed once per size.
        gx, gbits, packed = g[1:], _bits(g), {}
        t, size, v = pw[0], None, None
        for j in range(1, n):
            m = n - j
            new = _slot_size(_bits(t) + gbits + m.bit_length() + 2)
            if new != size:
                size, v = new, _spack(t[:m], new)
                if size not in packed:
                    packed[size] = _spack(gx, size)
            low = (1 << 8 * size * m) - 1
            v = (v & low) * (packed[size] & low) & low
            t = _sunpack(v, m, size)
            pw.append((0,) * j + t)
        return tuple(pw)
    # g/x is packed once and each reduced t_j once; g/x is cut to the n - j
    # slots the row keeps, as over Z.
    size = _residue_slot_size(n, mod)
    bits = 8 * size
    gv, v = _pack(g[1:], size), _pack(pw[0], size)
    for j in range(1, n):
        low = (1 << bits * (n - j)) - 1
        t = _unpack(v * (gv & low) & low, n - j, size, mod)
        pw.append((0,) * j + t)
        v = _pack(t, size)
    return tuple(pw)


def _compose(fs, g, mod):
    # f(g) for each f in fs, all of g's length, g[0] = 0, by baby and giant
    # steps on packed ints mod 2^(8 size n).
    if g[0]:
        raise ValueError("substituted series must have zero constant term")
    n = len(g)
    if mod is None:
        width = _compose_width(fs, g)
        if width is None:
            return [(0,) * n for _ in fs]
        # g itself is packed, so its slots must hold it too.
        size = _slot_size(max(width, _bits(g) + 2))
        gv = _spack(g, size)
    else:
        size = _residue_slot_size(n, mod)
        gv = _pack(g, size)
    bits = 8 * size

    def cut(v, m):
        # v mod x^m, reduced to residues over F_p.
        v &= (1 << bits * m) - 1
        return v if mod is None else _pack(_unpack(v, m, size, mod), size)

    k = isqrt(n - 1) + 1
    baby = [1, gv]
    while len(baby) <= k:
        baby.append(cut(baby[-1] * gv, n))
    # The result multiplies the Horner value at chunk c by g^c, so only that
    # value mod x^(n-c) counts: a chunk's product is cut to n - c - k slots.
    shift = bits * k
    giant = baby.pop() >> shift
    out = []
    for f in fs:
        acc = 0
        for c in range((n - 1) // k * k, -1, -k):
            low = (1 << bits * max(n - c - k, 0)) - 1
            acc = (acc * (giant & low) & low) << shift
            acc += sum(map(_int_mul, f[c : c + k], baby))
            if c:
                acc = cut(acc, n - c)
        out.append(_sunpack(acc, n, size) if mod is None else _unpack(acc, n, size, mod))
    return out


def _compose_width(fs, g):
    # A width W with |[x^m] f(g)| < 2^(W-2) for every f in fs and m < n, or
    # None when every f is 0.  For rho = 2^-s, Cauchy's estimate gives
    # |[x^m] f(g)| <= sum_j |f_j| G^j / rho^m with G = sum_i |g_i| rho^i, and
    # G < 2^e for e = bits(sum_i |g_i| 2^(s(n-1-i))) - s(n-1).  So the bound
    # in bits is max_j (bits f_j + j e) + s(n-1) + bits(n), over the nonzero
    # f_j, and W is 2 more than its least value over s.  Every s in 1..4 is
    # tried, then larger s while the bound still falls (it is convex in s up
    # to rounding), up to 4 + bits(max|g|): a g whose coefficients grow fast
    # needs a small rho, and a bound that falls for ever means f(g) = 0.
    n = len(g)
    terms = [(list(compress(range(n), f)), list(map(int.bit_length, filter(None, f)))) for f in fs]
    terms = [(js, bs) for js, bs in terms if js]
    if not terms:
        return None
    absg = list(map(abs, g))
    best = None
    for s in range(1, 5 + _bits(g)):
        top = s * (n - 1)
        e = sum(map(lshift, absg, range(top, -1, -s))).bit_length() - top
        bound = max(max(map(add, bs, map(_int_mul, js, repeat(e)))) for js, bs in terms) + top
        if best is None or bound < best:
            best = bound
        elif s >= 4:
            break
    return best + n.bit_length() + 2


def _newton_update(s, e, mod):
    # s - x^m e s' mod x^n for n = len(s) and m = n - len(e).  A function of
    # its own, not a closure in _reversion: a closure would turn the loop's
    # variables there into cells.
    k, m = len(e), len(s) - len(e)
    ds = list(map(_int_mul, range(1, k + 1), s[1 : k + 1]))
    if mod is not None:
        ds = [c % mod for c in ds]
    d = map(sub, s[m:], _mul_coeffs(e, ds, mod))
    return s[:m] + (tuple(d) if mod is None else tuple([c % mod for c in d]))


def _reversion(g, f, mod):
    # (r, f(r)) for r with g(r) = x, g = (0, 1, b2, ...) and f of g's length;
    # f = None skips f(r) and returns (r, None).
    n = len(g)
    if n >= _NEWTON_MIN_N:
        # r = g^-1 mod x^m for m = n//2 + 1, so g(r) = x + x^m e.  Newton's
        # step r - x^m e / g'(r) is exact mod x^(2m).  By the chain rule
        # g'(r) r' = 1 + O(x^(m-1)), so r' stands in for 1/g'(r) at the cost
        # of an error O(x^(2m-1)), and 2m - 1 >= n: no inverse, no g'(r).
        # The same composition gives f(r) at the new r: the step moves r by
        # d = x^m e r' and d^2 = O(x^(2m)), so f(r - d) = f(r) - f'(r) d, and
        # f'(r) r' = (f(r))' turns that into f(r) - x^m e (f(r))'.
        m = n // 2 + 1
        r = _reversion(g[:m], None, mod)[0] + (0,) * (n - m)
        out = _compose((g,) if f is None else (g, f), r, mod)
        e = out[0][m:]
        return _newton_update(r, e, mod), None if f is None else _newton_update(out[1], e, mod)
    # [x^m] r^j, j >= 2, needs only r_1..r_{m-1}: convolve column m of r^2..r^m,
    # then r_m = -sum_{j>=2} b_j [x^m] r^j and [x^m] f(r) = f_1 r_m +
    # sum_{j>=2} f_j [x^m] r^j.  No division, so exact over F_p and Z.
    fs = (0,) * n if f is None else f
    pw = [[0] * n for _ in range(n)]
    r = pw[1]
    pw[0][0] = r[1] = 1
    fr = list(fs[:2])
    for m in range(2, n):
        s = t = 0
        for j in range(2, m + 1):
            prev = pw[j - 1]
            c = 0
            for i in range(j - 1, m):
                if prev[i]:
                    c += prev[i] * r[m - i]
            pw[j][m] = c = c if mod is None else c % mod
            if g[j]:
                s += g[j] * c
            if fs[j]:
                t += fs[j] * c
        r[m] = -s if mod is None else -s % mod
        t += fs[1] * r[m]
        fr.append(t if mod is None else t % mod)
    return tuple(r), None if f is None else tuple(fr)


class TruncSeries:
    """A formal power series truncated at a fixed degree.

    coeffs has length trunc+1; arithmetic between two series requires an
    identical ring and an identical truncation.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        if not isinstance(ring, CoeffRing):
            raise TypeError("ring must be a CoeffRing")
        cs = ring.reduce_all(coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self.ring = ring
        self.coeffs = cs
        self._check()

    def _check(self):
        pass

    @property
    def trunc(self):
        return len(self.coeffs) - 1

    def coeff(self, m):
        """The coefficient of x^m; m beyond the truncation is an error."""
        m = _as_int(m)
        if m < 0 or m > self.trunc:
            raise IndexError(f"coefficient index {m} outside stored range 0..{self.trunc}")
        return self.coeffs[m]

    def project(self, M):
        """The same series truncated down to degree M <= trunc."""
        M = _as_int(M)
        if M < 0 or M > self.trunc:
            raise ValueError(f"cannot project truncation {self.trunc} to {M}")
        return type(self)(self.ring, self.coeffs[: M + 1])

    def as_unit(self):
        return UnitSeries(self.ring, self.coeffs)

    def as_nott(self):
        return NottSeries(self.ring, self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        _require_match(self, other)
        cs = _mul_coeffs(self.coeffs, other.coeffs, self.ring.p)
        if isinstance(self, UnitSeries) and isinstance(other, UnitSeries):
            return UnitSeries(self.ring, cs)
        return TruncSeries(self.ring, cs)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({self.ring}, {poly_str(self)!r}, N={self.trunc})"


class UnitSeries(TruncSeries):
    """A series with constant term 1: an element of the group H under mul."""

    __slots__ = ()

    def _check(self):
        if self.coeffs[0] != 1:
            raise ValueError("unit series must have constant term 1")

    @classmethod
    def one(cls, ring, trunc):
        return cls(ring, (1,) + (0,) * trunc)

    def in_level(self, n):
        """Whether the series lies in H^n, i.e. c1..c_{n-1} all vanish."""
        n = _as_int(n)
        if n < 1:
            raise ValueError("level must be >= 1")
        if n - 1 > self.trunc:
            raise ValueError(f"truncation {self.trunc} cannot decide H^{n} membership")
        return not any(self.coeffs[1:n])

    def level(self):
        """The largest n with the series in H^n; None when it equals 1."""
        for i in range(1, self.trunc + 1):
            if self.coeffs[i]:
                return i
        return None


class NottSeries(TruncSeries):
    """A series x + c2 x^2 + ...: an element of the Nottingham group."""

    __slots__ = ()

    def _check(self):
        if self.trunc < 1:
            raise ValueError("a substitution series needs degree >= 1")
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError("substitution series must start with x")

    @classmethod
    def identity(cls, ring, trunc):
        return cls(ring, (0, 1) + (0,) * (trunc - 1))

    def in_level(self, n):
        """Whether the series lies in N^n, i.e. c2..c_n all vanish."""
        n = _as_int(n)
        if n < 1:
            raise ValueError("level must be >= 1")
        if n > self.trunc:
            raise ValueError(f"truncation {self.trunc} cannot decide N^{n} membership")
        return not any(self.coeffs[2 : n + 1])

    def level(self):
        """The largest n with the series in N^n; None when it equals x."""
        for i in range(2, self.trunc + 1):
            if self.coeffs[i]:
                return i - 1
        return None


def mul(a, b):
    """The truncated Cauchy product."""
    if not isinstance(a, TruncSeries) or not isinstance(b, TruncSeries):
        raise TypeError("mul expects two series")
    return a * b


def inv_unit(h):
    """The multiplicative inverse of a unit series.

    Solved by the convolution recurrence c_k = -sum_{i>=1} a_i c_{k-i}
    below length 24, and from there on by Newton steps c <- c (2 - h c),
    each doubling the precision; if h is in H^n the result is in H^n with
    degree-n coefficient -a_n.
    """
    if not isinstance(h, UnitSeries):
        h = TruncSeries.as_unit(h)
    return UnitSeries(h.ring, _inv_unit_coeffs(h.coeffs, h.ring.p))


def compose(f, g):
    """Substitution f(g) = sum_j f_j * g^j for g with zero constant term.

    Truncation commutes with substitution because [x^k] f(g) depends only on
    coefficients of f and g up to degree k.
    """
    if not isinstance(f, TruncSeries) or not isinstance(g, TruncSeries):
        raise TypeError("compose expects two series")
    _require_match(f, g)
    return TruncSeries(f.ring, _compose((f.coeffs,), g.coeffs, f.ring.p)[0])


def comp_inverse(g):
    """The compositional inverse of x + c2 x^2 + ... (two-sided).

    Solved coefficient by coefficient in O(N^3) below length 24, and from
    there on by Newton steps r <- r - (g(r) - x) r', each one composition and
    one product that double the precision.
    """
    if not isinstance(g, NottSeries):
        g = TruncSeries.as_nott(g)
    return NottSeries(g.ring, _reversion(g.coeffs, None, g.ring.p)[0])


def twist(h, g):
    """h(g) * h^(-1) for a unit h and a substitution series g.

    For h in H^n and g in N^(m-1) the result lies in H^(m+n-1) and its
    degree-(m+n-1) coefficient is n * a_n * b_m, so it lands in H^(m+n)
    exactly when that product vanishes in the coefficient ring.
    """
    if not isinstance(h, UnitSeries):
        raise TypeError("twist expects a unit series")
    if not isinstance(g, NottSeries):
        raise TypeError("twist expects a substitution series")
    _require_match(h, g)
    return compose(h, g).as_unit() * inv_unit(h)


# Text form: `ring=(Fp:<p>|Z); trunc=<N>; coeffs=<c0>,...,<cN>`, one series
# per line, decimal coefficients, negatives only over Z.

def _literal_fields(line, kind):
    """The fields of a `key=value; ...` literal; kind names it in errors."""
    fields = {}
    for part in line.split(";"):
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"malformed {kind} field {part!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"duplicate {kind} field {key!r}")
        fields[key] = value.strip()
    return fields


def _literal_int(tok, what):
    # The integer rule of every literal: ASCII digits with an optional leading
    # '-', spaces around.  int() alone also takes '+', '_' and other digits.
    tok = tok.strip()
    if not (tok.isascii() and tok.removeprefix("-").isdigit()):
        raise ValueError(f"malformed {what} {tok!r}")
    return int(tok)


def _literal_ints(text, what):
    # _literal_int of each comma-separated token.  On ASCII text with no '+'
    # or '_', int() takes just the rule's tokens, at C speed.
    tokens = text.split(",")
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    return [_literal_int(tok, what) for tok in tokens]


def parse_series(line):
    fields = _literal_fields(line, "series")
    missing = {"ring", "trunc", "coeffs"} - set(fields)
    if missing:
        raise ValueError(f"series literal missing fields: {', '.join(sorted(missing))}")
    extra = set(fields) - {"ring", "trunc", "coeffs"}
    if extra:
        raise ValueError(f"series literal has unknown fields: {', '.join(sorted(extra))}")

    ringtext = fields["ring"]
    if ringtext == "Z":
        ring = CoeffRing(None)
    elif ringtext.startswith("Fp:"):
        ring = CoeffRing(_literal_int(ringtext[3:], "modulus"))
    else:
        raise ValueError(f"malformed ring {ringtext!r}")

    trunc = _literal_int(fields["trunc"], "truncation")
    if trunc < 0:
        raise ValueError(f"truncation must be >= 0, got {trunc}")

    coeffs = _literal_ints(fields["coeffs"], "coefficient")
    # every token passed the rule, so each '-' is a sign
    if ring.p is not None and "-" in fields["coeffs"]:
        raise ValueError("negative coefficients are only allowed over Z")
    if len(coeffs) != trunc + 1:
        raise ValueError(f"expected {trunc + 1} coefficients, got {len(coeffs)}")
    return TruncSeries(ring, coeffs)


def format_series(s):
    coeffs = ",".join(str(c) for c in s.coeffs)
    return f"ring={s.ring}; trunc={s.trunc}; coeffs={coeffs}"


def poly_str(s):
    """Human-readable polynomial rendering, lowest degree first."""
    terms = []
    for i, c in enumerate(s.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
            continue
        x = "x" if i == 1 else f"x^{i}"
        if c == 1:
            terms.append(x)
        elif c == -1:
            terms.append(f"-{x}")
        else:
            terms.append(f"{c}*{x}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out
