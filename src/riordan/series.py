"""Exact truncated formal power series over a prime field or over the integers.

A series stores its coefficients c0..cN for a truncation degree N fixed at
construction.  All arithmetic is exact: coefficients over F_p are kept
canonically reduced to {0, ..., p-1}, integer coefficients are unbounded.
Operations never mix rings or truncations; move down explicitly with
``project``.

Values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.  The module
also holds the enumeration cap that the quotient and index-set layers share,
and require_within_cap, the one place that refuses an enumeration past it.
"""

from __future__ import annotations

import os
import sys
from array import array
from operator import index as _as_int

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
# Over F_p the kernels multiply by Kronecker substitution: coefficient k of an
# operand sits in byte-aligned slot k of one int, so packing (an array read by
# int.from_bytes), the product and unpacking (memoryview.cast) run in C.  For
# operands of length n with residues in [0, p), each product slot below n sums
# at most n terms of at most (p-1)^2, so the smallest slot of 2, 4 or 8 bytes
# holding n (p-1)^2 never overflows and each slot is the exact integer
# coefficient.  Z, and p too large for any slot (beyond about 2^30), keep the
# coefficient loops; so do big-endian hosts, whose array items are not
# little-endian slots.
_SLOTS = tuple((code, array(code).itemsize) for code in "HIQ") if sys.byteorder == "little" else ()

# Reversion inverts the power table from this length on and runs the online
# loop below it.  The two tie near length 24; at 32, quotient inverses up to
# level 30 (length 31) keep the loop.
_REVERSION_TABLE_MIN_N = 32


def _slot(n, mod):
    # The smallest slot (array code, bytes) with n (mod-1)^2 < 2^(8 bytes), or None.
    if mod is None:
        return None
    top = n * (mod - 1) ** 2
    for code, size in _SLOTS:
        if top < 1 << 8 * size:
            return code, size
    return None


def _pack(coeffs, code):
    return int.from_bytes(array(code, coeffs), "little")


def _unpack(v, n, code, size, mod):
    # Slots 0..n-1 of v reduced mod p; v must be below 2^(8 size n).
    return [c % mod for c in memoryview(v.to_bytes(n * size, "little")).cast(code)]


def _mul_coeffs(a, b, mod):
    n = len(a)
    slot = _slot(n, mod)
    if slot:
        code, size = slot
        v = _pack(a, code) * _pack(b, code) & ((1 << 8 * size * n) - 1)
        return tuple(_unpack(v, n, code, size, mod))
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


def _inv_unit_coeffs(a, mod):
    # a[0] must be 1; solve sum_{i} a_i c_{k-i} = [k == 0] for c.
    n = len(a)
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
    slot = _slot(n, mod)
    if slot is None:
        for _ in range(n - 1):
            pw.append(_mul_coeffs(pw[-1], g, mod))
        return tuple(pw)
    # Row j is x^j t_j with t_j = t_{j-1} * (g/x) cut to n - j slots, so g/x
    # is packed once and each reduced t_j once.
    code, size = slot
    bits = 8 * size
    gv, v = _pack(g[1:], code), _pack(pw[0], code)
    for j in range(1, n):
        t = _unpack(v * gv & ((1 << bits * (n - j)) - 1), n - j, code, size, mod)
        pw.append((0,) * j + tuple(t))
        v = _pack(t, code)
    return tuple(pw)


def _subst(f, pw, mod):
    # f(g) = sum_j f_j * pw[j] for the power table pw of g.
    n = len(pw[0])
    out = [0] * n
    for j, c in enumerate(f):
        if c:
            row = pw[j]
            for k in range(j, n):
                out[k] += c * row[k]
    return tuple(out) if mod is None else tuple(c % mod for c in out)


def _reversion(g, mod):
    # The power table of r with g(r) = x, for g = (0, 1, b2, ...).
    n = len(g)
    slot = _slot(n, mod) if n >= _REVERSION_TABLE_MIN_N else None
    if slot:
        return _reversion_by_table(g, mod, *slot)
    # [x^m] r^j for j >= 2 needs only r_1..r_{m-1}: convolve column m of
    # r^2..r^m first, then r_m = -sum_{j>=2} b_j [x^m] r^j.  No division, so
    # exact over F_p and Z.
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


def _reversion_by_table(g, mod, code, size):
    # The power table A of g is unitriangular, and sum_k A[j][k] r^k =
    # g^j(r) = x^j, so the power table of r is A^-1: from the last row up,
    # R[j] = x^j + sum_{k>j} (p - A[j][k]) R[k] mod p, each R[k] a packed
    # reduced row.  Slot m > j of the sum adds at most n - 1 terms of at most
    # (p-1)^2 and slot j holds 1, so the slot of _slot(n, p) holds it exactly.
    n = len(g)
    A = _powers(g, mod)
    packed = [0] * n
    rows = [None] * n
    for j in range(n - 1, -1, -1):
        aj = A[j]
        acc = 1 << 8 * size * j
        for k in range(j + 1, n):
            c = aj[k]
            if c:
                acc += (mod - c) * packed[k]
        row = _unpack(acc, n, code, size, mod)
        packed[j] = _pack(row, code)
        rows[j] = tuple(row)
    return tuple(rows)


class TruncSeries:
    """A formal power series truncated at a fixed degree.

    coeffs has length trunc+1; arithmetic between two series requires an
    identical ring and an identical truncation.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        if not isinstance(ring, CoeffRing):
            raise TypeError("ring must be a CoeffRing")
        cs = tuple(ring.reduce(c) for c in coeffs)
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

    Solved by the convolution recurrence c_k = -sum_{i>=1} a_i c_{k-i};
    if h is in H^n the result is in H^n with degree-n coefficient -a_n.
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
    mod = f.ring.p
    return TruncSeries(f.ring, _subst(f.coeffs, _powers(g.coeffs, mod), mod))


def comp_inverse(g):
    """The compositional inverse of x + c2 x^2 + ... (two-sided), in O(N^3)."""
    if not isinstance(g, NottSeries):
        g = TruncSeries.as_nott(g)
    return NottSeries(g.ring, _reversion(g.coeffs, g.ring.p)[1])


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
        ptext = ringtext[3:]
        if not ptext.isdigit():
            raise ValueError(f"malformed ring {ringtext!r}")
        ring = CoeffRing(int(ptext))
    else:
        raise ValueError(f"malformed ring {ringtext!r}")

    if not fields["trunc"].isdigit():
        raise ValueError(f"malformed truncation {fields['trunc']!r}")
    trunc = int(fields["trunc"])

    coeffs = []
    for tok in fields["coeffs"].split(","):
        tok = tok.strip()
        body = tok[1:] if tok.startswith("-") else tok
        if not body.isdigit():
            raise ValueError(f"malformed coefficient {tok!r}")
        if tok.startswith("-") and ring.p is not None:
            raise ValueError("negative coefficients are only allowed over Z")
        coeffs.append(int(tok))
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
