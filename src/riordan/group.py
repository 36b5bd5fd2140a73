"""The Riordan group of pairs (h, g) and its lower-triangular matrix picture.

An element pairs a unit series h (constant term 1) with a substitution
series g (leading term x) over one ring at one truncation.  The product
substitutes the left factor's g into both components of the right factor:

    (h1, g1) * (h2, g2) = (h1 * h2(g1), g2(g1))

which is exactly the law that makes the matrix map below a homomorphism.
The matrix of (h, g) has column j generated by h * g^j; multiplying two
such matrices concatenates the substitutions in the order above.

Subgroup structure used throughout: H^m pairs (h in H^m, g = x), N^n pairs
(h = 1, g in N^n), and the band subgroups H^m semidirect N^n.
"""

from __future__ import annotations

from operator import index as _as_int

from .series import (
    CoeffRing,
    NottSeries,
    UnitSeries,
    _compose,
    _inv_unit_coeffs,
    _mul_coeffs,
    _powers,
    _require_match,
    _reversion,
    format_series,
    parse_series,
)


class RiordanElem:
    """A pair (h, g): h a unit series, g a substitution series, same ring and trunc."""

    __slots__ = ("h", "g")

    def __init__(self, h, g):
        if not isinstance(h, UnitSeries):
            raise TypeError("h must be a UnitSeries")
        if not isinstance(g, NottSeries):
            raise TypeError("g must be a NottSeries")
        _require_match(h, g)
        self.h = h
        self.g = g

    @classmethod
    def identity(cls, ring, trunc):
        return cls(UnitSeries.one(ring, trunc), NottSeries.identity(ring, trunc))

    @property
    def ring(self):
        return self.h.ring

    @property
    def trunc(self):
        return self.h.trunc

    def in_levels(self, m, n):
        """Membership in H^m semidirect N^n, read off leading coefficients."""
        return self.h.in_level(m) and self.g.in_level(n)

    def __eq__(self, other):
        return isinstance(other, RiordanElem) and self.h == other.h and self.g == other.g

    def __hash__(self):
        return hash((self.h, self.g))

    def __repr__(self):
        return f"RiordanElem(h={self.h!r}, g={self.g!r})"


def rmul(a, b):
    """The group product (a.h * b.h(a.g), b.g(a.g)), both substitutions in one _compose."""
    if not isinstance(a, RiordanElem) or not isinstance(b, RiordanElem):
        raise TypeError("rmul expects two Riordan elements")
    _require_match(a.h, b.h)
    ring, mod = a.ring, a.ring.p
    h, g = _compose((b.h.coeffs, b.g.coeffs), a.g.coeffs, mod)
    return RiordanElem(UnitSeries(ring, _mul_coeffs(a.h.coeffs, h, mod)), NottSeries(ring, g))


def rinv(a):
    """The group inverse (h^(-1)(gbar), gbar), gbar = g^(-1), both from one _reversion call."""
    if not isinstance(a, RiordanElem):
        raise TypeError("rinv expects a Riordan element")
    ring, mod = a.ring, a.ring.p
    gbar, h = _reversion(a.g.coeffs, _inv_unit_coeffs(a.h.coeffs, mod), mod)
    return RiordanElem(UnitSeries(ring, h), NottSeries(ring, gbar))


class RiordanMatrix:
    """A square lower-triangular matrix with unit diagonal over the ring."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries):
        if not isinstance(ring, CoeffRing):
            raise TypeError("ring must be a CoeffRing")
        rows = tuple(map(ring.reduce_all, entries))
        m = len(rows)
        if m == 0 or any(len(row) != m for row in rows):
            raise ValueError("matrix must be square and nonempty")
        for i, row in enumerate(rows):
            if row[i] != 1:
                raise ValueError(f"diagonal entry ({i},{i}) must be 1")
            if any(row[i + 1 :]):
                raise ValueError(f"row {i} has entries above the diagonal")
        self.ring = ring
        self.entries = rows

    @property
    def size(self):
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if not isinstance(other, RiordanMatrix):
            return NotImplemented
        if self.ring != other.ring or self.size != other.size:
            raise ValueError("matrix ring/size mismatch")
        m = self.size
        a, b = self.entries, other.entries
        mod = self.ring.p
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                # lower triangularity bounds the sum to j <= k <= i
                s = sum(a[i][k] * b[k][j] for k in range(j, i + 1))
                row.append(s if mod is None else s % mod)
            rows.append(row)
        return RiordanMatrix(self.ring, rows)

    def truncate(self, m):
        """The leading m x m corner, a matrix of the same kind."""
        if m < 1 or m > self.size:
            raise ValueError(f"cannot truncate size {self.size} to {m}")
        return RiordanMatrix(self.ring, [row[:m] for row in self.entries[:m]])

    def csv(self):
        """One row per line, explicit zeros above the diagonal."""
        return "\n".join(",".join(str(c) for c in row) for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, RiordanMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        return f"RiordanMatrix({self.ring}, size={self.size})"


def to_matrix(a, m):
    """The m x m matrix of (h, g): entry (i, j) is [x^i] h * g^j.

    Column j is row j of the power table of g started at h.
    Requires m-1 <= trunc so every needed coefficient is stored.
    """
    if not isinstance(a, RiordanElem):
        raise TypeError("to_matrix expects a Riordan element")
    m = _as_int(m)
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    if m - 1 > a.trunc:
        raise ValueError(f"size {m} needs truncation >= {m - 1}, have {a.trunc}")
    cols = _powers(a.g.coeffs[:m], a.ring.p, first=a.h.coeffs[:m])
    return RiordanMatrix(a.ring, zip(*cols))


def band_membership(a, n):
    """Whether a lies in H^n semidirect N^n, tested on series coefficients."""
    if not isinstance(a, RiordanElem):
        raise TypeError("band_membership expects a Riordan element")
    n = _as_int(n)
    if n < 1:
        raise ValueError("band level must be >= 1")
    if a.trunc < n:
        raise ValueError(f"band level {n} needs truncation >= {n}, have {a.trunc}")
    return a.in_levels(n, n)


def matrix_band_zero(mat, n):
    """The matrix side of the band criterion: the first n-1 subdiagonals vanish.

    On to_matrix(a, n+1) this is equivalent to band_membership(a, n): column 0
    forces h into H^n, column 1 then forces g into N^n, and conversely those
    memberships clear every entry with j < i < j+n.
    """
    if not isinstance(mat, RiordanMatrix):
        raise TypeError("matrix_band_zero expects a RiordanMatrix")
    n = _as_int(n)
    if n < 1:
        raise ValueError("band level must be >= 1")
    m = mat.size
    for j in range(m):
        for i in range(j + 1, min(j + n, m)):
            if mat.entries[i][j]:
                return False
    return True


def conj_in_subgroup(outer, inner, m1, n1, m2, n2):
    """Whether outer^(-1) * inner * outer stays in H^m1 semidirect N^n1.

    Preconditions follow the normality statement being exercised:
    m2 + n1 >= m1 >= m2 and n1 >= n2, with outer in H^m2 semidirect N^n2 and
    inner in H^m1 semidirect N^n1.  Under them the answer is always True;
    the return value exists so property tests can assert exactly that.
    """
    for name, v in (("m1", m1), ("n1", n1), ("m2", m2), ("n2", n2)):
        if _as_int(v) < 1:
            raise ValueError(f"{name} must be >= 1")
    m1, n1, m2, n2 = _as_int(m1), _as_int(n1), _as_int(m2), _as_int(n2)
    if not (m2 + n1 >= m1 >= m2 and n1 >= n2):
        raise ValueError(
            f"normality constraint violated: need m2+n1 >= m1 >= m2 and n1 >= n2, "
            f"got (m1,n1,m2,n2)=({m1},{n1},{m2},{n2})"
        )
    need = max(m1 - 1, n1, m2 - 1, n2)
    if outer.trunc < need:
        raise ValueError(f"truncation {outer.trunc} too small to decide levels up to {need}")
    if not outer.in_levels(m2, n2):
        raise ValueError("outer element is not in H^m2 semidirect N^n2")
    if not inner.in_levels(m1, n1):
        raise ValueError("inner element is not in H^m1 semidirect N^n1")
    conj = rmul(rmul(rinv(outer), inner), outer)
    return conj.in_levels(m1, n1)


# Text form: a `riordan` header line, then the h line, then the g line.

def parse_riordan(text):
    lines = [ln for ln in (raw.strip() for raw in text.strip().splitlines()) if ln]
    if len(lines) != 3 or lines[0] != "riordan":
        raise ValueError("riordan literal must be a 'riordan' header, an h line and a g line")
    h = parse_series(lines[1]).as_unit()
    g = parse_series(lines[2]).as_nott()
    return RiordanElem(h, g)


def format_riordan(a):
    return "\n".join(["riordan", format_series(a.h), format_series(a.g)])
