"""Property tests for the exit-code contract and literal round trips (needs hypothesis)."""

import contextlib
import io
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riordan import (  # noqa: E402
    CoeffRing,
    NottSeries,
    RiordanElem,
    TruncSeries,
    UnitSeries,
    format_riordan,
    format_series,
    parse_riordan,
    parse_series,
)
from riordan.cli import main  # noqa: E402

PRIMES = (2, 3, 5, 7, 101, 65537, 2**31 - 1, 1000000000000000003, 2**61 - 1)

# every subcommand that reads a payload, with fixed flags
PAYLOAD_COMMANDS = (
    ("series-mul",),
    ("series-inv",),
    ("series-compose",),
    ("series-compinv",),
    ("riordan-mul",),
    ("riordan-inv",),
    ("riordan-array", "--size", "4"),
    ("density",),
    ("classify", "--p", "3"),
    ("admissible", "--p", "3"),
    ("hdim", "--p", "3"),
    ("gens-check", "--p", "3", "--level", "3"),
)

# noise: literal keys with wrong values, missing or duplicated fields, and
# arbitrary text
numbers = st.one_of(
    st.integers(-3, 12), st.integers(-(10**20), 10**20), st.sampled_from(PRIMES)
).map(str)
values = st.one_of(
    numbers,
    st.lists(numbers, max_size=8).map(",".join),
    st.sampled_from(["Z", "Fp:3", "Fp:4", "Fp:", "Fp:2305843009213693951", ""]),
    st.text(max_size=6),
)
fields = st.lists(
    st.tuples(
        st.sampled_from(["ring", "trunc", "coeffs", "T", "except", "period", "residues", "x"]),
        values,
    ),
    max_size=5,
)
rings = st.sampled_from(("Z",) + tuple(f"Fp:{p}" for p in PRIMES))


@st.composite
def series_line(draw, ring=None, trunc=None, head=None):
    # mostly well formed: a unit or substitution series, or a coefficient off
    ring = draw(rings) if ring is None else ring
    trunc = draw(st.integers(1, 6)) if trunc is None else trunc
    cs = list(head or draw(st.sampled_from([(1,), (0, 1), (0, 0), (2,)])))
    cs += draw(st.lists(st.integers(-2, 6), min_size=trunc + 1, max_size=trunc + 1))
    return f"ring={ring}; trunc={trunc}; coeffs={','.join(map(str, cs[: trunc + 1]))}"


@st.composite
def riordan_block(draw):
    ring, trunc = draw(rings), draw(st.integers(2, 6))
    h = draw(series_line(ring, trunc, (1,)))
    g = draw(series_line(ring, trunc, (0, 1)))
    return f"riordan\n{h}\n{g}"


@st.composite
def index_line(draw):
    # mostly well formed: members and residues in range, small or large numbers
    t = draw(st.one_of(st.integers(0, 12), st.sampled_from(PRIMES)))
    m = draw(st.one_of(st.integers(1, 12), st.sampled_from(PRIMES)))
    e = draw(st.lists(st.integers(1, max(t - 1, 1)), max_size=3)) if t > 1 else []
    r = draw(st.lists(st.integers(0, min(m, 12) - 1), max_size=4))
    return f"T={t}; except={','.join(map(str, e))}; period={m}; residues={','.join(map(str, r))}"


noise = st.one_of(
    fields.map(lambda fs: "; ".join(f"{k}={v}" for k, v in fs)),
    st.just("riordan"),
    st.text(max_size=20),
)
payloads = st.one_of(
    st.lists(series_line(), min_size=1, max_size=2),
    st.lists(riordan_block(), min_size=1, max_size=2),
    st.lists(index_line(), min_size=1, max_size=2),
    st.lists(st.one_of(series_line(), riordan_block(), index_line(), noise), max_size=4),
).map("\n".join)


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(payloads)
def test_payload_commands_keep_the_exit_code_contract(text):
    for argv in PAYLOAD_COMMANDS:
        code, out, err = _run(argv, text)
        assert code in (0, 1, 2), (argv, text, code)
        if code == 2:
            assert out == "" and err.startswith("error:"), (argv, text, out, err)


@st.composite
def series(draw):
    p = draw(st.one_of(st.none(), st.sampled_from(PRIMES)))
    coeff = st.integers(-(10**30), 10**30) if p is None else st.integers(0, p - 1)
    return CoeffRing(p), draw(st.lists(coeff, min_size=1, max_size=10))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(series())
def test_series_and_riordan_literals_round_trip(ring_coeffs):
    ring, coeffs = ring_coeffs
    s = TruncSeries(ring, coeffs)
    text = format_series(s)
    assert parse_series(text) == s
    assert format_series(parse_series(text)) == text
    if len(coeffs) >= 2:
        a = RiordanElem(
            UnitSeries(ring, [1] + coeffs[1:]), NottSeries(ring, [0, 1] + coeffs[2:])
        )
        text = format_riordan(a)
        assert parse_riordan(text) == a
        assert format_riordan(parse_riordan(text)) == text
