"""Property tests for index-set canonical forms (needs hypothesis, test-only)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riordan import IndexSet, admissible_check, format_index_set, parse_index_set  # noqa: E402
from riordan.index_sets import _member_flags  # noqa: E402
from util import admissible_check_by_walk, canonical_form_by_scan, combine_by_scan  # noqa: E402


@st.composite
def raw_fields(draw):
    # classes mod d lifted to period d*k, so the minimal period is often d,
    # with a few residues toggled to break the pattern
    d, k = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    period = d * k
    base = draw(st.sets(st.integers(0, d - 1)))
    residues = {r + i * d for r in base for i in range(k)}
    residues ^= draw(st.sets(st.integers(0, period - 1), max_size=2))
    threshold = draw(st.integers(0, 40))
    exceptional = draw(st.sets(st.integers(1, threshold - 1))) if threshold > 1 else set()
    return threshold, exceptional, period, residues


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(raw_fields())
def test_construction_matches_the_reference_canonical_form(fields):
    s = IndexSet(*fields)
    assert (s.threshold, s.exceptional, s.period, s.residues) == canonical_form_by_scan(*fields)
    assert parse_index_set(format_index_set(s)) == s


@st.composite
def pure_or_thresholded(draw):
    # mostly threshold 0, where the admissibility scan works on classes
    threshold, exceptional, period, residues = draw(raw_fields())
    if draw(st.integers(0, 3)):
        threshold, exceptional = 0, set()
    return IndexSet(threshold, exceptional, period, residues)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(pure_or_thresholded(), pure_or_thresholded(), st.sampled_from((2, 3, 5, 7)))
def test_class_scan_and_set_algebra_match_the_per_integer_references(I, J, p):
    assert admissible_check(I, J, p, bound=60) == admissible_check_by_walk(I, J, p, bound=60)
    for op in ("union", "intersect", "difference"):
        assert getattr(I, op)(J) == combine_by_scan(I, J, op)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(raw_fields(), st.integers(0, 300))
@hypothesis.example((0, set(), 5, {1, 3}), 0)  # top = 0
@hypothesis.example((30, {2, 9, 17}, 4, {1}), 12)  # top below the threshold
@hypothesis.example((0, set(), 250, {7, 240}), 100)  # a period above top
@hypothesis.example((12, {1, 5, 11}, 7, {0, 2, 3, 4, 6}), 60)  # exceptional members, dense classes
def test_member_flags_are_membership(fields, top):
    s = IndexSet(*fields)
    flags = _member_flags(s, top)
    assert len(flags) == top + 1
    assert all(flags[n] == (n in s) for n in range(top + 1))
