"""Property tests for the quotient law and pc closures against references (needs hypothesis, test-only)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riordan import QuotientGroup, commutator_subgroup  # noqa: E402
from util import closure_by_bfs, mul_by_loops  # noqa: E402

GROUPS = {(p, level): QuotientGroup(p, level) for p, level in ((2, 4), (3, 4), (5, 3), (7, 3), (3, 5))}
LAWS = {
    (p, level): QuotientGroup(p, level)
    for p, level in ((2, 9), (3, 5), (7, 4), (5, 26), (3, 45), (2147483647, 3), (2147483647, 4))
}


@pytest.mark.parametrize("p, level", sorted(LAWS))
def test_packed_law_matches_the_loop_law(p, level):
    G = LAWS[p, level]
    element = st.tuples(*[st.integers(0, p - 1)] * (2 * G.na))

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(element, element)
    def check(x, y):
        assert G.mul(x, y) == mul_by_loops(G, x, y)

    check()


@pytest.mark.parametrize("p, level", sorted(GROUPS))
def test_pc_closure_matches_the_coset_bfs(p, level):
    G = GROUPS[p, level]
    element = st.tuples(*[st.integers(0, p - 1)] * (2 * G.na))

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(st.lists(element, min_size=1, max_size=3))
    def check(gens):
        handle = G.subgroup(gens)
        expected = closure_by_bfs(G, gens)
        assert handle.order == len(expected)
        assert {x for x in G.iter_elements() if x in handle} == expected

    check()


@pytest.mark.parametrize("p, level", [(2, 4), (3, 4)])
def test_commutator_subgroup_matches_the_all_pairs_closure(p, level):
    G = GROUPS[p, level]
    element = st.tuples(*[st.integers(0, p - 1)] * (2 * G.na))

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(st.lists(element, min_size=1, max_size=2), element)
    def check(a_gens, b):
        A, B = G.subgroup(a_gens), G.subgroup([b])
        hypothesis.assume(A.order * B.order <= 20000)
        pairs = {G.comm(x, y) for x in A.element_set() for y in B.element_set()}
        assert commutator_subgroup(A, B).element_set() == closure_by_bfs(G, sorted(pairs))

    check()
