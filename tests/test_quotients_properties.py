"""Property tests for pc closures against the coset BFS (needs hypothesis, test-only)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riordan import QuotientGroup, commutator_subgroup  # noqa: E402
from util import closure_by_bfs  # noqa: E402

GROUPS = {(p, level): QuotientGroup(p, level) for p, level in ((2, 4), (3, 4), (5, 3), (3, 5))}


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
