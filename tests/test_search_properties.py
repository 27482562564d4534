"""Property tests for d-separation on random graphs and their mutilations.

:func:`find_open_path` lets its polynomial search over edge states decide
alone when the answer is "separated", and confirms "connected" with an
exact search over simple paths.  Here its answer must equal that of a plain
simple-path search which judges every candidate with the validator, so a
separated verdict the walk search reached wrongly would show.  The two
verdicts cannot be compared directly: on mutilated graphs an open walk can
exist with no open path (see ``test_open_walk_with_no_open_path``).
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mpdagid import (Graph, d_separated, find_open_path,  # noqa: E402
                     random_mpdag)

from cases import reference_open_definite_status_path  # noqa: E402


def simple_path_reference(g, x, y, z):
    """Shortest open definite-status path from X to Y, ties by node order,
    found by extending simple paths one node at a time."""
    level = [(s,) for s in g.sorted_nodes(x)]
    while level:
        nxt = []
        for path in level:
            for w in g.sorted_nodes(g.neighbors_of(path[-1])):
                longer = path + (w,)
                if w in path or w in x or not \
                        reference_open_definite_status_path(g, longer, z):
                    continue
                if w in y:
                    return longer
                nxt.append(longer)
        level = nxt
    return None


@st.composite
def mutilated_queries(draw):
    n = draw(st.integers(5, 8))
    nodes = [f"V{i}" for i in range(n)]
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        density = draw(st.sampled_from([0.3, 0.5, 0.7]))
        g = random_mpdag(random.Random(seed), nodes, density)
    else:
        directed, undirected = [], []
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                state = draw(st.sampled_from(["none", "ab", "ba", "und"]))
                if state == "ab":
                    directed.append((a, b))
                elif state == "ba":
                    directed.append((b, a))
                elif state == "und":
                    undirected.append((a, b))
        g = Graph(nodes, directed, undirected)
    subsets = st.sets(st.sampled_from(nodes), max_size=3)
    g = g.remove_edges_into(draw(subsets)).remove_edges_out_of(draw(subsets))
    order = draw(st.permutations(nodes))
    nx = draw(st.integers(1, 2))
    ny = draw(st.integers(1, 2))
    nz = draw(st.integers(0, n - nx - ny))
    return (g, set(order[:nx]), set(order[nx:nx + ny]),
            set(order[nx + ny:nx + ny + nz]))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(mutilated_queries())
def test_verdict_and_witness_match_simple_path_search(query):
    g, x, y, z = query
    want = simple_path_reference(g, x, y, z)
    got = find_open_path(g, x, y, z)
    assert (got.path if got is not None else None) == want
    assert d_separated(g, x, y, z) == (want is None)
