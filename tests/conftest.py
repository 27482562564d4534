"""Shared fixtures for the test suite.

The acceptance tests register a one-line verdict per criterion through
:func:`note`; the lines are echoed in the terminal summary so a plain
``pytest -v`` run ends with a readable scoreboard.
"""

import itertools

import pytest

from mpdagid import Graph, GraphClass

from cases import reference_enumerate_dags

acceptance_lines: list[str] = []


def note(line: str) -> None:
    acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


_STATES = ("none", "ab", "ba", "und")


@pytest.fixture(scope="session")
def four_node_graphs():
    """Every partially directed graph on four nodes.

    All 4^6 assignments of {absent, ->, <-, --} to the six node pairs.
    """
    nodes = ["N0", "N1", "N2", "N3"]
    pairs = list(itertools.combinations(nodes, 2))
    graphs = []
    for states in itertools.product(range(4), repeat=len(pairs)):
        directed, undirected = [], []
        for (a, b), s in zip(pairs, states):
            if _STATES[s] == "ab":
                directed.append((a, b))
            elif _STATES[s] == "ba":
                directed.append((b, a))
            elif _STATES[s] == "und":
                undirected.append((a, b))
        graphs.append(Graph(nodes, directed, undirected))
    return graphs


@pytest.fixture(scope="session")
def battery(four_node_graphs):
    """Every MPDAG (including DAGs) on four nodes, with its DAG class.

    The graphs of :func:`four_node_graphs` that are not maximally oriented
    are dropped.
    """
    return [(g, reference_enumerate_dags(g)) for g in four_node_graphs
            if g.classify() is not GraphClass.PDAG]
