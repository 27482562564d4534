"""Per-class identification when the class graph alone is not enough.

The query f(y | do(x), z) below is not identifiable from the class graph:
the answer depends on which way the X -- Z edge points.  Splitting on
that edge gives one maximally informed subclass per orientation, each
with its own closed form.  The demo then checks both formulas against
the truncated factorization of a random binary model on every DAG.
Run with ``python3 demos/per_class_split.py``.
"""

import random

from mpdagid import (cidme_tree, enumerate_dags, graph_to_text, numeric_gap,
                     parse_graph_text, render_text)

TEXT = "X -- Z\nZ -> Y\nV1 -> X\nV1 -> Z\nV1 -> Y\nX -> Y\n"


def main() -> None:
    graph = parse_graph_text(TEXT)
    print("class graph:")
    for line in graph_to_text(graph).splitlines():
        print(f"   {line}")
    print(f"members: {len(enumerate_dags(graph))} DAGs")
    print()

    leaves = cidme_tree(graph, ("X",), ("Y",), ("Z",))
    rng = random.Random(0)
    for k, leaf in enumerate(leaves, 1):
        arrow = "X -> Z" if leaf.graph.has_directed("X", "Z") else "Z -> X"
        print(f"leaf {k} ({arrow}):")
        print(f"   f(y | do(x), z) = {render_text(leaf.expression)}")
        worst, _, _ = numeric_gap(leaf.graph, leaf.expression, ("X",),
                                  ("Y",), ("Z",), rng)
        print(f"   max gap to truncated factorization: {worst:.2e}")
        print()


if __name__ == "__main__":
    main()
