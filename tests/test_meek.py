import itertools
import random

import pytest

from mpdagid import ident, meek, oracle
from mpdagid import (Graph, GraphClass, GraphError, InconsistentOrientation,
                     apply_background, cidme_tree, consistent_extension,
                     enumerate_dags, has_consistent_extension, is_meek_closed,
                     meek_closure, parse_graph_text, pattern_of, random_dag,
                     random_mpdag, refine)

from cases import (_ref_r1, _ref_r2, _ref_r3, _ref_r4,
                   _ref_rule_applications, background_graphs,
                   closed_random_pdags, reference_apply_background,
                   reference_classify, reference_consistent_extension,
                   reference_decisive_nodes, reference_enumerate_dags,
                   reference_refine, small_random_graphs, sparse_pool_graphs)


def closure(text):
    return meek_closure(parse_graph_text(text))


class TestRules:
    def test_rule_one(self):
        g = closure("A -> B\nB -- C\n")
        assert g.has_directed("B", "C")

    def test_rule_one_blocked_by_shield(self):
        # A -- C shields the triple, so B -- C stays undirected
        g = closure("A -> B\nB -- C\nA -- C\n")
        assert g.has_undirected("B", "C")
        assert is_meek_closed(g)

    def test_rule_two(self):
        g = closure("A -> B\nB -> C\nA -- C\n")
        assert g.has_directed("A", "C")

    def test_rule_three(self):
        g = closure("A -- B\nA -- C\nA -- D\nC -> B\nD -> B\n")
        assert g.has_directed("A", "B")
        assert g.has_undirected("A", "C")
        assert g.has_undirected("A", "D")

    def test_rule_four(self):
        g = closure("A -- B\nA -- D\nD -> C\nC -> B\nC -> A\n")
        assert g.has_directed("A", "B")
        assert g.has_directed("D", "A")

    def test_closure_idempotent(self):
        g = closure("A -> B\nB -- C\nC -- D\n")
        assert meek_closure(g) == g
        assert is_meek_closed(g)

    def test_closure_records_the_class_classify_gives(self, four_node_graphs):
        closed = 0
        for g in four_node_graphs:
            # a fresh copy, so no class is already kept on the input
            g = Graph(g.nodes, g.directed_edges, g.undirected_edges)
            try:
                result = meek_closure(g)
            except InconsistentOrientation:
                continue
            fresh = Graph(result.nodes, result.directed_edges,
                          result.undirected_edges)
            assert result.classify() is reference_classify(fresh), result
            closed += 1
        assert closed > 0

    def test_classify_matches_reference(self, four_node_graphs):
        # classify decides the class through the closure; the reference
        # decides it from the rules and the sink scan alone
        graphs = four_node_graphs + small_random_graphs(seed=19, count=300)
        seen = set()
        for g in graphs:
            fresh = Graph(g.nodes, g.directed_edges, g.undirected_edges)
            expected = reference_classify(fresh)
            assert fresh.classify() is expected, g
            seen.add(expected)
        assert seen == set(GraphClass)


class TestFailures:
    def test_directed_cycle(self):
        with pytest.raises(InconsistentOrientation):
            closure("A -> B\nB -> C\nC -> A\n")

    def test_new_collider_forbidden(self):
        # rule 1 would orient B -> C, colliding with D -> C unshielded
        with pytest.raises(InconsistentOrientation):
            closure("A -> B\nB -- C\nD -> C\n")

    def test_no_consistent_extension(self):
        square = parse_graph_text("A -- B\nB -- C\nC -- D\nD -- A\n")
        # every rule's premise is unsatisfied, yet no DAG extends the square
        with pytest.raises(InconsistentOrientation):
            meek_closure(square)
        assert not has_consistent_extension(square)

    def test_apply_background_conflict(self):
        g = parse_graph_text("A -> B\nB -- C\n")
        with pytest.raises(InconsistentOrientation):
            apply_background(g, [("B", "A")])

    def test_apply_background_contradictory_pairs(self):
        # B -> A meets the edge the first pair oriented, not a missing one
        g = parse_graph_text("A -- B\nB -- C\n")
        with pytest.raises(InconsistentOrientation, match="^edge between 'B' "
                           "and 'A' already oriented the other way$"):
            apply_background(g, [("A", "B"), ("B", "A")])

    def test_unknown_label_is_named(self):
        # the least unknown label, as every other query names it, not a
        # missing undirected edge
        g = parse_graph_text("A -- B\nB -- C\n")
        for call in (lambda: apply_background(g, [("A", "B"), ("R", "Q")]),
                     lambda: g.orient("R", "Q"),
                     lambda: g.orient("A", "Q"),
                     lambda: refine(g, "R", "Q")):
            with pytest.raises(GraphError, match="^unknown node 'Q'$"):
                call()

    def test_apply_background_agreeing_orientation_is_noop(self):
        g = meek_closure(parse_graph_text("A -> B\nnode C\n"))
        assert apply_background(g, [("A", "B")]) == g


class TestExtension:
    def test_extension_of_triangle(self):
        g = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        d = consistent_extension(g)
        assert d is not None
        assert d.classify() is GraphClass.DAG
        assert d in set(reference_enumerate_dags(g))

    def test_extension_none_for_square(self):
        square = parse_graph_text("A -- B\nB -- C\nC -- D\nD -- A\n")
        assert consistent_extension(square) is None
        assert reference_enumerate_dags(square) == []

    def test_extension_matches_brute_force_exhaustively(self):
        # all PDAGs on 3 nodes with an acyclic directed part
        names = ["A", "B", "C"]
        pairs = list(itertools.combinations(names, 2))
        for states in itertools.product(range(4), repeat=3):
            directed, undirected = [], []
            for (a, b), s in zip(pairs, states):
                if s == 1:
                    directed.append((a, b))
                elif s == 2:
                    directed.append((b, a))
                elif s == 3:
                    undirected.append((a, b))
            g = Graph(names, directed, undirected)
            if not g.directed_part_acyclic():
                continue
            ext = consistent_extension(g)
            dags = reference_enumerate_dags(g)
            if ext is None:
                assert dags == []
            else:
                assert ext in set(dags)

    def test_extension_random(self):
        rng = random.Random(41)
        for _ in range(100):
            dag = random_dag(rng, [f"N{i}" for i in range(6)], 0.4)
            cp = pattern_of(dag)
            ext = consistent_extension(cp)
            assert ext is not None
            assert pattern_of(ext) == cp


class TestPattern:
    def test_pattern_keeps_collider_only(self):
        dag = parse_graph_text("A -> B\nC -> B\nC -> D\n")
        cp = pattern_of(dag)
        assert cp.has_directed("A", "B")
        assert cp.has_directed("C", "B")
        assert cp.has_undirected("C", "D")

    def test_pattern_is_class_invariant(self):
        rng = random.Random(13)
        for _ in range(60):
            dag = random_dag(rng, [f"N{i}" for i in range(5)], 0.45)
            cp = pattern_of(dag)
            members = reference_enumerate_dags(cp)
            assert dag in set(members)
            for member in members:
                assert pattern_of(member) == cp

    @pytest.mark.parametrize("text", ["A -- B\n",
                                      "A -> B\nB -> C\nC -> A\n"])
    def test_pattern_rejects_non_dags(self, text):
        # an undirected edge or a directed cycle was dropped or flattened
        with pytest.raises(GraphError, match="^a pattern needs a DAG$"):
            pattern_of(parse_graph_text(text))

    def test_refine_shrinks_class(self):
        g = parse_graph_text("A -- B\nB -- C\nA -- C\n")
        h = refine(g, "A", "B")
        assert h.has_directed("A", "B")
        before = set(reference_enumerate_dags(g))
        after = set(reference_enumerate_dags(h))
        assert after < before
        assert all(d.has_directed("A", "B") for d in after)


# -- reference: the sweep closure and the sink scan ---------------------------
#
# The closure as first written, on the reference rules and sink scan of
# cases.py: every sweep tries R1-R4 on every undirected edge of an immutable
# graph and orients through Graph.orient.  The fast versions in mpdagid.meek
# must give the same graphs and the same errors.


def reference_meek_closure(graph):
    if not graph.directed_part_acyclic():
        raise InconsistentOrientation("directed part contains a cycle")
    g = graph
    while True:
        apps = _ref_rule_applications(g)
        if not apps:
            break
        for a, b in apps:
            if g.has_undirected(a, b):
                g = g.orient(a, b)
    if not g.directed_part_acyclic():
        raise InconsistentOrientation("closure created a directed cycle")
    if not g.unshielded_colliders() <= graph.unshielded_colliders():
        raise InconsistentOrientation("closure created a new unshielded collider")
    if g.undirected_edges and reference_consistent_extension(g) is None:
        raise InconsistentOrientation("no consistent extension exists")
    return g


def _closure_outcome(closure, graph):
    """What a closure gives on a fresh copy of ``graph``: the repr of the
    result, the class it recorded and whether it is the input itself, or
    the exception's class and text."""
    fresh = Graph(graph.nodes, graph.directed_edges, graph.undirected_edges)
    try:
        result = closure(fresh)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return repr(result), result.classify(), result is fresh


def _assert_kernels_match_reference(graphs):
    raised = 0
    for g in graphs:
        expected = _closure_outcome(reference_meek_closure, g)
        assert _closure_outcome(meek_closure, g) == expected, g
        raised += len(expected) == 2
        extension = reference_consistent_extension(g)
        assert repr(consistent_extension(g)) == repr(extension), g
        assert has_consistent_extension(g) == (extension is not None), g
        assert is_meek_closed(g) == (not _ref_rule_applications(g)), g
    return raised


def test_kernels_match_reference_on_every_four_node_graph(four_node_graphs):
    raised = _assert_kernels_match_reference(four_node_graphs)
    assert 0 < raised < len(four_node_graphs)


def test_kernels_match_reference_on_random_background_knowledge():
    graphs = background_graphs(seed=5, count=200)
    raised = _assert_kernels_match_reference(graphs)
    assert 0 < raised < len(graphs)
    # refine, as the per-class split calls it, on the closed graphs
    for g in graphs:
        try:
            closed = meek_closure(g)
        except InconsistentOrientation:
            continue
        for a, b in closed.undirected_edges[:3]:
            for x, y in ((a, b), (b, a)):
                assert (_closure_outcome(lambda h: refine(h, x, y), closed)
                        == _closure_outcome(
                            lambda h: reference_meek_closure(h.orient(x, y)),
                            closed))


@pytest.mark.parametrize("graph", [
    Graph([f"v{i}" for i in range(7)],
          [("v0", "v3"), ("v3", "v2"), ("v5", "v1")],
          [("v0", "v6"), ("v1", "v4"), ("v1", "v6"), ("v2", "v4"),
           ("v3", "v5"), ("v3", "v6"), ("v4", "v5"), ("v5", "v6")]),
    Graph([f"v{i}" for i in range(7)],
          [("v1", "v6"), ("v4", "v0")],
          [("v0", "v3"), ("v0", "v5"), ("v1", "v5"), ("v3", "v4"),
           ("v3", "v6"), ("v4", "v5"), ("v4", "v6"), ("v5", "v6")]),
])
def test_rounds_retry_edges_next_to_a_new_edge(graph):
    # R4 for x -> y reads the children of x's undirected neighbours, so an
    # edge oriented between two neighbours of x, away from x and y, can
    # license x -> y.  A closure that retried only the edges at the new
    # edge's endpoints reports a directed cycle here, and the sweep a new
    # unshielded collider.
    assert (_closure_outcome(meek_closure, graph)
            == _closure_outcome(reference_meek_closure, graph)
            == ("InconsistentOrientation",
                "closure created a new unshielded collider"))


def _outcome(call, *args):
    """The repr and recorded class of ``call(*args)``, or the exception's
    class and text."""
    try:
        result = call(*args)
    except GraphError as exc:
        return type(exc).__name__, str(exc)
    return repr(result), result._class


def _assert_refine_matches_reference(graphs):
    """Every undirected edge of every graph oriented both ways, on a fresh
    copy (no class recorded: the first round tries every edge) and on a
    classified one (an MPDAG first tries the edges next to the new one).
    A split of a classified MPDAG is built without a check, so its maps
    must equal those of the Graph(...) rebuild of its edges."""
    outcomes = []
    for g in graphs:
        fresh = Graph(g.nodes, g.directed_edges, g.undirected_edges)
        classified = Graph(g.nodes, g.directed_edges, g.undirected_edges)
        classified.classify()
        for a, b in g.undirected_edges:
            for x, y in ((a, b), (b, a)):
                for start in (fresh, classified):
                    expected = _outcome(reference_refine, start, x, y)
                    assert _outcome(refine, start, x, y) == expected, \
                        (g, x, y, start._class)
                    outcomes.append((start._class, isinstance(expected[1], str)))
                if classified._class is GraphClass.MPDAG:
                    h = refine(classified, x, y)
                    rebuilt = Graph(h.nodes, h.directed_edges,
                                    h.undirected_edges)
                    assert ((h._pa, h._ch, h._nb)
                            == (rebuilt._pa, rebuilt._ch, rebuilt._nb))
    return outcomes


def test_refine_matches_reference_on_every_four_node_graph(four_node_graphs):
    outcomes = _assert_refine_matches_reference(four_node_graphs)
    # both first rounds ran, and both kinds of outcome occurred
    assert {(GraphClass.MPDAG, False), (None, False), (None, True),
            (GraphClass.PDAG, True)} <= set(outcomes)


def test_split_of_a_recorded_mpdag_runs_no_extension_search(
        monkeypatch, four_node_graphs):
    # Meek (1995): the closure of a split below a recorded MPDAG has a
    # consistent extension, so neither refine nor a one-pair
    # apply_background searches for one; a fresh copy of the same graph
    # has no recorded class and is checked in full
    k4 = "A -- B\nA -- C\nA -- D\nB -- C\nB -- D\nC -- D\n"
    classified, fresh = parse_graph_text(k4), parse_graph_text(k4)
    mpdags = [g for g in four_node_graphs
              if g.classify() is GraphClass.MPDAG]
    assert classified.classify() is GraphClass.MPDAG
    calls = []
    search = meek._extension_edges
    monkeypatch.setattr(meek, "_extension_edges",
                        lambda g, among, masks=None:
                        calls.append(g) or search(g, among, masks))
    split = refine(classified, "A", "B")
    for g in mpdags:
        for a, b in g.undirected_edges:
            for x, y in ((a, b), (b, a)):
                background = apply_background(g, [(x, y)])
                refined = refine(g, x, y)
                assert ((background, background._class)
                        == (refined, refined._class)), (g, x, y)
    assert calls == [] and split._class is GraphClass.MPDAG
    unchecked = refine(fresh, "A", "B")
    assert len(calls) >= 1
    assert (unchecked, unchecked._class) == (split, split._class)


def test_refine_matches_reference_on_small_random_graphs():
    outcomes = _assert_refine_matches_reference(
        small_random_graphs(seed=23, count=120))
    assert {(GraphClass.MPDAG, False), (None, True)} <= set(outcomes)


def _background_pair_lists(g):
    """Pair lists for ``apply_background`` on ``g``: each undirected edge
    both ways, all of them at once, an already directed and a reversed
    directed edge, a duplicate, a contradictory and a non-adjacent pair,
    and a non-adjacent pair before and after a reversed one, to fix which
    error comes first."""
    und, dirs = g.undirected_edges, g.directed_edges
    apart = [(a, b) for a, b in itertools.combinations(g.nodes, 2)
             if not g.adjacent(a, b)]
    lists = [[], list(und)] + [[e] for a, b in und for e in ((a, b), (b, a))]
    if dirs:
        (a, b), = dirs[:1]
        lists += [[(a, b)], [(b, a)]]
    if und:
        (a, b), = und[:1]
        lists += [[(a, b), (a, b)], [(a, b), (b, a)]]
    if apart:
        lists.append(apart[:1])
    if apart and dirs:
        lists += [apart[:1] + [dirs[0][::-1]], [dirs[0][::-1]] + apart[:1]]
    return lists


def test_apply_background_matches_reference_on_every_four_node_graph(
        four_node_graphs):
    kinds = set()
    for g in four_node_graphs:
        # classified first, so neither side records a class on g: the
        # input's class matters only when no pair changes it, and then
        # both run the closure of g, which the kernel tests check fresh
        g.classify()
        for pairs in _background_pair_lists(g):
            expected = _outcome(reference_apply_background, g, pairs)
            assert _outcome(apply_background, g, pairs) == expected, \
                (g, pairs)
            kinds.add(expected[0] if isinstance(expected[1], str)
                      else expected[1])
    # both classes of result, and both kinds of error, occurred
    assert kinds == {GraphClass.DAG, GraphClass.MPDAG, "GraphError",
                     "InconsistentOrientation"}


# -- the restricted extension search of the closure ----------------------------


def _cycle(k, into=False, between=False, chord=False):
    """An undirected k-cycle C0 ... C{k-1}; with ``into`` a source S -> each
    cycle node; with ``between`` U -- W, U -> M, W -> M and M -> each cycle
    node, so M has no undirected edge but sits between undirected ones;
    with ``chord`` the chords C0 -- Ci that make the cycle chordal."""
    cyc = [f"C{i}" for i in range(k)]
    und = [(cyc[i], cyc[(i + 1) % k]) for i in range(k)]
    und += [(cyc[0], cyc[i]) for i in range(2, k - 1)] if chord else []
    nodes, directed = list(cyc), []
    if into:
        nodes.append("S")
        directed += [("S", c) for c in cyc]
    if between:
        nodes += ["U", "W", "M"]
        und.append(("U", "W"))
        directed += [("U", "M"), ("W", "M")] + [("M", c) for c in cyc]
    return Graph(nodes, directed, und)


def _restricted_verdict(g):
    return meek._extension_edges(g, meek._decisive_nodes(g)) is not None


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("into", [False, True])
@pytest.mark.parametrize("between", [False, True])
@pytest.mark.parametrize("chord", [False, True])
def test_classify_on_undirected_cycles(k, into, between, chord):
    g = _cycle(k, into, between, chord)
    assert not _ref_rule_applications(g)
    decisive = meek._decisive_nodes(g)
    assert decisive == reference_decisive_nodes(g)
    assert ("M" in decisive) == between and "S" not in decisive
    assert has_consistent_extension(g) == _restricted_verdict(g) == chord
    assert g.classify() is reference_classify(g) is (
        GraphClass.MPDAG if chord else GraphClass.PDAG)


def test_classify_on_closed_random_pdags():
    # closed, so the restricted search applies; some have no extension,
    # and some have directed-only nodes between undirected ones
    graphs = closed_random_pdags(seed=41, count=1500)
    kinds = set()
    for g in graphs:
        decisive = meek._decisive_nodes(g)
        assert decisive == reference_decisive_nodes(g), g
        extendable = has_consistent_extension(g)
        assert _restricted_verdict(g) == extendable, g
        assert g.classify() is reference_classify(g), g
        kinds.add((extendable,
                   decisive == {v for v in g.nodes if g._nb[v]}))
    assert kinds == set(itertools.product((False, True), repeat=2))


def test_restricted_verdict_replays_the_whole_search(four_node_graphs):
    # the closed four-node graphs hold the four-node battery of MPDAGs
    closed = [g for g in four_node_graphs
              if g.directed_part_acyclic() and not _ref_rule_applications(g)]
    graphs = sparse_pool_graphs() + closed
    verdicts = set()
    for g in graphs:
        verdict = has_consistent_extension(g)
        assert _restricted_verdict(g) == verdict, g
        verdicts.add(verdict)
    assert verdicts == {False, True}


# -- the int-bitmask kernel ----------------------------------------------------


def _kernel_applications(g, seeds=None):
    """The orientations the rounds' kernel licenses on ``g``, as labels,
    on the edges at ``seeds`` (default: every edge)."""
    pa, ch, nb, adj, live = meek._masks(g._index, g._pa, g._ch, g._nb)
    if seeds is not None:
        live &= sum(1 << g.index(v) for v in seeds)
    return [(g.nodes[x], g.nodes[y])
            for x, y in meek._applications(pa, ch, nb, adj, live)]


def _shuffled_pdags(seed, count):
    """Seeded PDAGs on 9-20 nodes, cyclic or not closed as it falls, whose
    labels V0, V1, ... are declared in a random order: bit order (node
    index), label order and the order of the label numbers all differ."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(9, 20)
        nodes = rng.sample([f"V{j}" for j in range(n)], n)
        p = rng.choice((1.5, 3.0, 5.0)) / (n - 1)
        directed, undirected = [], []
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < p:
                kind = rng.randrange(3)
                if kind == 2:
                    undirected.append((a, b))
                else:
                    directed.append((a, b) if kind == 0 else (b, a))
        out.append(Graph(nodes, directed, undirected))
    return out


def test_kernel_matches_reference_rules_on_every_four_node_graph(
        four_node_graphs):
    licensed = 0
    for g in four_node_graphs:
        expected = _ref_rule_applications(g)
        assert _kernel_applications(g) == expected, g
        # declared in reverse: node index and label order disagree
        r = Graph(g.nodes[::-1], g.directed_edges, g.undirected_edges)
        assert _kernel_applications(r) == _ref_rule_applications(r), r
        licensed += bool(expected)
    assert 0 < licensed < len(four_node_graphs)


def test_kernel_matches_reference_rules_on_shuffled_random_pdags():
    rng = random.Random(3)
    rules = set()
    for g in _shuffled_pdags(seed=17, count=300):
        assert g.nodes != tuple(sorted(g.nodes)) and len(g.nodes) > 8
        expected = _ref_rule_applications(g)
        assert _kernel_applications(g) == expected, g
        # the edges at some seeds: the reference's pairs on those edges
        seeds = set(rng.sample(g.nodes, rng.randint(1, 4)))
        assert _kernel_applications(g, seeds) == [
            (x, y) for x, y in expected if {x, y} & seeds], (g, seeds)
        for x, y in expected:
            rules.add(next(i for i, rule in enumerate(
                (_ref_r1, _ref_r2, _ref_r3, _ref_r4)) if rule(g, x, y)))
        extension = reference_consistent_extension(g)
        assert repr(consistent_extension(g)) == repr(extension), g
    # every rule licensed some orientation first
    assert rules == {0, 1, 2, 3}


def _clique(k):
    nodes = [f"C{i}" for i in range(k)]
    return Graph(nodes, undirected=list(itertools.combinations(nodes, 2)))


def _seeded_mpdags(seed, count):
    """Seeded MPDAGs with 6-9 nodes, dense ones (chordal components with
    many undirected edges) and ones with background orientations."""
    rng = random.Random(seed)
    return [random_mpdag(rng, [f"N{i}" for i in range(rng.randint(6, 9))],
                         rng.choice((0.3, 0.45, 0.6)), rng.choice((0.0, 0.3)))
            for _ in range(count)]


def test_every_split_keeps_the_masks_of_its_maps(battery, monkeypatch):
    # a split keeps the masks its rounds ended with, and a split of it
    # starts from a copy with one pair flipped instead of building them
    # from the maps: along every split of both trees they must equal the
    # masks built from the result's maps at its nodes with an undirected
    # edge, and no other node may keep an undirected bit; a DAG result,
    # which nothing splits, keeps none
    splits, copied = [], 0

    def recorded(g, a, b):
        nonlocal copied
        copied += g._closed_masks is not None
        h = refine(g, a, b)
        splits.append(h)
        return h

    monkeypatch.setattr(ident, "refine", recorded)
    monkeypatch.setattr(oracle, "refine", recorded)
    rng = random.Random(37)
    for g in [g for g, _ in battery] + _seeded_mpdags(37, 60):
        enumerate_dags(g)
        vs = list(g.nodes)
        rng.shuffle(vs)
        cidme_tree(g, vs[:2], vs[2:3], vs[3:4])
    for h in splits:
        if h._class is GraphClass.DAG:
            assert h._closed_masks is None, h
            continue
        pa, ch, nb, adj, _ = h._closed_masks
        fresh = meek._masks(h._index, h._pa, h._ch, h._nb)
        for i in meek._bits(fresh[4]):
            assert ((pa[i], ch[i], nb[i], adj[i])
                    == tuple(m[i] for m in fresh[:4])), (h, i)
        assert nb == fresh[2], h
    assert len(splits) > 5000 and copied > 2000


def _assert_split_matches_reference(g, a, b):
    """``refine(g, a, b)``, which starts from ``g``'s kept masks when ``g``
    is a split result, against the closure of the oriented graph."""
    h, expected = refine(g, a, b), reference_refine(g, a, b)
    assert (repr(h), h._class) == (repr(expected), expected._class), \
        (g, a, b)
    return h


@pytest.mark.parametrize("k", [5, 6])
def test_refine_matches_reference_along_clique_split_trees(k):
    # the whole tree enumerate_dags walks: every split of a split result
    stack, leaves = [_clique(k)], 0
    stack[0].classify()
    while stack:
        g = stack.pop()
        if not g.undirected_edges:
            leaves += 1
            continue
        a, b = g.undirected_edges[0]
        stack += [_assert_split_matches_reference(g, b, a),
                  _assert_split_matches_reference(g, a, b)]
    assert leaves == {5: 120, 6: 720}[k]


def test_refine_matches_reference_along_random_split_chains():
    # chains of splits down to a DAG, each on a random undirected edge in
    # a random direction, from seeded MPDAGs with chordal components
    rng = random.Random(41)
    steps = 0
    for g in _seeded_mpdags(41, 200):
        for _ in range(4):
            h = g
            while h.undirected_edges:
                a, b = rng.choice(h.undirected_edges)
                h = _assert_split_matches_reference(
                    h, *((a, b) if rng.random() < 0.5 else (b, a)))
                steps += 1
    assert steps > 1000
