import logging
import math
import os
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap import fronts
from ktmap.corpus import UGraph, co_citation_projection
from ktmap.errors import InsufficientDataError
from ktmap.fronts import (fast_greedy, hierarchical_fronts, level_assignment,
                          modularity)
from ktmap.synth import PlantedConfig, gen_planted_kt_network, nmi

import conftest
from conftest import (_scan_best_move, assert_no_child_left,
                      best_partition_bruteforce, brute_modularity, fronts_at,
                      graph_edges, id_labels, leaf_labels, level_labels,
                      scan_refine_moves, ugraph)


def random_ugraph(rng, n_min=4, n_max=8):
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        p = float(rng.uniform(0.2, 0.9))
        ids = [f"v{i}" for i in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        if edges:
            return ugraph(edges, extra_nodes=ids)


def by_index(graph: UGraph, assignment) -> list[int]:
    """The labels of an id -> label map, one per node index."""
    return [assignment[v] for v in graph.ids]


class TestModularity:
    def test_single_front_is_zero(self, two_triangles):
        q = modularity(two_triangles, [1] * two_triangles.n_nodes)
        assert q == pytest.approx(0.0, abs=1e-15)

    def test_two_triangles_half(self, two_triangles):
        part = {"a": 1, "b": 1, "c": 1, "d": 2, "e": 2, "f": 2}
        assert modularity(two_triangles, by_index(two_triangles, part)) == \
            pytest.approx(0.5, abs=1e-15)

    def test_splitting_a_triangle_hurts(self, two_triangles):
        part = {"a": 1, "b": 1, "c": 3, "d": 2, "e": 2, "f": 2}
        assert modularity(two_triangles, by_index(two_triangles, part)) < 0.5

    def test_empty_graph_rejected(self):
        with pytest.raises(InsufficientDataError):
            modularity(UGraph(["a", "b"]), [1, 1])

    def test_uncovered_node_rejected(self, two_triangles):
        for n_labels in (1, 5, 7):
            with pytest.raises(ValueError, match=f"{n_labels} front labels for 6 nodes"):
                modularity(two_triangles, [1] * n_labels)

    def test_matches_matrix_definition_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_ugraph(rng)
            labels = {v: int(rng.integers(0, 3)) for v in g.ids}
            assert modularity(g, by_index(g, labels)) == pytest.approx(
                brute_modularity(g, labels), abs=1e-12)

    def test_weighted_modularity(self):
        g = UGraph(["a", "b", "c", "d"],
                   [("a", "b", 3.0), ("c", "d", 3.0), ("b", "c", 1.0)])
        # m=7, e_11 = e_22 = 3/7, a_1 = a_2 = 7/14
        expected = 2 * (3 / 7 - 0.25)
        assert modularity(g, [1, 1, 2, 2]) == pytest.approx(expected, abs=1e-12)


class TestFastGreedy:
    def test_two_triangles_recovered(self, two_triangles):
        part = fast_greedy(two_triangles)
        assert part.labels == [1, 1, 1, 2, 2, 2]
        assert part.fronts() == [(0, 1, 2), (3, 4, 5)]
        assert part.n_fronts == 2
        assert part.q == pytest.approx(0.5, abs=1e-15)

    def test_labels_numbered_by_smallest_index(self):
        # the triangle holding node 0 is front 1 whatever the ids say
        g = UGraph(["z", "b", "y", "a", "x", "c"],
                   [(u, v, 1.0) for u, v in (("z", "y"), ("y", "x"), ("z", "x"),
                                             ("b", "a"), ("a", "c"), ("b", "c"))])
        part = fast_greedy(g)
        assert part.labels == [1, 2, 1, 2, 1, 2]
        assert part.fronts() == [(0, 2, 4), (1, 3, 5)]

    def test_complete_graph_single_front(self):
        ids = list("abcde")
        g = ugraph([(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]])
        assert fast_greedy(g).n_fronts == 1

    def test_isolated_nodes_become_singletons(self, two_triangles):
        g = ugraph(list({(u, v) for u, v, _ in graph_edges(two_triangles)}),
                   extra_nodes=["x", "y"])
        part = fast_greedy(g)
        labels = id_labels(g, part)
        assert labels["x"] != labels["y"]
        assert {len(m) for m in part.fronts()} == {1, 3}
        assert part.n_fronts == 4

    def test_empty_graph_rejected(self):
        with pytest.raises(InsufficientDataError):
            fast_greedy(UGraph(["a"]))

    def test_q_matches_recomputation(self, two_triangles):
        part = fast_greedy(two_triangles)
        assert part.q == pytest.approx(
            modularity(two_triangles, part.labels), abs=1e-12)

    def test_beats_trivial_partitions(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_ugraph(rng)
            part = fast_greedy(g)
            singleton = list(range(g.n_nodes))
            allinone = [1] * g.n_nodes
            assert part.q >= modularity(g, singleton) - 1e-12
            assert part.q >= modularity(g, allinone) - 1e-12

    def test_near_optimal_on_small_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            g = random_ugraph(rng)
            part = fast_greedy(g)
            q_best, _ = best_partition_bruteforce(g)
            assert part.q >= 0.9 * q_best - 1e-12

    def test_deterministic_across_runs(self):
        cfg = PlantedConfig(branching=(3,), leaf_size=20, p_within=(0.3,),
                            p_between=0.02)
        net, _ = gen_planted_kt_network(cfg, 5)
        parts = [fast_greedy(net.projection) for _ in range(3)]
        assert parts[0].labels == parts[1].labels == parts[2].labels
        assert parts[0].q == parts[1].q == parts[2].q

    def test_planted_recovery_low_mixing(self):
        cfg = PlantedConfig(branching=(4,), leaf_size=30, p_within=(0.4,),
                            p_between=0.01)
        hits = 0
        for seed in range(5):
            net, truth = gen_planted_kt_network(cfg, seed)
            part = fast_greedy(net.projection)
            hits += nmi(id_labels(net.projection, part), leaf_labels(truth)) >= 0.9
        assert hits >= 4

    @pytest.mark.parametrize("weight", [5e-324, 1e-170, 1e160, 1e308])
    def test_extreme_weights_give_unit_partition(self, weight):
        # 2 m^2 underflows to 0 at 1e-170 and overflows at 1e160, where
        # every single-move gain would be NaN and no node would move; at
        # 1e308 m itself overflows, and so would every merge key; at the
        # smallest subnormal the scale factor itself is out of range
        g = numbered_graph(MERGE_THEN_MOVES, 9)
        cut = merge_cut(g)
        assert fronts._refine_moves(g, list(cut)) != cut  # refinement matters
        heavy = UGraph(g.ids, [(u, v, weight) for u, v, _ in graph_edges(g)])
        got, want = fast_greedy(heavy), fast_greedy(g)
        assert got.labels == want.labels
        assert got.q == pytest.approx(want.q)


def member_ids(graph: UGraph, node) -> list[str]:
    """The ids of a front's members, in member order."""
    return [graph.ids[i] for i in node.members]


def shuffled_planted(seed: int, n: int = 36) -> UGraph:
    """Four planted blocks in two halves on ids n00.., the nodes listed in
    a shuffled order."""
    rng = np.random.default_rng(seed)
    ids = [f"n{i:02d}" for i in range(n)]
    block = [i * 4 // n for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = (0.45 if block[i] == block[j]
                 else 0.12 if block[i] // 2 == block[j] // 2 else 0.03)
            if rng.random() < p:
                edges.append((ids[i], ids[j], 1.0))
    order = np.random.default_rng(1).permutation(n)
    return UGraph([ids[i] for i in order], edges)


# the deepest front path of each node of shuffled_planted(6), in walk order
UNSORTED_PATHS = [
    ("1.1", "n00 n02 n17"),
    ("1.2.1", "n01 n04 n06 n07"),
    ("1.2.2", "n03 n05 n08"),
    ("1.3.1", "n09 n10 n14"),
    ("1.3.2", "n11 n12 n13 n15 n16"),
    ("2.1.1", "n24 n25 n28 n35"),
    ("2.1.2", "n30 n31"),
    ("2.2", "n27 n29 n32 n33 n34"),
    ("3.1", "n18 n19 n20 n26"),
    ("3.2", "n21 n22 n23"),
]


class TestHierarchicalFronts:
    def two_level_cliques(self, k=6):
        """Two weakly linked copies of two strongly linked k-cliques.

        The sibling cliques inside each half share 12 links: enough that the
        flat modularity optimum is the two halves (the mid-level links must
        carry more than ~a quarter of the edge weight), while each half
        still splits cleanly into its cliques one level down.
        """
        edges = []
        blocks = []
        for b in range(4):
            ids = [f"b{b}n{i}" for i in range(k)]
            blocks.append(ids)
            edges += [(ids[i], ids[j]) for i in range(k) for j in range(i + 1, k)]
        for left, right in ((blocks[0], blocks[1]), (blocks[2], blocks[3])):
            edges += [(left[i], right[j]) for i in range(4) for j in range(3)]
        edges += [(blocks[0][5], blocks[2][5])]
        return ugraph(edges), blocks

    def test_nested_cliques_depth3(self):
        g, blocks = self.two_level_cliques()
        tree = hierarchical_fronts(g, max_depth=4, min_front_size=4,
                                   min_q_gain=0.05)
        assert tree.depth() == 3
        level2 = fronts_at(tree, 2)
        assert sorted(len(f.members) for f in level2) == [12, 12]
        leaves = {tuple(member_ids(g, f)) for f in fronts_at(tree, 3)}
        assert leaves == {tuple(sorted(b)) for b in blocks}

    def test_min_front_size_floor(self, two_triangles):
        tree = hierarchical_fronts(two_triangles, min_front_size=4)
        assert tree.depth() == 2  # triangles too small to re-split
        assert len(fronts_at(tree, 2)) == 2

    def test_max_depth_two_equals_flat(self, two_triangles):
        tree = hierarchical_fronts(two_triangles, max_depth=2, min_front_size=2)
        flat = fast_greedy(two_triangles)
        assert [f.members for f in fronts_at(tree, 2)] == flat.fronts()
        assert [member_ids(two_triangles, f) for f in fronts_at(tree, 2)] == [
            ["a", "b", "c"], ["d", "e", "f"]]

    def test_refinement_property(self):
        g, _ = self.two_level_cliques()
        tree = hierarchical_fronts(g, max_depth=4, min_front_size=4,
                                   min_q_gain=0.05)
        for node in tree.root.walk():
            for child in node.children:
                assert set(child.members) <= set(node.members)
        # leaves partition the node set
        leaves = [m for n in tree.root.walk() if n.is_leaf for m in n.members]
        assert sorted(leaves) == list(range(g.n_nodes))
        assert tree.ids == g.ids
        assert member_ids(g, tree.root) == sorted(g.ids)

    def test_node_paths_match_leaves(self):
        g, _ = self.two_level_cliques()
        tree = hierarchical_fronts(g, max_depth=4, min_front_size=4,
                                   min_q_gain=0.05)
        paths = tree.node_paths()
        assert len(paths) == g.n_nodes
        for node in tree.root.walk():
            if node.is_leaf:
                for m in member_ids(g, node):
                    assert paths[m] == node.path

    def test_unsorted_ids_pinned(self):
        # node order is not id order: the top level clusters the graph as
        # it is, and every front below keeps its members in id order, so
        # each subgraph clustered under it lists its nodes in id order
        g = shuffled_planted(6)
        assert list(g.ids) != sorted(g.ids)
        tree = hierarchical_fronts(g, max_depth=4, min_front_size=6,
                                   min_q_gain=0.05)
        for node in tree.root.walk():
            assert member_ids(g, node) == sorted(member_ids(g, node))
        # recorded from the implementation that split fronts on id strings
        want = [(v, tuple(map(int, path.split("."))))
                for path, members in UNSORTED_PATHS for v in members.split()]
        assert list(tree.node_paths().items()) == want

    def test_planted_nested_recovery(self):
        cfg = PlantedConfig(branching=(2, 2), leaf_size=50,
                            p_within=(0.20, 0.50), p_between=0.01)
        net, truth = gen_planted_kt_network(cfg, 1)
        tree = hierarchical_fronts(net.projection, max_depth=3,
                                   min_front_size=10, min_q_gain=0.05)
        paths = tree.node_paths()
        assert nmi(level_assignment(paths, 2), level_labels(truth, 1)) >= 0.9
        assert nmi(level_assignment(paths, 3), leaf_labels(truth)) >= 0.9

    def test_empty_graph_rejected(self):
        with pytest.raises(InsufficientDataError):
            hierarchical_fronts(UGraph(["a", "b"]))


def numbered_graph(spec: str, n: int) -> UGraph:
    """Unweighted graph on nodes v0..v{n-1} from "i-j i-j ..." pairs."""
    pairs = [tuple(int(x) for x in pair.split("-")) for pair in spec.split()]
    return ugraph([(f"v{i}", f"v{j}") for i, j in pairs],
                  extra_nodes=[f"v{i}" for i in range(n)])


def merge_cut(g: UGraph) -> list[int]:
    return fronts._merge_cut(g.n_nodes, *g.edge_arrays())


def scaled(g: UGraph, scale: float) -> UGraph:
    """g with every weight times `scale`, adjacency order kept."""
    return UGraph._trusted(g.ids, [{j: w * scale for j, w in nbrs.items()}
                                   for nbrs in g.adj])


def replay_sweep(state, evaluated: list[int]) -> None:
    """Replay a sweep on `state`, a copy taken before it, given the nodes it
    evaluated: every boundary node it skipped must have a best gain,
    computed from scratch, inside its drift bound, and so no move."""
    turns = iter(evaluated)
    turn = next(turns, None)
    graph = SimpleNamespace(adj=state.adj)
    for idx in range(len(state.comm)):
        if not state.n_out[idx]:
            continue
        exact, target = _scan_best_move(graph, state.comm, state.deg_sum,
                                        state.m, 2.0 * state.m, state.wdeg,
                                        idx, floor=-math.inf)
        if idx == turn:
            turn = next(turns, None)
            if exact > fronts._REFINE_TOL:
                state.move(idx, target)
            continue
        drift_term = state.ks[idx] * (state.drift - state.at[idx])
        bound = state.gain[idx] + drift_term
        slack = state.ks[idx] * state.slack_m
        assert bound <= fronts._REFINE_TOL
        assert state.gain[idx] - 2.0 * slack - drift_term <= exact <= bound
    assert turn is None


@contextmanager
def checked_skips():
    """Inside the block, every ``_Refinement.sweep`` records the nodes it
    evaluates and is then replayed on a copy of its starting state by
    ``replay_sweep``, which must make the same moves."""
    cls = fronts._Refinement
    sweep, best_move = cls.sweep, cls.best_move

    def checked_sweep(state):
        before = state.copy()
        evaluated: list[int] = []

        def recording(self, idx, floor):
            evaluated.append(idx)
            return best_move(self, idx, floor)

        cls.best_move = recording
        try:
            moved = sweep(state)
        finally:
            cls.best_move = best_move
        replay_sweep(before, evaluated)
        assert before.comm == state.comm
        return moved

    cls.sweep = checked_sweep
    try:
        yield
    finally:
        cls.sweep = sweep


def assert_refines_like_scan(g: UGraph, comm: list[int], scale: float = 1.0) -> dict:
    """The incremental refinement of g with its weights times `scale` (a
    power of two), brought into range as ``fast_greedy`` brings it, returns
    the scan oracle's labels for g, and each node a sweep skips is inside
    its drift bound; returns the oracle's phase counts."""
    stats: dict = {}
    want = scan_refine_moves(g, list(comm), stats)
    with checked_skips():
        in_range, m = fronts._in_range(scaled(g, scale))
        assert m == in_range.total_weight
        assert fronts._refine_moves(in_range, list(comm)) == want
    return stats


def with_weight(g: UGraph, u: int, v: int, w: float) -> UGraph:
    """g with edge (u, v) reweighted to w, adjacency order kept."""
    adj = [dict(nbrs) for nbrs in g.adj]
    adj[u][v] = adj[v][u] = w
    return UGraph._trusted(g.ids, adj)


def tolerance_crossing(g: UGraph, comm: list[int], x: int) -> tuple[int, float, float]:
    """(neighbor y, lo, hi): adjacent floats lo < hi such that node x's best
    gain in `comm` lies on one side of _REFINE_TOL with edge (x, y) weighing
    lo and on the other side at hi."""
    def above(w):
        state = fronts._Refinement(with_weight(g, x, y, w), list(comm))
        return state.best_move(x, -math.inf)[0] > fronts._REFINE_TOL

    for y, w in g.adj[x].items():
        lo, hi = w / 16, w * 16
        if above(lo) == above(hi):
            continue
        rising = above(hi)
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            if above(mid) == rising:
                hi = mid
            else:
                lo = mid
        return y, lo, hi
    raise AssertionError("no edge of x moves its gain across _REFINE_TOL")


def shuffled_weighted(g: UGraph, weight, seed: int) -> UGraph:
    """Same nodes and edges, new weights, edges inserted in random order so
    that adjacency dicts are not sorted."""
    rng = np.random.default_rng(seed)
    edges = graph_edges(g)
    order = rng.permutation(len(edges))
    return UGraph(g.ids, [(edges[i][0], edges[i][1], weight(rng, edges[i][2]))
                          for i in order])


# found by searching random 9-node graphs for the oracle phase each exercises
KL_ACCEPTED = ("0-2 0-3 0-5 0-6 0-8 1-3 1-4 1-6 1-7 1-8 2-4 2-8 3-4 3-5 4-7 "
               "5-7 5-8 6-7 6-8")
# the accepted chain moves v0, whose only neighbor is v2, after v2: v0 is
# interior when the chain starts and joins the boundary during it
KL_THROUGH_INTERIOR = "0-2 1-2 1-3 1-6 2-3 2-6 3-7 4-5 5-6"
# an accepted chain keeps a prefix and rolls back the rest, and refinement
# goes on from the kept prefix; the first case catches trial front weights
# leaking into the refined state, the other two trial foreign-neighbor
# counts. None means: start from the merge cut.
KL_PARTIAL = [
    ("0-1 0-2 0-4 0-5 0-7 0-11 1-3 1-4 1-7 1-13 2-3 2-4 2-11 3-4 3-7 4-6 "
     "4-10 5-12 6-7 6-8 6-10 7-9 8-9 9-11 9-14 10-11 10-12 11-13 11-14 "
     "12-13 12-14 13-14", 15, None),
    ("0-1 0-2 0-4 0-7 1-5 1-8 2-5 2-7 3-4 3-5 3-6 3-8 4-5 5-7 6-7 6-8 7-8",
     9, None),
    ("0-2 0-4 0-6 1-4 1-8 4-5 5-7 6-7 7-8", 9, [2, 0, 3, 0, 2, 1, 2, 0, 3]),
]
MERGE_THEN_MOVES = ("0-3 0-6 0-8 1-4 1-6 1-7 2-3 2-7 2-8 3-4 3-5 3-7 3-8 4-5 "
                    "4-6 4-7 7-8")


class TestRefineExact:
    """The boundary-only refinement with cached front weights must make the
    same moves, merges and KL chains as rescanning every node at every step
    (``conftest.scan_refine_moves``)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           weights=st.sampled_from(["unweighted", "integer", "real"]),
           start=st.sampled_from(["cut", "random"]),
           # about 1e-170 and 1e160, where 2 m^2 leaves the float range
           scale=st.sampled_from([1.0, 2.0 ** -565, 2.0 ** 532]))
    def test_matches_scan_oracle(self, data, weights, start, scale):
        n = data.draw(st.integers(2, 14))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # drawn order is insertion order: adjacency dicts come out unsorted
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   max_size=40, unique=True))
        if weights == "unweighted":
            ws = [1.0] * len(edges)
        elif weights == "integer":
            ws = data.draw(st.lists(st.integers(1, 6).map(float),
                                    min_size=len(edges), max_size=len(edges)))
        else:
            ws = data.draw(st.lists(
                st.one_of(st.sampled_from([0.1, 1 / 3, 0.7]),
                          st.floats(1e-3, 1e3)),
                min_size=len(edges), max_size=len(edges)))
        ids = [f"n{i:02d}" for i in range(n)]
        g = UGraph(ids, [(ids[u], ids[v], w) for (u, v), w in zip(edges, ws)])
        if start == "cut":
            comm = merge_cut(g)
        else:
            comm = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        assert_refines_like_scan(g, comm, scale)

    def test_planted_projections(self, monkeypatch, caplog):
        cfg = PlantedConfig(branching=(3,), leaf_size=30, p_within=(0.2,),
                            p_between=0.02)
        scans = []
        scan = conftest._scan_best_move

        def counted(*args, **kwargs):
            scans.append(args[-1])
            return scan(*args, **kwargs)

        for seed in range(3):
            g = gen_planted_kt_network(cfg, seed)[0].projection
            assert_refines_like_scan(g, merge_cut(g))
            # the bound spares most of the oracle's evaluations
            scans.clear()
            with monkeypatch.context() as patch:
                patch.setattr(conftest, "_scan_best_move", counted)
                scan_refine_moves(g, merge_cut(g))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="ktmap.fronts"):
                fronts._refine_moves(g, merge_cut(g))
            evaluations = caplog.records[-1].refine["evaluations"]
            assert 0 < evaluations < len(scans) / 2

    def test_cocitation_and_real_weights(self):
        cfg = PlantedConfig(branching=(2, 2), leaf_size=20, p_within=(0.1, 0.3),
                            p_between=0.02)
        g = co_citation_projection(gen_planted_kt_network(cfg, 4)[0])
        assert len({w for _, _, w in graph_edges(g)}) > 1  # genuinely weighted
        stats = assert_refines_like_scan(g, merge_cut(g))
        assert stats["moves"] > 0
        real = shuffled_weighted(g, lambda rng, w: w * float(rng.uniform(0.5, 1.5)), 0)
        assert_refines_like_scan(real, merge_cut(real))
        # from a random start, so that merges and KL chains do real work
        rng = np.random.default_rng(5)
        stats = assert_refines_like_scan(
            real, [int(c) for c in rng.integers(0, 6, real.n_nodes)])
        assert stats["merges"] > 0 and stats["kl_accepted"] > 0

    def test_gains_at_the_tolerance(self):
        # weights put the first visited node's best gain, at the start of a
        # refinement that then moves many nodes, on either side of
        # _REFINE_TOL by a few float steps of one edge weight
        cfg = PlantedConfig(branching=(2, 2), leaf_size=20, p_within=(0.1, 0.3),
                            p_between=0.02)
        g = co_citation_projection(gen_planted_kt_network(cfg, 4)[0])
        rng = np.random.default_rng(5)
        comm = [int(c) for c in rng.integers(0, 6, g.n_nodes)]
        x = next(i for i, out in enumerate(fronts._Refinement(g, comm).n_out) if out)
        y, lo, hi = tolerance_crossing(g, comm, x)
        gains = [fronts._Refinement(with_weight(g, x, y, w), comm).best_move(x, -math.inf)[0]
                 for w in (lo, hi)]
        assert min(gains) <= fronts._REFINE_TOL < max(gains)
        assert max(abs(gain - fronts._REFINE_TOL) for gain in gains) < 1e-17
        w = lo
        for _ in range(3):
            w = math.nextafter(w, 0.0)
        for _ in range(7):
            stats = assert_refines_like_scan(with_weight(g, x, y, w), comm)
            assert stats["moves"] > 10
            w = math.nextafter(w, math.inf)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_merge_keeps_gain_bounds(self, data):
        # a merge pass after each sweep, from a random start: every cached
        # gain a merge pass keeps must still bound its node's best gain,
        # computed from scratch, once deg_sum[s] is counted as moved weight
        n = data.draw(st.integers(4, 14))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=3,
                                   max_size=30, unique=True))
        ws = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(edges),
                                max_size=len(edges)))
        ids = [f"n{i:02d}" for i in range(n)]
        g = UGraph(ids, [(ids[u], ids[v], w) for (u, v), w in zip(edges, ws)])
        comm = data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
        state = fronts._Refinement(g, comm)
        graph = SimpleNamespace(adj=state.adj)
        for _ in range(4):
            state.sweep()
            if not state.merge_pass():
                break
            for idx in range(n):
                if state.n_out[idx] and state.gain[idx] < math.inf:
                    exact = _scan_best_move(graph, state.comm, state.deg_sum,
                                            state.m, 2.0 * state.m, state.wdeg,
                                            idx, floor=-math.inf)[0]
                    drift_term = state.ks[idx] * (state.drift - state.at[idx])
                    assert exact <= state.gain[idx] + drift_term

    def test_kl_chain_accepted(self):
        g = numbered_graph(KL_ACCEPTED, 9)
        stats = assert_refines_like_scan(g, merge_cut(g))
        assert stats["kl_accepted"] == 1 and stats["moves"] == 0

    def test_kl_chain_through_interior_node(self):
        g = numbered_graph(KL_THROUGH_INTERIOR, 8)
        cut = merge_cut(g)
        assert cut == [0, 0, 0, 3, 4, 4, 0, 3]
        stats = assert_refines_like_scan(g, cut)
        assert stats["kl_accepted"] == 1 and stats["moves"] == 0
        assert fronts._refine_moves(g, cut) == [3, 3, 3, 3, 4, 4, 4, 3]

    @pytest.mark.parametrize("spec,n,start", KL_PARTIAL,
                             ids=["cut15", "cut9", "start9"])
    def test_kl_chain_tail_rolled_back(self, spec, n, start):
        # the trial moves past the kept prefix must leave no trace in the
        # caches of the refined state
        g = numbered_graph(spec, n)
        stats = assert_refines_like_scan(g, start or merge_cut(g))
        assert stats["kl_partial"] == 1

    def test_kl_chain_rolled_back(self):
        g = numbered_graph(KL_ACCEPTED, 9)
        cut = merge_cut(g)
        refined = fronts._refine_moves(g, list(cut))
        assert refined != cut
        # at the refined optimum a chain is tried and rolled back, changing
        # nothing
        stats = assert_refines_like_scan(g, refined)
        assert stats == {"moves": 0, "moves_after_merge": 0, "merges": 0,
                         "kl_accepted": 0, "kl_rolled_back": 1, "kl_partial": 0}
        assert fronts._refine_moves(g, list(refined)) == refined

    def test_mover_gains_foreign_neighbors(self):
        # moves here leave a node with more neighbors outside its new front
        # than it had outside its old one; its own count must be redone
        ids = [f"v{i}" for i in range(6)]
        g = UGraph(ids, [(ids[u], ids[v], w) for u, v, w in (
            (0, 2, 2.0), (1, 4, 3.0), (1, 5, 2.0), (2, 3, 3.0), (3, 4, 1.0),
            (3, 5, 6.0), (4, 5, 6.0))])
        stats = assert_refines_like_scan(g, [0, 0, 2, 0, 0, 2])
        assert stats["moves"] == 7

    def test_merge_then_moves(self):
        g = numbered_graph(MERGE_THEN_MOVES, 9)
        stats = assert_refines_like_scan(g, merge_cut(g))
        assert stats["merges"] == 1 and stats["moves_after_merge"] >= 1

    def test_merge_pass_tie_goes_to_the_smaller_pair(self):
        # pairs (5, 6) and (1, 2) gain exactly alike, and (5, 6) is met
        # first in node order
        g = numbered_graph("0-1 2-3", 4)
        state = fronts._Refinement(g, [5, 6, 1, 2])
        assert state.merge_pass()
        assert state.comm == [5, 6, 1, 1]
        assert_refines_like_scan(g, [5, 6, 1, 2])

    def test_pass_cap_logs_warning(self, monkeypatch, caplog):
        g = numbered_graph(MERGE_THEN_MOVES, 9)
        monkeypatch.setattr(fronts, "_REFINE_MAX_PASSES", 1)
        with caplog.at_level(logging.WARNING, logger="ktmap.fronts"):
            assert_refines_like_scan(g, merge_cut(g))
        records = [r for r in caplog.records if r.name == "ktmap.fronts"]
        assert len(records) == 1
        assert "1-pass cap" in records[0].getMessage()

    def test_debug_record_counts_the_phases(self, monkeypatch, caplog):
        g = numbered_graph(MERGE_THEN_MOVES, 9)
        stats: dict = {}
        scan_refine_moves(g, merge_cut(g), stats)
        calls = []
        best_move = fronts._Refinement.best_move

        def counted(self, idx, floor):
            calls.append(idx)
            return best_move(self, idx, floor)

        monkeypatch.setattr(fronts._Refinement, "best_move", counted)
        with caplog.at_level(logging.DEBUG, logger="ktmap.fronts"):
            fast_greedy(g)
        records = [r for r in caplog.records if r.name == "ktmap.fronts"]
        assert [r.levelno for r in records] == [logging.DEBUG]
        counts = records[0].refine
        assert counts["merges"] == stats["merges"] == 1
        assert counts["kl_accepted"] == stats["kl_accepted"]
        assert counts["kl_chains"] == stats["kl_accepted"] + stats["kl_rolled_back"]
        assert counts["merge_passes"] == counts["merges"] + counts["kl_chains"]
        assert counts["sweeps"] > counts["merge_passes"]  # some sweeps moved
        assert counts["evaluations"] == len(calls) > 0
        assert counts["skips"] > 0
        assert counts["pass_cap_hit"] is False
        assert "pass cap hit: False" in records[0].getMessage()

        monkeypatch.setattr(fronts, "_REFINE_MAX_PASSES", 1)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ktmap.fronts"):
            fast_greedy(g)
        records = [r for r in caplog.records if r.name == "ktmap.fronts"]
        assert [r.levelno for r in records] == [logging.WARNING, logging.DEBUG]
        assert records[1].refine["pass_cap_hit"] is True

    def test_no_warning_when_converged(self, caplog):
        g = numbered_graph(MERGE_THEN_MOVES, 9)
        with caplog.at_level(logging.WARNING, logger="ktmap.fronts"):
            fast_greedy(g)
        assert not [r for r in caplog.records if r.name == "ktmap.fronts"]


def planted_projection() -> UGraph:
    """Three level-2 blocks of 60 nodes, each of three leaf blocks."""
    cfg = PlantedConfig(branching=(3, 3), leaf_size=20, p_within=(0.05, 0.3),
                        p_between=0.01)
    return gen_planted_kt_network(cfg, 2)[0].projection


def planted_cocitation() -> UGraph:
    cfg = PlantedConfig(branching=(2, 3), leaf_size=25, p_within=(0.03, 0.2),
                        p_between=0.005)
    return co_citation_projection(gen_planted_kt_network(cfg, 3)[0])


def block_citations(n: int = 800, n_blocks: int = 8, p_in: float = 0.8) -> UGraph:
    """The projection of n undated documents in n_blocks blocks, each citing
    two others, inside its own block with probability p_in: the size and
    shape of a cyclic corpus whose whole graph is the core."""
    rng = np.random.default_rng(4)
    size = n // n_blocks
    ids = [f"c{i:03d}" for i in range(n)]
    edges = set()
    for i in range(n):
        lo = i // size * size
        targets: set[int] = set()
        while len(targets) < 2:
            j = int(rng.integers(lo, lo + size) if rng.random() < p_in
                    else rng.integers(0, n))
            if j != i:
                targets.add(j)
        edges.update((ids[min(i, j)], ids[max(i, j)]) for j in targets)
    return ugraph(sorted(edges))


class TestForkedSplit:
    """The subtrees under level 2 split in forked workers give the tree
    that splitting them in one process gives."""

    @pytest.mark.parametrize("graph", [planted_projection, planted_cocitation,
                                       block_citations])
    def test_same_tree_as_in_process(self, graph, cpus):
        g = graph()
        workers = cpus(1)
        want = hierarchical_fronts(g)
        assert not workers  # one CPU: nothing forked
        workers = cpus(3)
        got = hierarchical_fronts(g)
        assert len(workers) == 2
        assert got.depth() >= 3
        assert repr(got) == repr(want)  # every float to the bit
        assert_no_child_left()

    def test_deal_largest_first_onto_least_loaded(self):
        ends = [30, 50, 10, 40, 20, 5]  # edge ends of each front's members
        assert fronts._deal([0, 1, 2, 3, 4], ends, 2) == [[1, 2, 4], [0, 3]]
        assert fronts._deal([0, 1, 2, 3, 4], ends, 8) == [[1], [3], [0], [4], [2]]
        assert fronts._deal([5], ends, 4) == [[5]]
        assert fronts._deal([], ends, 4) == []

    def test_level2_dealt_by_edge_ends(self, cpus, monkeypatch):
        g = planted_cocitation()
        cpus(2)
        dealt = []
        real = fronts._deal

        def spy(jobs, weights, n_bins):
            dealt.append(weights)
            return real(jobs, weights, n_bins)

        monkeypatch.setattr(fronts, "_deal", spy)
        tree = hierarchical_fronts(g)
        assert dealt == [[sum(len(g.adj[i]) for i in front.members)
                          for front in tree.root.children]]
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_error_reraised_and_workers_reaped(self, where, cpus, monkeypatch):
        g = planted_projection()
        workers = cpus(3)
        parent = os.getpid()
        real = fronts.fast_greedy

        def failing(sub):
            if sub is not g and (os.getpid() == parent) == (where == "parent"):
                raise InsufficientDataError(f"{where} share failed")
            return real(sub)

        monkeypatch.setattr(fronts, "fast_greedy", failing)
        with pytest.raises(InsufficientDataError, match=f"^{where} share failed$"):
            hierarchical_fronts(g)
        assert len(workers) == 2
        assert_no_child_left()

    def test_worker_dying_without_result(self, cpus, monkeypatch):
        g = planted_projection()
        cpus(2)
        parent = os.getpid()
        real = fronts.fast_greedy

        def dying(sub):
            if os.getpid() != parent:
                os._exit(7)
            return real(sub)

        monkeypatch.setattr(fronts, "fast_greedy", dying)
        with pytest.raises(RuntimeError, match="exited with status 7 without a result"):
            hierarchical_fronts(g)
        assert_no_child_left()

    def test_records_handled_once_in_the_parent(self, cpus, monkeypatch, caplog,
                                                tmp_path):
        # a handler on the "ktmap" logger writes to a file the workers
        # inherit, so a record handled in a worker too would show twice
        g = planted_projection()
        calls = []
        real = fronts.fast_greedy
        monkeypatch.setattr(fronts, "fast_greedy",
                            lambda sub: calls.append(sub.n_nodes) or real(sub))
        monkeypatch.setattr(fronts, "_REFINE_MAX_PASSES", 1)
        handler = logging.FileHandler(tmp_path / "ktmap.log")
        handler.setLevel(logging.WARNING)
        logging.getLogger("ktmap").addHandler(handler)
        try:
            cpus(1)
            with caplog.at_level(logging.DEBUG, logger="ktmap"):
                hierarchical_fronts(g)
            want = sorted((r.name, r.levelname, r.getMessage()) for r in caplog.records)
            n_calls = len(calls)
            caplog.clear()
            calls.clear()
            workers = cpus(3)
            with caplog.at_level(logging.DEBUG, logger="ktmap"):
                hierarchical_fronts(g)
        finally:
            logging.getLogger("ktmap").removeHandler(handler)
            handler.close()
        assert len(workers) == 2
        assert len(calls) < n_calls  # the workers made the other calls
        assert sorted((r.name, r.levelname, r.getMessage()) for r in caplog.records) == want
        refine = [r for r in caplog.records if hasattr(r, "refine")]
        assert len(refine) == n_calls
        capped = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert {r.process for r in capped} - {os.getpid()}  # some from a worker
        assert all("1-pass cap" in r.getMessage() for r in capped)
        lines = (tmp_path / "ktmap.log").read_text().splitlines()
        assert len(lines) == 2 * len(capped)  # both runs' warnings, each once
