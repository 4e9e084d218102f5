"""Kernel exactness: the lazy-heap greedy merge must reproduce the full-scan
oracle (``conftest.scan_merge_seq``) bit for bit: merge sequence, q0 and
every Q. Tie-heavy graphs check the (low id, high id) tie-break, graphs
large enough for the heap to be rebuilt check the rebuild path, and dense
graphs, where a merged pair shares most neighbours, check the pushes that
are skipped when a pair's gain did not rise."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap import _kernels
from ktmap.corpus import co_citation_projection
from ktmap.synth import PlantedConfig, gen_planted_kt_network, gen_random_graph

from conftest import scan_merge_seq


def assert_same_merge(n, eu, ev, ew):
    got = _kernels.greedy_merge_seq(n, eu, ev, ew)
    want = scan_merge_seq(n, eu, ev, ew)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]  # exact float equality, not approx


def planted_nets():
    cfg = PlantedConfig(branching=(3,), leaf_size=30, p_within=(0.2,),
                        p_between=0.01)
    for seed in range(3):
        yield gen_planted_kt_network(cfg, seed)[0]


def graphs():
    for seed in range(6):
        yield gen_random_graph(60, 0.08, seed).projection
    for net in planted_nets():
        yield net.projection


def planted_4x5(leaf, seed):
    """A 4x5 nested planted corpus of 20 * leaf docs, wired like the
    ``cocitation`` benchmark workload (leaf 70) at the same expected degree."""
    scale = 70 / leaf
    cfg = PlantedConfig(branching=(4, 5), leaf_size=leaf,
                        p_within=(0.012 * scale, 0.1 * scale),
                        p_between=0.003 * scale, homophily=0.5, n_hubs=0)
    return gen_planted_kt_network(cfg, seed)[0]


def heapify_calls(monkeypatch):
    """Sizes of the heaps the kernel heapifies: its first heap, then one
    per rebuild."""
    sizes = []
    real = _kernels.heapify

    def counting(heap):
        sizes.append(len(heap))
        real(heap)

    monkeypatch.setattr(_kernels, "heapify", counting)
    return sizes


def unweighted(n, pairs):
    pairs = sorted((min(u, v), max(u, v)) for u, v in pairs)
    return n, [u for u, _ in pairs], [v for _, v in pairs], [1.0] * len(pairs)


class TestMergeExact:
    def test_parity_graphs(self):
        for g in graphs():
            eu, ev, ew = g.edge_arrays()
            assert_same_merge(g.n_nodes, eu, ev, ew)

    @pytest.mark.parametrize("real", [False, True])
    def test_weighted(self, real):
        rng = np.random.default_rng(42)
        n = 40
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.1]
        if real:
            ew = [float(rng.uniform(0.05, 3.0)) for _ in edges]
        else:
            ew = [float(rng.integers(1, 5)) for _ in edges]
        assert_same_merge(n, [e[0] for e in edges], [e[1] for e in edges], ew)

    def test_cocitation_projection(self):
        for net in planted_nets():
            g = co_citation_projection(net)
            eu, ev, ew = g.edge_arrays()
            assert len(set(ew)) > 1  # genuinely weighted
            assert_same_merge(g.n_nodes, eu, ev, ew)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_complete_graph(self, n):
        assert_same_merge(*unweighted(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]))

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 31])
    def test_ring(self, n):
        assert_same_merge(*unweighted(n, [(i, (i + 1) % n) for i in range(n)]))

    @pytest.mark.parametrize("n", [2, 3, 6, 20])
    def test_star(self, n):
        assert_same_merge(*unweighted(n, [(0, i) for i in range(1, n)]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_weighted(self, data):
        n = data.draw(st.integers(2, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   max_size=30, unique=True))
        edges.sort()
        ew = data.draw(st.lists(
            st.one_of(st.sampled_from([1.0, 2.0, 0.5, 1 / 3]),
                      st.floats(1e-3, 1e3)),
            min_size=len(edges), max_size=len(edges)))
        assert_same_merge(n, [e[0] for e in edges], [e[1] for e in edges], ew)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), tied=st.booleans())
    def test_dense_weighted(self, data, tied):
        n = data.draw(st.integers(6, 14))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        missing = data.draw(st.sets(st.sampled_from(pairs), max_size=n // 2))
        edges = [pair for pair in pairs if pair not in missing]
        weight = (st.sampled_from([1.0, 2.0, 3.0]) if tied
                  else st.floats(1e-3, 1e3))
        ew = data.draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
        assert_same_merge(n, [e[0] for e in edges], [e[1] for e in edges], ew)

    @pytest.mark.parametrize("leaf,seed", [(15, 0), (15, 1), (30, 0), (30, 1)])
    def test_rebuilt_heap_planted(self, monkeypatch, leaf, seed):
        net = planted_4x5(leaf, seed)
        sizes = heapify_calls(monkeypatch)
        for g in (co_citation_projection(net), net.projection):
            sizes.clear()
            eu, ev, ew = g.edge_arrays()
            assert_same_merge(g.n_nodes, eu, ev, ew)
            assert len(sizes) > 1  # the heap was rebuilt

    @pytest.mark.parametrize("rows,cols", [(5, 2), (6, 2), (6, 6), (5, 7), (4, 7)])
    def test_rebuilt_heap_grid(self, monkeypatch, rows, cols):
        # exact ties between entries from a rebuild and entries pushed after
        # it: a rebuilt key one ulp below the pair's gain changes the merges
        # on the 6x2, 6x6 and 5x7 grids
        right = [(i * cols + j, i * cols + j + 1)
                 for i in range(rows) for j in range(cols - 1)]
        down = [(i * cols + j, (i + 1) * cols + j)
                for i in range(rows - 1) for j in range(cols)]
        sizes = heapify_calls(monkeypatch)
        assert_same_merge(*unweighted(rows * cols, right + down))
        assert len(sizes) > 1

    def test_no_edges_raises(self):
        with pytest.raises(ValueError):
            _kernels.greedy_merge_seq(3, [], [], [])


def neighbour_moves(n, eu, ev, merges):
    """Neighbours that leave s for r, summed over the merges (r, s)."""
    adj = [set() for _ in range(n)]
    for u, v in zip(eu, ev):
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    for r, s in merges:
        adj[r].discard(s)
        adj[s].discard(r)
        total += len(adj[s])
        for t in adj[s]:
            adj[t].discard(s)
            adj[t].add(r)
            adj[r].add(t)
        adj[s] = set()
    return total


class TestMergeDebugRecord:
    def test_counts_agree_with_the_oracle(self, monkeypatch, caplog):
        g = co_citation_projection(planted_4x5(15, 0))
        eu, ev, ew = g.edge_arrays()
        merges = scan_merge_seq(g.n_nodes, eu, ev, ew)[1]
        moves = neighbour_moves(g.n_nodes, eu, ev, merges)
        # a move onto a pair r already had merges two pairs into one
        shared = len(eu) - len(merges)
        sizes = heapify_calls(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="ktmap.kernels"):
            _kernels.greedy_merge_seq(g.n_nodes, eu, ev, ew)
        records = [r for r in caplog.records if r.name == "ktmap.kernels"]
        assert [r.levelno for r in records] == [logging.DEBUG]
        counts = records[0].merge
        assert counts["nodes"] == g.n_nodes and counts["edges"] == len(eu)
        assert counts["merges"] == len(merges)
        assert counts["rebuilds"] == len(sizes) - 1 > 0
        assert counts["pushes"] + counts["skipped_pushes"] == moves
        # a pair new to r is always pushed; the rule skips only shared ones
        assert 0 < counts["skipped_pushes"] <= shared
        assert counts["stale_rekeys"] > 0 and counts["dead_pops"] > 0
        assert f"{counts['merges']} merges" in records[0].getMessage()

    def test_silent_above_debug(self, caplog):
        n, eu, ev, ew = unweighted(4, [(0, 1), (1, 2), (2, 3)])
        with caplog.at_level(logging.INFO, logger="ktmap.kernels"):
            _kernels.greedy_merge_seq(n, eu, ev, ew)
        assert not [r for r in caplog.records if r.name == "ktmap.kernels"]

