"""Kernel exactness: the lazy-heap greedy merge must reproduce the full-scan
oracle (``conftest.scan_merge_seq``) bit for bit: merge sequence, q0 and
every Q. Tie-heavy graphs check the (low id, high id) tie-break."""

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

    def test_no_edges_raises(self):
        with pytest.raises(ValueError):
            _kernels.greedy_merge_seq(3, [], [], [])

