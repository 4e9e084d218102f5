import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap import _kernels
from ktmap.axis import score_documents
from ktmap.errors import InsufficientDataError
from ktmap.fronts import fast_greedy
from ktmap.hubs import detect_translational_hubs
from ktmap.metrics import (ck_scaling, clustering_coefficient,
                           local_clustering, node_metrics_table,
                           participation_coefficient, within_module_degree,
                           within_module_z)
from ktmap.synth import (PlantedConfig, gen_deterministic_hierarchical,
                         gen_planted_kt_network, gen_random_graph)

from conftest import ugraph


def star(k):
    return ugraph([("hub", f"leaf{i}") for i in range(k)])


class TestClusteringCoefficient:
    def test_triangle_vertex(self):
        g = ugraph([("a", "b"), ("b", "c"), ("a", "c")])
        assert clustering_coefficient(g, "a") == 1.0

    def test_star_center(self):
        assert clustering_coefficient(star(5), "hub") == 0.0

    def test_path_middle_and_ends(self):
        g = ugraph([("a", "b"), ("b", "c")])
        assert clustering_coefficient(g, "b") == 0.0
        assert clustering_coefficient(g, "a") is None  # k = 1

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            clustering_coefficient(star(3), "ghost")

    def test_batch_matches_single(self):
        g = gen_random_graph(40, 0.15, 3).projection
        batch = local_clustering(g)
        for v in g.ids:
            assert batch[v] == clustering_coefficient(g, v)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            g = gen_random_graph(50, 0.12, seed).projection
            cs = local_clustering(g)
            for v in g.ids:
                nbrs = g.neighbors(v)
                k = len(nbrs)
                if k < 2:
                    assert cs[v] is None
                    continue
                links = sum(1 for i in range(k) for j in range(i + 1, k)
                            if g.has_edge(nbrs[i], nbrs[j]))
                assert cs[v] == 2.0 * links / (k * (k - 1))


class TestTriangleCountsShared:
    def test_counted_once_per_graph(self, monkeypatch):
        calls = []
        kernel = _kernels.triangle_counts

        def counting(adj):
            calls.append(len(adj))
            return kernel(adj)

        monkeypatch.setattr(_kernels, "triangle_counts", counting)
        cfg = PlantedConfig(branching=(3,), leaf_size=30, p_within=(0.2,),
                            p_between=0.02)
        net, _ = gen_planted_kt_network(cfg, 0)
        part = fast_greedy(net.projection).assignment
        node_metrics_table(net.projection, part)
        ck_scaling(net.projection)
        detect_translational_hubs(net, part, score_documents(net))
        assert calls == [net.n_docs]
        # a new graph gets its own count
        local_clustering(gen_random_graph(30, 0.2, 1).projection)
        assert calls == [net.n_docs, 30]


class TestCkScaling:
    def test_hierarchical_model_slope(self):
        g = gen_deterministic_hierarchical(3).projection
        fit = ck_scaling(g)
        assert -1.3 <= fit.slope <= -0.7
        assert fit.n_bins >= 3

    def test_random_graph_flat(self):
        g = gen_random_graph(2000, 0.01, 0).projection
        fit = ck_scaling(g)
        assert abs(fit.slope) <= 0.3

    def test_equal_degrees_rejected(self):
        g = ugraph([("a", "b"), ("b", "c"), ("c", "a")])  # all degree 2
        with pytest.raises(InsufficientDataError):
            ck_scaling(g)

    def test_unknown_binning(self):
        with pytest.raises(ValueError):
            ck_scaling(star(3), binning="log10")

    def test_bin_population_duplication_invariance(self):
        # a graph and its disjoint double have identical per-bin means
        g1 = gen_deterministic_hierarchical(3).projection
        edges = list({(u, v) for u, v, _ in g1.edges()})
        doubled = [(f"L{u}", f"L{v}") for u, v in edges]
        doubled += [(f"R{u}", f"R{v}") for u, v in edges]
        g2 = ugraph(doubled)
        f1 = ck_scaling(g1)
        f2 = ck_scaling(g2)
        assert f2.n_bins == f1.n_bins
        assert f2.slope == pytest.approx(f1.slope, abs=1e-9)


class TestParticipation:
    def test_all_internal_is_zero(self):
        g = ugraph([("a", "b"), ("a", "c")])
        part = {"a": 1, "b": 1, "c": 1}
        assert participation_coefficient(g, "a", part) == 0.0

    def test_even_split_two_fronts(self):
        g = ugraph([("a", "b"), ("a", "c")])
        part = {"a": 1, "b": 1, "c": 2}
        assert participation_coefficient(g, "a", part) == pytest.approx(0.5)

    def test_three_one_split(self):
        g = ugraph([("a", f"n{i}") for i in range(4)])
        part = {"a": 1, "n0": 1, "n1": 1, "n2": 1, "n3": 2}
        assert participation_coefficient(g, "a", part) == pytest.approx(0.375)

    def test_isolated_node_rejected(self):
        g = ugraph([("a", "b")], extra_nodes=["z"])
        with pytest.raises(InsufficientDataError):
            participation_coefficient(g, "z", {"a": 1, "b": 1, "z": 1})

    def test_upper_bound(self):
        g = ugraph([("a", f"n{i}") for i in range(6)])
        part = {"a": 1} | {f"n{i}": i % 3 + 1 for i in range(6)}
        p = participation_coefficient(g, "a", part)
        assert 0.0 <= p <= 1.0 - 1.0 / 3.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(1, 5))))
    def test_front_relabeling_invariance(self, perm):
        g = ugraph([("a", f"n{i}") for i in range(4)] + [("n0", "n1")])
        part = {"a": 1, "n0": 1, "n1": 2, "n2": 3, "n3": 4}
        base = participation_coefficient(g, "a", part)
        relabeled = {k: perm[v - 1] for k, v in part.items()}
        assert participation_coefficient(g, "a", relabeled) == pytest.approx(base)

    def test_within_front_degrees_sum_to_degree(self):
        g = gen_random_graph(30, 0.2, 1).projection
        part = {v: i % 3 for i, v in enumerate(g.ids)}
        for v in g.ids:
            total = sum(
                sum(1 for u in g.neighbors(v) if part[u] == fid)
                for fid in set(part.values()))
            assert total == g.degree(v)


class TestWithinModuleZ:
    def test_star_front(self):
        g = star(4)
        part = {v: 1 for v in g.ids}
        assert within_module_z(g, "hub", part) > 0
        assert within_module_z(g, "leaf0", part) < 0

    def test_equal_internal_degrees_absent(self):
        g = ugraph([("a", "b"), ("b", "c"), ("c", "a")])
        part = {v: 1 for v in g.ids}
        assert within_module_z(g, "a", part) is None

    def test_no_internal_links_negative(self):
        # d sits in front 1 but only links to front 2
        g = ugraph([("a", "b"), ("b", "c"), ("a", "c"), ("d", "x"), ("x", "y")])
        part = {"a": 1, "b": 1, "c": 1, "d": 1, "x": 2, "y": 2}
        assert within_module_degree(g, "d", part) == 0
        assert within_module_z(g, "d", part) < 0

    def test_hand_computed_star_values(self):
        g = star(4)
        part = {v: 1 for v in g.ids}
        # kappas: hub 4, leaves 1 -> mean 1.6, population std 1.2
        assert within_module_z(g, "hub", part) == pytest.approx((4 - 1.6) / 1.2)
        assert within_module_z(g, "leaf0", part) == pytest.approx((1 - 1.6) / 1.2)


class TestMetricsTable:
    def test_rows_cover_all_nodes(self):
        g = gen_random_graph(25, 0.15, 2).projection
        part = {v: i % 2 for i, v in enumerate(g.ids)}
        rows = node_metrics_table(g, part)
        assert [r.id for r in rows] == sorted(g.ids)
        by_id = {r.id: r for r in rows}
        for v in g.ids:
            assert by_id[v].k == g.degree(v)

    def test_table_z_matches_pointwise(self):
        g = gen_random_graph(25, 0.2, 4).projection
        part = {v: i % 2 for i, v in enumerate(g.ids)}
        rows = {r.id: r for r in node_metrics_table(g, part)}
        for v in g.ids:
            expected = within_module_z(g, v, part)
            if expected is None:
                assert rows[v].z is None
            else:
                assert rows[v].z == pytest.approx(expected)
