import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap import _kernels
from ktmap.corpus import UGraph
from ktmap.axis import score_documents
from ktmap.errors import InsufficientDataError
from ktmap.fronts import fast_greedy
from ktmap.hubs import detect_translational_hubs
from ktmap.metrics import ck_scaling, node_metrics_table
from ktmap.selection import select_top_cited
from ktmap.synth import (PlantedConfig, gen_deterministic_hierarchical,
                         gen_planted_kt_network, gen_random_graph)

from conftest import (graph_edges, id_labels, local_clustering, module_roles,
                      ugraph)


def star(k):
    return ugraph([("hub", f"leaf{i}") for i in range(k)])


def rows(graph, partition=None):
    """node_metrics_table's rows by id."""
    return {r.id: r for r in node_metrics_table(graph, partition)}


class TestClusteringCoefficient:
    def test_triangle_vertex(self):
        g = ugraph([("a", "b"), ("b", "c"), ("a", "c")])
        assert rows(g)["a"].c == 1.0

    def test_star_center(self):
        assert rows(star(5))["hub"].c == 0.0

    def test_path_middle_and_ends(self):
        g = ugraph([("a", "b"), ("b", "c")])
        assert rows(g)["b"].c == 0.0
        assert rows(g)["a"].c is None  # k = 1

    def test_batch_matches_single(self):
        g = gen_random_graph(40, 0.15, 3).projection
        assert local_clustering(g) == {v: row.c for v, row in rows(g).items()}

    def test_matches_bruteforce_on_random_graphs(self):
        for seed in range(5):
            g = gen_random_graph(50, 0.12, seed).projection
            cs = local_clustering(g)
            for i, v in enumerate(g.ids):
                nbrs = sorted(g.adj[i])
                k = len(nbrs)
                if k < 2:
                    assert cs[v] is None
                    continue
                links = sum(1 for a in range(k) for b in range(a + 1, k)
                            if nbrs[b] in g.adj[nbrs[a]])
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
        part = id_labels(net.projection, fast_greedy(net.projection))
        node_metrics_table(net.projection, part)
        ck_scaling(net.projection)
        detect_translational_hubs(net.projection, part, score_documents(net))
        assert calls == [net.n_docs]
        # a new graph gets its own count
        local_clustering(gen_random_graph(30, 0.2, 1).projection)
        assert calls == [net.n_docs, 30]

    @staticmethod
    def assert_subgraph_counts(g, kept):
        """The counts a subgraph takes from g's known counts equal a fresh
        count of the subgraph, and no fresh count is made for them."""
        g.triangle_counts()
        sub = g.subgraph(kept)
        assert sub._triangles is not None  # derived, not counted on use
        assert list(sub.triangle_counts()) == _kernels.triangle_counts(
            sub.adjacency_sorted())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 25), data=st.data())
    def test_subgraph_counts_on_random_graphs(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)), max_size=80))
        names = [f"n{i:02d}" for i in range(n)]
        g = ugraph({(names[min(p)], names[max(p)]) for p in pairs if p[0] != p[1]},
                   names)
        removed = data.draw(st.sets(st.integers(0, n - 1)))
        self.assert_subgraph_counts(g, [v for v in range(n) if v not in removed])

    def test_subgraph_counts_around_removed_sets(self):
        g = gen_random_graph(60, 0.15, 3).projection
        hub = max(range(g.n_nodes), key=lambda v: len(g.adj[v]))
        near = {hub, *g.adj[hub]}  # adjacent to one another
        for removed in (set(), near, {hub}, set(range(0, 60, 2))):
            self.assert_subgraph_counts(g, [v for v in range(60) if v not in removed])
        # a whole component removed: the rest keep their counts
        two = ugraph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"),
                      ("x", "y"), ("y", "z"), ("x", "z")])
        self.assert_subgraph_counts(two, [two.ids.index(v) for v in "abcd"])
        assert two.subgraph([0, 1, 2, 3]).triangle_counts() == (1, 1, 1, 0)

    def test_subgraph_counts_of_cocitation_core(self):
        # the hubs stage's route: the core projection cut to the documents
        # cited inside the core
        cfg = PlantedConfig(branching=(3,), leaf_size=30, p_within=(0.2,),
                            p_between=0.02)
        net, _ = gen_planted_kt_network(cfg, 0)
        core = select_top_cited(net, 0.2)
        cited = [i for i, k in enumerate(core.in_degrees) if k]
        assert 0 < len(cited) < core.n_docs
        self.assert_subgraph_counts(core.projection, cited)


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
        edges = list({(u, v) for u, v, _ in graph_edges(g1)})
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
        assert rows(g, part)["a"].p == 0.0

    def test_even_split_two_fronts(self):
        g = ugraph([("a", "b"), ("a", "c")])
        part = {"a": 1, "b": 1, "c": 2}
        assert rows(g, part)["a"].p == 0.5

    def test_three_one_split(self):
        g = ugraph([("a", f"n{i}") for i in range(4)])
        part = {"a": 1, "n0": 1, "n1": 1, "n2": 1, "n3": 2}
        assert rows(g, part)["a"].p == 0.375

    def test_isolated_node_has_no_p(self):
        g = ugraph([("a", "b")], extra_nodes=["z"])
        table = rows(g, {"a": 1, "b": 1, "z": 1})
        assert table["z"].p is None and table["z"].k == 0
        assert table["a"].p == 0.0

    def test_upper_bound(self):
        g = ugraph([("a", f"n{i}") for i in range(6)])
        part = {"a": 1} | {f"n{i}": i % 3 + 1 for i in range(6)}
        p = rows(g, part)["a"].p
        assert 0.0 <= p <= 1.0 - 1.0 / 3.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(1, 5))))
    def test_front_relabeling_invariance(self, perm):
        g = ugraph([("a", f"n{i}") for i in range(4)] + [("n0", "n1")])
        part = {"a": 1, "n0": 1, "n1": 2, "n2": 3, "n3": 4}
        base = rows(g, part)
        relabeled = rows(g, {k: perm[v - 1] for k, v in part.items()})
        assert relabeled["a"].p == pytest.approx(base["a"].p)

    def test_within_front_degrees_sum_to_degree(self):
        g = gen_random_graph(30, 0.2, 1).projection
        part = {v: i % 3 for i, v in enumerate(g.ids)}
        for i in range(g.n_nodes):
            total = sum(
                sum(1 for j in g.adj[i] if part[g.ids[j]] == fid)
                for fid in set(part.values()))
            assert total == len(g.adj[i])


class TestWithinModuleZ:
    def test_star_front(self):
        g = star(4)
        table = rows(g, {v: 1 for v in g.ids})
        assert table["hub"].z > 0
        assert table["leaf0"].z < 0

    def test_equal_internal_degrees_absent(self):
        g = ugraph([("a", "b"), ("b", "c"), ("c", "a")])
        assert rows(g, {v: 1 for v in g.ids})["a"].z is None

    def test_no_internal_links_negative(self):
        # d sits in front 1 but only links to front 2
        g = ugraph([("a", "b"), ("b", "c"), ("a", "c"), ("d", "x"), ("x", "y")])
        part = {"a": 1, "b": 1, "c": 1, "d": 1, "x": 2, "y": 2}
        assert all(part[g.ids[j]] == 2 for j in g.adj[g.ids.index("d")])
        assert rows(g, part)["d"].z < 0

    def test_hand_computed_star_values(self):
        g = star(4)
        table = rows(g, {v: 1 for v in g.ids})
        # kappas: hub 4, leaves 1 -> mean 1.6, population std 1.2
        assert table["hub"].z == pytest.approx((4 - 1.6) / 1.2)
        assert table["leaf0"].z == pytest.approx((1 - 1.6) / 1.2)


class TestMetricsTable:
    def test_rows_cover_all_nodes(self):
        g = gen_random_graph(25, 0.15, 2).projection
        part = {v: i % 2 for i, v in enumerate(g.ids)}
        table = node_metrics_table(g, part)
        assert [r.id for r in table] == sorted(g.ids)
        for r in table:
            assert r.k == len(g.adj[g.ids.index(r.id)])

    def test_rows_sorted_by_id_in_any_node_order(self):
        edges = [("b", "a", 1.0), ("c", "a", 1.0)]
        shuffled = UGraph(["c", "a", "b"], edges)
        assert (node_metrics_table(shuffled, {"a": 1, "b": 1, "c": 2})
                == node_metrics_table(UGraph(["a", "b", "c"], edges),
                                      {"a": 1, "b": 1, "c": 2}))

    def test_table_z_matches_pointwise(self):
        g = gen_random_graph(25, 0.2, 4).projection
        # an isolated node (no P) and a front of equal kappas (no z)
        small = ugraph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "x")],
                       extra_nodes=["z"])
        for graph, part in ((g, {v: i % 2 for i, v in enumerate(g.ids)}),
                            (small, {"a": 1, "b": 1, "c": 2, "x": 2, "z": 3})):
            table = rows(graph, part)
            for v, (p, z) in module_roles(graph, part).items():
                assert table[v].p == pytest.approx(p)  # approx(None): None only
                assert table[v].z == pytest.approx(z)

    def test_partition_missing_node_names_it(self):
        g = ugraph([("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="partition does not cover node 'b'"):
            node_metrics_table(g, {"a": 1, "c": 1})
