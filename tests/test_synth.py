import numpy as np
import pytest
from scipy.stats import entropy
from scipy.stats.contingency import crosstab

from ktmap.axis import score_documents
from ktmap.fronts import fast_greedy
from ktmap.synth import (PlantedConfig, gen_deterministic_hierarchical,
                         gen_planted_kt_network, gen_random_graph, nmi)

from conftest import id_labels, leaf_labels


class TestPlantedGenerator:
    def test_same_seed_identical(self):
        cfg = PlantedConfig(branching=(3,), leaf_size=20, p_within=(0.2,),
                            p_between=0.01, n_hubs=2, hub_degree=10)
        net1, truth1 = gen_planted_kt_network(cfg, 99)
        net2, truth2 = gen_planted_kt_network(cfg, 99)
        assert net1.edges == net2.edges
        assert truth1.t_planted == truth2.t_planted
        assert truth1.hub_ids == truth2.hub_ids
        net3, _ = gen_planted_kt_network(cfg, 100)
        assert net3.edges != net1.edges

    def test_zero_between_gives_disconnected_blocks(self):
        cfg = PlantedConfig(branching=(3,), leaf_size=15, p_within=(0.5,),
                            p_between=0.0)
        net, truth = gen_planted_kt_network(cfg, 1)
        labels = leaf_labels(truth)
        for citing, cited in net.edges:
            assert labels[citing] == labels[cited]

    def test_full_homophily_separates_extremes(self):
        cfg = PlantedConfig(branching=(2,), leaf_size=25, p_within=(0.4,),
                            p_between=0.4, homophily=1.0,
                            t_targets=(0.0, 1.0), term_noise=0.0)
        net, truth = gen_planted_kt_network(cfg, 2)
        labels = leaf_labels(truth)
        assert net.n_edges > 0
        for citing, cited in net.edges:
            assert labels[citing] == labels[cited]  # cross-block prob hit 0

    def test_term_counts_hit_targets(self):
        cfg = PlantedConfig(branching=(4,), leaf_size=50, p_within=(0.1,),
                            p_between=0.005)
        net, truth = gen_planted_kt_network(cfg, 7)
        scores = score_documents(net)
        targets = cfg.leaf_targets()
        labels = leaf_labels(truth)
        for leaf in range(4):
            members = [i for i, p in labels.items() if p[0] == leaf]
            mean_t = np.mean([scores[i] for i in members])
            assert abs(mean_t - targets[leaf]) <= 0.05

    def test_edges_point_newer_to_older(self):
        cfg = PlantedConfig(branching=(2,), leaf_size=20, p_within=(0.3,),
                            p_between=0.05)
        net, _ = gen_planted_kt_network(cfg, 3)
        for citing, cited in zip(net.citing, net.cited):
            assert net.years[citing] > net.years[cited]

    def test_hub_ground_truth(self):
        cfg = PlantedConfig(branching=(4,), leaf_size=30, p_within=(0.15,),
                            p_between=0.01, n_hubs=3, hub_degree=12)
        net, truth = gen_planted_kt_network(cfg, 5)
        assert len(truth.hub_ids) == 3
        assert set(truth.hub_ids) <= set(net.ids)
        for hub in truth.hub_ids:
            assert len(net.projection.adj[net.index[hub]]) >= 10

    def test_recoverability_gradient(self):
        """NMI improves monotonically as mixing drops."""
        means = []
        for p_between in (0.06, 0.02, 0.001):
            vals = []
            for seed in range(5):
                cfg = PlantedConfig(branching=(4,), leaf_size=40,
                                    p_within=(0.25,), p_between=p_between)
                net, truth = gen_planted_kt_network(cfg, seed)
                part = fast_greedy(net.projection)
                vals.append(nmi(id_labels(net.projection, part), leaf_labels(truth)))
            means.append(np.mean(vals))
        assert means[0] <= means[1] + 1e-9 <= means[2] + 2e-9

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PlantedConfig(branching=(), leaf_size=10)
        with pytest.raises(ValueError):
            PlantedConfig(branching=(2,), p_within=(0.5, 0.5))
        with pytest.raises(ValueError):
            PlantedConfig(branching=(2,), p_within=(1.5,))
        with pytest.raises(ValueError):
            PlantedConfig(branching=(2,), p_within=(0.1,), homophily=2.0)
        with pytest.raises(ValueError):
            PlantedConfig(branching=(2,), p_within=(0.1,), t_targets=(0.5,))


class TestDeterministicHierarchical:
    @pytest.mark.parametrize("iterations,n_nodes", [(1, 5), (2, 25), (3, 125)])
    def test_node_counts(self, iterations, n_nodes):
        net = gen_deterministic_hierarchical(iterations)
        assert net.n_docs == n_nodes

    def test_base_motif_is_complete(self):
        g = gen_deterministic_hierarchical(1).projection
        assert g.n_edges == 10

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            gen_deterministic_hierarchical(7)
        with pytest.raises(ValueError):
            gen_deterministic_hierarchical(0)

    def test_hub_degree_grows(self):
        g = gen_deterministic_hierarchical(3).projection
        degrees = sorted(map(len, g.adj), reverse=True)
        assert degrees[0] == 4 + 16 + 64  # the central node collects all spokes


class TestRandomGraph:
    def test_p_zero_edgeless(self):
        assert gen_random_graph(10, 0.0, 1).n_edges == 0

    def test_p_one_complete(self):
        net = gen_random_graph(6, 1.0, 1)
        assert net.n_edges == 15

    def test_mean_degree_near_expectation(self):
        n, p = 2000, 0.01
        ratios = []
        for seed in range(20):
            net = gen_random_graph(n, p, seed)
            ratios.append(2 * net.n_edges / n / ((n - 1) * p))
        assert abs(np.mean(ratios) - 1.0) < 0.05

    def test_deterministic(self):
        assert gen_random_graph(50, 0.1, 3).edges == gen_random_graph(50, 0.1, 3).edges

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gen_random_graph(1, 0.5, 0)
        with pytest.raises(ValueError):
            gen_random_graph(10, 1.5, 0)


class TestNMI:
    def test_identical_labelings(self):
        labels = {"a": 1, "b": 1, "c": 2}
        assert nmi(labels, labels) == pytest.approx(1.0)

    def test_relabeling_invariance(self):
        a = {"a": 1, "b": 1, "c": 2, "d": 3}
        b = {"a": "x", "b": "x", "c": "y", "d": "z"}
        assert nmi(a, b) == pytest.approx(1.0)

    def test_independent_labelings_low(self):
        a = {f"n{i}": i % 2 for i in range(40)}
        b = {f"n{i}": i // 20 for i in range(40)}
        assert nmi(a, b) < 0.2

    def test_degenerate_rules(self):
        flat = {f"n{i}": 0 for i in range(6)}
        split = {f"n{i}": i % 2 for i in range(6)}
        assert nmi(flat, flat) == 1.0
        assert nmi(flat, split) == 0.0

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmi({"a": 1}, {"b": 1})

    def test_matches_entropy_reference(self):
        rng = np.random.default_rng(0)
        keys = [f"n{i}" for i in range(60)]
        a = {k: int(rng.integers(0, 4)) for k in keys}
        b = {k: int(rng.integers(0, 3)) for k in keys}
        # NMI = 2 I / (H_a + H_b), with I = H_a + H_b - H_ab, from the
        # contingency table's marginal and joint entropies
        joint = crosstab([a[k] for k in keys], [b[k] for k in keys]).count
        h_a, h_b = entropy(joint.sum(axis=1)), entropy(joint.sum(axis=0))
        expected = 2 * (h_a + h_b - entropy(joint.ravel())) / (h_a + h_b)
        assert nmi(a, b) == pytest.approx(expected, abs=1e-10)
