"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured values (run with -s to see them inline).

Tolerances, configs, and seed lists are pinned here and match the stated
criteria exactly.
"""

import json
import os
import subprocess
import sys
import time
from importlib import resources

import numpy as np
from scipy.special import zeta

from ktmap.axis import (classify, homophily_assortativity, score_documents,
                        translational_score, Stratum)
from ktmap.fronts import (fast_greedy, hierarchical_fronts, level_assignment,
                          modularity)
from ktmap.hubs import detect_translational_hubs, main_path
from ktmap.metrics import ck_scaling
from ktmap.report import PipelineConfig, run_pipeline
from ktmap.selection import fit_power_law, sample_discrete_power_law
from ktmap.synth import (PlantedConfig, gen_planted_kt_network,
                         gen_deterministic_hierarchical, gen_random_graph, nmi)

from conftest import (best_partition_bruteforce, brute_modularity,
                      enumerate_spc, id_labels, kept_edge_spc, make_net,
                      random_dag, ugraph)
from test_hubs import barbell_net, oracle_greedy_walk

SEEDS = list(range(20))


def report_line(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def random_small_graph(rng):
    while True:
        n = int(rng.integers(4, 9))
        p = float(rng.uniform(0.25, 0.85))
        ids = [f"v{i}" for i in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        if edges:
            return ugraph(edges, extra_nodes=ids)


def test_criterion_01_modularity_oracle_and_greedy_near_optimality():
    """modularity() == brute force to 1e-12 on >= 25 graphs <= 8 nodes;
    fast_greedy Q >= 0.9 x exhaustive optimum; < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_dev = 0.0
    worst_ratio = np.inf
    for _ in range(25):
        g = random_small_graph(rng)
        for _ in range(4):
            labels = {v: int(rng.integers(0, 4)) for v in g.ids}
            dev = abs(modularity(g, [labels[v] for v in g.ids])
                      - brute_modularity(g, labels))
            worst_dev = max(worst_dev, dev)
        q_best, _ = best_partition_bruteforce(g)
        q_greedy = fast_greedy(g).q
        if q_best > 1e-12:
            worst_ratio = min(worst_ratio, q_greedy / q_best)
        else:
            assert q_greedy >= q_best - 1e-12
    elapsed = time.time() - t0
    ok = worst_dev <= 1e-12 and worst_ratio >= 0.9 and elapsed < 10.0
    assert report_line(1, "modularity-oracle", ok,
                       f"max|dQ|={worst_dev:.2e}, min ratio={worst_ratio:.3f}, "
                       f"{elapsed:.1f}s")


def test_criterion_02_planted_front_recovery():
    """4 leaf blocks x 50 nodes, p_in=0.10, p_btw=0.005, h=0:
    NMI >= 0.9 on >= 18/20 seeds; < 30 s.

    The two failing seeds are information-limited: on them a refinement
    seeded at the planted labels (an upper bound for any modularity
    maximizer) also lands below 0.9, and the detector's Q exceeds both that
    ceiling's and 40-restart Louvain's.
    """
    t0 = time.time()
    cfg = PlantedConfig(branching=(4,), leaf_size=50, p_within=(0.10,),
                        p_between=0.005, homophily=0.0)
    values = []
    for seed in SEEDS:
        net, truth = gen_planted_kt_network(cfg, seed)
        part = fast_greedy(net.projection)
        values.append(nmi(id_labels(net.projection, part), truth.leaf_labels()))
    passes = sum(v >= 0.9 for v in values)
    elapsed = time.time() - t0
    ok = passes >= 18 and elapsed < 30.0
    assert report_line(2, "planted-front-recovery", ok,
                       f"{passes}/20 seeds >= 0.9 (median NMI "
                       f"{np.median(values):.3f}), {elapsed:.1f}s")


def test_criterion_03_nested_hierarchy_recovery():
    """2x2 nested planted config: refinement-correct 2-level nesting with
    NMI >= 0.9 at both levels on >= 16/20 seeds."""
    cfg = PlantedConfig(branching=(2, 2), leaf_size=50,
                        p_within=(0.20, 0.50), p_between=0.01)
    passes = 0
    for seed in SEEDS:
        net, truth = gen_planted_kt_network(cfg, seed)
        tree = hierarchical_fronts(net.projection, max_depth=3,
                                   min_front_size=10, min_q_gain=0.05)
        for node in tree.root.walk():
            for child in node.children:
                assert set(child.members) <= set(node.members)
        assert tree.ids == net.projection.ids
        paths = tree.node_paths()
        n2 = nmi(level_assignment(paths, 2), truth.level_labels(1))
        n3 = nmi(level_assignment(paths, 3), truth.leaf_labels())
        passes += (n2 >= 0.9 and n3 >= 0.9)
    ok = passes >= 16
    assert report_line(3, "nested-hierarchy-recovery", ok, f"{passes}/20 seeds")


def test_criterion_04_power_law_fit():
    """10,000 samples at alpha=2.5, xmin=1: median fitted alpha in [2.4, 2.6]
    over 20 seeds; reported KS matches independent recomputation to 1e-9;
    < 60 s."""
    t0 = time.time()
    alphas = []
    max_ks_dev = 0.0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        x = sample_discrete_power_law(2.5, 1, 10_000, rng)
        fit = fit_power_law(x)
        alphas.append(fit.alpha)
        tail = np.sort(x[x >= fit.xmin])
        uniq, counts = np.unique(tail, return_counts=True)
        ecdf = np.cumsum(counts) / tail.size
        cdf = 1.0 - zeta(fit.alpha, uniq + 1) / zeta(fit.alpha, fit.xmin)
        max_ks_dev = max(max_ks_dev,
                         abs(float(np.abs(ecdf - cdf).max()) - fit.ks_distance))
    med = float(np.median(alphas))
    elapsed = time.time() - t0
    ok = 2.4 <= med <= 2.6 and max_ks_dev <= 1e-9 and elapsed < 60.0
    assert report_line(4, "power-law-fit", ok,
                       f"median alpha={med:.3f}, max KS dev={max_ks_dev:.1e}, "
                       f"{elapsed:.1f}s")


def test_criterion_05_hierarchy_scaling():
    """Deterministic hierarchical graph (125 nodes): slope in [-1.3, -0.7];
    ER n=2000 p=0.01: |slope| <= 0.3 on >= 18/20 seeds."""
    hier_slope = ck_scaling(gen_deterministic_hierarchical(3).projection).slope
    er_passes = 0
    for seed in SEEDS:
        g = gen_random_graph(2000, 0.01, seed).projection
        er_passes += abs(ck_scaling(g).slope) <= 0.3
    ok = -1.3 <= hier_slope <= -0.7 and er_passes >= 18
    assert report_line(5, "hierarchy-scaling", ok,
                       f"hier slope={hier_slope:.3f}, ER {er_passes}/20 flat")


def test_criterion_06_hub_detection():
    """Barbell bridge at rank 1; planted-hub generator (4 blocks, 5 hubs):
    top-5 precision >= 0.8 on >= 16/20 seeds."""
    net = barbell_net()
    part = fast_greedy(net.projection)
    hubs = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                     score_documents(net))
    barbell_ok = bool(hubs) and hubs[0].id == "m" and hubs[0].rank == 1

    cfg = PlantedConfig(branching=(4,), leaf_size=50, p_within=(0.10,),
                        p_between=0.005, n_hubs=5, hub_degree=24)
    passes = 0
    for seed in SEEDS:
        net, truth = gen_planted_kt_network(cfg, seed)
        part = fast_greedy(net.projection)
        ranked = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                           score_documents(net))
        top5 = {h.id for h in ranked[:5]}
        passes += len(top5 & set(truth.hub_ids)) / 5 >= 0.8
    ok = barbell_ok and passes >= 16
    assert report_line(6, "hub-detection", ok,
                       f"barbell rank1={barbell_ok}, planted {passes}/20")


def test_criterion_07_main_path_oracle():
    """On >= 20 DAG fixtures <= 12 nodes: per-edge SPC equals exhaustive
    enumeration exactly; greedy walk matches the oracle's."""
    fixtures = [
        make_net([("a", "b"), ("b", "c")]),
        make_net([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"),
                  ("c", "e"), ("e", "d")]),
        make_net([("s1", "m"), ("s2", "m"), ("m", "t1"), ("m", "t2")]),
    ]
    edge_lists = [list(net.edges) for net in fixtures]
    for seed in range(30):
        ids, edges = random_dag(n=5 + seed % 8, p=0.35, seed=seed)
        if edges:
            fixtures.append(make_net(edges, nodes=ids))
            edge_lists.append(edges)
    assert len(fixtures) >= 20
    mismatches = 0
    for net, edges in zip(fixtures, edge_lists):
        if kept_edge_spc(net) != enumerate_spc(net.ids, edges):
            mismatches += 1
        elif list(main_path(net).nodes) != oracle_greedy_walk(net.ids, edges):
            mismatches += 1
    ok = mismatches == 0
    assert report_line(7, "main-path-oracle", ok,
                       f"{len(fixtures)} fixtures, {mismatches} mismatches")


def test_criterion_08_homophily():
    """Planted network, n=400: h=0.9 gives r >= 0.5 and h=0 gives |r| <= 0.1,
    each on >= 18/20 seeds."""
    base = dict(branching=(8,), leaf_size=50, p_within=(0.02,), p_between=0.02,
                t_targets=(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
    hi = lo = 0
    for seed in SEEDS:
        net, _ = gen_planted_kt_network(PlantedConfig(homophily=0.9, **base), seed)
        hi += homophily_assortativity(net, score_documents(net)) >= 0.5
        net, _ = gen_planted_kt_network(PlantedConfig(homophily=0.0, **base), seed)
        lo += abs(homophily_assortativity(net, score_documents(net))) <= 0.1
    ok = hi >= 18 and lo >= 18
    assert report_line(8, "homophily", ok, f"h=0.9: {hi}/20, h=0: {lo}/20")


def test_criterion_09_translational_scoring():
    """The four scoring examples hold exactly; thresholds classify boundary
    values as Translational."""
    exact = (translational_score(5, 0) == 0.0
             and translational_score(0, 5) == 1.0
             and translational_score(3, 1) == 0.25
             and translational_score(0, 0) is None)
    low, high = 1 / 3, 2 / 3
    boundaries = (classify(low, low, high) is Stratum.TRANSLATIONAL
                  and classify(high, low, high) is Stratum.TRANSLATIONAL
                  and classify(low - 1e-9, low, high) is Stratum.BASIC
                  and classify(high + 1e-9, low, high) is Stratum.CLINICAL)
    ok = exact and boundaries
    assert report_line(9, "translational-scoring", ok,
                       f"examples exact={exact}, boundaries={boundaries}")


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Toy fixture: 2 level-2 fronts with mean-T spread >= 0.6, exactly one
    hub, and identical numeric content across repeated runs and thread
    counts."""
    toy = resources.files("ktmap.data").joinpath("toy")

    def run_once(out, threads=None):
        if threads is None:
            cfg = PipelineConfig.from_file(str(toy / "config.cfg"),
                                           {"out_dir": str(out)})
            run_pipeline(cfg)
        else:
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "ktmap.cli", "report",
                            "--config", str(toy / "config.cfg"),
                            "--out", str(out)],
                           check=True, env=env, capture_output=True)
        with open(out / "report.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("generated_at")
        doc["config"].pop("out_dir")
        return doc

    docs = [run_once(tmp_path / "a"), run_once(tmp_path / "b"),
            run_once(tmp_path / "t1", threads="1"),
            run_once(tmp_path / "t4", threads="4")]
    identical = all(json.dumps(d, sort_keys=True)
                    == json.dumps(docs[0], sort_keys=True) for d in docs[1:])

    level2 = [r for r in docs[0]["fronts"]["table"] if r["level"] == 2]
    spread = (max(r["mean_t"] for r in level2)
              - min(r["mean_t"] for r in level2)) if len(level2) > 1 else 0.0
    n_hubs = len(docs[0]["hubs"]["candidates"])
    ok = (len(level2) == 2 and spread >= 0.6 and n_hubs == 1 and identical)
    assert report_line(10, "end-to-end-determinism", ok,
                       f"L2 fronts={len(level2)}, spread={spread:.3f}, "
                       f"hubs={n_hubs}, identical={identical}")
