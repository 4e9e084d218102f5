import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap import hubs
from ktmap.axis import score_documents
from ktmap.errors import InsufficientDataError
from ktmap.fronts import fast_greedy
from ktmap.hubs import (HubConfig, acyclic_reduction,
                        detect_translational_hubs, hub_regions, main_path,
                        sorted_median, sorted_quantile)
from ktmap.synth import PlantedConfig, gen_planted_kt_network

from conftest import (_tarjan_sccs, enumerate_spc, id_labels, kept_edge_spc,
                      make_net, random_dag, rounds_acyclic_reduction)


def barbell_net():
    """Two 5-cliques (purely basic vs purely clinical) joined by one bridge
    node linked to every clique member."""
    terms = {}
    edges = []
    a = [f"a{i}" for i in range(5)]
    b = [f"b{i}" for i in range(5)]
    for clique, (basic, clinical) in ((a, (8, 0)), (b, (0, 8))):
        for i in range(5):
            terms[clique[i]] = (basic, clinical)
            for j in range(i + 1, 5):
                edges.append((clique[j], clique[i]))
    terms["m"] = (4, 4)
    for v in a + b:
        edges.append(("m", v))
    years = {v: i for i, v in enumerate(sorted(set(terms)))}
    return make_net(edges, terms=terms, years=years)


def _degree_lists():
    rng = np.random.default_rng(17)
    lists = [[0], [5], [1, 2], [3, 3], [0, 7, 7, 9], list(range(10)),
             [1] * 9 + [1000], [2 ** 40, 2 ** 40 + 3]]
    for size in (2, 3, 7, 10, 11, 64, 101, 999):
        lists.append([int(k) for k in rng.integers(0, 60, size)])
        lists.append([int(k) for k in rng.zipf(2.2, size)])
    return lists


DEGREE_PCTS = sorted({*np.linspace(0.0, 1.0, 101).tolist(), 1 / 3, 2 / 3,
                      0.05, 0.15, 0.35, 0.45, 0.55, 0.65, 0.85, 0.95, 0.999,
                      np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)})


class TestNumpyFreeQuantiles:
    """hubs takes its degree quantile and median clustering from sorted
    lists; both must equal numpy's bit for bit."""

    @pytest.mark.parametrize("degrees", _degree_lists())
    def test_quantile_matches_numpy(self, degrees):
        ordered = sorted(degrees)
        for q in DEGREE_PCTS:
            assert sorted_quantile(ordered, float(q)) == np.quantile(degrees, q), q

    def test_median_matches_numpy(self):
        rng = np.random.default_rng(23)
        cases = [[0.0], [0.25, 1.0], [1 / 3, 1 / 3, 0.5], [0.1, 0.2, 0.7, 0.3]]
        for size in range(1, 40):
            cases.append(rng.random(size).tolist())
            cases.append([c / 6 for c in rng.integers(0, 7, size)])
        for values in cases:
            assert sorted_median(sorted(values)) == np.median(values), values

    def test_hub_thresholds_match_numpy(self):
        net = barbell_net()
        graph = net.projection
        degrees = list(map(len, graph.adj))
        assert (sorted_quantile(sorted(degrees), 0.9)
                == float(np.quantile(degrees, 0.9)))


class TestHubDetection:
    def test_barbell_bridge_is_rank_one(self):
        net = barbell_net()
        part = fast_greedy(net.projection)
        hubs = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                         score_documents(net))
        assert hubs, "bridge not detected"
        assert hubs[0].id == "m"
        assert hubs[0].rank == 1
        assert len(hubs[0].bridged_fronts) >= 2
        assert hubs[0].t_spread >= 0.2

    def test_no_cross_links_no_hubs(self):
        edges = [("a1", "a0"), ("a2", "a0"), ("a2", "a1"),
                 ("b1", "b0"), ("b2", "b0"), ("b2", "b1")]
        terms = {f"a{i}": (5, 0) for i in range(3)}
        terms |= {f"b{i}": (0, 5) for i in range(3)}
        net = make_net(edges, terms=terms)
        part = fast_greedy(net.projection)
        hubs = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                         score_documents(net))
        assert hubs == []

    def test_planted_hub_recovery(self):
        cfg = PlantedConfig(branching=(4,), leaf_size=50, p_within=(0.10,),
                            p_between=0.005, n_hubs=5, hub_degree=24)
        net, truth = gen_planted_kt_network(cfg, 3)
        part = fast_greedy(net.projection)
        hubs = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                         score_documents(net))
        top5 = {h.id for h in hubs[:5]}
        assert len(top5 & set(truth.hub_ids)) >= 4

    def test_every_hub_meets_filters(self):
        cfg = PlantedConfig(branching=(4,), leaf_size=40, p_within=(0.12,),
                            p_between=0.01, n_hubs=3, hub_degree=20)
        net, _ = gen_planted_kt_network(cfg, 0)
        part = fast_greedy(net.projection)
        config = HubConfig()
        hubs = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                         score_documents(net), config)
        for h in hubs:
            assert len(h.bridged_fronts) >= 2
            assert h.t_spread >= config.t_spread_min
            assert h.p >= config.p_min
            assert h.hub_score >= 0.0
        assert [h.rank for h in hubs] == list(range(1, len(hubs) + 1))

    def test_partition_mismatch_rejected(self):
        net = barbell_net()
        with pytest.raises(ValueError, match="partition does not cover node 'a0'"):
            detect_translational_hubs(net.projection, {"m": 1}, score_documents(net))

    def test_regions_are_components(self):
        # on the barbell the b-clique members also pass every filter by hand
        # computation (k=5 at the quantile, c=1=median, P=0.32, spread~0.9),
        # and all candidates touch the bridge: one connected region
        net = barbell_net()
        part = fast_greedy(net.projection)
        hubs = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                         score_documents(net))
        regions = hub_regions(net.projection, hubs)
        assert regions == [tuple(sorted(h.id for h in hubs))]

    def test_two_separate_bridges_two_regions(self):
        terms, edges = {}, []
        for block, (b, c) in (("a", (8, 0)), ("b", (0, 8)),
                              ("c", (8, 0)), ("d", (0, 8))):
            ids = [f"{block}{i}" for i in range(5)]
            for i in range(5):
                terms[ids[i]] = (b, c)
                for j in range(i + 1, 5):
                    edges.append((ids[j], ids[i]))
        terms["m1"] = terms["m2"] = (4, 4)
        edges += [("m1", v) for v in terms if v[0] in "ab" and v != "m1"]
        edges += [("m2", v) for v in terms if v[0] in "cd" and not v.startswith("m")]
        years = {v: i for i, v in enumerate(sorted(terms))}
        net = make_net(edges, terms=terms, years=years)
        part = fast_greedy(net.projection)
        hubs = detect_translational_hubs(net.projection, id_labels(net.projection, part),
                                         score_documents(net),
                                         HubConfig(p_min=0.4))
        assert {h.id for h in hubs} == {"m1", "m2"}
        assert len(hub_regions(net.projection, hubs)) == 2

    def test_rank_invariant_under_degree_scaling(self):
        # doubling every edge multiplicity cannot arise here, but doubling
        # the whole graph (two copies) scales k and k_max together: the
        # per-copy ranking order must be preserved
        net = barbell_net()
        part = fast_greedy(net.projection)
        scores = score_documents(net)
        base = [h.id for h in detect_translational_hubs(net.projection,
                                                        id_labels(net.projection, part), scores)]

        edges2 = list(net.edges)
        edges2 += [(f"X{u}", f"X{v}") for u, v in net.edges]
        terms = dict(zip(net.ids, zip(net.basic_terms, net.clinical_terms)))
        terms |= {f"X{i}": v for i, v in terms.copy().items()}
        years = dict(zip(net.ids, net.years))
        years |= {f"X{i}": y for i, y in years.copy().items()}
        net2 = make_net(edges2, terms=terms, years=years)
        part2 = fast_greedy(net2.projection)
        hubs2 = [h.id for h in detect_translational_hubs(
            net2.projection, id_labels(net2.projection, part2), score_documents(net2))]
        assert [h for h in hubs2 if not h.startswith("X")] == base


def is_acyclic(edges) -> bool:
    """Kahn's algorithm: every node can be peeled off as a source."""
    succ, indeg = {}, {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
        indeg[v] = indeg.get(v, 0) + 1
        indeg.setdefault(u, 0)
    ready = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == len(indeg)


def check_against_oracle(net):
    """acyclic_reduction agrees with the round-based oracle and with the
    replay specification; returns it."""
    edges, removed = acyclic_reduction(net)
    ref_edges, ref_removed = rounds_acyclic_reduction(net)
    assert edges == ref_edges
    assert set(removed) == set(ref_removed)
    assert len(removed) == len(set(removed))
    assert sorted(edges + removed) == sorted(net.edges)
    assert is_acyclic(edges)
    check_replay(net, edges, removed)
    return edges, removed


def check_replay(net, edges, removed):
    """Replayed in order, each removed cycle edge is, at its deletion, the
    largest edge inside its current SCC (found from scratch), whatever
    order the SCCs are worked on in."""
    years = dict(zip(net.ids, net.years))
    n_anti = sum(1 for u, v in net.edges if years[u] is not None
                 and years[v] is not None and years[u] < years[v])
    current = edges + removed[n_anti:]
    for victim in removed[n_anti:]:
        sccs = _tarjan_sccs(sorted({v for e in current for v in e}), current)
        label = {v: i for i, scc in enumerate(sccs) for v in scc}
        own = label[victim[0]]
        assert label[victim[1]] == own, f"{victim} crosses SCCs"
        inside = [e for e in current if label[e[0]] == own == label[e[1]]]
        assert victim == max(inside)
        current.remove(victim)


def cycle_counts(caplog) -> dict:
    """The counts of the one cycle-breaking DEBUG record in caplog."""
    [counts] = [r.cycles for r in caplog.records if hasattr(r, "cycles")]
    return counts


class TestAcyclicReduction:
    def test_anti_chronological_edge_removed(self, caplog):
        net = make_net([("a", "b"), ("b", "c")],
                       years={"a": 2000, "b": 2005, "c": 2001})
        with caplog.at_level(logging.WARNING, logger="ktmap.hubs"):
            edges, removed = acyclic_reduction(net)
        assert ("a", "b") in removed  # a (2000) cites newer b (2005)
        assert ("b", "c") in edges

    def test_cycle_broken_deterministically(self, caplog):
        net = make_net([("a", "b"), ("b", "a"), ("a", "c")],
                       years={"a": 2000, "b": 2000, "c": 1999})
        with caplog.at_level(logging.WARNING, logger="ktmap.hubs"):
            edges, removed = acyclic_reduction(net)
        assert removed == [("b", "a")]  # lexicographically largest in the cycle
        assert ("a", "b") in edges

    def test_missing_years_kept(self):
        net = make_net([("a", "b")])
        edges, removed = acyclic_reduction(net)
        assert edges == [("a", "b")] and removed == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_round_oracle(self, data):
        n = data.draw(st.integers(2, 9))
        ids = [f"p{i}" for i in range(n)]
        pairs = [(u, v) for u in ids for v in ids if u != v]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=30,
                                   unique=True))
        years = {}
        if data.draw(st.booleans()):  # mixed: undated and a few same years
            drawn = data.draw(st.lists(
                st.one_of(st.none(), st.integers(2000, 2002)),
                min_size=n, max_size=n))
            years = {v: y for v, y in zip(ids, drawn) if y is not None}
        net = make_net(edges, nodes=ids, years=years)
        _, removed = check_against_oracle(net)
        anti = [(u, v) for u, v in net.edges if u in years and v in years
                and years[u] < years[v]]
        assert removed[:len(anti)] == anti

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_round_oracle_on_larger_digraphs(self, data):
        n = data.draw(st.integers(30, 200))
        out_degree = data.draw(st.integers(1, 4))
        rng = data.draw(st.randoms(use_true_random=False))
        ids = [f"u{i:03d}" for i in range(n)]
        edges = [(ids[i], ids[j]) for i in range(n)
                 for j in rng.sample([j for j in range(n) if j != i], out_degree)]
        check_against_oracle(make_net(edges))

    def test_two_disjoint_cycles(self):
        net = make_net([("a", "b"), ("b", "c"), ("c", "a"),
                        ("x", "y"), ("y", "x")])
        _, removed = check_against_oracle(net)
        assert set(removed) == {("c", "a"), ("y", "x")}

    def test_figure_eight_sharing_one_node(self):
        # a->b->c->a and c->d->e->c share c: (e, c) goes first and splits
        # the SCC into {a, b, c}, {d} and {e}
        net = make_net([("a", "b"), ("b", "c"), ("c", "a"),
                        ("c", "d"), ("d", "e"), ("e", "c")])
        _, removed = check_against_oracle(net)
        assert removed == [("e", "c"), ("c", "a")]

    def test_complete_digraph(self):
        for nodes in ("abcde", "abcdefgh"):
            net = make_net([(u, v) for u in nodes for v in nodes if u != v])
            edges, removed = check_against_oracle(net)
            assert sorted(edges) == [(u, v) for u in nodes for v in nodes
                                     if u < v]
            assert len(removed) == len(nodes) * (len(nodes) - 1) // 2

    def test_root_peeled_first(self, caplog):
        # the root a is entered only from h, whose one out-edge (h, a) is
        # the largest: deleting it first leaves a alone, so the seven other
        # nodes go to Tarjan and the cyclic part b..g gets new trees
        ring = "abcdefgh"
        net = make_net([(x, y) for x, y in zip(ring, ring[1:] + "a")]
                       + [("f", "b"), ("g", "c"), ("e", "c")])
        with caplog.at_level(logging.DEBUG, logger="ktmap.hubs"):
            _, removed = check_against_oracle(net)
        assert removed[0] == ("h", "a")
        counts = cycle_counts(caplog)
        assert counts["sccs"] == 1
        assert counts["splits"] >= 1 and counts["tarjan_nodes"] >= 7

    def test_long_ring_with_chords(self, caplog):
        # deep trees: deleting a chord or ring edge cuts off long subtrees
        # that are re-hung whole through the remaining ring edges
        ids = [f"r{i:02d}" for i in range(60)]
        edges = {(ids[i], ids[(i + 1) % 60]) for i in range(60)}
        edges |= {(ids[i], ids[(i + 7) % 60]) for i in range(0, 60, 3)}
        edges |= {(ids[i], ids[(i - 11) % 60]) for i in range(0, 60, 5)}
        with caplog.at_level(logging.DEBUG, logger="ktmap.hubs"):
            check_against_oracle(make_net(sorted(edges)))
        counts = cycle_counts(caplog)
        assert counts["rehangs"] > 0
        assert counts["orphans"] > counts["rehangs"]  # whole subtrees moved

    def test_split_part_root_has_no_parent(self, caplog):
        # a->d->c->a and d->b->d; b is d's child in a's out-tree. Deleting
        # (d, c) leaves a alone and splits off {b, d} with root b, whose
        # old parent edge (d, b) is deleted next: only d's in-tree edge is
        # cut, so that deletion re-hangs one node, not b's whole tree
        net = make_net([("a", "d"), ("b", "d"), ("c", "a"), ("d", "b"),
                        ("d", "c")])
        with caplog.at_level(logging.DEBUG, logger="ktmap.hubs"):
            _, removed = check_against_oracle(net)
        assert removed == [("d", "c"), ("d", "b")]
        assert cycle_counts(caplog) == {
            "anti_chronological": 0, "sccs": 1, "deletions": 2, "settled": 0,
            "rehangs": 3, "orphans": 4, "splits": 2, "tarjan_nodes": 4}

    def test_two_sccs_joined_by_one_edge(self, caplog):
        net = make_net([("a", "b"), ("b", "c"), ("c", "a"), ("c", "x"),
                        ("x", "y"), ("y", "z"), ("z", "x"), ("z", "y")])
        with caplog.at_level(logging.DEBUG, logger="ktmap.hubs"):
            edges, removed = check_against_oracle(net)
        assert ("c", "x") in edges
        assert set(removed) == {("c", "a"), ("z", "y"), ("z", "x")}
        assert cycle_counts(caplog)["sccs"] == 2

    def test_scc_survives_removals_before_split(self, monkeypatch, caplog):
        # ring a->b->c->d->e->a with chords e->b, e->c, e->d: deleting the
        # three chords leaves the ring strongly connected, so only the
        # fourth deletion (e, a) splits it, and Tarjan runs twice in all.
        # No chord is a tree edge, so each chord deletion is settled
        # without a re-hang.
        calls = []
        tarjan = hubs._tarjan
        monkeypatch.setattr(hubs, "_tarjan",
                            lambda *a: calls.append(a) or tarjan(*a))
        net = make_net([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                        ("e", "a"), ("e", "b"), ("e", "c"), ("e", "d")])
        with caplog.at_level(logging.DEBUG, logger="ktmap.hubs"):
            _, removed = check_against_oracle(net)
        assert removed == [("e", "d"), ("e", "c"), ("e", "b"), ("e", "a")]
        assert len(calls) == 2
        counts = cycle_counts(caplog)
        assert counts["deletions"] == 4 and counts["settled"] == 3
        assert counts["rehangs"] == 1 and counts["splits"] == 1
        assert counts["tarjan_nodes"] == 4

    def test_one_warning_per_reduction(self, caplog):
        net = make_net([(u, v) for i in range(4)
                        for u, v in ((f"a{i}", f"b{i}"), (f"b{i}", f"a{i}"))])
        with caplog.at_level(logging.DEBUG, logger="ktmap.hubs"):
            _, removed = acyclic_reduction(net)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "cycle" in warnings[0].getMessage()
        assert "4 edge(s)" in warnings[0].getMessage()
        assert str(removed[0]) in warnings[0].getMessage()
        assert str(removed[3]) not in warnings[0].getMessage()
        assert not [r for r in caplog.records if "removing edge" in r.getMessage()]
        summaries = [r.cycles for r in caplog.records if hasattr(r, "cycles")]
        assert len(summaries) == 1


class TestSearchPathCounts:
    def test_chain(self):
        net = make_net([("a", "b"), ("b", "c")])
        spc = kept_edge_spc(net)
        assert spc == {("a", "b"): 1, ("b", "c"): 1}

    def test_diamond_with_branch(self):
        net = make_net([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"),
                        ("c", "e"), ("e", "d")])
        spc = kept_edge_spc(net)
        assert spc[("a", "c")] == 2
        assert spc[("a", "b")] == 1
        path = main_path(net)
        assert path.nodes == ("a", "c", "d")

    def test_matches_enumeration_on_random_dags(self):
        fixtures = 0
        for seed in range(40):
            ids, edges = random_dag(n=4 + seed % 9, p=0.35, seed=seed)
            if not edges:
                continue
            fixtures += 1
            net = make_net(edges, nodes=ids)
            spc = kept_edge_spc(net)
            oracle = enumerate_spc(net.ids, edges)
            assert spc == oracle
        assert fixtures >= 20

    def test_multi_source_multi_sink(self):
        net = make_net([("s1", "m"), ("s2", "m"), ("m", "t1"), ("m", "t2")])
        spc = kept_edge_spc(net)
        # virtual super-source/sink handling: 2 ways in, 2 ways out
        assert spc[("s1", "m")] == 2
        assert spc[("m", "t1")] == 2


def oracle_greedy_walk(nodes, edges):
    spc = enumerate_spc(nodes, edges)
    indeg = {v: 0 for v in nodes}
    succ = {v: [] for v in nodes}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    starts = [e for e in edges if indeg[e[0]] == 0]
    start = sorted(starts, key=lambda e: (-spc[e], e))[0]
    path = [start[0], start[1]]
    cur = start[1]
    while succ[cur]:
        nxt = sorted(succ[cur], key=lambda w: (-spc[(cur, w)], w))[0]
        path.append(nxt)
        cur = nxt
    return path


class TestMainPath:
    def test_chain_path(self):
        net = make_net([("a", "b"), ("b", "c")])
        path = main_path(net)
        assert path.nodes == ("a", "b", "c")
        assert path.spc == (1, 1)

    def test_empty_graph_rejected(self):
        net = make_net([], nodes=["a"])
        with pytest.raises(InsufficientDataError):
            main_path(net)

    def test_cycle_broken_with_warning(self, caplog):
        net = make_net([("a", "b"), ("b", "a"), ("b", "c")],
                       years={"a": 2000, "b": 2000, "c": 1999})
        with caplog.at_level(logging.WARNING, logger="ktmap.hubs"):
            path = main_path(net)
        assert len(path.removed_edges) == 1
        assert "cycle" in caplog.text
        assert len(set(path.nodes)) == len(path.nodes)  # acyclic walk

    def test_matches_oracle_walk_on_random_dags(self):
        for seed in range(40):
            ids, edges = random_dag(n=5 + seed % 8, p=0.3, seed=1000 + seed)
            if not edges:
                continue
            net = make_net(edges, nodes=ids)
            assert list(main_path(net).nodes) == oracle_greedy_walk(net.ids, edges)

    def test_deterministic(self):
        ids, edges = random_dag(10, 0.35, 5)
        net = make_net(edges, nodes=ids)
        assert main_path(net) == main_path(net)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_oracles_after_reduction(self, data):
        """On digraphs with or without cycles and with mixed or missing
        years, main_path and the SPC of every kept edge equal the enumeration
        oracles run on the round oracle's kept edges, whether the reduction
        shares the network's lists (nothing removed) or filters copies."""
        n = data.draw(st.integers(2, 8))
        ids = [f"p{i}" for i in range(n)]
        acyclic = data.draw(st.booleans())
        pairs = [(u, v) for u in ids for v in ids if (u > v if acyclic else u != v)]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                   max_size=20, unique=True))
        years = {}
        if data.draw(st.booleans()):
            drawn = data.draw(st.lists(
                st.one_of(st.none(), st.integers(2000, 2002)),
                min_size=n, max_size=n))
            years = {v: y for v, y in zip(ids, drawn) if y is not None}
        net = make_net(edges, nodes=ids, years=years)
        kept, removed = rounds_acyclic_reduction(net)
        succ, pred, _ = hubs._reduce(net)
        assert (succ is net.out_adj and pred is net.in_adj) == (not removed)
        spc = enumerate_spc(net.ids, kept)
        counts = kept_edge_spc(net)
        assert counts == spc and list(counts) == kept
        if not kept:
            with pytest.raises(InsufficientDataError):
                main_path(net)
            return
        path = main_path(net)
        assert list(path.nodes) == oracle_greedy_walk(net.ids, kept)
        assert list(path.spc) == [spc[e] for e in zip(path.nodes, path.nodes[1:])]
        assert set(path.removed_edges) == set(removed)

    @pytest.mark.parametrize("years, anti", [
        ({"a": 2000, "b": 2000, "c": 2001}, [("a", "c")]),  # c is newer
        ({}, []),  # nothing dropped: cycle breaking reads the network's lists
    ])
    def test_network_unchanged(self, years, anti):
        # a <-> b and c -> d -> e -> c are cycles
        net = make_net([("a", "b"), ("a", "c"), ("b", "a"), ("b", "d"),
                        ("c", "d"), ("d", "e"), ("e", "c")], years=years)
        out_adj, in_adj = [list(r) for r in net.out_adj], [list(r) for r in net.in_adj]
        path = main_path(net)
        assert list(path.removed_edges[:len(anti)]) == anti
        assert set(path.removed_edges[len(anti):]) == {("b", "a"), ("e", "c")}
        assert net.out_adj == out_adj and net.in_adj == in_adj
