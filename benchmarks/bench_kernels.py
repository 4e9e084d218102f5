#!/usr/bin/env python3
"""Time the hot kernels in isolation.

Runs the greedy modularity merge (on citation projections, one of them the
size of a 50k-doc report's top level, and on one weighted co-citation
graph, printing the counts of its DEBUG record), front refinement, the
whole front tree (in one process and with its level-2 split forked) and
triangle counting on synthetic graphs, cycle breaking plus search path
counts (SPC) on undated random citation digraphs, and corpus parsing,
writing and core selection on written planted corpora, at increasing
sizes, and prints a timing table. This is a kernel-only microbenchmark;
``perfbench/`` measures the whole ``ktmap report``.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import logging
import os
import tempfile
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from ktmap import _fork, _kernels, corpus, fronts, hubs
from ktmap.corpus import (CitationNetwork, Document, co_citation_projection,
                          load_corpus, write_corpus)
from ktmap.selection import select_top_cited
from ktmap.synth import PlantedConfig, gen_planted_kt_network, gen_random_graph


def time_call(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


@contextmanager
def debug_records(name: str):
    """Collect the DEBUG records of logger `name` inside the block."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger(name)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def time_merge(label: str, g) -> None:
    """Time the greedy merge on g and print its DEBUG record's counts."""
    eu, ev, ew = g.edge_arrays()
    with debug_records("ktmap.kernels") as records:
        t = time_call(_kernels.greedy_merge_seq, g.n_nodes, eu, ev, ew)
    c = records[-1].merge
    print(f"{label}  n={g.n_nodes:5d} m={g.n_edges:6d}  {t:8.3f}s"
          f"  ({c['merges']} merges, {c['pushes']} pushes, {c['skipped_pushes']}"
          f" skipped, {c['stale_rekeys']} stale, {c['dead_pops']} dead,"
          f" {c['rebuilds']} rebuilds)")


def bench_greedy(n_blocks: int, leaf: int) -> None:
    cfg = PlantedConfig(branching=(n_blocks,), leaf_size=leaf,
                        p_within=(0.05,), p_between=0.002)
    net, _ = gen_planted_kt_network(cfg, 42)
    time_merge("greedy merge", net.projection)


def bench_greedy_50k_top() -> None:
    """A 4x5 nested planted projection of 11.5k nodes and 45k edges, the
    size of the top-level graph of a 50k-doc planted report (11,475 core
    nodes, 42,288 edges)."""
    scale = 0.7 * 500 / 575
    cfg = PlantedConfig(branching=(4, 5), leaf_size=575,
                        p_within=(0.002 * scale, 0.01 * scale),
                        p_between=0.0003 * scale)
    time_merge("greedy merge (50k-doc top level)",
               gen_planted_kt_network(cfg, 42)[0].projection)


def cocitation_graph():
    """Weighted co-citation projection of a 4x5 nested planted corpus with
    the settings of perfbench's ``cocitation`` workload (1.4k docs)."""
    cfg = PlantedConfig(branching=(4, 5), leaf_size=70,
                        p_within=(0.012, 0.1), p_between=0.003,
                        homophily=0.5, n_hubs=0)
    return co_citation_projection(gen_planted_kt_network(cfg, 42)[0])


def bench_greedy_cocitation() -> None:
    time_merge("greedy merge (co-citation)", cocitation_graph())


def bench_refine(leaf: int) -> None:
    """``fast_greedy`` minus its greedy merge (refinement, relabelling and
    the final Q) on a 4x5 nested planted projection; leaf=500 gives about
    10k nodes and 55k edges. Also prints the refinement's ``best_move``
    evaluations and the sweep skips by the drift bound, from its DEBUG
    record."""
    scale = 500 / leaf  # same expected degree at every size
    cfg = PlantedConfig(branching=(4, 5), leaf_size=leaf,
                        p_within=(0.002 * scale, 0.01 * scale),
                        p_between=0.0003 * scale)
    g = gen_planted_kt_network(cfg, 42)[0].projection
    kernel = _kernels.greedy_merge_seq
    merge_s = []

    def timed_merge(*args):
        t0 = time.perf_counter()
        out = kernel(*args)
        merge_s.append(time.perf_counter() - t0)
        return out

    _kernels.greedy_merge_seq = timed_merge
    try:
        with debug_records("ktmap.fronts") as records:
            t = time_call(fronts.fast_greedy, g)
    finally:
        _kernels.greedy_merge_seq = kernel
    counts = records[-1].refine
    print(f"refinement    n={g.n_nodes:5d} m={g.n_edges:6d}  {t - merge_s[0]:8.3f}s"
          f"  (merge {merge_s[0]:.3f}s; {counts['evaluations']} evaluations,"
          f" {counts['skips']} skips)")


def time_tree(label: str, g, repeat: int = 3) -> None:
    """Best of `repeat` times of ``hierarchical_fronts`` on g with the
    report's default limits, with forking off (one process) and on (the
    level-2 fronts dealt onto the usable CPUs), and of the root split,
    ``fast_greedy`` on all of g, alone."""
    root = min(time_call(fronts.fast_greedy, g) for _ in range(repeat))
    forks = _fork.forks
    _fork.forks = lambda: False
    try:
        alone = min(time_call(fronts.hierarchical_fronts, g) for _ in range(repeat))
    finally:
        _fork.forks = forks
    procs = _fork.processes()
    forked = min(time_call(fronts.hierarchical_fronts, g) for _ in range(repeat))
    print(f"fronts tree   n={g.n_nodes:5d} m={g.n_edges:6d}  {alone:8.3f}s"
          f"  (root split {root:.3f}s; {forked:.3f}s on {procs} processes) {label}")


def bench_fronts_tree(leaf: int) -> None:
    """The front tree of ``cocitation_graph()`` and of the core projection
    (top 20% cited) of a planted corpus with the ``planted`` workload's
    settings; leaf=500 is that workload's size (10k docs, a core of about
    2.2k)."""
    time_tree("co-citation", cocitation_graph())
    scale = 500 / leaf  # same expected degree at every size
    cfg = PlantedConfig(branching=(4, 5), leaf_size=leaf,
                        p_within=(0.0031 * scale, 0.0249 * scale),
                        p_between=0.00083 * scale, homophily=0.5, n_hubs=5,
                        hub_degree=40)
    core = select_top_cited(gen_planted_kt_network(cfg, 42)[0], 0.2)
    time_tree("planted core", core.projection)


def bench_triangles(n: int, p: float) -> None:
    g = gen_random_graph(n, p, 7).projection
    adj = g.adjacency_sorted()
    t = time_call(_kernels.triangle_counts, adj)
    print(f"triangles     n={g.n_nodes:5d} m={g.n_edges:6d}  {t:8.3f}s")


def undated_digraph(n: int, out_degree: int, seed: int) -> CitationNetwork:
    """n undated docs, each citing out_degree distinct others uniformly."""
    rng = np.random.default_rng(seed)
    ids = [f"u{i:05d}" for i in range(n)]
    edges = set()
    for i in range(n):
        cited: set[int] = set()
        while len(cited) < out_degree:
            j = int(rng.integers(0, n))
            if j != i:
                cited.add(j)
        edges.update((ids[i], ids[j]) for j in cited)
    return CitationNetwork([Document(id=v) for v in ids], sorted(edges))


def bench_cycles_spc(n: int) -> None:
    """Cycle breaking and SPC on an undated digraph, on node indices as
    main_path runs them. The cycle row also prints the counts of the
    cycle-breaking DEBUG record of the timed call."""
    net = undated_digraph(n, 3, 5)
    with debug_records("ktmap.hubs") as records:
        t0 = time.perf_counter()
        succ, pred, removed = hubs._reduce(net)
        t1 = time.perf_counter()
    hubs._path_counts(succ, pred)
    t2 = time.perf_counter()
    c = next(r.cycles for r in records if hasattr(r, "cycles"))
    print(f"cycle break   n={net.n_docs:5d} m={net.n_edges:6d}  {t1 - t0:8.3f}s"
          f"  ({len(removed)} removed; {c['sccs']} cyclic SCCs,"
          f" {c['settled']} settled, {c['rehangs']} re-hangs,"
          f" {c['orphans']} orphans ({c['orphans'] / max(1, c['rehangs']):.1f}"
          f" per re-hang), {c['splits']} splits, {c['tarjan_nodes']} to Tarjan)")
    print(f"spc           n={net.n_docs:5d} m={net.n_edges - len(removed):6d}"
          f"  {t2 - t1:8.3f}s")


def bench_parse(leaf: int) -> None:
    """Corpus parsing on a 4x5 nested planted corpus written to a temporary
    directory; leaf=500 gives about 10k documents and 114k citations, the
    size of perfbench's planted corpora. Columns: the nodes file read to
    the network's document columns, in id order; the edges file read and
    its ids looked up; the rest of the network build (the order check on
    the looked-up node lists, which are kept as the network's edge store;
    no adjacency is built); ``write_corpus`` of what the report's parse
    stage reads (a copy of the input text here); ``load_corpus`` plus that
    write, as the parse stage runs them; ``select_top_cited`` on the parsed
    network at the report's default fraction (in-degrees and the induced
    core); and ``held``, the bytes per document that a parsed network keeps
    (ids, index, columns and edge lists), traced by tracemalloc on a
    separate load outside the timed ones."""
    scale = 500 / leaf  # same expected degree at every size
    cfg = PlantedConfig(branching=(4, 5), leaf_size=leaf,
                        p_within=(0.0031 * scale, 0.0249 * scale),
                        p_between=0.00083 * scale)
    net = gen_planted_kt_network(cfg, 42)[0]
    with tempfile.TemporaryDirectory() as tmp:
        nodes = os.path.join(tmp, "nodes.jsonl")
        edges = os.path.join(tmp, "edges.csv")
        write_corpus(net, nodes, edges)
        t0 = time.perf_counter()
        with open(nodes, encoding="utf-8-sig") as fh:
            index, columns = corpus._read_columns(corpus._read_text(fh, "nodes"))
            ids, index, columns = corpus._in_id_order(index, columns)
        t1 = time.perf_counter()
        with open(edges, encoding="utf-8-sig") as fh:
            text = corpus._read_text(fh, "edges")
        corpus._edge_text_nodes(text, net.index)
        t2 = time.perf_counter()
        with open(edges, encoding="utf-8-sig") as fh:
            CitationNetwork._from_edges(ids, index, columns,
                                        corpus._read_text(fh, "edges"), lenient=False)
        t3 = time.perf_counter()
        parsed, text = load_corpus(nodes, edges, keep_text=True)
        t4 = time.perf_counter()
        write_corpus(parsed, os.path.join(tmp, "n.jsonl"), os.path.join(tmp, "e.csv"),
                     text)
        t5 = time.perf_counter()
        select_top_cited(parsed, 0.2)
        t6 = time.perf_counter()
        del parsed, text
        tracemalloc.start()
        held = load_corpus(nodes, edges)
        held_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
    print(f"parse         n={net.n_docs:5d} m={net.n_edges:6d}  nodes {t1 - t0:.3f}s"
          f"  edges {t2 - t1:.3f}s  network {t3 - t2 - (t2 - t1):.3f}s"
          f"  write {t5 - t4:.3f}s  load+write {t5 - t3:8.3f}s  select {t6 - t5:.3f}s"
          f"  held {held_bytes / held.n_docs:.0f} B/doc")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes for a fast sanity run")
    args = parser.parse_args()
    logging.getLogger("ktmap").setLevel(logging.ERROR)  # no cycle warnings in the table

    sizes = [(4, 75), (8, 100)] if args.quick else [(4, 75), (8, 100), (8, 250), (10, 400)]
    for blocks, leaf in sizes:
        bench_greedy(blocks, leaf)
    if not args.quick:
        bench_greedy_50k_top()
    bench_greedy_cocitation()
    for leaf in [100] if args.quick else [100, 250, 500, 1000]:
        bench_refine(leaf)
    bench_fronts_tree(100 if args.quick else 500)
    for n, p in ([(1000, 0.01)] if args.quick else [(1000, 0.01), (3000, 0.01), (5000, 0.008)]):
        bench_triangles(n, p)
    for n in [800] if args.quick else [800, 1600, 3200, 6400]:
        bench_cycles_spc(n)
    for leaf in [100] if args.quick else [100, 250, 500, 1000]:
        bench_parse(leaf)


if __name__ == "__main__":
    main()
