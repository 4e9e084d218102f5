#!/usr/bin/env python3
"""Time the two hot kernels in isolation.

Runs the greedy modularity merge and triangle counting on synthetic graphs
of increasing size and prints a timing table. This is a kernel-only
microbenchmark; ``perfbench/`` measures the whole ``ktmap report``.

Usage: python benchmarks/bench_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from ktmap import _kernels
from ktmap.synth import PlantedConfig, gen_planted_kt_network, gen_random_graph


def time_call(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def bench_greedy(n_blocks: int, leaf: int) -> None:
    cfg = PlantedConfig(branching=(n_blocks,), leaf_size=leaf,
                        p_within=(0.05,), p_between=0.002)
    net, _ = gen_planted_kt_network(cfg, 42)
    g = net.projection
    eu, ev, ew = g.edge_arrays()
    t = time_call(_kernels.greedy_merge_seq, g.n_nodes, eu, ev, ew)
    print(f"greedy merge  n={g.n_nodes:5d} m={g.n_edges:6d}  {t:8.3f}s")


def bench_triangles(n: int, p: float) -> None:
    g = gen_random_graph(n, p, 7).projection
    adj = g.adjacency_sorted()
    t = time_call(_kernels.triangle_counts, adj)
    print(f"triangles     n={g.n_nodes:5d} m={g.n_edges:6d}  {t:8.3f}s")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes for a fast sanity run")
    args = parser.parse_args()

    sizes = [(4, 75), (8, 100)] if args.quick else [(4, 75), (8, 100), (8, 250), (10, 400)]
    for blocks, leaf in sizes:
        bench_greedy(blocks, leaf)
    for n, p in ([(1000, 0.01)] if args.quick else [(1000, 0.01), (3000, 0.01), (5000, 0.008)]):
        bench_triangles(n, p)


if __name__ == "__main__":
    main()
