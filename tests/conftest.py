"""Shared test helpers: graph factories and independent brute-force oracles.

The oracles here deliberately avoid the library's own computation paths:
modularity is evaluated from the adjacency-matrix definition, search path
counts by explicit enumeration of every source-to-sink path, and the greedy
merge sequence by rescanning every community pair at every step.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from ktmap.corpus import CitationNetwork, Document, UGraph


def ugraph(edges, extra_nodes=()) -> UGraph:
    """Build an unweighted UGraph from (u, v) pairs."""
    ids = sorted({v for e in edges for v in e} | set(extra_nodes))
    return UGraph(ids, ((u, v, 1.0) for u, v in edges))


def make_net(edges, nodes=None, years=None, terms=None) -> CitationNetwork:
    """CitationNetwork from directed (citing, cited) pairs.

    terms maps id -> (basic, clinical); years maps id -> int.
    """
    ids = set(nodes or ())
    ids.update(v for e in edges for v in e)
    years = years or {}
    terms = terms or {}
    docs = []
    for i in sorted(ids):
        basic, clinical = terms.get(i, (0, 0))
        docs.append(Document(id=i, year=years.get(i), basic_terms=basic,
                             clinical_terms=clinical))
    return CitationNetwork(docs, edges)


def set_partitions(items):
    """All partitions of a sequence (restricted-growth enumeration)."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return
    codes = [0] * n
    maxes = [0] * n
    while True:
        groups: dict[int, list] = {}
        for item, code in zip(items, codes):
            groups.setdefault(code, []).append(item)
        yield list(groups.values())
        i = n - 1
        while i > 0 and codes[i] == maxes[i - 1] + 1:
            codes[i] = 0
            i -= 1
        if i == 0:
            return
        codes[i] += 1
        for j in range(i, n - 1):
            maxes[j] = max(maxes[j - 1], codes[j])
        maxes[n - 1] = max(maxes[n - 2], codes[n - 1])


def brute_modularity(graph: UGraph, assignment) -> float:
    """Q from the adjacency-matrix definition, independent of the library."""
    n = graph.n_nodes
    a = np.zeros((n, n))
    for u, v, w in graph.edges():
        iu, iv = graph.index[u], graph.index[v]
        a[iu, iv] = w
        a[iv, iu] = w
    two_m = a.sum()
    k = a.sum(axis=1)
    labels = [assignment[v] for v in graph.ids]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += a[i, j] / two_m - k[i] * k[j] / (two_m * two_m)
    return q


def best_partition_bruteforce(graph: UGraph) -> tuple[float, list[list[str]]]:
    """Exhaustive-search maximum-modularity partition (tiny graphs only)."""
    best_q = -np.inf
    best = None
    for groups in set_partitions(graph.ids):
        assignment = {v: i for i, grp in enumerate(groups) for v in grp}
        q = brute_modularity(graph, assignment)
        if q > best_q:
            best_q = q
            best = groups
    return best_q, best


def enumerate_spc(nodes, edges) -> dict[tuple[str, str], int]:
    """Per-edge source-to-sink path counts by explicit path enumeration."""
    succ = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    sources = [v for v in nodes if indeg[v] == 0 and succ[v]]
    counts = {e: 0 for e in edges}

    def walk(v, path_edges):
        if not succ[v]:
            for e in path_edges:
                counts[e] += 1
            return
        for w in succ[v]:
            walk(w, path_edges + [(v, w)])

    for s in sources:
        walk(s, [])
    return counts


def scan_merge_seq(n_nodes, edge_u, edge_v, edge_w):
    """Reference greedy modularity merge: rescans every pair at every merge.

    Same contract as ``ktmap._kernels.greedy_merge_seq`` and the same
    arithmetic expressions, so the two must agree bit for bit. O(n m).
    """
    m = 0.0
    for w in edge_w:
        m += w
    if m <= 0.0:
        raise ValueError("graph has no edges")
    two_m = 2.0 * m

    a = [0.0] * n_nodes
    wq: dict[tuple[int, int], float] = {}
    touch: list[set[int]] = [set() for _ in range(n_nodes)]
    for k in range(len(edge_u)):
        u = edge_u[k]
        v = edge_v[k]
        w = edge_w[k]
        a[u] += w / two_m
        a[v] += w / two_m
        wq[(u, v)] = w / m
        touch[u].add(v)
        touch[v].add(u)

    q = 0.0
    for i in range(n_nodes):
        q -= a[i] * a[i]
    q0 = q

    merges: list[tuple[int, int]] = []
    qs: list[float] = []
    while wq:
        best_dq = 0.0
        best_pair = None
        for (r, s), w in wq.items():
            dq = w - 2.0 * a[r] * a[s]
            if best_pair is None or dq > best_dq or (dq == best_dq and (r, s) < best_pair):
                best_dq = dq
                best_pair = (r, s)
        r, s = best_pair
        del wq[(r, s)]
        touch[r].discard(s)
        touch[s].discard(r)
        for t in sorted(touch[s]):
            key_st = (s, t) if s < t else (t, s)
            w_st = wq.pop(key_st)
            key_rt = (r, t) if r < t else (t, r)
            if key_rt in wq:
                wq[key_rt] += w_st
            else:
                wq[key_rt] = w_st
                touch[r].add(t)
            touch[t].discard(s)
            touch[t].add(r)
        touch[s].clear()
        a[r] += a[s]
        a[s] = 0.0
        q += best_dq
        merges.append((r, s))
        qs.append(q)
    return q0, merges, qs


def random_dag(n, p, seed):
    """Random DAG: ER edges oriented from lower to higher label."""
    rng = np.random.default_rng(seed)
    ids = [f"d{i:02d}" for i in range(n)]
    edges = []
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            edges.append((ids[i], ids[j]))
    return ids, edges


@pytest.fixture
def two_triangles() -> UGraph:
    return ugraph([("a", "b"), ("b", "c"), ("a", "c"),
                   ("d", "e"), ("e", "f"), ("d", "f")])
