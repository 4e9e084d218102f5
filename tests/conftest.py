"""Shared test helpers: graph factories and independent brute-force oracles.

The oracles here deliberately avoid the library's own computation paths:
modularity is evaluated from the adjacency-matrix definition, the module
roles P and z from their definitions one id string at a time, search path
counts by explicit enumeration of every source-to-sink path, the greedy
merge sequence by rescanning every community pair at every step, front
refinement by re-deriving every node's front weights at every step, and
cycle breaking by recomputing every strongly connected component after each
round of removals. The citation network and the corpus readers keep their
string-keyed, line-at-a-time forms: pairs of id strings deduplicated in a
set and sorted, and one nodes or edges line at a time; the corpus writer
encodes and writes one line at a time.
"""

from __future__ import annotations

import json
import logging
import os
import re
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from ktmap import _fork, fronts, hubs
from ktmap.corpus import CitationNetwork, Document, UGraph
from ktmap.errors import (DuplicateIdError, MalformedRecordError,
                          SelfLoopError, UnknownEndpointError)
from ktmap.metrics import clustering_by_index


def ugraph(edges, extra_nodes=()) -> UGraph:
    """Build an unweighted UGraph from (u, v) pairs."""
    ids = sorted({v for e in edges for v in e} | set(extra_nodes))
    return UGraph(ids, ((u, v, 1.0) for u, v in edges))


def graph_edges(graph: UGraph) -> list[tuple[str, str, float]]:
    """Each edge of a UGraph once, as (u, v, weight) with index(u) <
    index(v), in edge_arrays order."""
    ids = graph.ids
    return [(ids[i], ids[j], w) for i, j, w in zip(*graph.edge_arrays())]


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
    for iu, iv, w in zip(*graph.edge_arrays()):
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


def module_roles(graph: UGraph, partition) -> dict[str, tuple]:
    """{id: (P, z)} from the definitions of Guimera & Amaral 2005, one id
    string at a time: P = 1 - sum_s (k_s / k)^2 over the fronts s of the
    node's neighbours (None when isolated), and z the node's links inside
    its own front standardised over the front's members (None when they
    all have as many)."""
    nbrs = {v: [graph.ids[j] for j in graph.adj[i]] for i, v in enumerate(graph.ids)}
    kappa = {v: sum(partition[u] == partition[v] for u in nbrs[v]) for v in graph.ids}
    roles = {}
    for v in graph.ids:
        k = len(nbrs[v])
        fronts_hit = {partition[u] for u in nbrs[v]}
        p = None if k == 0 else 1.0 - sum(
            (sum(partition[u] == s for u in nbrs[v]) / k) ** 2 for s in fronts_hit)
        front = [kappa[u] for u in graph.ids if partition[u] == partition[v]]
        mean = sum(front) / len(front)
        var = sum((x - mean) ** 2 for x in front) / len(front)
        roles[v] = (p, None if var == 0.0 else (kappa[v] - mean) / var ** 0.5)
    return roles


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


def id_labels(graph: UGraph, part) -> dict[str, int]:
    """The id -> front label map of a ``fast_greedy`` partition of graph."""
    return dict(zip(graph.ids, part.labels))


def kept_edge_spc(net) -> dict[tuple[str, str], int]:
    """The library's SPC of each edge its acyclic reduction keeps, keyed by
    id pair in kept-edge order: n_from[u] * n_to[v] from ``hubs._reduce``
    and ``hubs._path_counts``. Not an oracle; compare it with
    ``enumerate_spc``."""
    succ, pred, _ = hubs._reduce(net)
    n_from, n_to = hubs._path_counts(succ, pred)
    ids = net.ids
    return {(ids[u], ids[v]): n_from[u] * n_to[v]
            for u, cited in enumerate(succ) for v in cited}


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


def scan_refine_moves(graph: UGraph, comm: list[int], stats=None) -> list[int]:
    """Reference front refinement: rescans every node at every step.

    Same contract as ``ktmap.fronts._refine_moves`` (and the same pass cap,
    tolerance and chain length, read from that module), with the same
    arithmetic expressions, so the two must agree exactly. Each sweep and
    each Kernighan-Lin step re-derives the front weights of every node from
    its whole adjacency, and a merge pass sums the between-front weights
    over every edge. If a dict is passed as `stats`, it counts sweep moves
    (and those after a merge), merges, accepted and rolled-back KL chains,
    and accepted chains whose tail was rolled back.
    """
    if stats is None:
        stats = {}
    for key in ("moves", "moves_after_merge", "merges", "kl_accepted",
                "kl_rolled_back", "kl_partial"):
        stats.setdefault(key, 0)
    m = graph.total_weight
    two_m = 2.0 * m
    wdeg = [sum(nbrs.values()) for nbrs in graph.adj]
    deg_sum: dict[int, float] = {}
    for idx in range(graph.n_nodes):
        deg_sum[comm[idx]] = deg_sum.get(comm[idx], 0.0) + wdeg[idx]

    for _ in range(fronts._REFINE_MAX_PASSES):
        moved = False
        for idx in range(graph.n_nodes):
            gain, target = _scan_best_move(graph, comm, deg_sum, m, two_m,
                                           wdeg, idx)
            if target is not None:
                deg_sum[comm[idx]] -= wdeg[idx]
                deg_sum[target] += wdeg[idx]
                comm[idx] = target
                moved = True
                stats["moves"] += 1
                stats["moves_after_merge"] += stats["merges"] > 0
        if moved:
            continue
        if _scan_merge_pass(graph, comm, deg_sum, m):
            stats["merges"] += 1
            continue
        if not _scan_kl_escape(graph, comm, deg_sum, m, two_m, wdeg, stats):
            stats["kl_rolled_back"] += 1
            break
        stats["kl_accepted"] += 1
    return comm


def _scan_best_move(graph, comm, deg_sum, m, two_m, wdeg, idx,
                    locked=frozenset(), floor=None):
    if floor is None:
        floor = fronts._REFINE_TOL
    if idx in locked:
        return 0.0, None
    own = comm[idx]
    w_to: dict[int, float] = {}
    for nbr, w in graph.adj[idx].items():
        w_to[comm[nbr]] = w_to.get(comm[nbr], 0.0) + w
    w_own = w_to.get(own, 0.0)
    k = wdeg[idx]
    best_gain = floor
    best_target = None
    for target in sorted(w_to):
        if target == own:
            continue
        gain = ((w_to[target] - w_own) / m
                - k * (deg_sum[target] - (deg_sum[own] - k)) / (two_m * m))
        if gain > best_gain:
            best_gain = gain
            best_target = target
    return best_gain, best_target


def _scan_kl_escape(graph, comm, deg_sum, m, two_m, wdeg, stats) -> bool:
    trial = list(comm)
    trial_deg = dict(deg_sum)
    locked: set[int] = set()
    moves: list[tuple[int, int]] = []
    gains: list[float] = []
    total = 0.0
    for _ in range(min(fronts._KL_CHAIN, graph.n_nodes)):
        step_best = None  # (-gain, idx, target)
        for idx in range(graph.n_nodes):
            gain, target = _scan_best_move(graph, trial, trial_deg, m, two_m,
                                           wdeg, idx, locked=locked,
                                           floor=float("-inf"))
            if target is None:
                continue
            key = (-gain, idx, target)
            if step_best is None or key < step_best:
                step_best = key
        if step_best is None:
            break
        gain, idx, target = -step_best[0], step_best[1], step_best[2]
        moves.append((idx, target))
        trial_deg[trial[idx]] -= wdeg[idx]
        trial_deg[target] += wdeg[idx]
        trial[idx] = target
        locked.add(idx)
        total += gain
        gains.append(total)

    best_prefix = 0
    best_total = fronts._REFINE_TOL
    for i, cum in enumerate(gains, start=1):
        if cum > best_total:
            best_total = cum
            best_prefix = i
    if best_prefix == 0:
        return False
    stats["kl_partial"] += best_prefix < len(moves)
    for idx, target in moves[:best_prefix]:
        deg_sum[comm[idx]] -= wdeg[idx]
        deg_sum[target] += wdeg[idx]
        comm[idx] = target
    return True


def _scan_merge_pass(graph, comm, deg_sum, m) -> bool:
    w_between: dict[tuple[int, int], float] = {}
    for i in range(graph.n_nodes):
        ci = comm[i]
        for j, w in graph.adj[i].items():
            if j > i and comm[j] != ci:
                key = (min(ci, comm[j]), max(ci, comm[j]))
                w_between[key] = w_between.get(key, 0.0) + w

    best_gain = fronts._REFINE_TOL
    best_pair = None
    for (r, s), w in sorted(w_between.items()):
        gain = w / m - 2.0 * (deg_sum[r] / (2.0 * m)) * (deg_sum[s] / (2.0 * m))
        if gain > best_gain or (gain == best_gain and best_pair is not None
                                and (r, s) < best_pair):
            best_gain = gain
            best_pair = (r, s)
    if best_pair is None:
        return False
    r, s = best_pair
    for idx in range(graph.n_nodes):
        if comm[idx] == s:
            comm[idx] = r
    deg_sum[r] += deg_sum.pop(s)
    return True


def rounds_acyclic_reduction(net):
    """Reference cycle breaking: whole-graph Tarjan after every round.

    Same contract as ``ktmap.hubs.acyclic_reduction``: each round drops the
    largest (tail, head) edge inside every cyclic strongly connected
    component, until none is left. The removed cycle edges come out round
    by round, so only their set is comparable with the library's order.
    """
    removed = []
    edges = []
    year = dict(zip(net.ids, net.years))
    for citing, cited in net.edges:
        y_citing = year[citing]
        y_cited = year[cited]
        if y_citing is not None and y_cited is not None and y_citing < y_cited:
            removed.append((citing, cited))
        else:
            edges.append((citing, cited))

    while True:
        sccs = _tarjan_sccs(sorted({v for e in edges for v in e}), edges)
        cyclic = [scc for scc in sccs if len(scc) > 1]
        if not cyclic:
            break
        for scc in cyclic:
            members = set(scc)
            inside = [e for e in edges if e[0] in members and e[1] in members]
            victim = max(inside)
            edges.remove(victim)
            removed.append(victim)
    return edges, removed


def _tarjan_sccs(nodes, edges):
    """Tarjan's algorithm, iterative, over string ids."""
    succ = {v: [] for v in nodes}
    for u, w in edges:
        succ[u].append(w)
    for v in succ:
        succ[v].sort()
    index, low = {}, {}
    on_stack, stack, sccs = set(), [], []
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for next_i in range(pi, len(succ[v])):
                w = succ[v][next_i]
                if w not in index:
                    work[-1] = (v, next_i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


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
def cpus(monkeypatch):
    """A function that sets the usable CPU count ktmap sees (for the fronts
    split, the only code that forks) and returns the list of the pids it
    forks from then on."""
    pids: list[int] = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)

    def use(n: int) -> list[int]:
        monkeypatch.setattr(_fork, "usable_cpus", lambda: n)
        pids.clear()
        return pids

    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_triangles() -> UGraph:
    return ugraph([("a", "b"), ("b", "c"), ("a", "c"),
                   ("d", "e"), ("e", "f"), ("d", "f")])


# -- string-keyed citation network and line-by-line edge reader --------------

_corpus_log = logging.getLogger("ktmap.corpus")


class StringCitationNetwork:
    """Reference CitationNetwork over id strings: (citing, cited) pairs are
    checked one by one, deduplicated in a set and sorted as tuples, and the
    adjacency is a dict of string lists. Same checks, exceptions and
    warnings as ``ktmap.corpus.CitationNetwork``."""

    def __init__(self, documents, edges, lenient=False):
        self.docs = {}
        for doc in documents:
            if doc.id in self.docs:
                raise DuplicateIdError(f"duplicate document id {doc.id!r}")
            self.docs[doc.id] = doc

        seen = set()
        n_dup = 0
        skipped = []
        for citing, cited in edges:
            if citing == cited:
                raise SelfLoopError(f"self-loop edge ({citing!r}, {cited!r})")
            if citing not in self.docs or cited not in self.docs:
                if lenient:
                    skipped.append((citing, cited))
                    continue
                missing = citing if citing not in self.docs else cited
                raise UnknownEndpointError(
                    f"edge ({citing!r}, {cited!r}) references unknown id {missing!r}")
            if (citing, cited) in seen:
                n_dup += 1
                continue
            seen.add((citing, cited))
        if n_dup:
            _corpus_log.warning("collapsed %d duplicate citation edge(s)", n_dup)
        if skipped:
            _corpus_log.warning("skipped %d edge(s) with unknown endpoints "
                                "(lenient mode)", len(skipped))

        self.edges = tuple(sorted(seen))
        self.skipped_edges = tuple(skipped)
        self._in = {i: [] for i in self.docs}
        self._out = {i: [] for i in self.docs}
        for citing, cited in self.edges:
            self._out[citing].append(cited)
            self._in[cited].append(citing)

    @property
    def ids(self):
        return tuple(sorted(self.docs))

    def citers(self, node):
        return sorted(self._in[node])

    def cited_by(self, node):
        return sorted(self._out[node])

    @property
    def projection(self):
        pairs = {(min(u, v), max(u, v)) for u, v in self.edges}
        return UGraph(self.ids, ((u, v, 1.0) for u, v in sorted(pairs)))

    def co_citation_projection(self):
        weights = Counter()
        cited_nodes = set()
        for citer in self.ids:
            cited = self.cited_by(citer)
            cited_nodes.update(cited)
            for a_pos in range(len(cited)):
                for b_pos in range(a_pos + 1, len(cited)):
                    weights[(cited[a_pos], cited[b_pos])] += 1
        edges = [(u, v, float(w)) for (u, v), w in sorted(weights.items())]
        return UGraph(sorted(cited_nodes), edges)

    def induced(self, nodes):
        keep = set(nodes)
        docs = [self.docs[i] for i in sorted(keep)]
        edges = [(u, v) for u, v in self.edges if u in keep and v in keep]
        return StringCitationNetwork(docs, edges)


def line_edge_records(stream, doc_ids):
    """Reference edges reader: one line at a time, the only path there was
    before the whole-file read."""
    first_data_line = True
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            parts = [p.strip() for p in line.split(",")]
        else:
            parts = line.split()
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise MalformedRecordError(
                f"edges line {lineno}: expected two fields, got {line!r}")
        if first_data_line:
            first_data_line = False
            if [p.lower() for p in parts] == ["citing", "cited"]:
                if parts[0] in doc_ids and parts[1] in doc_ids:
                    _corpus_log.warning(
                        "edges line %d: %r was read as the header although "
                        "both fields name documents; an edge between them "
                        "must follow a header line", lineno, line)
                continue
        yield parts[0], parts[1]


def line_node_records(stream):
    """Reference nodes reader: json.loads and the field checks one line at
    a time, the only path there was before the whole-file read; an id seen
    on an earlier line raises DuplicateIdError at its line."""
    seen = set()
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(f"nodes line {lineno}: invalid JSON ({exc})")
        if not isinstance(rec, dict):
            raise MalformedRecordError(f"nodes line {lineno}: expected an object")
        try:
            doc = _reference_document(rec)
        except (ValueError, TypeError) as exc:
            raise MalformedRecordError(f"nodes line {lineno}: {exc}")
        if doc.id in seen:
            raise DuplicateIdError(f"nodes line {lineno}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        yield doc


def _reference_document(rec):
    raw_id = rec.get("id")
    if raw_id is None:
        raise ValueError("missing required field 'id'")
    doc_id = str(raw_id)
    if re.search(r'[\s,"]|^#', doc_id):
        raise ValueError(f"id {doc_id!r} contains a comma, a double quote or "
                         "whitespace, or starts with '#'")
    try:
        doc_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"id {doc_id!r} holds a lone surrogate, which UTF-8 "
                         "cannot encode") from None
    terms = rec.get("terms")
    if terms is not None:
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise ValueError("'terms' must be an array of strings")
        terms = tuple(t.lower() for t in terms)
    basic = rec.get("basic_terms", 0)
    clinical = rec.get("clinical_terms", 0)
    for name, val in (("basic_terms", basic), ("clinical_terms", clinical)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"'{name}' must be an integer")
    year = rec.get("year")
    if year is not None and (not isinstance(year, int) or isinstance(year, bool)):
        raise ValueError("'year' must be an integer")
    ext = rec.get("ext_citations")
    if ext is not None and (not isinstance(ext, int) or isinstance(ext, bool)):
        raise ValueError("'ext_citations' must be an integer")
    return Document(id=doc_id, year=year, kind=rec.get("kind", "paper"),
                    basic_terms=basic, clinical_terms=clinical,
                    raw_terms=terms, ext_citations=ext)


def reference_write_corpus(net, nodes_path, edges_path):
    """Reference corpus writer: json.dumps and one write per line, the
    writer there was before the joined write and the input copy."""
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for doc in map(net.document, range(net.n_docs)):
            rec = {"id": doc.id}
            if doc.year is not None:
                rec["year"] = doc.year
            if doc.kind != "paper":
                rec["kind"] = doc.kind
            rec["basic_terms"] = doc.basic_terms
            rec["clinical_terms"] = doc.clinical_terms
            if doc.raw_terms is not None:
                rec["terms"] = list(doc.raw_terms)
            if doc.ext_citations is not None:
                rec["ext_citations"] = doc.ext_citations
            fh.write(json.dumps(rec) + "\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write("citing,cited\n")
        for citing, cited in net.edges:
            fh.write(f"{citing},{cited}\n")


def local_clustering(graph: UGraph) -> dict[str, float | None]:
    """The library's clustering coefficient for every node, by id."""
    return dict(zip(graph.ids, clustering_by_index(graph)))


def read_graphml(path) -> tuple[list[str], list[tuple[str, str]], dict[str, dict]]:
    """Node ids, directed edges and node attributes read back from GraphML."""
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.parse(path).getroot()
    key_names = {k.get("id"): k.get("attr.name") for k in root.findall("g:key", ns)}
    nodes, attrs = [], {}
    graph = root.find("g:graph", ns)
    for node in graph.findall("g:node", ns):
        node_id = node.get("id")
        nodes.append(node_id)
        attrs[node_id] = {key_names[d.get("key")]: d.text
                          for d in node.findall("g:data", ns)}
    edges = [(e.get("source"), e.get("target")) for e in graph.findall("g:edge", ns)]
    return nodes, edges, attrs
