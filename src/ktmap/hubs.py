"""Translational hubs and the SPC main path.

Hubs are operationalized as nodes passing four filters — high degree, low
clustering, high participation across fronts, and a wide span of mean
translational score over the fronts they bridge — ranked by the
multiplicative score P * t_spread * (k / k_max). Hub regions are the
connected components of the subgraph induced by accepted candidates.

The main path is the greedy search-path-count (SPC) walk: each edge of the
acyclic reduction is weighted by the number of source-to-sink paths through
it (exact big-integer counts), and the path follows maximal-SPC edges from
the strongest source edge.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping

from .axis import front_mean
from .corpus import CitationNetwork, UGraph
from .errors import InsufficientDataError
from .metrics import clustering_by_index, front_labels, participation

log = logging.getLogger("ktmap.hubs")


@dataclass(frozen=True)
class HubConfig:
    """Filter thresholds for hub detection.

    c_max=None means "the median defined clustering coefficient of the
    graph"; a node with undefined c (degree < 2) is treated as c = 0.
    A NaN bound is rejected: it would switch its filter off.
    """

    degree_pct: float = 0.90
    c_max: float | None = None
    p_min: float = 0.3
    t_spread_min: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.degree_pct <= 1.0:
            raise ValueError("degree_pct must lie in [0, 1]")
        if not 0.0 <= self.p_min <= 1.0:
            raise ValueError("p_min must lie in [0, 1]")
        if self.c_max is not None and not 0.0 <= self.c_max <= 1.0:
            raise ValueError("c_max must lie in [0, 1] or be None")
        if not 0.0 <= self.t_spread_min < math.inf:
            raise ValueError("t_spread_min must be finite and >= 0")


@dataclass(frozen=True)
class HubCandidate:
    """A node passing all hub filters, with its rank."""

    id: str
    k: int
    c: float | None
    p: float
    bridged_fronts: tuple[int, ...]
    t_spread: float
    hub_score: float
    rank: int


def detect_translational_hubs(graph: UGraph,
                              partition: Mapping[str, int],
                              scores: Mapping[str, float | None],
                              config: HubConfig = HubConfig()) -> list[HubCandidate]:
    """Rank the nodes of `graph` bridging fronts across the basic-clinical
    axis.

    Candidates must have degree at or above the degree_pct quantile,
    clustering coefficient <= c_max, participation >= p_min, and a spread
    of bridged-front mean scores >= t_spread_min. Returns an empty list
    when nothing qualifies.

    Each front's mean T sums its members in the partition's iteration
    order: for ``fronts.level_assignment``'s map, by deepest front path and
    then by id. The report's fronts table sums the same level-2 fronts in
    id order; the two can differ in the last bits, and both reach the
    report bytes.
    """
    ids, adj = graph.ids, graph.adj
    labels = front_labels(graph, partition)
    missing = next((v for v in ids if v not in scores), None)
    if missing is not None:
        raise ValueError(f"scores do not cover node {missing!r}")

    degrees = sorted(map(len, adj))
    k_max = degrees[-1]
    if k_max == 0:
        return []
    k_threshold = sorted_quantile(degrees, config.degree_pct)

    cs = clustering_by_index(graph)
    defined_c = sorted(c for c in cs if c is not None)
    c_max = config.c_max
    if c_max is None:
        c_max = sorted_median(defined_c) if defined_c else 0.0

    members: dict[int, list[str]] = {}
    for node, fid in partition.items():
        members.setdefault(fid, []).append(node)
    front_means = {fid: front_mean(nodes, scores)[0] for fid, nodes in members.items()}

    accepted = []
    for i, nbrs in enumerate(adj):
        k = len(nbrs)
        if k < k_threshold or k == 0:
            continue
        c = cs[i]
        if (c if c is not None else 0.0) > c_max:
            continue
        p, per_front = participation(nbrs, labels)
        if p < config.p_min:
            continue
        bridged = sorted(per_front)
        bridged_means = [front_means[fid] for fid in bridged
                         if front_means[fid] is not None]
        if len(bridged_means) < 2:
            continue  # t_spread undefined
        t_spread = max(bridged_means) - min(bridged_means)
        if t_spread < config.t_spread_min:
            continue
        score = p * t_spread * (k / k_max)
        accepted.append(HubCandidate(id=ids[i], k=k, c=c, p=p,
                                     bridged_fronts=tuple(bridged),
                                     t_spread=t_spread, hub_score=score,
                                     rank=0))

    accepted.sort(key=lambda h: (-h.hub_score, h.id))
    return [replace(h, rank=rank)
            for rank, h in enumerate(accepted, start=1)]


def sorted_quantile(values: list, q: float) -> float:
    """The q-quantile of an ascending list, equal bit for bit to
    ``np.quantile(values, q)`` with its default 'linear' method.

    numpy takes the virtual index (n - 1) * q, clamps it to the last
    element, and interpolates between its two neighbours a and b from
    whichever end is nearer: a + (b - a) * t below t = 0.5, b - (b - a) *
    (1 - t) from there on. The same operations are done on floats here.
    Unlike np.quantile, this does not import numpy.ma.
    """
    n = len(values)
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return float(values[-1])
    lo = math.floor(virtual)
    a, b = values[lo], values[lo + 1]
    t = virtual - lo
    diff = b - a
    if t >= 0.5:
        return float(b - diff * (1 - t))
    return float(a + diff * t)


def sorted_median(values: list) -> float:
    """``np.median(values)`` of a non-empty ascending list, bit for bit:
    the middle value, or the mean of the two middle values."""
    half = len(values) // 2
    if len(values) % 2:
        return float(values[half])
    return (values[half - 1] + values[half]) / 2


def hub_regions(graph: UGraph,
                hubs: list[HubCandidate]) -> list[tuple[str, ...]]:
    """Connected components of the hub-induced subgraph of `graph`, as
    sorted tuples of ids, in the order of their smallest ids."""
    hub_ids = {h.id for h in hubs}
    unreached = [v in hub_ids for v in graph.ids]  # hubs not yet in a region
    regions = []
    for start in range(graph.n_nodes):
        if not unreached[start]:
            continue
        unreached[start] = False
        component = [start]
        for v in component:  # grows while it is walked: breadth-first
            for u in graph.adj[v]:
                if unreached[u]:
                    unreached[u] = False
                    component.append(u)
        regions.append(tuple(sorted(graph.ids[v] for v in component)))
    return sorted(regions)


# -- main path ---------------------------------------------------------------


@dataclass(frozen=True)
class MainPath:
    """Greedy maximal-SPC walk through the acyclic citation graph."""

    nodes: tuple[str, ...]
    spc: tuple[int, ...]
    removed_edges: tuple[tuple[str, str], ...] = ()


def acyclic_reduction(net: CitationNetwork) -> tuple[list[tuple[str, str]],
                                                     list[tuple[str, str]]]:
    """Citation edges with cycles removed, plus the removed edges.

    Edges pointing from an older to a strictly newer year (anti-chronological
    citations) are dropped first. Each remaining cycle is broken by deleting
    the lexicographically largest (tail, head) edge inside its strongly
    connected component (SCC), repeating inside every SCC that still has a
    cycle until the graph is acyclic. Deterministic.

    Deleting an edge can only split an SCC, and an edge between two SCCs
    stays between two, so each SCC is reduced on its own. Tarjan runs once
    over the whole graph; each cyclic SCC then gets an out-tree and an
    in-tree of reachability from its smallest node, its root (Even &
    Shiloach 1981). Deleting the victim (u, v) leaves the SCC whole unless
    (u, v) is v's parent edge in the out-tree or u's in the in-tree; then
    the cut-off subtree is re-hung through edges from the nodes still
    attached. The nodes left unattached in either tree are exactly those
    that left the root's SCC, and Tarjan runs on them alone. The root's
    part keeps its trees and its sorted edge list, skipping the edges that
    now cross parts.

    Returns the kept edges in input order, and the removed edges: the
    anti-chronological ones in input order, then the cycle edges in the
    order they were broken. The victims of one SCC come out in descending
    (tail, head) order. The root's part is reduced to acyclic before the
    parts it splits off, and those wait on a stack: the last part found is
    reduced first.
    """
    succ, _, removed = _reduce(net)
    ids, n = net.ids, net.n_docs
    return ([(ids[u], ids[v]) for u, cited in enumerate(succ) for v in cited],
            [(ids[code // n], ids[code % n]) for code in removed])


def _reduce(net: CitationNetwork) -> tuple[list, list, list[int]]:
    """acyclic_reduction on node indices: the kept edges as ascending
    successor and predecessor lists, and the codes u * n + v of the removed
    edges in acyclic_reduction's order. The lists are the network's own
    out_adj and in_adj when nothing is removed, else copies; callers must
    not change them."""
    ids, n, years = net.ids, net.n_docs, net.years
    succ, pred = net.out_adj, net.in_adj
    removed = [u * n + v for u, cited in enumerate(succ) if years[u] is not None
               for v in cited if years[v] is not None and years[u] < years[v]]
    if removed:
        log.warning("dropped %d anti-chronological citation edge(s)", len(removed))
        succ, pred = _without(succ, pred, removed)

    broken, counts = _break_cycles(succ, pred)
    if log.isEnabledFor(logging.DEBUG):
        counts = {"anti_chronological": len(removed), **counts}
        log.debug("cycle breaking: %(anti_chronological)d anti-chronological "
                  "edge(s) dropped, %(sccs)d cyclic SCC(s), %(deletions)d "
                  "deletions (%(settled)d settled with no re-hang), "
                  "%(rehangs)d re-hangs visiting %(orphans)d orphaned nodes, "
                  "%(splits)d splits handing %(tarjan_nodes)d nodes to Tarjan",
                  counts, extra={"cycles": counts})
    if broken:
        log.warning("broke citation cycles by removing %d edge(s), e.g. %s",
                    len(broken), ", ".join(str((ids[code // n], ids[code % n]))
                                           for code in broken[:3]))
        succ, pred = _without(succ, pred, broken)
    return succ, pred, removed + broken


def _without(succ: list, pred: list, codes: list[int]) -> tuple[list, list]:
    """Copies of the successor and predecessor lists without the edges
    u * n + v in `codes`."""
    n, cut = len(succ), set(codes)
    return ([[v for v in row if u * n + v not in cut] for u, row in enumerate(succ)],
            [[u for u in row if u * n + v not in cut] for v, row in enumerate(pred)])


def _break_cycles(succ: list, pred: list) -> tuple[list[int], dict[str, int]]:
    """The codes u * n + v of the cycle edges acyclic_reduction deletes, in
    the order it deletes them, from the graph on nodes 0..n-1 with the
    successor lists `succ` and predecessor lists `pred`, which it only
    reads, and the counts of the work done.

    Nodes are numbered in sorted id order, so the codes of two edges
    compare as their (tail, head) ids do.
    """
    n = len(succ)
    comp = [0] * n  # SCC label per node; every new part gets a fresh label
    fresh = itertools.count(1)

    def relabel(part: list[int]) -> None:
        label = next(fresh)
        for x in part:
            comp[x] = label

    work = []  # cyclic SCCs not yet reduced
    for part in _tarjan(range(n), succ, comp, 0):
        relabel(part)
        if len(part) > 1:
            work.append(part)
    counts = dict.fromkeys(("sccs", "deletions", "settled", "rehangs",
                            "orphans", "splits", "tarjan_nodes"), 0)
    counts["sccs"] = len(work)
    if not work:
        return [], counts

    # deletions shrink the rows of the cyclic SCCs' nodes, copied to sets;
    # every walk from here on stays inside a part and reads no other row
    succ, pred = list(succ), list(pred)
    for x in itertools.chain.from_iterable(work):
        succ[x], pred[x] = set(succ[x]), set(pred[x])

    # Per SCC, an out-tree (paths from the root) and an in-tree (paths to
    # it): a parent and the children per node. A children list may hold
    # stale entries; x is a child of p only while parent[x] == p.
    out_parent, in_parent = [-1] * n, [-1] * n
    out_children: list[list[int]] = [[] for _ in range(n)]
    in_children: list[list[int]] = [[] for _ in range(n)]
    out_tree = (out_parent, out_children, succ, pred)
    in_tree = (in_parent, in_children, pred, succ)
    # mark[x] == s: x waits to be hung in the tree being (re)built with stamp s
    mark = [0] * n
    stamps = itertools.count(1)

    def grow(todo: list[int], tree, s: int) -> None:
        parent, children, down, _ = tree
        for x in todo:  # grows while it is walked
            for y in down[x]:
                if mark[y] == s:
                    mark[y] = 0
                    parent[y] = x
                    children[x].append(y)
                    todo.append(y)

    def plant(part: list[int], root: int, tree) -> None:
        parent, children, _, _ = tree
        s = next(stamps)
        for x in part:
            mark[x] = s
            children[x] = []
        mark[root] = 0
        parent[root] = -1  # not a parent left from an earlier, larger SCC
        grow([root], tree, s)

    def rehang(top: int, tree, label: int) -> list[int]:
        """Re-hang the subtree of top, whose parent edge was deleted, from
        nodes outside it; returns the nodes that stay unattached."""
        parent, children, _, up = tree
        s = next(stamps)
        mark[top] = s
        orphans = [top]
        for x in orphans:  # grows while it is walked
            for c in children[x]:
                if parent[c] == x and mark[c] != s and comp[c] == label:
                    mark[c] = s
                    orphans.append(c)
            children[x] = []
        for x in orphans:
            if mark[x] != s:
                continue  # hung by an earlier grow
            for w in up[x]:
                if mark[w] != s and comp[w] == label:
                    mark[x] = 0
                    parent[x] = w
                    children[w].append(x)
                    grow([x], tree, s)
                    break
        counts["rehangs"] += 1
        counts["orphans"] += len(orphans)
        return [x for x in orphans if mark[x] == s]

    broken = []
    hung = 0  # deletions that cut a tree edge
    while work:
        part = work.pop()
        root = min(part)
        label = comp[root]
        size = len(part)
        codes = sorted(x * n + y for x in part for y in succ[x] if comp[y] == label)
        plant(part, root, out_tree)
        plant(part, root, in_tree)
        while size > 1:
            code = codes.pop()
            while comp[code // n] != label or comp[code % n] != label:
                code = codes.pop()  # crosses an earlier split
            u, v = divmod(code, n)
            succ[u].discard(v)
            pred[v].discard(u)
            broken.append(code)
            cut_out, cut_in = out_parent[v] == u, in_parent[u] == v
            if not (cut_out or cut_in):
                continue  # both trees intact: the SCC is whole
            hung += 1
            gone = rehang(v, out_tree, label) if cut_out else []
            if cut_in:
                gone += rehang(u, in_tree, label)
            if not gone:
                continue
            # the nodes left unattached are those no longer in root's SCC
            split_label = next(fresh)
            split = []
            for x in gone:
                if comp[x] == label:
                    comp[x] = split_label
                    split.append(x)
            size -= len(split)
            counts["splits"] += 1
            counts["tarjan_nodes"] += len(split)
            for p in _tarjan(split, succ, comp, split_label):
                relabel(p)
                if len(p) > 1:
                    work.append(p)
    counts["deletions"] = len(broken)
    counts["settled"] = len(broken) - hung
    return broken, counts


def _tarjan(nodes, succ: list, comp: list[int],
            label: int) -> list[list[int]]:
    """SCCs of the subgraph induced by the nodes labelled `label`, found from
    the given roots (Tarjan's algorithm, iterative)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if comp[w] != label:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return sccs


def _path_counts(succ: list, pred: list) -> tuple[list[int], list[int]]:
    """Per node of an acyclic graph, the number of paths into it from any
    source and the number out of it to any sink (Batagelj 2003): the SPC
    of the edge u -> v is n_from[u] * n_to[v]."""
    order = _topo_order(succ, pred)
    n_from = [1] * len(succ)
    for v in order:
        if pred[v]:
            n_from[v] = sum(map(n_from.__getitem__, pred[v]))
    n_to = [1] * len(succ)
    for v in reversed(order):
        if succ[v]:
            n_to[v] = sum(map(n_to.__getitem__, succ[v]))
    return n_from, n_to


def _topo_order(succ: list[list[int]], pred: list[list[int]]) -> list[int]:
    """A topological order of the nodes (Kahn's algorithm). Path counts are
    exact ints, so any order gives the same counts."""
    indeg = list(map(len, pred))
    order = [v for v, d in enumerate(indeg) if d == 0]
    for v in order:
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != len(succ):
        raise AssertionError("graph not acyclic after reduction")
    return order


def main_path(net: CitationNetwork) -> MainPath:
    """Greedy forward walk along maximal-SPC edges.

    Starts from the source edge of maximal SPC (a source has no incoming
    edge in the reduction); at each step follows the maximal-SPC outgoing
    edge, ties broken by the smallest head id. Ends at a node with no
    outgoing edges. Nodes are indices into the sorted ids, so comparing
    indices compares ids.
    """
    if net.n_edges == 0:
        raise InsufficientDataError("main path undefined: graph has no edges")
    succ, pred, removed = _reduce(net)
    if len(removed) == net.n_edges:
        raise InsufficientDataError(
            "main path undefined: no edges left after cycle removal")
    n_from, n_to = _path_counts(succ, pred)

    # max keeps the first of equal keys, and the edges and the heads of
    # each row come ascending: ties go to the smallest (tail, head) or head
    path = list(max(((u, v) for u, cited in enumerate(succ) if not pred[u]
                     for v in cited), key=lambda e: n_from[e[0]] * n_to[e[1]]))
    while succ[path[-1]]:  # all out-edges share the factor n_from[path[-1]]
        path.append(max(succ[path[-1]], key=n_to.__getitem__))
    ids, n = net.ids, net.n_docs
    return MainPath(nodes=tuple(ids[v] for v in path),
                    spc=tuple(n_from[u] * n_to[v] for u, v in zip(path, path[1:])),
                    removed_edges=tuple((ids[code // n], ids[code % n])
                                        for code in removed))
