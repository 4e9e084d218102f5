"""Research-front detection: modularity, greedy modularity clustering, and
the nested front hierarchy.

Clustering operates on an undirected graph — normally the simple projection
of the citation network (direction encodes time, not community membership),
or the weighted co-citation graph in co-citation mode, where weights replace
edge counts in the modularity sums.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Mapping

from . import _kernels
from .corpus import UGraph
from .errors import InsufficientDataError

log = logging.getLogger("ktmap.fronts")


@dataclass(frozen=True)
class Partition:
    """A flat assignment of nodes to fronts, with its modularity."""

    assignment: Mapping[str, int]
    q: float

    @property
    def n_fronts(self) -> int:
        return len(set(self.assignment.values()))

    def fronts(self) -> dict[int, tuple[str, ...]]:
        """Front id -> sorted member tuple."""
        groups: dict[int, list[str]] = {}
        for node, fid in self.assignment.items():
            groups.setdefault(fid, []).append(node)
        return {fid: tuple(sorted(members)) for fid, members in sorted(groups.items())}


def modularity(graph: UGraph, assignment: Mapping[str, int]) -> float:
    """Newman modularity Q = sum_s (e_ss - a_s^2) of a partition.

    e_ss is the fraction of edge weight inside front s and a_s the fraction
    of edge ends attached to s. Requires at least one edge and an assignment
    covering every node.
    """
    m = graph.total_weight
    if m <= 0.0:
        raise InsufficientDataError("modularity undefined on a graph with no edges")
    missing = [v for v in graph.ids if v not in assignment]
    if missing:
        raise ValueError(f"partition does not cover node {missing[0]!r}")
    return _modularity(m, [assignment[v] for v in graph.ids], *graph.edge_arrays())


def _modularity(m, labels, edge_u, edge_v, edge_w) -> float:
    """Q of the front labels (one per node index) over the edge arrays.

    Sums in edge-array order and then in sorted front order, so the same
    labels give the same bits whichever caller computes them.
    """
    internal: dict[int, float] = {}
    ends: dict[int, float] = {}
    for u, v, w in zip(edge_u, edge_v, edge_w):
        cu, cv = labels[u], labels[v]
        ends[cu] = ends.get(cu, 0.0) + w
        ends[cv] = ends.get(cv, 0.0) + w
        if cu == cv:
            internal[cu] = internal.get(cu, 0.0) + w
    q = 0.0
    for fid in sorted(ends):
        e_ss = internal.get(fid, 0.0) / m
        a_s = ends[fid] / (2.0 * m)
        q += e_ss - a_s * a_s
    return q


def fast_greedy(graph: UGraph) -> Partition:
    """Greedy agglomerative modularity maximization with local refinement.

    Starts from singleton fronts, repeatedly merges the pair of fronts with
    the largest modularity gain (ties broken by the lexicographically
    smallest front-id pair) and takes the cut of the merge sequence with
    maximal Q. The merge stage alone tends to strand a few peripheral nodes
    in the wrong front, so the cut is then refined, each phase only while Q
    strictly increases:

    - sweeps of single-node moves: nodes are visited in sorted id order and
      each moves to the neighboring front with the largest gain;
    - when a sweep moves nothing, a merge pass joins the adjacent pair of
      fronts with the largest merge gain, and sweeping resumes;
    - when no merge helps either, a Kernighan-Lin escape tries a short
      chain of best moves, each allowed to lose Q, and keeps its best
      prefix if that gains.

    Deterministic; isolated nodes end up as singleton fronts. Front ids are
    renumbered 1..K in order of each front's smallest member.
    """
    if graph.n_nodes == 0:
        raise InsufficientDataError("cannot cluster an empty graph")
    edge_u, edge_v, edge_w = graph.edge_arrays()
    if not edge_u:
        raise InsufficientDataError("cannot cluster a graph with no edges")

    comm = _refine_moves(graph, _merge_cut(graph.n_nodes, edge_u, edge_v, edge_w))

    labels = [0] * graph.n_nodes
    relabel: dict[int, int] = {}
    for idx in range(graph.n_nodes):
        label = comm[idx]
        if label not in relabel:
            relabel[label] = len(relabel) + 1
        labels[idx] = relabel[label]
    assignment = dict(zip(graph.ids, labels))
    # report the exactly recomputed Q rather than the incrementally
    # accumulated one
    q = _modularity(graph.total_weight, labels, edge_u, edge_v, edge_w)
    return Partition(assignment=assignment, q=q)


def _merge_cut(n_nodes, edge_u, edge_v, edge_w) -> list[int]:
    """Front label per node at the best-Q cut of the greedy merge sequence.

    A front's label is the index its merges were rooted at.
    """
    q0, merges, qs = _kernels.greedy_merge_seq(n_nodes, edge_u, edge_v, edge_w)

    best_q = q0
    best_step = 0
    for step, q in enumerate(qs, start=1):
        if q > best_q:
            best_q = q
            best_step = step

    members: list[list[int]] = [[i] for i in range(n_nodes)]
    for r, s in merges[:best_step]:
        members[r].extend(members[s])
        members[s] = []

    comm = [0] * n_nodes
    for root in range(n_nodes):
        for idx in members[root]:
            comm[idx] = root
    return comm


_REFINE_MAX_PASSES = 100
_REFINE_TOL = 1e-12
_KL_CHAIN = 8
_NEG_INF = float("-inf")


def _refine_moves(graph: UGraph, comm: list[int]) -> list[int]:
    """Q-improving refinement: single-node moves alternated with front merges.

    Nodes are visited in index (= sorted id) order; a node moves to the
    neighboring front with the largest strictly positive gain, ties broken
    by the smallest front label. When no move helps, adjacent front pairs
    with a strictly positive merge gain are merged (largest gain first,
    ties by smallest pair) and moving resumes; when no merge helps either,
    a Kernighan-Lin chain (``_Refinement.kl_escape``) gets one try. Q
    strictly increases throughout, so the loop terminates; the pass cap is
    a safety net, and hitting it is logged.

    Only boundary nodes (with a neighbor in another front) can move, and a
    node's weight to each front changes only when a neighbor moves, so
    each phase works on the boundary and recomputes a node's front weights
    only after a neighbor moved. Every sum is taken in the same order as a
    full rescan would take it, so the result is bit-identical to rescanning
    every node at every step, for any weights.
    """
    state = _Refinement(graph, comm)
    for _ in range(_REFINE_MAX_PASSES):
        if state.sweep():
            continue
        if state.merge_pass():
            continue
        if not state.kl_escape():
            break
    else:
        log.warning("front refinement stopped at the %d-pass cap on a "
                    "%d-node graph before converging", _REFINE_MAX_PASSES,
                    graph.n_nodes)
    return state.comm


class _Refinement:
    """A partition under refinement, with the caches that keep phases local.

    comm[i] is node i's front label and deg_sum[c] the weighted degree of
    front c. w_to[i] lists (front, weight) for each front adjacent to node
    i, sorted by front, the weight summed in adjacency order; it is None
    when a neighbor of i has moved since it was computed, and is refreshed
    at its next use. It does not depend on i's own front, so a move leaves
    the mover's entry valid. n_out[i] counts i's neighbors in other fronts:
    node i is on the boundary, and can move, iff n_out[i] > 0. A cached
    list is replaced, never mutated, so ``copy`` shares them (copy on
    write).
    """

    __slots__ = ("adj", "m", "two_m2", "wdeg", "comm", "deg_sum", "w_to",
                 "n_out")

    def __init__(self, graph: UGraph, comm: list[int]):
        self.adj = graph.adj
        self.m = graph.total_weight
        self.two_m2 = 2.0 * self.m * self.m
        self.wdeg = [sum(nbrs.values()) for nbrs in self.adj]
        self.comm = comm
        self.deg_sum: dict[int, float] = {}
        for idx in range(len(comm)):
            self.deg_sum[comm[idx]] = self.deg_sum.get(comm[idx], 0.0) + self.wdeg[idx]
        self.w_to: list[dict[int, float] | None] = [None] * len(comm)
        self.n_out = [sum(1 for j in nbrs if comm[j] != comm[i])
                      for i, nbrs in enumerate(self.adj)]

    def copy(self) -> "_Refinement":
        """A trial state that can be thrown away; shares the cached lists."""
        new = object.__new__(_Refinement)
        new.adj, new.m, new.two_m2, new.wdeg = self.adj, self.m, self.two_m2, self.wdeg
        new.comm = list(self.comm)
        new.deg_sum = dict(self.deg_sum)
        new.w_to = list(self.w_to)
        new.n_out = list(self.n_out)
        return new

    def best_move(self, idx: int, floor: float) -> tuple[float, int | None]:
        """Best relocation of node idx to a neighboring front.

        Returns (gain, target) with target None when nothing beats `floor`.
        """
        fronts = self.w_to[idx]
        comm = self.comm
        if fronts is None:
            w_to: dict[int, float] = {}
            for nbr, w in self.adj[idx].items():
                w_to[comm[nbr]] = w_to.get(comm[nbr], 0.0) + w
            fronts = self.w_to[idx] = sorted(w_to.items())
        own = comm[idx]
        w_own = 0.0
        for front, w in fronts:
            if front == own:
                w_own = w
                break
        k = self.wdeg[idx]
        m, deg_sum = self.m, self.deg_sum
        rest = deg_sum[own] - k
        best_gain = floor
        best_target = None
        for target, w in fronts:
            if target == own:
                continue
            # Q change of moving idx from `own` to `target`
            gain = (w - w_own) / m - k * (deg_sum[target] - rest) / self.two_m2
            if gain > best_gain:
                best_gain = gain
                best_target = target
        return best_gain, best_target

    def move(self, idx: int, target: int) -> None:
        """Move node idx to front `target`, updating the caches it affects."""
        comm, n_out, w_to = self.comm, self.n_out, self.w_to
        own = comm[idx]
        self.deg_sum[own] -= self.wdeg[idx]
        self.deg_sum[target] += self.wdeg[idx]
        comm[idx] = target
        out = 0
        for nbr in self.adj[idx]:
            w_to[nbr] = None
            front = comm[nbr]
            if front == own:
                n_out[nbr] += 1
                out += 1
            elif front == target:
                n_out[nbr] -= 1
            else:
                out += 1
        n_out[idx] = out

    def sweep(self) -> bool:
        """One pass of Q-improving moves in index order; True if any moved.

        A node off the boundary has no target, so it is skipped; the
        boundary is read as it stands when each node's turn comes.
        """
        moved = False
        n_out = self.n_out
        for idx in range(len(n_out)):
            if not n_out[idx]:
                continue
            _, target = self.best_move(idx, _REFINE_TOL)
            if target is not None:
                self.move(idx, target)
                moved = True
        return moved

    def kl_escape(self) -> bool:
        """Kernighan-Lin style escape from single-move local maxima.

        Builds a short chain of tentative moves on a trial copy (each the
        best available move of an unlocked node even if it loses
        modularity, the moved node then locked; the best is the minimum of
        (-gain, idx, target) over the unlocked boundary) and replays the
        chain prefix with the largest cumulative gain if strictly positive;
        otherwise the trial is dropped. Deterministic and Q-increasing, so
        the caller may loop on it safely.
        """
        trial = self.copy()
        locked: set[int] = set()
        moves: list[tuple[int, int]] = []  # idx, new front
        gains: list[float] = []
        total = 0.0
        for _ in range(min(_KL_CHAIN, len(self.comm))):
            step_best = None  # (-gain, idx, target)
            for idx, out in enumerate(trial.n_out):
                if not out or idx in locked:
                    continue
                gain, target = trial.best_move(idx, _NEG_INF)
                if target is None:
                    continue
                key = (-gain, idx, target)
                if step_best is None or key < step_best:
                    step_best = key
            if step_best is None:
                break
            gain, idx, target = -step_best[0], step_best[1], step_best[2]
            moves.append((idx, target))
            trial.move(idx, target)
            locked.add(idx)
            total += gain
            gains.append(total)

        best_prefix = 0
        best_total = _REFINE_TOL
        for i, cum in enumerate(gains, start=1):
            if cum > best_total:
                best_total = cum
                best_prefix = i
        for idx, target in moves[:best_prefix]:
            self.move(idx, target)
        return best_prefix > 0

    def merge_pass(self) -> bool:
        """Merge the adjacent front pair with the largest positive Q gain.

        Merge gain of fronts (r, s): w_rs / m - 2 a_r a_s. w_rs sums the
        edges between r and s in (lower endpoint, adjacency) order; both
        ends of such an edge are on the boundary. Returns whether a merge
        happened.
        """
        comm, adj, m, n_out = self.comm, self.adj, self.m, self.n_out
        w_between: dict[tuple[int, int], float] = {}
        for i in range(len(comm)):
            if not n_out[i]:
                continue
            ci = comm[i]
            for j, w in adj[i].items():
                if j > i and comm[j] != ci:
                    key = (min(ci, comm[j]), max(ci, comm[j]))
                    w_between[key] = w_between.get(key, 0.0) + w

        best_gain = _REFINE_TOL
        best_pair = None
        deg_sum = self.deg_sum
        for (r, s), w in sorted(w_between.items()):
            gain = w / m - 2.0 * (deg_sum[r] / (2.0 * m)) * (deg_sum[s] / (2.0 * m))
            if gain > best_gain or (gain == best_gain and best_pair is not None
                                    and (r, s) < best_pair):
                best_gain = gain
                best_pair = (r, s)
        if best_pair is None:
            return False
        r, s = best_pair
        members = [idx for idx in range(len(comm)) if comm[idx] == s]
        for idx in members:
            for nbr in adj[idx]:
                self.w_to[nbr] = None
                if comm[nbr] == r:  # an edge between r and s turns internal
                    n_out[idx] -= 1
                    n_out[nbr] -= 1
        for idx in members:
            comm[idx] = r
        deg_sum[r] += deg_sum.pop(s)
        return True


@dataclass(frozen=True)
class FrontNode:
    """One front in the hierarchy; the root is the whole corpus (level 1)."""

    path: tuple[int, ...]
    members: tuple[str, ...]
    q_split: float | None = None
    children: tuple["FrontNode", ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def level(self) -> int:
        return len(self.path) + 1

    def walk(self) -> Iterator["FrontNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class FrontTree:
    """Nested partition of the corpus into research fronts, level 1..depth."""

    root: FrontNode
    max_depth: int
    min_front_size: int
    min_q_gain: float

    def depth(self) -> int:
        return max(node.level for node in self.root.walk())

    def fronts_at(self, level: int) -> list[FrontNode]:
        """Fronts exactly at a level; nodes in shallower leaves stay in those
        leaves, so levels > 2 need not cover the corpus."""
        return [node for node in self.root.walk() if node.level == level]

    def node_paths(self) -> dict[str, tuple[int, ...]]:
        """Deepest front path per node (components are level 2..d front ids)."""
        paths: dict[str, tuple[int, ...]] = {}
        for node in self.root.walk():
            if node.is_leaf:
                for member in node.members:
                    paths[member] = node.path
        return paths

    def level_assignment(self, level: int) -> dict[str, int]:
        """Flat node -> front-id map obtained by truncating paths at a level.

        Nodes whose deepest front is shallower than `level` keep that front.
        Front ids are dense integers, deterministic across runs.
        """
        prefixes: dict[str, tuple[int, ...]] = {}
        for node, path in self.node_paths().items():
            prefixes[node] = path[: level - 1]
        ids = {prefix: i + 1 for i, prefix in enumerate(sorted(set(prefixes.values())))}
        return {node: ids[prefix] for node, prefix in prefixes.items()}

    def path_strings(self) -> dict[str, str]:
        return {node: ".".join(str(c) for c in path) if path else "1"
                for node, path in self.node_paths().items()}


def hierarchical_fronts(graph: UGraph, max_depth: int = 4,
                        min_front_size: int = 10,
                        min_q_gain: float = 0.05) -> FrontTree:
    """Detect nested research fronts by recursive greedy clustering.

    Level 2 is the flat clustering of the whole graph; every front of size
    >= min_front_size is then re-clustered on its induced subgraph, and the
    child partition is kept only if it is non-trivial and its Q is at least
    min_q_gain. Recursion stops at max_depth levels (the root counts as
    level 1). Isolated nodes become singleton leaf fronts.
    """
    if max_depth < 2:
        raise ValueError("max_depth must be >= 2")
    if graph.n_nodes == 0 or graph.n_edges == 0:
        raise InsufficientDataError("cannot cluster a graph with no edges")

    def split(members: tuple[str, ...], path: tuple[int, ...],
              level: int) -> tuple[float | None, tuple[FrontNode, ...]]:
        sub = graph.subgraph(members) if path else graph
        if sub.n_edges == 0:
            return None, ()
        part = fast_greedy(sub)
        if path and (part.n_fronts < 2 or part.q < min_q_gain):
            return None, ()
        children = []
        for child_no, (fid, front_members) in enumerate(part.fronts().items(), start=1):
            child_path = path + (child_no,)
            if len(front_members) >= min_front_size and level + 1 < max_depth:
                q_split, grandchildren = split(front_members, child_path, level + 1)
            else:
                q_split, grandchildren = None, ()
            children.append(FrontNode(path=child_path, members=front_members,
                                      q_split=q_split, children=grandchildren))
        return part.q, tuple(children)

    all_ids = tuple(sorted(graph.ids))
    q_top, children = split(all_ids, (), 1)
    root = FrontNode(path=(), members=all_ids, q_split=q_top, children=children)
    return FrontTree(root=root, max_depth=max_depth,
                     min_front_size=min_front_size, min_q_gain=min_q_gain)
