"""Research-front detection: modularity, greedy modularity clustering, and
the nested front hierarchy.

Clustering operates on an undirected graph — normally the simple projection
of the citation network (direction encodes time, not community membership),
or the weighted co-citation graph in co-citation mode, where weights replace
edge counts in the modularity sums.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from . import _kernels
from .corpus import UGraph
from .errors import InsufficientDataError

log = logging.getLogger("ktmap.fronts")


@dataclass(frozen=True)
class Partition:
    """A flat partition of a graph's nodes into fronts, with its modularity:
    labels[i] is node i's front, numbered 1..K in order of each front's
    smallest node index."""

    labels: list[int]
    q: float

    @property
    def n_fronts(self) -> int:
        return max(self.labels)

    def fronts(self) -> list[tuple[int, ...]]:
        """Ascending member indices of each front, front 1 first."""
        groups: list[list[int]] = [[] for _ in range(self.n_fronts)]
        for idx, label in enumerate(self.labels):
            groups[label - 1].append(idx)
        return list(map(tuple, groups))


def modularity(graph: UGraph, labels: Sequence[int]) -> float:
    """Newman modularity Q = sum_s (e_ss - a_s^2) of a partition.

    e_ss is the fraction of edge weight inside front s and a_s the fraction
    of edge ends attached to s. Requires at least one edge and one front
    label per node index.
    """
    m = graph.total_weight
    if m <= 0.0:
        raise InsufficientDataError("modularity undefined on a graph with no edges")
    if len(labels) != graph.n_nodes:
        raise ValueError(f"{len(labels)} front labels for {graph.n_nodes} nodes")
    return _modularity(m, labels, *graph.edge_arrays())


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

    - sweeps of single-node moves: nodes are visited in index order (the
      sorted id order of every graph the report builds) and each moves to
      the neighboring front with the largest gain;
    - when a sweep moves nothing, a merge pass joins the adjacent pair of
      fronts with the largest merge gain, and sweeping resumes;
    - when no merge helps either, a Kernighan-Lin escape tries a short
      chain of best moves, each allowed to lose Q, and keeps its best
      prefix if that gains.

    Refinement evaluates a node only when it might move: each node keeps
    its last best gain, and a move elsewhere shifts that gain by a bounded
    amount, so a sweep or a chain step skips nodes whose bound cannot win
    (``_Refinement``). The moves are exactly those of evaluating every node.
    Weights whose total m is so small or large that m or 2 m^2 would leave
    the float range are scaled by a power of two first, for the merge, the
    refinement and Q alike (``_in_range``). One DEBUG record per call
    counts sweeps, merges, KL chains, evaluations and skips.

    Deterministic; isolated nodes end up as singleton fronts. Front labels
    are renumbered 1..K in order of each front's smallest node index.
    """
    if graph.n_nodes == 0:
        raise InsufficientDataError("cannot cluster an empty graph")
    if not any(graph.adj):
        raise InsufficientDataError("cannot cluster a graph with no edges")
    graph = _in_range(graph)
    edge_u, edge_v, edge_w = graph.edge_arrays()

    comm = _refine_moves(graph, _merge_cut(graph.n_nodes, edge_u, edge_v, edge_w))

    relabel: dict[int, int] = {}
    labels = [relabel.setdefault(label, len(relabel) + 1) for label in comm]
    # report the exactly recomputed Q rather than the incrementally
    # accumulated one
    q = _modularity(graph.total_weight, labels, edge_u, edge_v, edge_w)
    return Partition(labels=labels, q=q)


def _in_range(graph: UGraph) -> UGraph:
    """graph, or a copy with every weight scaled by the same power of two
    when its total weight m overflows or its binary exponent is beyond
    +-_SCALE_EXP.

    The copy's largest weight is in [1/2, 1), so its m lies between 1/2 and
    the edge count. Scaling by a power of two is exact, and the merge
    keys, the refinement gains and Q are all ratios of weights, so the
    result is that of the unscaled graph computed in a float range wide
    enough for it. A graph in range is returned as it is and keeps its bits.
    """
    m = graph.total_weight
    if m < _INF and abs(math.frexp(m)[1]) <= _SCALE_EXP:
        return graph
    exp = -math.frexp(max(max(nbrs.values(), default=0.0) for nbrs in graph.adj))[1]
    return UGraph._trusted(graph.ids, [{j: math.ldexp(w, exp) for j, w in nbrs.items()}
                                       for nbrs in graph.adj])


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
_INF = float("inf")
# a graph whose total weight m lies outside 2**-256 .. 2**256 is clustered
# with its weights scaled by a power of two, so that 2 m^2 stays a normal float
_SCALE_EXP = 256
# rounding slack added to a cached best gain, in units of k / m (128 ulps)
_GAIN_SLACK = 2.0 ** -46
# binary exponent of the drift quantum relative to m's
_DRIFT_QUANTUM_EXP = -40


def _refine_moves(graph: UGraph, comm: list[int]) -> list[int]:
    """Q-improving refinement: single-node moves alternated with front merges.

    Nodes are visited in index order, which is sorted id order only where
    the graph's ids are sorted, as in every graph the report builds; a node
    moves to the neighboring front with the largest strictly positive gain,
    ties broken by the smallest front label. When no move helps, adjacent
    front pairs with a strictly positive merge gain are merged (largest
    gain first, ties by smallest pair) and moving resumes; when no merge
    helps either, a Kernighan-Lin chain (``_Refinement.kl_escape``) gets
    one try. Q strictly increases throughout, so the loop terminates; the
    pass cap is a safety net, and hitting it is logged. The graph's total
    weight must lie within 2**+-_SCALE_EXP (``_in_range``).

    Only boundary nodes (with a neighbor in another front) can move, and a
    node's weight to each front changes only when a neighbor moves, so
    each phase works on the boundary and recomputes a node's front weights
    only after a neighbor moved. A node whose cached best gain, widened by
    the weight moved since, provably cannot win is not evaluated at all
    (``_Refinement``). Every sum is taken in the same order as a full
    rescan would take it, so the result is bit-identical to rescanning
    every node at every step, for any weights in that range.

    Logs one DEBUG record with the phase counts, also as the record's
    ``refine`` dict.
    """
    state = _Refinement(graph, comm)
    sweeps = merges = chains = accepted = 0
    capped = False
    for _ in range(_REFINE_MAX_PASSES):
        sweeps += 1
        if state.sweep():
            continue
        if state.merge_pass():
            merges += 1
            continue
        chains += 1
        if not state.kl_escape():
            break
        accepted += 1
    else:
        capped = True
        log.warning("front refinement stopped at the %d-pass cap on a "
                    "%d-node graph before converging", _REFINE_MAX_PASSES,
                    graph.n_nodes)
    if log.isEnabledFor(logging.DEBUG):
        counts = {"nodes": graph.n_nodes, "sweeps": sweeps,
                  "merge_passes": merges + chains, "merges": merges,
                  "kl_chains": chains, "kl_accepted": accepted,
                  "evaluations": state.evals, "skips": state.skips,
                  "pass_cap_hit": capped}
        log.debug("refined a %(nodes)d-node graph: %(sweeps)d sweeps, "
                  "%(merge_passes)d merge passes (%(merges)d merged), "
                  "%(kl_chains)d KL chains (%(kl_accepted)d accepted), "
                  "%(evaluations)d best-move evaluations, %(skips)d sweep "
                  "skips by the drift bound, pass cap hit: %(pass_cap_hit)s",
                  counts, extra={"refine": counts})
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

    Drift bound. gain[i] is node i's best move gain at its last evaluation
    plus a rounding slack, and at[i] the value of ``drift``, the running
    total of moved weight, at that moment. gain[i] is +inf once that value
    no longer bounds anything: when i changed front, or a neighbor of i did
    (w_to[i] turned None), by a move or a merge pass. Otherwise the weights
    from i to each front are unchanged, and a move of node j changes only
    deg_sum at j's old and new front, by k_j each, so the gain of moving i
    to any front (see ``best_move``) changes by at most k_i k_j / m^2 (when
    j leaves i's front for the target). A merge pass of front s into r
    changes only deg_sum[r], by D = deg_sum[s]: that moves either i's own
    front's rest or one target's deg_sum, so each gain of i by at most
    k_i D / (2 m^2), and the merge adds D to drift like a move of weight D.
    Hence i's best gain now is at most gain[i] + ks[i] * (drift - at[i]),
    with ks[i] = k_i / m^2; a sweep skips i when that cannot exceed
    _REFINE_TOL, and a Kernighan-Lin step when it is below the best gain
    found.

    Rounding slack (u = 2**-53; w_to entries are at most k_i and deg_sum
    entries at most 2m). The k w / m part of a gain is rounded twice on a
    value at most k/m, the deg_sum part four times on a value at most k/m
    after two subtractions of values at most 2m, and the difference once,
    so every computed gain is within 10 u k/m of its exact value on the
    current floats. A skip compares the cached evaluation, the current one
    it stands for, the slack added to the first and at most three float
    additions forming the bound (3u k/m each, plus u of the drift term):
    under 40 u k/m, against the slack _GAIN_SLACK k/m = 128 u k/m. A move
    also rounds two deg_sum updates by up to 2um each, worth 2u k/m of
    gain, and a merge pass one, worth u k/m. So a move adds k_j to drift,
    and a merge D, rounded up to a multiple of the quantum q = 2**(e - 40),
    where m < 2**e, plus one more q: q >= 2**-40 m covers those roundings
    and the relative roundings of ks[i] and of the drift term (4u of
    k_i k_j / m^2 or of k_i D / m^2, k_j <= m, D <= 2m) many times over.
    Sums of multiples of q stay exact below 2**53 q >= 2**13 m, and drift
    stays far below that (at most 100 passes, each moving or merging at
    most 10 m of weight), so drift - at[i] is exact.
    """

    __slots__ = ("adj", "m", "two_m2", "wdeg", "comm", "deg_sum", "w_to",
                 "n_out", "ks", "ks_max", "slack_m", "quantum", "gain", "at",
                 "drift", "evals", "skips")

    def __init__(self, graph: UGraph, comm: list[int]):
        adj, m = graph.adj, graph.total_weight
        self.adj = adj
        self.m = m
        self.two_m2 = 2.0 * m * m
        self.wdeg = [sum(nbrs.values()) for nbrs in adj]
        self.comm = comm
        self.deg_sum: dict[int, float] = {}
        for idx in range(len(comm)):
            self.deg_sum[comm[idx]] = self.deg_sum.get(comm[idx], 0.0) + self.wdeg[idx]
        self.w_to: list[dict[int, float] | None] = [None] * len(comm)
        self.n_out = [sum(1 for j in nbrs if comm[j] != comm[i])
                      for i, nbrs in enumerate(adj)]
        m2 = m * m
        self.ks = array("d", [k / m2 for k in self.wdeg])
        self.ks_max = max(self.ks, default=0.0)
        self.slack_m = _GAIN_SLACK * m
        self.quantum = math.ldexp(1.0, math.frexp(m)[1] + _DRIFT_QUANTUM_EXP)
        self.gain = array("d", [_INF]) * len(comm)
        self.at = array("d", [0.0]) * len(comm)
        self.drift = 0.0
        self.evals = self.skips = 0

    def copy(self) -> "_Refinement":
        """A trial state that can be thrown away; shares the cached lists."""
        new = object.__new__(_Refinement)
        new.adj, new.m, new.two_m2, new.wdeg = self.adj, self.m, self.two_m2, self.wdeg
        new.ks, new.ks_max, new.slack_m = self.ks, self.ks_max, self.slack_m
        new.quantum = self.quantum
        new.comm = list(self.comm)
        new.deg_sum = dict(self.deg_sum)
        new.w_to = list(self.w_to)
        new.n_out = list(self.n_out)
        new.gain = array("d", self.gain)
        new.at = array("d", self.at)
        new.drift = self.drift
        new.evals = new.skips = 0
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
        comm, n_out, w_to, gain = self.comm, self.n_out, self.w_to, self.gain
        own = comm[idx]
        k = self.wdeg[idx]
        self.deg_sum[own] -= k
        self.deg_sum[target] += k
        self._add_drift(k)
        comm[idx] = target
        gain[idx] = _INF
        out = 0
        for nbr in self.adj[idx]:
            w_to[nbr] = None
            gain[nbr] = _INF
            front = comm[nbr]
            if front == own:
                n_out[nbr] += 1
                out += 1
            elif front == target:
                n_out[nbr] -= 1
            else:
                out += 1
        n_out[idx] = out

    def _add_drift(self, weight: float) -> None:
        """Count `weight` as moved, in whole quanta (see the class docstring:
        the sum stays exact and covers the roundings)."""
        q = self.quantum
        self.drift += (math.ceil(weight / q) + 1) * q

    def sweep(self) -> bool:
        """One pass of Q-improving moves in index order; True if any moved.

        A node off the boundary has no target, and a node whose drift bound
        cannot exceed _REFINE_TOL no helpful one, so both are skipped; the
        boundary and the bounds are read as they stand when each node's
        turn comes. Any other node is evaluated with no floor, which picks
        the same target as a floor of _REFINE_TOL whenever the best gain
        exceeds it, and moves if it does; otherwise its gain is cached.
        """
        moved = False
        n_out, gain, at, ks = self.n_out, self.gain, self.at, self.ks
        slack_m = self.slack_m
        drift = self.drift
        evals = skips = 0
        for idx in range(len(n_out)):
            if not n_out[idx]:
                continue
            if gain[idx] + ks[idx] * (drift - at[idx]) <= _REFINE_TOL:
                skips += 1
                continue
            evals += 1
            best, target = self.best_move(idx, _NEG_INF)
            if best > _REFINE_TOL:
                self.move(idx, target)
                drift = self.drift
                moved = True
            else:
                gain[idx] = best + ks[idx] * slack_m
                at[idx] = drift
        self.evals += evals
        self.skips += skips
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

        A step finds that minimum without evaluating the whole boundary.
        The boundary is sorted once by its drift bounds at the chain's
        start (+inf where nothing is cached). The neighbors of the chain's
        movers, whose front weights changed, are evaluated again at the
        step after each move and keep their own bounds from then on. Any
        other node's gain stays within its start bound widened by
        max(ks) * (drift since the start), so each step walks the sorted
        boundary only while that can still reach the best gain found, and
        evaluates a node there only if its own bound can. Both tests skip
        on a strict ``<``, so a node that might tie the best is evaluated
        and the tie-break is that of a full scan.
        """
        n_out, ks, gain, at = self.n_out, self.ks, self.gain, self.at
        drift0 = self.drift
        start = sorted(((gain[i] + ks[i] * (drift0 - at[i]), i)
                        for i in range(len(n_out)) if n_out[i]),
                       key=itemgetter(0), reverse=True)
        trial = self.copy()
        t_out = trial.n_out
        locked: set[int] = set()
        touched: list[int] = []  # neighbors of the chain's movers
        seen: set[int] = set()
        moves: list[tuple[int, int]] = []  # idx, new front
        gains: list[float] = []
        total = 0.0
        for _ in range(min(_KL_CHAIN, len(self.comm))):
            drift = trial.drift
            step: list = [_NEG_INF, -1, None]  # best gain, idx, target
            for idx in touched:
                if idx not in locked and t_out[idx]:
                    trial._offer(idx, drift, step)
            widen = self.ks_max * (drift - drift0)
            for bound, idx in start:
                if bound + widen < step[0]:
                    break
                if idx not in seen and idx not in locked and t_out[idx]:
                    trial._offer(idx, drift, step)
            step_gain, idx, target = step
            if target is None:
                break
            moves.append((idx, target))
            trial.move(idx, target)
            locked.add(idx)
            for nbr in self.adj[idx]:
                if nbr not in seen:
                    seen.add(nbr)
                    touched.append(nbr)
            total += step_gain
            gains.append(total)
        self.evals += trial.evals

        best_prefix = 0
        best_total = _REFINE_TOL
        for i, cum in enumerate(gains, start=1):
            if cum > best_total:
                best_total = cum
                best_prefix = i
        for idx, target in moves[:best_prefix]:
            self.move(idx, target)
        return best_prefix > 0

    def _offer(self, idx: int, drift: float, step: list) -> None:
        """Evaluate node idx unless its drift bound is below step[0], caching
        its gain, and make its best move the step's if it is better under
        (-gain, idx, target) than step = [gain, idx, target]."""
        ks = self.ks[idx]
        if self.gain[idx] + ks * (drift - self.at[idx]) < step[0]:
            return
        self.evals += 1
        gain, target = self.best_move(idx, _NEG_INF)
        self.gain[idx] = gain + ks * self.slack_m
        self.at[idx] = drift
        if gain > step[0] or (gain == step[0] and idx < step[1]):
            step[:] = gain, idx, target

    def merge_pass(self) -> bool:
        """Merge the adjacent front pair with the largest positive Q gain.

        Merge gain of fronts (r, s): w_rs / m - 2 a_r a_s. w_rs sums the
        edges between r and s in (lower endpoint, adjacency) order; both
        ends of such an edge are on the boundary. Returns whether a merge
        happened. A merge drops the cached gains of the members of s and of
        their neighbors, and counts deg_sum[s] as moved weight for the rest.
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
        w_to, gain = self.w_to, self.gain
        members = [idx for idx in range(len(comm)) if comm[idx] == s]
        for idx in members:
            gain[idx] = _INF
            for nbr in adj[idx]:
                w_to[nbr] = None
                gain[nbr] = _INF
                if comm[nbr] == r:  # an edge between r and s turns internal
                    n_out[idx] -= 1
                    n_out[nbr] -= 1
        for idx in members:
            comm[idx] = r
        moved = deg_sum.pop(s)
        deg_sum[r] += moved
        self._add_drift(moved)
        return True


@dataclass(frozen=True)
class FrontNode:
    """One front in the hierarchy; the root is the whole corpus (level 1).
    `members` are node indices into the clustered graph, in id order."""

    path: tuple[int, ...]
    members: tuple[int, ...]
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
    """Nested partition of the corpus into research fronts, level 1..depth;
    `ids` are the clustered graph's, which the members index."""

    root: FrontNode
    ids: tuple[str, ...]

    def depth(self) -> int:
        return max(node.level for node in self.root.walk())

    def fronts_at(self, level: int) -> list[FrontNode]:
        """Fronts exactly at a level; nodes in shallower leaves stay in those
        leaves, so levels > 2 need not cover the corpus."""
        return [node for node in self.root.walk() if node.level == level]

    def node_paths(self) -> dict[str, tuple[int, ...]]:
        """Deepest front path per node id (components are level 2..d front
        ids), in tree walk order."""
        ids = self.ids
        return {ids[member]: node.path for node in self.root.walk() if node.is_leaf
                for member in node.members}


def level_assignment(paths: Mapping[str, tuple[int, ...]], level: int) -> dict[str, int]:
    """Flat node -> front-id map obtained by truncating front paths at a level.

    Nodes whose deepest front is shallower than `level` keep that front.
    Front ids are dense integers numbered in path order, and the nodes come
    front by front (by path, then id), so sums over the map round the same
    way whether the paths come from a tree or from fronts.csv.
    """
    prefixes = {node: paths[node][: level - 1]
                for node in sorted(paths, key=lambda n: (paths[n], n))}
    ids = {prefix: i + 1 for i, prefix in enumerate(sorted(set(prefixes.values())))}
    return {node: ids[prefix] for node, prefix in prefixes.items()}


def path_string(path: tuple[int, ...]) -> str:
    """A front path as the stage files and the report write it: components
    joined by dots, "1" for the root."""
    return ".".join(map(str, path)) if path else "1"


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
    if not math.isfinite(min_q_gain):  # a NaN gain test passes every split
        raise ValueError("min_q_gain must be a finite number")
    if graph.n_nodes == 0 or graph.n_edges == 0:
        raise InsufficientDataError("cannot cluster a graph with no edges")

    nodes = range(graph.n_nodes)
    q_top, children = _split(graph, nodes, (), 1, max_depth, min_front_size,
                             min_q_gain)
    root = FrontNode(path=(), members=tuple(sorted(nodes, key=graph.ids.__getitem__)),
                     q_split=q_top, children=children)
    return FrontTree(root=root, ids=graph.ids)


def _split(graph: UGraph, members: Sequence[int], path: tuple[int, ...],
           level: int, max_depth: int, min_front_size: int,
           min_q_gain: float) -> tuple[float | None, tuple[FrontNode, ...]]:
    """(q_split, child fronts) of the front at `path` and `level`, whose
    members are the node indices `members` of `graph` in id order (all of
    them in index order at the root), split as hierarchical_fronts
    describes. A module function, not a closure: a closure that calls
    itself is a reference cycle, and would keep `graph` alive until the
    cyclic garbage collector next runs."""
    sub = graph.subgraph(members) if path else graph
    if sub.n_edges == 0:
        return None, ()
    part = fast_greedy(sub)
    if path and (part.n_fronts < 2 or part.q < min_q_gain):
        return None, ()
    children = []
    for child_no, front in enumerate(part.fronts(), start=1):
        child_path = path + (child_no,)
        front_members = tuple(sorted(map(members.__getitem__, front),
                                     key=graph.ids.__getitem__))
        if len(front_members) >= min_front_size and level + 1 < max_depth:
            q_split, grandchildren = _split(graph, front_members, child_path, level + 1,
                                            max_depth, min_front_size, min_q_gain)
        else:
            q_split, grandchildren = None, ()
        children.append(FrontNode(path=child_path, members=front_members,
                                  q_split=q_split, children=grandchildren))
    return part.q, tuple(children)
