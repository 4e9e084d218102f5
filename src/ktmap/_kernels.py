"""Hot kernels: the greedy modularity merge and triangle counting.

``fronts`` and ``corpus`` call these through the module attribute
(``_kernels.greedy_merge_seq``), so a wrapper installed on this module sees
every call made in this process. A forked worker of the fronts split
(``_fork.run``) calls its own copy of the wrapper, and what that copy
records stays in the worker.
"""

from __future__ import annotations

import logging
from heapq import heapify, heappop, heappush, heapreplace

log = logging.getLogger("ktmap.kernels")

# the merge's lazy heap is rebuilt once it holds more than this many entries
# per live pair
_REBUILD_RATIO = 4


def _exact_heap(nbr, a):
    """One entry ``(-dq, r, s)`` per live pair r < s, keyed by its current
    gain with the same expression as a pop (``2.0 * a[r] * a[s]`` is
    ``(2.0 * a[r]) * a[s]``, so the doubled mass is taken once per row)."""
    heap = [(-(w - two_a_r * a[s]), r, s)
            for r, row in enumerate(nbr) for two_a_r in (2.0 * a[r],)
            for s, w in row.items() if r < s]
    heapify(heap)
    return heap


def greedy_merge_seq(n_nodes, edge_u, edge_v, edge_w):
    """Agglomerative modularity merge sequence on an undirected graph.

    Starts from singleton communities and repeatedly merges the connected
    pair with the largest modularity gain; ties broken by the smallest
    (low id, high id) pair. Community labels are the smallest original
    node index in the community.

    The live pairs are held as symmetric rows, ``nbr[r][t] = w_rt / m`` on
    both sides, and the best pair is found with a lazy max-heap (Clauset,
    Newman and Moore 2004; lazy re-keying as in Minoux 1978) holding
    entries ``(-dq, r, s)`` with r < s. The gain of a pair (r, s) is
    ``w_rs / m - 2 a_r a_s``, always computed as ``w - 2.0 * a[r] * a[s]``;
    doubling is exact, so the product has the same bits with r and s
    swapped. The heap keeps one invariant: every live pair has an entry
    whose key is at least the pair's current gain.

    A merge of s into r (r < s) walks ``nbr[s]``: each neighbour t leaves
    s and joins r, with ``w_rt + w_st`` when t neighboured both. The merge
    only grows the mass ``a[r]``, so, float rounding being monotone, the
    gain of every pair (r, t) can only fall unless its weight rose. A pair
    new to r gets an entry keyed by its gain. A pair whose weight rose gets
    one only if its new gain is above its gain before the merge (the same
    expression with the old ``a[r]``): otherwise the entry that held the
    invariant before the merge still does. Every other pair keeps its
    entries and its gain or a lower one.

    A popped entry is dead when its pair is gone (``s not in nbr[r]``: one
    of the two was merged away; a pair once gone never returns, since the
    label merged away is never used again) and is dropped. A live entry
    whose key is not the pair's current gain is stale; it is re-keyed and
    pushed back, which keeps the invariant. An entry whose key is the
    current gain is the maximum: every other live pair has an entry that
    sorts after it, keyed at or above that pair's gain, so no pair has a
    larger gain, and a pair with an equal gain has a larger (r, s). That is
    the tie-break of a full scan.

    Dead and stale entries are also dropped in bulk: once the heap holds
    more than _REBUILD_RATIO (4) times as many entries as there are live
    pairs, it is rebuilt from the rows with one entry per live pair, keyed
    by that pair's current gain with the same expression as a pop. A
    rebuilt heap thus meets the invariant exactly, so a rebuild changes
    only which dead or stale entries are popped, never which pair is
    merged. A rebuild re-creates every live entry: over the 23 merge calls
    of the fronts of one 1.4k-doc co-citation report, a ratio of 2 made 218
    rebuilds and 4 makes 98, for a few more dead pops.

    The merge sequence and every Q are therefore bit-identical to rescanning
    all pairs at each step (O(n m) in total), which the tests keep as the
    reference.

    Precondition: every weight is finite and > 0 (``UGraph`` enforces it),
    and their sum m is finite. A zero or negative weight breaks the
    monotonicity argument.

    Logs one DEBUG record on the ``ktmap.kernels`` logger, with its counts
    also as the record's ``merge`` dict: merges, heap pushes by merges,
    pushes skipped because a pair's gain did not rise, stale re-keys, dead
    pops and heap rebuilds.

    Parameters
    ----------
    n_nodes : int
    edge_u, edge_v : sequences of int
        Endpoint indices, edge_u[i] < edge_v[i], no duplicates.
    edge_w : sequence of float
        Edge weights (1.0 for unweighted graphs).

    Returns
    -------
    (q0, merges, qs) : float, list of (int, int), list of float
        q0 is the modularity of the singleton partition, merges[t] the
        pair merged at step t and qs[t] the modularity after that merge.
    """
    m = 0.0
    for w in edge_w:
        m += w
    if m <= 0.0:
        raise ValueError("graph has no edges")
    two_m = 2.0 * m

    a = [0.0] * n_nodes
    nbr: list[dict[int, float]] = [{} for _ in range(n_nodes)]
    for u, v, w in zip(edge_u, edge_v, edge_w):
        end = w / two_m
        a[u] += end
        a[v] += end
        nbr[u][v] = nbr[v][u] = w / m
    live = sum(map(len, nbr)) // 2

    q = 0.0
    for i in range(n_nodes):
        q -= a[i] * a[i]
    q0 = q

    heap = _exact_heap(nbr, a)
    merges: list[tuple[int, int]] = []
    qs: list[float] = []
    moved = pushed = stale = dead = rebuilds = 0
    while live:
        neg_dq, r, s = heap[0]
        row_r = nbr[r]
        w = row_r.get(s)
        if w is None:  # pair gone: one of its communities was merged away
            heappop(heap)
            dead += 1
            continue
        dq = w - 2.0 * a[r] * a[s]
        if -dq != neg_dq:  # stale key: re-key and look again
            heapreplace(heap, (-dq, r, s))
            stale += 1
            continue
        heappop(heap)
        del row_r[s]
        row_s = nbr[s]
        del row_s[r]
        a_r_old = a[r]
        a_r = a[r] = a_r_old + a[s]
        a[s] = 0.0
        live -= 1
        size = len(heap)
        # 2.0 * x * y is (2.0 * x) * y: the same bits with the doubling hoisted
        two_a_r = 2.0 * a_r
        two_a_r_old = 2.0 * a_r_old
        for t, w_st in row_s.items():
            row_t = nbr[t]
            del row_t[s]
            w_rt = row_r.get(t)
            if w_rt is None:
                row_r[t] = row_t[r] = w_st
                dq_rt = w_st - two_a_r * a[t]
            else:
                live -= 1
                a_t = a[t]
                before = w_rt - two_a_r_old * a_t
                w_rt += w_st
                row_r[t] = row_t[r] = w_rt
                dq_rt = w_rt - two_a_r * a_t
                if dq_rt <= before:  # the pair's entry still bounds its gain
                    continue
            if r < t:
                heappush(heap, (-dq_rt, r, t))
            else:
                heappush(heap, (-dq_rt, t, r))
        moved += len(row_s)
        pushed += len(heap) - size
        row_s.clear()
        if len(heap) > _REBUILD_RATIO * live:
            heap.clear()  # free the dead entries before building the new heap
            heap = _exact_heap(nbr, a)
            rebuilds += 1
        q += dq
        merges.append((r, s))
        qs.append(q)
    if log.isEnabledFor(logging.DEBUG):
        counts = {"nodes": n_nodes, "edges": len(edge_u), "merges": len(merges),
                  "pushes": pushed, "skipped_pushes": moved - pushed,
                  "stale_rekeys": stale, "dead_pops": dead, "rebuilds": rebuilds}
        log.debug("greedy merge on a %(nodes)d-node, %(edges)d-edge graph: "
                  "%(merges)d merges, %(pushes)d heap pushes, %(skipped_pushes)d "
                  "pushes skipped (gain did not rise), %(stale_rekeys)d stale "
                  "re-keys, %(dead_pops)d dead pops, %(rebuilds)d heap rebuilds",
                  counts, extra={"merge": counts})
    return q0, merges, qs


def triangle_counts(adj):
    """Number of edges among each node's neighbors.

    Parameters
    ----------
    adj : list of sorted lists of int
        Adjacency of a simple undirected graph.

    Returns
    -------
    list of int
    """
    sets = [set(nbrs) for nbrs in adj]
    counts = [0] * len(adj)
    for v in range(len(adj)):
        nbrs_v = sets[v]
        total = 0
        for u in adj[v]:
            total += len(nbrs_v & sets[u])
        counts[v] = total // 2
    return counts
