"""Hot kernels: the greedy modularity merge and triangle counting.

``fronts`` and ``corpus`` call these through the module attribute
(``_kernels.greedy_merge_seq``), so a wrapper installed on this module sees
every call.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace


def _exact_heap(wq, a):
    """One entry ``(-dq, r, s)`` per live pair, keyed by its current gain."""
    heap = [(-(w - 2.0 * a[r] * a[s]), r, s) for (r, s), w in wq.items()]
    heapify(heap)
    return heap


def greedy_merge_seq(n_nodes, edge_u, edge_v, edge_w):
    """Agglomerative modularity merge sequence on an undirected graph.

    Starts from singleton communities and repeatedly merges the connected
    pair with the largest modularity gain; ties broken by the smallest
    (low id, high id) pair. Community labels are the smallest original
    node index in the community.

    The best pair is found with a lazy max-heap (Clauset, Newman and Moore
    2004; lazy re-keying as in Minoux 1978) holding entries
    ``(-dq, r, s)``. A merge of s into r only grows the mass ``a[r]``, so
    the gain of every pair (r, t) can only fall, except for t a former
    neighbour of s, whose pair weight rises; those pairs get a fresh
    entry. Every other entry keeps a stale key that is an upper bound on
    the pair's gain, because float rounding is monotone. A popped entry is
    recomputed and re-keyed if stale; an entry that is current is the
    maximum, and the heap order gives the same tie-break as a full scan.

    Entries of pairs merged away are dropped when popped, and in bulk:
    once the heap holds more than twice as many entries as there are live
    pairs, it is rebuilt with one entry per live pair, keyed by that pair's
    current gain with the same expression as a pop. A rebuilt heap thus
    meets the invariant above exactly (every live pair has an entry whose
    key is at least its gain), so a rebuild changes only which dead or
    stale entries are popped, never which pair is merged.

    The merge sequence and every Q are therefore bit-identical to rescanning
    all pairs at each step (O(n m) in total), which the tests keep as the
    reference.

    Precondition: every weight is finite and > 0 (``UGraph`` enforces it).
    A zero or negative weight breaks the upper-bound argument.

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

    heap = _exact_heap(wq, a)
    merges: list[tuple[int, int]] = []
    qs: list[float] = []
    while wq:
        neg_dq, r, s = heap[0]
        w = wq.get((r, s))
        if w is None:  # pair gone: one of its communities was merged away
            heappop(heap)
            continue
        dq = w - 2.0 * a[r] * a[s]
        if -dq != neg_dq:  # stale key: re-key and look again
            heapreplace(heap, (-dq, r, s))
            continue
        heappop(heap)
        del wq[(r, s)]
        touch_r = touch[r]
        touch_r.discard(s)
        moved = touch[s]
        moved.discard(r)
        touch[s] = set()
        a[r] += a[s]
        a[s] = 0.0
        for t in moved:
            w_st = wq.pop((s, t) if s < t else (t, s))
            lo, hi = (r, t) if r < t else (t, r)
            w_rt = wq.get((lo, hi), 0.0) + w_st
            wq[(lo, hi)] = w_rt
            touch_r.add(t)
            touch_t = touch[t]
            touch_t.discard(s)
            touch_t.add(r)
            # same operand order as the pop-time recomputation, so the
            # fresh key is exactly the pair's current gain
            heappush(heap, (-(w_rt - 2.0 * a[lo] * a[hi]), lo, hi))
        if len(heap) > 2 * len(wq):
            heap.clear()  # free the dead entries before building the new heap
            heap = _exact_heap(wq, a)
        q += dq
        merges.append((r, s))
        qs.append(q)
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
