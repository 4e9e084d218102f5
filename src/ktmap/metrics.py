"""Local node metrics and the hierarchy scaling test.

All metrics are computed on the undirected simple projection, consistent
with front detection. The C(k) scaling fit regresses log mean clustering
coefficient on log degree over logarithmic degree bins; a slope near -1 is
the signature of hierarchical (modules-within-modules) organization, while
flat C(k) indicates none.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .corpus import UGraph
from .errors import InsufficientDataError

log = logging.getLogger("ktmap.metrics")


def clustering_by_index(graph: UGraph) -> list[float | None]:
    """Clustering coefficient c = 2 * (edges among neighbours) / (k * (k - 1))
    of every node, by node index; None where k < 2. From the graph's
    triangle counts, computed once per graph."""
    return [None if k < 2 else 2.0 * t / (k * (k - 1))
            for k, t in zip(map(len, graph.adj), graph.triangle_counts())]


def front_labels(graph: UGraph, partition: Mapping[str, int]) -> list[int]:
    """The front of every node, by node index; a ValueError names the first
    node the partition leaves out."""
    try:
        return [partition[v] for v in graph.ids]
    except KeyError as exc:
        raise ValueError(f"partition does not cover node {exc.args[0]!r}") from None


def participation(nbrs: Collection[int], labels: list[int]) -> tuple[float, Counter[int]]:
    """P = 1 - sum_s (k_s / k)^2 of a node with neighbour indices `nbrs`
    (k >= 1), and its link count k_s per front s it links into.

    The fronts are summed in the order they first appear along the
    ascending neighbour indices. P is 0 when all neighbours share one
    front, and approaches 1 - 1/S for links spread evenly over S fronts.
    """
    per_front = Counter(map(labels.__getitem__, sorted(nbrs)))
    k = len(nbrs)
    return 1.0 - sum((ks / k) ** 2 for ks in per_front.values()), per_front


@dataclass(frozen=True)
class ScalingFit:
    """Log-log least-squares fit of mean clustering coefficient vs degree."""

    slope: float
    intercept: float
    r2: float
    n_bins: int

    def __post_init__(self):
        if self.n_bins < 3:
            raise ValueError("a scaling fit needs at least 3 bins")


def ck_scaling(graph: UGraph, binning: str = "log2") -> ScalingFit:
    """Fit log(mean c) vs log(k) over degree bins.

    binning="log2" groups degrees into bins [2^b, 2^(b+1)) starting at k=2
    (the bin abscissa is the mean degree of its members); binning="none"
    uses one bin per distinct degree. Bins with zero mean clustering are
    dropped (they carry no log signal); at least 3 usable bins are required.
    """
    if binning not in ("log2", "none"):
        raise ValueError(f"unknown binning {binning!r}")
    pairs = [(len(nbrs), c) for nbrs, c in zip(graph.adj, clustering_by_index(graph))
             if c is not None]
    if len({k for k, _ in pairs}) < 3:
        raise InsufficientDataError(
            "need >= 3 distinct degrees with a defined clustering coefficient")

    bins: dict[int, list[tuple[int, float]]] = {}
    for k, c in pairs:
        key = int(math.floor(math.log2(k))) if binning == "log2" else k
        bins.setdefault(key, []).append((k, c))

    xs, ys = [], []
    for key in sorted(bins):
        ks = [k for k, _ in bins[key]]
        mean_c = sum(c for _, c in bins[key]) / len(bins[key])
        if mean_c <= 0.0:
            continue
        xs.append(sum(ks) / len(ks))
        ys.append(mean_c)
    if len(xs) < 3:
        raise InsufficientDataError(
            f"only {len(xs)} usable degree bins; need >= 3")

    lx = np.log10(xs)
    ly = np.log10(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(slope=float(slope), intercept=float(intercept),
                      r2=r2, n_bins=len(xs))


@dataclass(frozen=True)
class NodeMetrics:
    """Degree, clustering, and module-role metrics of one node."""

    id: str
    k: int
    c: float | None
    p: float | None
    z: float | None


def node_metrics_table(graph: UGraph,
                       partition: Mapping[str, int] | None = None) -> list[NodeMetrics]:
    """Per-node metrics for every node, sorted by id.

    Participation P and within-front z (Guimera & Amaral 2005) need a
    partition covering the graph. z is the node's number of links inside
    its own front, kappa, standardised by the mean and population standard
    deviation of kappa over the front's members, taken in node order.
    Isolated nodes report P as None, zero-spread fronts report z as None.
    """
    ids, adj = graph.ids, graph.adj
    cs = clustering_by_index(graph)
    ps: list[float | None] = [None] * len(ids)
    zs: list[float | None] = [None] * len(ids)
    if partition is not None:
        labels = front_labels(graph, partition)
        kappas = [0] * len(ids)
        for i, nbrs in enumerate(adj):
            if nbrs:
                ps[i], per_front = participation(nbrs, labels)
                kappas[i] = per_front[labels[i]]
        by_front: dict[int, list[int]] = {}
        for fid, kappa in zip(labels, kappas):
            by_front.setdefault(fid, []).append(kappa)
        stats = {}
        for fid, vals in by_front.items():
            mean = sum(vals) / len(vals)
            var = sum((x - mean) ** 2 for x in vals) / len(vals)
            stats[fid] = (mean, math.sqrt(var))
        for i, (fid, kappa) in enumerate(zip(labels, kappas)):
            mean, std = stats[fid]
            zs[i] = None if std == 0.0 else (kappa - mean) / std
    return [NodeMetrics(id=ids[i], k=len(adj[i]), c=cs[i], p=ps[i], z=zs[i])
            for i in sorted(range(len(ids)), key=ids.__getitem__)]
