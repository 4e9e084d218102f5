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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .corpus import UGraph
from .errors import InsufficientDataError

log = logging.getLogger("ktmap.metrics")


def clustering_coefficient(graph: UGraph, node: str) -> float | None:
    """c = 2 * (edges among neighbors) / (k * (k - 1)); None when k < 2."""
    if node not in graph.index:
        raise KeyError(f"unknown node {node!r}")
    nbrs = graph.adj[graph.index[node]]
    k = len(nbrs)
    if k < 2:
        return None
    nbr_set = set(nbrs)
    links = 0
    for u in nbrs:
        links += len(nbr_set & set(graph.adj[u]))
    links //= 2
    return 2.0 * links / (k * (k - 1))


def local_clustering(graph: UGraph) -> dict[str, float | None]:
    """Clustering coefficient for every node, from the graph's triangle
    counts (computed once per graph)."""
    counts = graph.triangle_counts()
    out: dict[str, float | None] = {}
    for i, node in enumerate(graph.ids):
        k = len(graph.adj[i])
        out[node] = None if k < 2 else 2.0 * counts[i] / (k * (k - 1))
    return out


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
    cs = local_clustering(graph)
    pairs = [(graph.degree(node), c) for node, c in cs.items() if c is not None]
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


def participation_coefficient(graph: UGraph, node: str,
                              partition: Mapping[str, int]) -> float:
    """P = 1 - sum_s (k_s / k)^2 over the fronts s the node links into.

    0 when all neighbors share the node's front; approaches 1 - 1/S for
    links spread evenly over S fronts.
    """
    nbrs = graph.neighbors(node)
    if not nbrs:
        raise InsufficientDataError(f"node {node!r} is isolated")
    per_front: dict[int, int] = {}
    for u in nbrs:
        if u not in partition:
            raise ValueError(f"partition does not cover neighbor {u!r}")
        per_front[partition[u]] = per_front.get(partition[u], 0) + 1
    k = len(nbrs)
    return 1.0 - sum((ks / k) ** 2 for ks in per_front.values())


def within_module_degree(graph: UGraph, node: str,
                         partition: Mapping[str, int]) -> int:
    """Number of the node's links inside its own front."""
    own = partition[node]
    return sum(1 for u in graph.neighbors(node) if partition[u] == own)


def within_module_z(graph: UGraph, node: str,
                    partition: Mapping[str, int]) -> float | None:
    """z-score of the node's internal degree within its front.

    None (absent) when the front's internal degrees have zero spread,
    including singleton fronts.
    """
    own = partition[node]
    members = [v for v, fid in partition.items() if fid == own]
    kappas = [within_module_degree(graph, v, partition) for v in members]
    mean = sum(kappas) / len(kappas)
    var = sum((x - mean) ** 2 for x in kappas) / len(kappas)
    if var == 0.0:
        return None
    kappa = within_module_degree(graph, node, partition)
    return (kappa - mean) / math.sqrt(var)


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

    Participation and z require a partition covering the graph; isolated
    nodes report P as None, zero-spread fronts report z as None.
    """
    cs = local_clustering(graph)
    zs: dict[str, float | None] = {}
    if partition is not None:
        kappa_by_front: dict[int, list[int]] = {}
        kappas: dict[str, int] = {}
        for v in graph.ids:
            kappa = within_module_degree(graph, v, partition)
            kappas[v] = kappa
            kappa_by_front.setdefault(partition[v], []).append(kappa)
        stats = {}
        for fid, vals in kappa_by_front.items():
            mean = sum(vals) / len(vals)
            var = sum((x - mean) ** 2 for x in vals) / len(vals)
            stats[fid] = (mean, math.sqrt(var))
        for v in graph.ids:
            mean, std = stats[partition[v]]
            zs[v] = None if std == 0.0 else (kappas[v] - mean) / std

    rows = []
    for node in sorted(graph.ids):
        k = graph.degree(node)
        if partition is None or k == 0:
            p = None
        else:
            p = participation_coefficient(graph, node, partition)
        rows.append(NodeMetrics(id=node, k=k, c=cs[node],
                                p=p, z=zs.get(node)))
    return rows
