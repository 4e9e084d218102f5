"""Synthetic corpora with planted ground truth.

Three generators back the validation suite: nested planted-block citation
networks with translational homophily and optional planted bridge hubs, the
deterministic hierarchical graph (5-node motif replicated n times, built so
C(k) falls off as 1/k), and plain Erdos-Renyi null graphs. All generators
are pure functions of (config, seed) using numpy's seedable PCG64 stream,
so identical seeds reproduce identical corpora across platforms.

Synthetic citation edges point from the higher-index ("newer") node to the
lower-index one; node years equal node indices.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from itertools import product
from typing import Hashable, Mapping

import numpy as np

from .corpus import CitationNetwork, Document

log = logging.getLogger("ktmap.synth")

HIERARCHICAL_MAX_ITER = 6


@dataclass(frozen=True)
class PlantedConfig:
    """Shape and wiring of a nested planted-block network.

    branching gives the number of child blocks per level (so leaves number
    prod(branching)); p_within[i] is the edge probability for node pairs
    whose deepest common block is at nesting level i+1, p_between for pairs
    sharing no block. Leaf blocks get target scores t_targets (evenly spaced
    over [0, 1] by default); the edge probability between u and v is scaled
    by (1 - homophily * |t_u - t_v|). n_hubs extra nodes are each wired to
    hub_degree random partners split between the lowest- and highest-target
    leaf blocks.
    """

    branching: tuple[int, ...] = (4,)
    leaf_size: int = 50
    p_within: tuple[float, ...] = (0.10,)
    p_between: float = 0.005
    homophily: float = 0.0
    t_targets: tuple[float, ...] | None = None
    n_hubs: int = 0
    hub_degree: int = 20
    term_total: int = 20
    term_noise: float = 0.05

    def __post_init__(self):
        if not self.branching or any(b < 1 for b in self.branching):
            raise ValueError("branching factors must be >= 1")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if len(self.p_within) != len(self.branching):
            raise ValueError("need one p_within per nesting level")
        for p in (*self.p_within, self.p_between):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge probability {p} outside [0, 1]")
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError("homophily must lie in [0, 1]")
        n_leaves = math.prod(self.branching)
        if self.t_targets is not None and len(self.t_targets) != n_leaves:
            raise ValueError(f"need one t_target per leaf block ({n_leaves})")

    @property
    def n_leaves(self) -> int:
        return math.prod(self.branching)

    def leaf_targets(self) -> tuple[float, ...]:
        if self.t_targets is not None:
            return self.t_targets
        n = self.n_leaves
        if n == 1:
            return (0.5,)
        return tuple(i / (n - 1) for i in range(n))


@dataclass(frozen=True)
class GroundTruth:
    """Planted structure of a generated network."""

    front_paths: dict[str, tuple[int, ...]]
    t_planted: dict[str, float]
    hub_ids: tuple[str, ...]
    config: dict
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "front_paths": {k: list(v) for k, v in sorted(self.front_paths.items())},
            "t_planted": dict(sorted(self.t_planted.items())),
            "hub_ids": list(self.hub_ids),
            "config": self.config,
            "seed": self.seed,
        }


def _node_id(idx: int, width: int) -> str:
    return f"n{idx:0{width}d}"


def gen_planted_kt_network(config: PlantedConfig,
                           seed: int) -> tuple[CitationNetwork, GroundTruth]:
    """Generate a nested planted-block citation network with ground truth."""
    n_block_nodes = config.n_leaves * config.leaf_size
    n_total = n_block_nodes + config.n_hubs
    width = max(4, len(str(n_total)))
    rng = np.random.default_rng(seed)

    leaf_paths = list(product(*(range(b) for b in config.branching)))
    targets = config.leaf_targets()

    # node -> leaf index, planted path
    leaf_of = np.repeat(np.arange(config.n_leaves), config.leaf_size)
    front_paths = {
        _node_id(i, width): leaf_paths[leaf_of[i]] for i in range(n_block_nodes)
    }

    # planted per-node score: leaf target plus jitter, clipped to [0, 1]
    t_nodes = np.clip(
        np.array([targets[leaf_of[i]] for i in range(n_block_nodes)])
        + rng.normal(0.0, config.term_noise, n_block_nodes),
        0.0, 1.0)

    # term counts: clinical ~ Binomial(term_total, t) so E[score] = t
    clinical = rng.binomial(config.term_total, t_nodes)
    basic = config.term_total - clinical

    # block-pair wiring, vectorized per leaf pair
    edges: list[tuple[int, int]] = []
    for la in range(config.n_leaves):
        for lb in range(la, config.n_leaves):
            shared = 0
            for pa, pb in zip(leaf_paths[la], leaf_paths[lb]):
                if pa != pb:
                    break
                shared += 1
            base = config.p_between if shared == 0 else config.p_within[shared - 1]
            ia = np.arange(la * config.leaf_size, (la + 1) * config.leaf_size)
            ib = np.arange(lb * config.leaf_size, (lb + 1) * config.leaf_size)
            prob = base * (1.0 - config.homophily
                           * np.abs(t_nodes[ia][:, None] - t_nodes[ib][None, :]))
            draw = rng.random((ia.size, ib.size)) < prob
            if la == lb:
                draw = np.triu(draw, k=1)
            for ai, bi in zip(*np.nonzero(draw)):
                u, v = int(ia[ai]), int(ib[bi])
                edges.append((min(u, v), max(u, v)))

    t_planted = {_node_id(i, width): float(t_nodes[i]) for i in range(n_block_nodes)}

    # planted hubs: bridge the lowest- and highest-target leaves
    hub_ids = []
    all_clinical = list(clinical)
    all_basic = list(basic)
    if config.n_hubs:
        lo_leaf = int(np.argmin(targets))
        hi_leaf = int(np.argmax(targets))
        per_side = max(1, config.hub_degree // 2)
        for h in range(config.n_hubs):
            idx = n_block_nodes + h
            hub_ids.append(_node_id(idx, width))
            for leaf in (lo_leaf, hi_leaf):
                pool = np.arange(leaf * config.leaf_size,
                                 (leaf + 1) * config.leaf_size)
                chosen = rng.choice(pool, size=min(per_side, pool.size),
                                    replace=False)
                for v in sorted(int(x) for x in chosen):
                    edges.append((v, idx))
            t_hub = 0.5
            c_hub = int(rng.binomial(config.term_total, t_hub))
            all_clinical.append(c_hub)
            all_basic.append(config.term_total - c_hub)
            t_planted[_node_id(idx, width)] = t_hub

    docs = [Document(id=_node_id(i, width), year=i,
                     basic_terms=int(all_basic[i]), clinical_terms=int(all_clinical[i]))
            for i in range(n_total)]
    directed = sorted({(_node_id(max(u, v), width), _node_id(min(u, v), width))
                       for u, v in edges})
    net = CitationNetwork(docs, directed)
    truth = GroundTruth(front_paths=front_paths, t_planted=t_planted,
                        hub_ids=tuple(hub_ids), config=asdict(config), seed=seed)
    return net, truth


def gen_deterministic_hierarchical(iterations: int,
                                   cap: int = HIERARCHICAL_MAX_ITER) -> CitationNetwork:
    """Deterministic hierarchical graph: 5^n nodes after n replication steps.

    Step 1 is a complete 5-clique with node 0 central. Each further step
    makes four copies of the current module and wires every copy's
    peripheral nodes (those peripheral at all previous steps) to node 0.
    Citation direction is higher index to lower; the graph is meant for
    undirected analyses.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if iterations > cap:
        raise ValueError(f"iterations={iterations} exceeds cap {cap} "
                         f"({5 ** iterations} nodes)")

    edges: set[tuple[int, int]] = {(i, j) for i in range(5) for j in range(i + 1, 5)}
    peripherals = [1, 2, 3, 4]
    size = 5
    for _ in range(1, iterations):
        new_edges = set()
        for copy_no in range(1, 5):
            off = copy_no * size
            new_edges.update((u + off, v + off) for u, v in edges)
        new_peripherals = [p + copy_no * size
                           for copy_no in range(1, 5) for p in peripherals]
        new_edges.update((0, p) for p in new_peripherals)
        edges |= new_edges
        peripherals = new_peripherals
        size *= 5

    width = max(4, len(str(size)))
    docs = [Document(id=_node_id(i, width), year=i) for i in range(size)]
    directed = sorted({(_node_id(max(u, v), width), _node_id(min(u, v), width))
                       for u, v in edges})
    return CitationNetwork(docs, directed)


def gen_random_graph(n: int, p: float, seed: int) -> CitationNetwork:
    """Erdos-Renyi G(n, p) citation network, each unordered pair independent."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    width = max(4, len(str(n)))
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    docs = [Document(id=_node_id(i, width), year=i) for i in range(n)]
    directed = [(_node_id(int(v), width), _node_id(int(u), width))
                for u, v in zip(iu[mask], iv[mask])]
    return CitationNetwork(docs, sorted(directed))


def nmi(labels_a: Mapping[str, Hashable], labels_b: Mapping[str, Hashable]) -> float:
    """Normalized mutual information between two labelings of the same keys.

    Arithmetic-mean normalization: NMI = 2 I(A;B) / (H(A) + H(B)). Two
    identical degenerate (single-label) labelings score 1.0; a degenerate
    labeling against a non-degenerate one scores 0.0.
    """
    if set(labels_a) != set(labels_b):
        raise ValueError("labelings must cover the same keys")
    n = len(labels_a)
    if n == 0:
        raise ValueError("empty labelings")

    count_a: dict[Hashable, int] = {}
    count_b: dict[Hashable, int] = {}
    joint: dict[tuple[Hashable, Hashable], int] = {}
    for key, la in labels_a.items():
        lb = labels_b[key]
        count_a[la] = count_a.get(la, 0) + 1
        count_b[lb] = count_b.get(lb, 0) + 1
        joint[(la, lb)] = joint.get((la, lb), 0) + 1

    h_a = -sum((c / n) * math.log(c / n) for c in count_a.values() if c)
    h_b = -sum((c / n) * math.log(c / n) for c in count_b.values() if c)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    mi = 0.0
    for (la, lb), c in joint.items():
        p_joint = c / n
        mi += p_joint * math.log(p_joint / ((count_a[la] / n) * (count_b[lb] / n)))
    return 2.0 * mi / (h_a + h_b)


def write_ground_truth(truth: GroundTruth, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(truth.to_json_dict(), fh, indent=2)
        fh.write("\n")
