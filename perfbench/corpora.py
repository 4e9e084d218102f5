"""Workload corpora: fixed-seed synthetic citation networks with planted blocks.

Each workload names a generator, the pipeline settings it runs with, and a
pool of corpus seeds. A benchmark run with ``--seed n`` walks the pool from
position ``n``, so the same seed always yields the same sequence of inputs,
and every corpus it can meet has a reference digest in ``digests.json``.

Corpora are written as ``nodes.jsonl`` / ``edges.csv`` (the formats
``ktmap report`` reads) plus ``blocks.json``, the planted level-1 block of
every generated document, which the ``front_nmi`` metric scores against.
The generators import ``ktmap`` only for the data model, the planted-block
generator and the file writer.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

# Corpus seeds per workload; each has a reference digest in digests.json. A
# run measures fewer reports than this, so different run seeds see
# different (overlapping) sets of corpora.
POOL_SIZE = 16


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    params: dict
    pipeline: dict = field(default_factory=dict)

    def corpus_seed(self, run_seed: int, i: int) -> int:
        return (run_seed + i) % POOL_SIZE


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="planted",
            generator="planted",
            # Densities chosen so that the default fraction=0.2 lands inside
            # the in-degree-16 class rather than on its edge: the tie-keeping
            # core is then ~2.25k docs for every seed instead of jumping
            # between ~2.0k and ~2.5k (and the report time by 2x).
            params=dict(branching=(4, 5), leaf_size=500,
                        p_within=(0.0031, 0.0249), p_between=0.00083,
                        homophily=0.5, n_hubs=5, hub_degree=40),
        ),
        Workload(
            name="cyclic",
            generator="cyclic",
            # fraction=1.0 puts every doc in the core, so the core's size and
            # edge count are the same for every seed; the number of
            # cycle-breaking removals (and with it the report time) then
            # varies by only a few percent from seed to seed. A top-cited
            # core of a larger corpus varied by +-15% in both.
            params=dict(n_docs=800, n_blocks=8, out_degree=2, p_in_block=0.8),
            pipeline=dict(fraction=1.0),
        ),
        Workload(
            name="cocitation",
            generator="planted",
            params=dict(branching=(4, 5), leaf_size=70,
                        p_within=(0.012, 0.1), p_between=0.003,
                        homophily=0.5, n_hubs=0),
            pipeline=dict(fraction=1.0, mode="cocitation"),
        ),
    )
}


def _planted(params: dict, seed: int):
    from ktmap.synth import PlantedConfig, gen_planted_kt_network

    net, truth = gen_planted_kt_network(PlantedConfig(**params), seed)
    blocks = {node: path[0] for node, path in truth.front_paths.items()}
    return net, blocks


def _cyclic(params: dict, seed: int):
    """Undated docs, each citing `out_degree` distinct others.

    A citation stays inside the citing doc's planted block with probability
    p_in_block and otherwise goes to a uniformly random doc. With no years
    nothing orders the edges, so the graph is full of cycles.
    """
    import numpy as np

    from ktmap.corpus import CitationNetwork, Document

    n, n_blocks = params["n_docs"], params["n_blocks"]
    out_degree, p_in = params["out_degree"], params["p_in_block"]
    rng = np.random.default_rng(seed)
    block_size = n // n_blocks
    block_of = [min(i // block_size, n_blocks - 1) for i in range(n)]
    width = len(str(n))
    ids = [f"c{i:0{width}d}" for i in range(n)]
    t_block = [b / max(1, n_blocks - 1) for b in range(n_blocks)]
    clinical = rng.binomial(20, [t_block[block_of[i]] for i in range(n)])

    edges = set()
    for i in range(n):
        lo = block_of[i] * block_size
        hi = n if block_of[i] == n_blocks - 1 else lo + block_size
        targets: set[int] = set()
        while len(targets) < out_degree:
            j = (int(rng.integers(lo, hi)) if rng.random() < p_in
                 else int(rng.integers(0, n)))
            if j != i:
                targets.add(j)
        edges.update((ids[i], ids[j]) for j in targets)
    docs = [Document(id=ids[i], basic_terms=20 - int(clinical[i]),
                     clinical_terms=int(clinical[i])) for i in range(n)]
    return CitationNetwork(docs, sorted(edges)), dict(zip(ids, block_of))


_GENERATORS = {"planted": _planted, "cyclic": _cyclic}


def ensure_corpus(workload: Workload, corpus_seed: int, root: str) -> str:
    """Directory holding the corpus files, generated on first use."""
    from ktmap.corpus import write_corpus

    path = os.path.join(root, f"{workload.name}-{corpus_seed}")
    if os.path.exists(os.path.join(path, "blocks.json")):
        return path
    tmp = path + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    net, blocks = _GENERATORS[workload.generator](workload.params, corpus_seed)
    write_corpus(net, os.path.join(tmp, "nodes.jsonl"),
                 os.path.join(tmp, "edges.csv"))
    # written last: its presence marks a complete corpus
    with open(os.path.join(tmp, "blocks.json"), "w", encoding="utf-8") as fh:
        json.dump(blocks, fh, sort_keys=True)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path
