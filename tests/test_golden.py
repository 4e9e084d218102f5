"""Golden digests: a refactor that promises byte-identical reports must leave
these unchanged.

Each case runs the whole pipeline on a small fixed corpus and hashes
report.json without its run-dependent fields (the timestamp and the output
and input paths) plus every stage CSV in name order, the normalisation
perfbench's reference digests use. A second digest per case hashes the
other stage JSON files (fronts.json, hubs.json, ...) byte for byte. A digest
may change only with a change that CHANGES.md records as an intended change
of the report.
"""

import dataclasses
import glob
import hashlib
import json
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ktmap.corpus import CitationNetwork, Document, load_corpus, write_corpus
from ktmap.report import PipelineConfig, _with_lexicon, run_pipeline
from ktmap.selection import select_top_cited
from ktmap.synth import PlantedConfig, gen_planted_kt_network

from conftest import reference_write_corpus

TOY = resources.files("ktmap.data").joinpath("toy")

GOLDEN = {
    "toy-citation":
        "90ccad27fcdb7ab698d3ad5b75350636c14bc43f734560163dd487a89395952e",
    "toy-cocitation":
        "037e2e65bbe5e180a59efd4bbcca7e8fbaf3bc9019e8c72cd45a0c560943d0bb",
    "planted":
        "8895328a439d173f62b17ff460c49f2aa6aabd25ed14efaf1bd5074b0b06f69a",
    # co-citation fronts cover 68 of the 72 core documents; 2 hubs, 2 regions
    "planted-cocitation":
        "fc47089d7fafd10fb8b20f3f2444919f599c5b47ec3b92a6f7dd07c27707e777",
    "cyclic":
        "2a6fd165a22d9f37006b62e76dc329a3b84105ae712a523a158365bce9e97676",
}

STAGE_JSON = {
    "toy-citation":
        "e5f1f9d912b94f56db7487c48094e8d1f7b1f2c09cb23b70c119ee286b96372d",
    "toy-cocitation":
        "ce6aa2f3230077ccfdf57947dd06091fa6efeec3741eb1a58c2c75dfbc766a75",
    "planted":
        "21733412bf35d0fc2d0b784f54605966d7d1c4cb6f5b4aa7edec272b946d9e08",
    "planted-cocitation":
        "5a67c52dffbe8b34dde657bcbde85f640a46ae79e24f1d9863a708920a014d37",
    "cyclic":
        "671384ba208b8a9747e8a301e99d0107b89f157bd4f899a7c0b6cf14e7d08e68",
}


def report_digest(out_dir) -> str:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("generated_at", None)
    for key in ("out_dir", "nodes", "edges"):
        doc["config"].pop(key, None)
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        h.update(os.path.basename(path).encode("utf-8") + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def stage_json_digest(out_dir) -> str:
    """Hash of every stage JSON file but report.json, in name order."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
        if os.path.basename(path) != "report.json":
            h.update(os.path.basename(path).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cyclic_corpus(n=120, n_blocks=4, out_degree=2, p_in_block=0.8,
                  seed=7) -> CitationNetwork:
    """Undated docs, each citing `out_degree` others, mostly in its own
    block: nothing orders the edges, so the graph is full of cycles."""
    rng = np.random.default_rng(seed)
    size = n // n_blocks
    ids = [f"c{i:03d}" for i in range(n)]
    edges = set()
    for i in range(n):
        lo = (i // size) * size
        targets: set[int] = set()
        while len(targets) < out_degree:
            j = (int(rng.integers(lo, lo + size)) if rng.random() < p_in_block
                 else int(rng.integers(0, n)))
            if j != i:
                targets.add(j)
        edges.update((ids[i], ids[j]) for j in targets)
    clinical = rng.binomial(20, [(i // size) / (n_blocks - 1) for i in range(n)])
    docs = [Document(id=ids[i], basic_terms=20 - int(c), clinical_terms=int(c))
            for i, c in enumerate(clinical)]
    return CitationNetwork(docs, sorted(edges))


def config_for(case: str, tmp_path) -> PipelineConfig:
    out = str(tmp_path / "out")
    if case.startswith("toy"):
        return PipelineConfig.from_file(
            str(TOY / "config.cfg"),
            {"out_dir": out, "mode": case.removeprefix("toy-")})
    if case.startswith("planted"):
        net, _ = gen_planted_kt_network(PlantedConfig(
            branching=(3, 2), leaf_size=20, p_within=(0.1, 0.3),
            p_between=0.01, n_hubs=3), seed=11)
        overrides = {"fraction": 0.5, "min_front_size": 8,
                     "mode": "cocitation" if case.endswith("cocitation") else "citation"}
    else:
        net = cyclic_corpus()
        overrides = {"fraction": 1.0}
    nodes, edges = str(tmp_path / "nodes.jsonl"), str(tmp_path / "edges.csv")
    write_corpus(net, nodes, edges)
    return PipelineConfig(nodes=nodes, edges=edges, out_dir=out, **overrides)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_digest_unchanged(case, tmp_path):
    config = config_for(case, tmp_path)
    run_pipeline(config)
    assert report_digest(config.out_dir) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(STAGE_JSON))
def test_stage_json_digest_unchanged(case, tmp_path):
    config = config_for(case, tmp_path)
    run_pipeline(config)
    assert stage_json_digest(config.out_dir) == STAGE_JSON[case]


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_written_json_is_strict(case, tmp_path):
    """No NaN or Infinity token, which json.dumps writes but JSON lacks."""
    config = config_for(case, tmp_path)
    run_pipeline(config)
    for path in sorted(Path(config.out_dir).glob("*.json")):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


@pytest.mark.parametrize("case", sorted(GOLDEN) + ["toy-lexicon"])
def test_written_corpora_are_the_reference_writers(case, tmp_path):
    """corpus.* (copied from the input where it can be) and core.* hold the
    bytes of the line-at-a-time reference writer of conftest."""
    if case == "toy-lexicon":
        from test_report_cli import write_lexicon_toy
        nodes, basic, clinical = write_lexicon_toy(tmp_path)
        config = config_for("toy-citation", tmp_path)
        config = dataclasses.replace(config, nodes=nodes, lexicon_basic=basic,
                                     lexicon_clinical=clinical)
    else:
        config = config_for(case, tmp_path)
    run_pipeline(config)
    net = _with_lexicon(config, load_corpus(config.nodes, config.edges))
    core = select_top_cited(net, config.fraction, rank_by=config.rank_by)
    out = Path(config.out_dir)
    for prefix, expected in (("corpus", net), ("core", core)):
        reference_write_corpus(expected, tmp_path / "ref.nodes.jsonl",
                               tmp_path / "ref.edges.csv")
        for part in ("nodes.jsonl", "edges.csv"):
            assert ((out / f"{prefix}.{part}").read_bytes()
                    == (tmp_path / f"ref.{part}").read_bytes()), (prefix, part)
