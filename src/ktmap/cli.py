"""Command-line interface.

Every subcommand works inside an output directory (--out): `parse` fills it
with the normalized corpus, later stages consume the previous stage's files
and can run standalone. `report` runs the whole pipeline from a config file.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Set KTMAP_LOG=debug|info|warning|error to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .axis import classify
from .corpus import CitationNetwork, Lexicon, load_corpus, write_corpus
from .errors import KTMapError
from .export import FORMATS, export_graph
from .report import (PipelineConfig, apply_lexicon, run_pipeline, write_json,
                     _fit_stage, _fronts_stage, _hubs_stage, _mainpath_stage,
                     _metrics_stage, _score_stage, _select_stage)
from .synth import (PlantedConfig, gen_deterministic_hierarchical,
                    gen_planted_kt_network, gen_random_graph,
                    write_ground_truth)

log = logging.getLogger("ktmap.cli")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ktmap",
                     description="Map knowledge translation in citation networks.")
    parser.add_argument("--version", action="version", version=f"ktmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="validate a corpus and normalize it into --out")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--lenient", action="store_true",
                   help="skip edges with unknown endpoints instead of failing")
    _add_out(p)

    p = sub.add_parser("select", help="keep the top-cited fraction of the corpus")
    p.add_argument("--fraction", type=float, default=0.20)
    p.add_argument("--rank-by", choices=("in_degree", "external"), default="in_degree")
    _add_out(p)

    p = sub.add_parser("fit-degrees", help="fit a power law to the citation counts")
    p.add_argument("--bootstrap", type=int, default=0,
                   help="goodness-of-fit bootstrap replicates (0 = off)")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    p = sub.add_parser("score", help="score documents on the basic-clinical axis")
    p.add_argument("--lexicon-basic")
    p.add_argument("--lexicon-clinical")
    p.add_argument("--low", type=float, default=1.0 / 3.0)
    p.add_argument("--high", type=float, default=2.0 / 3.0)
    _add_out(p)

    p = sub.add_parser("fronts", help="detect nested research fronts")
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--min-size", type=int, default=10)
    p.add_argument("--min-q", type=float, default=0.05)
    p.add_argument("--mode", choices=("citation", "cocitation"), default="citation")
    _add_out(p)

    p = sub.add_parser("metrics", help="per-node metrics and the C(k) scaling fit")
    p.add_argument("--binning", choices=("log2", "none"), default="log2")
    _add_out(p)

    p = sub.add_parser("hubs", help="rank translational hub candidates")
    p.add_argument("--degree-pct", type=float, default=0.90)
    p.add_argument("--c-max", type=float, default=None)
    p.add_argument("--p-min", type=float, default=0.3)
    p.add_argument("--t-spread", type=float, default=0.2)
    _add_out(p)

    p = sub.add_parser("mainpath", help="extract the SPC main path")
    _add_out(p)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    p.add_argument("--preset", choices=("planted", "hierarchical", "random"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", default="4",
                   help="planted: branching factors, e.g. 2,2")
    p.add_argument("--leaf-size", type=int, default=50)
    p.add_argument("--p-within", default="0.1",
                   help="planted: per-level within probabilities, e.g. 0.15,0.3")
    p.add_argument("--p-between", type=float, default=0.005)
    p.add_argument("--homophily", type=float, default=0.0)
    p.add_argument("--t-targets", default=None,
                   help="planted: per-leaf target scores, e.g. 0,1,0,1")
    p.add_argument("--hubs", type=int, default=0, dest="n_hubs")
    p.add_argument("--hub-degree", type=int, default=20)
    p.add_argument("--iterations", type=int, default=3,
                   help="hierarchical: replication steps (5^n nodes)")
    p.add_argument("--n", type=int, default=1000, help="random: node count")
    p.add_argument("--p", type=float, default=0.01, help="random: edge probability")
    _add_out(p)

    p = sub.add_parser("report", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=("citation", "cocitation"), default=None)
    _add_out(p, required=False)

    p = sub.add_parser("export", help="export the annotated graph")
    p.add_argument("--format", choices=FORMATS, default="graphml")
    _add_out(p)

    return parser


def _add_out(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--out", required=required, default=None,
                   help="output directory")


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("KTMAP_LOG", "warning").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        return 0
    except KTMapError as exc:
        print(f"ktmap {getattr(exc, 'stage', 'error')}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"ktmap: invalid parameter: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("internal error")
        print(f"ktmap: internal error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    if args.command == "parse":
        net = load_corpus(args.nodes, args.edges, lenient=args.lenient)
        write_corpus(net, out / "corpus.nodes.jsonl", out / "corpus.edges.csv")
        write_json(out / "corpus.summary.json", {
            "n_documents": net.n_docs, "n_edges": net.n_edges,
            "n_skipped_edges": len(net.skipped_edges)})
        print(f"parsed {net.n_docs} documents, {net.n_edges} edges -> {out}")
        return 0

    if args.command == "select":
        net = _read_stage_corpus(out, "corpus")
        cfg = _bare_config(out, fraction=args.fraction, rank_by=args.rank_by)
        core = _select_stage(cfg, net, out)
        print(f"selected {core.n_docs}/{net.n_docs} documents "
              f"({core.n_edges} induced edges)")
        return 0

    if args.command == "fit-degrees":
        net = _read_stage_corpus(out, "corpus")
        cfg = _bare_config(out, bootstrap=args.bootstrap, seed=args.seed)
        doc = _fit_stage(cfg, net, out)
        print(json.dumps({"alpha": doc["alpha"], "xmin": doc["xmin"],
                          "ks": doc["ks"], "n_tail": doc["n_tail"]}))
        return 0

    if args.command == "score":
        core = _read_stage_corpus(out, "core")
        if args.lexicon_basic or args.lexicon_clinical:
            if not (args.lexicon_basic and args.lexicon_clinical):
                raise ValueError("--lexicon-basic and --lexicon-clinical go together")
            lexicon = Lexicon.load(args.lexicon_basic, args.lexicon_clinical)
            core = apply_lexicon(core, lexicon)
        cfg = _bare_config(out, low=args.low, high=args.high)
        scores, assort = _score_stage(cfg, core, out)
        n_scored = sum(1 for t in scores.values() if t is not None)
        print(f"scored {n_scored}/{len(scores)} documents; "
              f"assortativity r={'undefined' if assort is None else round(assort, 4)}")
        return 0

    if args.command == "fronts":
        core = _read_stage_corpus(out, "core")
        cfg = _bare_config(out, max_depth=args.max_depth, min_front_size=args.min_size,
                           min_q_gain=args.min_q, mode=args.mode)
        tree, level2, _ = _fronts_stage(cfg, core, out)
        print(f"found {len(set(level2.values()))} level-2 fronts "
              f"(Q={tree.root.q_split:.4f}, depth={tree.depth()})")
        return 0

    if args.command == "metrics":
        core = _read_stage_corpus(out, "core")
        partition = _read_level2(out)
        cfg = _bare_config(out, binning=args.binning)
        doc = _metrics_stage(cfg, core, partition, out)
        msg = "no scaling fit" if doc is None else f"C(k) slope={doc['slope']:.3f}"
        print(f"wrote metrics.csv; {msg}")
        return 0

    if args.command == "hubs":
        core = _read_stage_corpus(out, "core")
        partition = _read_level2(out)
        scores = _read_scores(out)
        cfg = _bare_config(out, degree_pct=args.degree_pct, c_max=args.c_max,
                           p_min=args.p_min, t_spread_min=args.t_spread)
        hubs, regions = _hubs_stage(cfg, core, partition, scores, out)
        print(f"{len(hubs)} hub candidate(s) in {len(regions)} region(s)")
        return 0

    if args.command == "mainpath":
        core = _read_stage_corpus(out, "core")
        path = _mainpath_stage(core, out)
        print(" -> ".join(path.nodes))
        return 0

    if args.command == "simulate":
        return _simulate(args, out)

    if args.command == "report":
        overrides = {"out_dir": str(out) if out else None,
                     "fraction": args.fraction, "seed": args.seed,
                     "mode": args.mode}
        config = PipelineConfig.from_file(args.config, overrides)
        report = run_pipeline(config)
        print(f"report written to {Path(config.out_dir) / 'report.json'} "
              f"({report.n_selected} core documents, "
              f"{len(report.front_table)} fronts, {len(report.hubs)} hubs)")
        return 0

    if args.command == "export":
        core = _read_stage_corpus(out, "core")
        front_paths = _try_read_paths(out)
        scores = _read_scores(out) if (out / "scores.csv").exists() else None
        strata = None
        if scores is not None:
            strata = {i: classify(t).value for i, t in scores.items()}
        hub_ids = None
        if (out / "hubs.json").exists():
            with open(out / "hubs.json", encoding="utf-8") as fh:
                hub_ids = {h["id"] for h in json.load(fh)["candidates"]}
        suffix = "graphml" if args.format == "graphml" else "dot"
        target = out / f"graph.{suffix}"
        export_graph(core, target, args.format, front_paths=front_paths,
                     scores=scores, strata=strata, hub_ids=hub_ids)
        print(f"wrote {target}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _simulate(args, out: Path) -> int:
    if args.preset == "planted":
        branching = tuple(int(x) for x in args.blocks.split(","))
        p_within = tuple(float(x) for x in args.p_within.split(","))
        t_targets = (tuple(float(x) for x in args.t_targets.split(","))
                     if args.t_targets else None)
        cfg = PlantedConfig(branching=branching, leaf_size=args.leaf_size,
                            p_within=p_within, p_between=args.p_between,
                            homophily=args.homophily, t_targets=t_targets,
                            n_hubs=args.n_hubs, hub_degree=args.hub_degree)
        net, truth = gen_planted_kt_network(cfg, args.seed)
        write_ground_truth(truth, out / "ground_truth.json")
    elif args.preset == "hierarchical":
        net = gen_deterministic_hierarchical(args.iterations)
    else:
        net = gen_random_graph(args.n, args.p, args.seed)
    write_corpus(net, out / "nodes.jsonl", out / "edges.csv")
    print(f"simulated {net.n_docs} documents, {net.n_edges} edges -> {out}")
    return 0


# -- stage-file helpers -------------------------------------------------------


def _bare_config(out: Path, **kwargs) -> PipelineConfig:
    return PipelineConfig(nodes="-", edges="-", out_dir=str(out), **kwargs)


def _read_stage_corpus(out: Path, stem: str) -> CitationNetwork:
    nodes = out / f"{stem}.nodes.jsonl"
    edges = out / f"{stem}.edges.csv"
    if not nodes.exists() or not edges.exists():
        hint = "parse" if stem == "corpus" else "select"
        raise KTMapError(f"missing {nodes.name}/{edges.name} in {out}; "
                         f"run `ktmap {hint}` first")
    return load_corpus(nodes, edges)


def _read_level2(out: Path) -> dict[str, int]:
    paths = _try_read_paths(out)
    if paths is None:
        raise KTMapError(f"missing fronts.csv in {out}; run `ktmap fronts` first")
    ids = {}
    assignment = {}
    for node, path in paths.items():
        top = path.split(".")[0]
        if top not in ids:
            ids[top] = len(ids) + 1
        assignment[node] = ids[top]
    return assignment


def _try_read_paths(out: Path) -> dict[str, str] | None:
    f = out / "fronts.csv"
    if not f.exists():
        return None
    paths = {}
    with open(f, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            node, _, path = line.rstrip("\n").partition(",")
            paths[node] = path
    return paths


def _read_scores(out: Path) -> dict[str, float | None]:
    f = out / "scores.csv"
    if not f.exists():
        raise KTMapError(f"missing scores.csv in {out}; run `ktmap score` first")
    scores: dict[str, float | None] = {}
    with open(f, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            node, t, _ = line.rstrip("\n").split(",")
            scores[node] = float(t) if t else None
    return scores


if __name__ == "__main__":
    sys.exit(main())
