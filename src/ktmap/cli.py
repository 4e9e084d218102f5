"""Command-line interface.

Every subcommand works inside an output directory (--out). Each entry of
the stage table in `report` is one: it reads the previous stages' files and
runs its stage as `report` does, with the same config fields and defaults.
`report` runs the whole pipeline from a config file.
Exit codes: 0 success, 1 usage error or bad parameter, 2 data error,
3 internal error; an error in a stage prints as `ktmap <stage>: ...`.
Set KTMAP_LOG=debug|info|warning|error to control verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .corpus import write_corpus
from .errors import KTMapError
from .export import FORMATS, export_graph
from .fronts import path_string
from .report import (STAGE_FILES, STAGES, PipelineConfig, collector_paused,
                     field_type, load_artifacts, out_directory, run_pipeline,
                     run_stage)
from .synth import (PlantedConfig, gen_deterministic_hierarchical,
                    gen_planted_kt_network, gen_random_graph,
                    write_ground_truth)

log = logging.getLogger("ktmap.cli")

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(PipelineConfig)}

# A subcommand's flag for each PipelineConfig field it sets is --<field>,
# except for these, and takes its type and choices from the field's
# annotation. Flags have no defaults: the PipelineConfig default (or the
# config file's value) holds.
_FLAG_NAMES = {"min_front_size": "--min-size", "min_q_gain": "--min-q",
               "t_spread_min": "--t-spread"}
_HELP = {"lenient": "skip edges with unknown endpoints instead of failing",
         "bootstrap": "goodness-of-fit bootstrap replicates (0 = off)"}


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

    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help,
                           argument_default=argparse.SUPPRESS)
        _add_flags(p, stage.flags)
        _add_out(p)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    p.add_argument("--preset", choices=("planted", "hierarchical", "random"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    # PlantedConfig fields; its defaults hold where a flag is not given
    planted = p.add_argument_group("planted preset", argument_default=argparse.SUPPRESS)
    planted.add_argument("--blocks", help="branching factors, e.g. 2,2")
    planted.add_argument("--leaf-size", type=int)
    planted.add_argument("--p-within", help="per-level within probabilities, e.g. 0.15,0.3")
    planted.add_argument("--p-between", type=float)
    planted.add_argument("--homophily", type=float)
    planted.add_argument("--t-targets", help="per-leaf target scores, e.g. 0,1,0,1")
    planted.add_argument("--hubs", type=int, dest="n_hubs")
    planted.add_argument("--hub-degree", type=int)
    p.add_argument("--iterations", type=int, default=3,
                   help="hierarchical: replication steps (5^n nodes)")
    p.add_argument("--n", type=int, default=1000, help="random: node count")
    p.add_argument("--p", type=float, default=0.01, help="random: edge probability")
    _add_out(p)

    p = sub.add_parser("report", help="run the full pipeline from a config file",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", required=True)
    _add_flags(p, ("fraction", "seed", "mode"))
    _add_out(p, required=False)

    p = sub.add_parser("export", help="export the annotated graph")
    p.add_argument("--format", choices=FORMATS, default="graphml")
    _add_out(p)

    return parser


def _add_flags(p: argparse.ArgumentParser, fields) -> None:
    for field in fields:
        kind, choices, _ = field_type(field)
        kwargs: dict = {"help": _HELP.get(field)}
        if choices:
            kwargs["choices"] = choices
        elif kind is bool:
            kwargs["action"] = "store_true"
        elif kind is not str:
            kwargs["type"] = kind
        p.add_argument(_FLAG_NAMES.get(field, "--" + field.replace("_", "-")),
                       dest=field, required=field in ("nodes", "edges"), **kwargs)


def _add_out(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--out", dest="out_dir", required=required,
                   help="output directory")


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
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


def _configure_logging() -> None:
    level = os.environ.get("KTMAP_LOG", "warning")
    if not isinstance(logging.getLevelName(level.upper()), int):
        raise ValueError(f"KTMAP_LOG must be debug|info|warning|error, got {level!r}")
    logging.basicConfig(level=level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")


def _dispatch(args) -> int:
    out = out_directory(args.out_dir) if getattr(args, "out_dir", None) else None
    fields = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}

    for stage in STAGES:
        if args.command == stage.name:
            config = PipelineConfig(**fields)
            config.validate_paths()
            with collector_paused():  # as run_pipeline runs it
                artifacts = load_artifacts(stage.reads, config)
                run_stage(stage, config, artifacts)
            print(stage.summary(artifacts, out))
            return 0

    if args.command == "simulate":
        return _simulate(args, out)

    if args.command == "report":
        config = PipelineConfig.from_file(args.config, fields)
        report = run_pipeline(config)
        print(f"report written to {Path(config.out_dir) / 'report.json'} "
              f"({report['corpus']['n_selected']} core documents, "
              f"{len(report['fronts']['table'])} fronts, "
              f"{len(report['hubs']['candidates'])} hubs)")
        return 0

    if args.command == "export":
        names = ["core"] + [name for name in ("scores", "strata", "paths", "hubs")
                            if (out / STAGE_FILES[name][1]).exists()]
        found = load_artifacts(names, PipelineConfig(**fields))
        front_paths = ({v: path_string(p) for v, p in found["paths"].items()}
                       if "paths" in found else None)
        hub_ids = ({h["id"] for h in found["hubs"]["candidates"]}
                   if "hubs" in found else None)
        suffix = "graphml" if args.format == "graphml" else "dot"
        target = out / f"graph.{suffix}"
        export_graph(found["core"], target, args.format, front_paths=front_paths,
                     scores=found.get("scores"), strata=found.get("strata"),
                     hub_ids=hub_ids)
        print(f"wrote {target}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _simulate(args, out: Path) -> int:
    if args.preset == "planted":
        given = vars(args)
        fields = {k: given[k] for k in ("leaf_size", "p_between", "homophily", "n_hubs",
                                        "hub_degree") if k in given}
        for flag, field, kind in (("blocks", "branching", int), ("p_within", "p_within", float),
                                  ("t_targets", "t_targets", float)):
            if flag in given:
                fields[field] = tuple(map(kind, given[flag].split(",")))
        cfg = PlantedConfig(**fields)
        net, truth = gen_planted_kt_network(cfg, args.seed)
        write_ground_truth(truth, out / "ground_truth.json")
    elif args.preset == "hierarchical":
        net = gen_deterministic_hierarchical(args.iterations)
    else:
        net = gen_random_graph(args.n, args.p, args.seed)
    write_corpus(net, out / "nodes.jsonl", out / "edges.csv")
    print(f"simulated {net.n_docs} documents, {net.n_edges} edges -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
