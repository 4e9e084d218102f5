"""Pipeline orchestration and the KT map report.

run_pipeline runs the stage table STAGES (parse -> select -> fit-degrees ->
score -> mainpath -> fronts -> metrics -> hubs) in table order, in one
process but for the fronts split, and assembles a single self-contained
JSON report: the map of where the corpus sits on the basic-clinical axis,
how its research fronts nest, and which nodes bridge them. The table
lists the analyses of the directed citation network (fit-degrees, score,
mainpath) before those of its undirected projection (fronts, metrics,
hubs). Each stage writes its files to the output directory and
load_artifacts reads them back, so every CLI stage can also run its table
entry standalone from the previous stage's files.

All numeric content is deterministic for a fixed config and input; the only
run-dependent field is generated_at.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import logging
import numbers
import re
import reprlib
import typing
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import Literal

from . import __version__
from .axis import (DEFAULT_HIGH, DEFAULT_LOW, Stratum, classify, front_mean,
                   homophily_assortativity, score_documents)
from .corpus import (CitationNetwork, Lexicon, co_citation_projection,
                     load_corpus, write_corpus)
from ._jsonio import JSONFile, copy_file, write_json, written
from .errors import KTMapError, ReportSchemaError, StageError, StageFileError
from .fronts import FrontTree, hierarchical_fronts, level_assignment, path_string
from .hubs import HubConfig, detect_translational_hubs, hub_regions, main_path
from .metrics import ck_scaling, node_metrics_table
from .selection import fit_power_law, select_top_cited

log = logging.getLogger("ktmap.report")

# the input files: checked to exist, and relative to a config file's directory
INPUT_FILES = ("nodes", "edges", "lexicon_basic", "lexicon_clinical")

_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


@dataclass
class PipelineConfig:
    """Fully resolved pipeline configuration; embedded in the report.

    The annotations are the one statement of each field's type: config-file
    values are converted by them, the CLI flags take their type and choices
    from them, and a Literal field's value is checked against its choices.
    """

    nodes: str | None = None
    edges: str | None = None
    out_dir: str = "."
    lexicon_basic: str | None = None
    lexicon_clinical: str | None = None
    lenient: bool = False
    fraction: float = 0.20
    rank_by: Literal["in_degree", "external"] = "in_degree"
    low: float = DEFAULT_LOW
    high: float = DEFAULT_HIGH
    max_depth: int = 4
    min_front_size: int = 10
    min_q_gain: float = 0.05
    mode: Literal["citation", "cocitation"] = "citation"
    binning: Literal["log2", "none"] = "log2"
    degree_pct: float = HubConfig.degree_pct
    c_max: float | None = HubConfig.c_max
    p_min: float = HubConfig.p_min
    t_spread_min: float = HubConfig.t_spread_min
    bootstrap: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in _FIELD_TYPES:
            choices = field_type(name)[1]
            if choices and getattr(self, name) not in choices:
                raise ValueError(f"{name} must be {'|'.join(choices)}, "
                                 f"got {getattr(self, name)!r}")
        if (self.lexicon_basic is None) != (self.lexicon_clinical is None):
            raise ValueError("lexicon-basic and lexicon-clinical go together")

    def hub_config(self) -> HubConfig:
        return HubConfig(**{f.name: getattr(self, f.name)
                            for f in dataclasses.fields(HubConfig)})

    def validate_paths(self) -> None:
        """Each input file given exists and is no directory; a pipe passes."""
        for label in INPUT_FILES:
            p = getattr(self, label)
            if p is not None and not Path(p).exists():
                raise ValueError(f"{label} file not found: {p}")
            if p is not None and Path(p).is_dir():
                raise ValueError(f"{label} file is a directory: {p}")

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "PipelineConfig":
        """Read key=value lines (# comments allowed), then apply overrides.
        A file that cannot be opened is a bad parameter (ValueError)."""
        raw: dict = {}
        base = Path(path).parent
        try:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"config file {path}: {exc.strerror}") from None
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
        cfg: dict = {}
        for key, value in raw.items():
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}: unknown config key {key!r}")
            try:
                cfg[key] = (str(base / value) if key in INPUT_FILES
                            else _parse_value(key, value))
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
        if overrides:
            cfg.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**cfg)


_FIELD_TYPES = typing.get_type_hints(PipelineConfig)


def field_type(name: str) -> tuple[type, tuple[str, ...], bool]:
    """(value type, allowed values, takes None) of a PipelineConfig field,
    from its annotation: `float | None` gives (float, (), True) and a
    Literal gives str and its values."""
    hint = _FIELD_TYPES[name]
    if typing.get_origin(hint) is Literal:
        return str, typing.get_args(hint), False
    if typing.get_args(hint):  # T | None
        return typing.get_args(hint)[0], (), True
    return hint, (), False


def _parse_value(key: str, text: str):
    """A config-file value converted by its field's annotation; `none` is
    None only for a field that takes None."""
    kind, _, optional = field_type(key)
    if optional and text.lower() == "none":
        return None
    if kind is bool:
        if text.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected one of {'/'.join(_BOOL_WORDS)}, got {text!r}")
        return _BOOL_WORDS[text.lower()]
    return kind(text)


def load_report_schema() -> dict:
    with resources.files("ktmap.data").joinpath("report.schema.json").open(
            encoding="utf-8") as fh:
        return json.load(fh)


def validate_report(doc: dict) -> None:
    """Check a report against the shipped report.schema.json, compiled on
    the first call; raise ReportSchemaError at the first violation (see
    validate_json)."""
    _checked(_report_check(), doc)


@functools.cache
def _report_check() -> Callable[[object], None]:
    return _compiled(load_report_schema(), "$")


# JSON types as jsonschema 4.x's draft-07 type checker defines them: a bool
# is neither integer nor number, an integral float is an integer, and only a
# list is an array
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: (type(v) is float or type(v) is int
                         or (isinstance(v, numbers.Number) and not isinstance(v, bool))),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}
_IS_NUMBER = _IS_TYPE["number"]


def _type_test(arg) -> Callable[[object], bool]:
    tests = [_IS_TYPE[t] for t in (arg if isinstance(arg, list) else [arg])]
    return tests[0] if len(tests) == 1 else lambda v: any(test(v) for test in tests)


# keyword -> the test its argument makes: whether a value passes it. A
# keyword that constrains one JSON type passes every other value.
_KEYWORD_TESTS = {
    "type": _type_test,
    "minItems": lambda arg: lambda v: not isinstance(v, list) or len(v) >= arg,
    "minimum": lambda arg: lambda v: not _IS_NUMBER(v) or not v < arg,
    "maximum": lambda arg: lambda v: not _IS_NUMBER(v) or not v > arg,
    "exclusiveMinimum": lambda arg: lambda v: not _IS_NUMBER(v) or not v <= arg,
    "pattern": lambda arg: lambda v, search=re.compile(arg).search: (
        not isinstance(v, str) or search(v) is not None),
    "const": lambda arg: lambda v: _json_equal(v, arg),
    "enum": lambda arg: lambda v: any(_json_equal(each, v) for each in arg),
}


def validate_json(instance, schema: dict) -> None:
    """Check `instance` against a JSON Schema that uses only the draft-07
    keywords type, required, properties, items (one schema for every
    item), minItems, minimum, maximum, exclusiveMinimum, const, enum and
    pattern, with jsonschema 4.x's verdicts: a bound fails only on <, > or
    <=, so NaN passes it, and pattern uses re.search. $schema and title are
    ignored. Any other keyword, or a schema that is not an object, raises
    ReportSchemaError when the schema is compiled, before any value is
    checked, as does the first violation; its message names the JSON path,
    the keyword and the value."""
    _checked(_compiled(schema, "$"), instance)


class _Violation(Exception):
    """A value that fails a compiled check. `steps` is its JSON path from
    the value up, a step added by each container as the error passes it."""

    def __init__(self, message: str):
        super().__init__(message)
        self.steps: list[str] = []


def _checked(check: Callable[[object], None], instance) -> None:
    """Run a compiled check on a document, its violation a ReportSchemaError."""
    try:
        check(instance)
    except _Violation as exc:
        raise ReportSchemaError(
            f"${''.join(reversed(exc.steps))}: {exc.args[0]}") from None


def _compiled(schema, where: str) -> Callable[[object], None]:
    """`schema` as one function that raises _Violation at a value's first
    violation; `where` names the schema in the errors of compiling it."""
    if not isinstance(schema, dict):
        raise ReportSchemaError(f"{where}: unsupported schema {schema!r}")
    tests = [(key, arg, _keyword_test(key, arg, where))
             for key, arg in schema.items() if key not in ("$schema", "title")]

    def check(value):
        for key, arg, passes in tests:
            if not passes(value):
                raise _Violation(f"{reprlib.repr(value)} fails {key} {arg!r}")
    return check


def _keyword_test(key: str, arg, where: str) -> Callable[[object], bool]:
    """Whether a value passes schema keyword `key`; required, properties and
    items raise their own violations, or those of the values they hold."""
    if key == "properties":
        subs = [(name, _compiled(sub, f"{where}.{name}")) for name, sub in arg.items()]

        def passes(value):
            if isinstance(value, dict):
                for name, sub in subs:
                    if name in value:
                        try:
                            sub(value[name])
                        except _Violation as exc:
                            exc.steps.append("." + name)
                            raise
            return True
        return passes
    if key == "items":
        sub = _compiled(arg, where + "[]")

        def passes(value):
            if isinstance(value, list):
                try:
                    for i, item in enumerate(value):
                        sub(item)
                except _Violation as exc:
                    exc.steps.append(f"[{i}]")
                    raise
            return True
        return passes
    if key == "required":
        def passes(value):
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        raise _Violation(f"required property {name!r} is missing")
            return True
        return passes
    if key not in _KEYWORD_TESTS:
        raise ReportSchemaError(f"{where}: unsupported schema keyword {key!r}")
    return _KEYWORD_TESTS[key](arg)


def _json_equal(a, b) -> bool:
    """Equality as jsonschema's const and enum take it: True and False are
    not 1 and 0, also inside sequences and mappings."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return len(a) == len(b) and all(k in b and _json_equal(v, b[k])
                                        for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def front_table_rows(tree: FrontTree, scores=None, low: float = DEFAULT_LOW,
                     high: float = DEFAULT_HIGH) -> list[dict]:
    """One row per front of level >= 2, in tree walk order: its path, size
    and q_split (the rows of fronts.json), and with `scores` also its level,
    mean T, unscored share and the stratum of its mean (report.json's
    fronts table)."""
    rows = []
    for node in tree.root.walk():
        if node.level < 2:
            continue
        row = {"path": path_string(node.path), "size": node.size,
               "q_split": node.q_split}
        if scores is not None:
            mean_t, share_unscored = front_mean(map(tree.ids.__getitem__, node.members),
                                                scores)
            row.update(level=node.level, mean_t=mean_t,
                       share_unscored=share_unscored,
                       stratum=classify(mean_t, low, high).value)
        rows.append(row)
    return rows


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the full analysis, write all artifacts to config.out_dir and
    return the report document written to report.json.

    The stages run in table order in this process, so the error raised is
    that of the first failing stage in the table (see run_stage); only the
    fronts stage forks, to split its level-2 fronts (fronts._split).

    Python's cyclic garbage collector is paused for the whole call
    (collector_paused). A report keeps what it builds until it ends, so a
    collection pass inside it frees nothing that reference counting would
    not, yet rescans every container the report holds: a planted report
    of 10k documents ran 169 passes in 27-49 ms. So no stage may hold its
    data in a reference cycle, which would keep it alive to the end of the
    report (see fronts._split). The parsed corpus is dropped after the
    last stage that reads it; the report keeps its counts.
    """
    with collector_paused():
        config.validate_paths()
        out = out_directory(config.out_dir)

        artifacts: dict = {}
        for i, stage in enumerate(STAGES):
            if i > _LAST_NET_READER:
                artifacts.pop("net", None)
            run_stage(stage, config, artifacts)
        core, tree = artifacts["core"], artifacts["tree"]

        doc = {
            "tool": {"name": "ktmap", "version": __version__},
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "seed": config.seed,
            "config": dataclasses.asdict(config),
            "corpus": {
                "n_documents": artifacts["corpus"]["n_documents"],
                "n_edges": artifacts["corpus"]["n_edges"],
                "n_selected": core.n_docs,
                "n_selected_edges": core.n_edges,
            },
            "power_law": artifacts["power_law"],
            "ck_scaling": artifacts["ck_fit"],
            "assortativity": artifacts["assort"],
            "fronts": {
                "mode": config.mode,
                "q_top": tree.root.q_split,
                "table": front_table_rows(tree, artifacts["scores"],
                                          config.low, config.high),
            },
            "hubs": artifacts["hubs"],
            "main_path": artifacts["main_path"],
        }
        validate_report(doc)
        write_json(out / "report.json", {**doc, **{
            section: JSONFile(out / name) for section, name in _SECTION_FILES.items()}})
    return doc


# report.json's sections that a stage wrote to a file of their own, as
# write_json writes them: report.json copies their text
_SECTION_FILES = {"power_law": "powerlaw.json", "ck_scaling": "ck_fit.json",
                  "hubs": "hubs.json", "main_path": "main_path.json"}


def out_directory(path) -> Path:
    """`path` as an output directory, made with its parents if missing; a
    path that cannot be one (a file, say) is a bad parameter."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output directory {path}: {exc.strerror}") from None
    return out


@contextmanager
def collector_paused() -> Iterator[None]:
    """Python's cyclic garbage collector off inside the block; the caller's
    setting (gc.isenabled()) is back after it, also when it raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_stage(stage: Stage, config: PipelineConfig, artifacts: dict) -> None:
    """Run one table entry on `artifacts`, adding the ones it makes; a data,
    parameter or I/O error is re-raised as a StageError with the stage name."""
    try:
        made = stage.run(config, Path(config.out_dir),
                         *(artifacts[name] for name in stage.reads))
    except (KTMapError, ValueError, OSError) as exc:
        raise StageError(stage.name, exc)
    artifacts.update(zip(stage.makes, made))


# -- stages ------------------------------------------------------------------


def _parse_stage(config: PipelineConfig, out: Path):
    if config.nodes is None or config.edges is None:
        raise ValueError("nodes and edges files must be given")
    parsed, text = load_corpus(config.nodes, config.edges, lenient=config.lenient,
                               keep_text=True)
    if parsed.n_docs == 0:
        raise KTMapError("corpus has no documents")
    net = _with_lexicon(config, parsed)
    if net is not parsed:  # the nodes text no longer describes the documents
        text = text._replace(nodes=None)
    write_corpus(net, out / "corpus.nodes.jsonl", out / "corpus.edges.csv", text)
    summary = {
        "n_documents": net.n_docs,
        "n_edges": net.n_edges,
        "n_skipped_edges": len(net.skipped_edges),
    }
    write_json(out / "corpus.summary.json", summary)
    return net, summary


def _with_lexicon(config: PipelineConfig, net: CitationNetwork) -> CitationNetwork:
    """Count raw terms with the config's lexicon, if any; explicit counts
    win. The network itself comes back if no document changes."""
    if not config.lexicon_basic:
        return net
    return net.with_lexicon(
        Lexicon.load(config.lexicon_basic, config.lexicon_clinical))


def _select_stage(config: PipelineConfig, out: Path, net: CitationNetwork):
    """A core of every document is the network parse wrote to corpus.*, so
    core.* are copies of those files: what write_corpus writes for it."""
    core = select_top_cited(net, config.fraction, rank_by=config.rank_by)
    if core.n_docs == net.n_docs:
        for name in ("nodes.jsonl", "edges.csv"):
            copy_file(out / f"corpus.{name}", out / f"core.{name}")
    else:
        write_corpus(core, out / "core.nodes.jsonl", out / "core.edges.csv")
    write_json(out / "selection.json", {
        "fraction": config.fraction,
        "rank_by": config.rank_by,
        "n_selected": core.n_docs,
        "n_selected_edges": core.n_edges,
    })
    return (core,)


def _fit_stage(config: PipelineConfig, out: Path, net: CitationNetwork):
    fit = fit_power_law(net.in_degrees, bootstrap=config.bootstrap, seed=config.seed)
    doc = {"alpha": fit.alpha, "xmin": fit.xmin, "ks": fit.ks_distance,
           "n_tail": fit.n_tail, "p_value": fit.p_value}
    write_json(out / "powerlaw.json", doc)
    return (doc,)


def _score_stage(config: PipelineConfig, out: Path, core: CitationNetwork):
    scores = score_documents(core)
    with written(out / "scores.csv") as fh:
        fh.write("id,t,stratum\n")
        for doc_id in core.ids:
            t = scores[doc_id]
            stratum = classify(t, config.low, config.high).value
            fh.write(f"{doc_id},{'' if t is None else repr(t)},{stratum}\n")
    try:
        assort = homophily_assortativity(core, scores)
    except KTMapError:
        log.warning("assortativity undefined: no scored citation pairs")
        assort = None
    write_json(out / "assortativity.json", {"r": assort})
    return scores, assort


def _fronts_stage(config: PipelineConfig, out: Path, core: CitationNetwork):
    graph = (core.projection if config.mode == "citation"
             else co_citation_projection(core))
    tree = hierarchical_fronts(graph, max_depth=config.max_depth,
                               min_front_size=config.min_front_size,
                               min_q_gain=config.min_q_gain)
    paths = tree.node_paths()
    with written(out / "fronts.csv") as fh:
        fh.write("id,path\n")
        for node in sorted(paths):
            fh.write(f"{node},{path_string(paths[node])}\n")
    level2 = level_assignment(paths, 2)
    write_json(out / "fronts.json", {
        "mode": config.mode,
        "q_top": tree.root.q_split,
        "n_level2": len(set(level2.values())),
        "fronts": front_table_rows(tree),
    })
    return tree, level2


def _metrics_stage(config: PipelineConfig, out: Path, core: CitationNetwork,
                   partition):
    graph = core.projection
    rows = node_metrics_table(graph, partition if set(partition) == set(graph.ids)
                              else None)
    with written(out / "metrics.csv") as fh:
        fh.write("id,k,c,p,z\n")
        for row in rows:
            cells = [row.id, str(row.k)]
            for val in (row.c, row.p, row.z):
                cells.append("" if val is None else repr(val))
            fh.write(",".join(cells) + "\n")
    try:
        fit = ck_scaling(graph, binning=config.binning)
        doc = {"slope": fit.slope, "intercept": fit.intercept,
               "r2": fit.r2, "n_bins": fit.n_bins}
    except KTMapError as exc:
        log.warning("C(k) scaling fit unavailable: %s", exc)
        doc = None
    write_json(out / "ck_fit.json", doc)
    return (doc,)


def _hubs_stage(config: PipelineConfig, out: Path, core: CitationNetwork,
                partition, scores):
    graph = core.projection
    if set(partition) != set(graph.ids):
        # co-citation partitions cover only cited documents
        graph = graph.subgraph([i for i, v in enumerate(graph.ids) if v in partition])
    hub_config = config.hub_config()
    hubs = detect_translational_hubs(graph, partition, scores, hub_config)
    doc = {
        "thresholds": dataclasses.asdict(hub_config),
        "candidates": [dict(dataclasses.asdict(h),
                            bridged_fronts=list(h.bridged_fronts)) for h in hubs],
        "regions": [list(r) for r in hub_regions(graph, hubs)],
    }
    write_json(out / "hubs.json", doc)
    return (doc,)


def _mainpath_stage(config: PipelineConfig, out: Path, core: CitationNetwork):
    path = main_path(core)
    doc = {
        "nodes": list(path.nodes),
        "spc": list(path.spc),
        "n_removed_edges": len(path.removed_edges),
    }
    write_json(out / "main_path.json", doc)
    return (doc,)


@dataclass(frozen=True)
class Stage:
    """One pipeline step: `run(config, out, *reads)` writes its stage files to
    `out` and returns the `makes` artifacts. `name` is also the CLI subcommand
    and the StageError tag; the subcommand sets the PipelineConfig fields in
    `flags` and prints `summary(artifacts, out)`."""

    name: str
    help: str
    reads: tuple[str, ...]
    makes: tuple[str, ...]
    run: Callable
    flags: tuple[str, ...]
    summary: Callable[[dict, Path], str]


STAGES = (
    Stage("parse", "validate a corpus and normalize it into --out",
          reads=(), makes=("net", "corpus"), run=_parse_stage,
          flags=("nodes", "edges", "lenient"),
          summary=lambda a, out: (f"parsed {a['net'].n_docs} documents, "
                                  f"{a['net'].n_edges} edges -> {out}")),
    Stage("select", "keep the top-cited fraction of the corpus",
          reads=("net",), makes=("core",), run=_select_stage,
          flags=("fraction", "rank_by"),
          summary=lambda a, out: (f"selected {a['core'].n_docs}/{a['net'].n_docs} "
                                  f"documents ({a['core'].n_edges} induced edges)")),
    Stage("fit-degrees", "fit a power law to the citation counts",
          reads=("net",), makes=("power_law",), run=_fit_stage,
          flags=("bootstrap", "seed"),
          summary=lambda a, out: json.dumps(
              {k: a["power_law"][k] for k in ("alpha", "xmin", "ks", "n_tail")})),
    Stage("score", "score documents on the basic-clinical axis",
          reads=("core",), makes=("scores", "assort"), run=_score_stage,
          flags=("lexicon_basic", "lexicon_clinical", "low", "high"),
          summary=lambda a, out: (
              f"scored {sum(t is not None for t in a['scores'].values())}/"
              f"{len(a['scores'])} documents; assortativity r="
              f"{'undefined' if a['assort'] is None else round(a['assort'], 4)}")),
    Stage("mainpath", "extract the SPC main path",
          reads=("core",), makes=("main_path",), run=_mainpath_stage, flags=(),
          summary=lambda a, out: " -> ".join(a["main_path"]["nodes"])),
    Stage("fronts", "detect nested research fronts",
          reads=("core",), makes=("tree", "partition"), run=_fronts_stage,
          flags=("max_depth", "min_front_size", "min_q_gain", "mode"),
          summary=lambda a, out: (
              f"found {len(set(a['partition'].values()))} level-2 fronts "
              f"(Q={a['tree'].root.q_split:.4f}, depth={a['tree'].depth()})")),
    Stage("metrics", "per-node metrics and the C(k) scaling fit",
          reads=("core", "partition"), makes=("ck_fit",), run=_metrics_stage,
          flags=("binning",),
          summary=lambda a, out: "wrote metrics.csv; " + (
              "no scaling fit" if a["ck_fit"] is None
              else f"C(k) slope={a['ck_fit']['slope']:.3f}")),
    Stage("hubs", "rank translational hub candidates",
          reads=("core", "partition", "scores"), makes=("hubs",),
          run=_hubs_stage, flags=("degree_pct", "c_max", "p_min", "t_spread_min"),
          summary=lambda a, out: (f"{len(a['hubs']['candidates'])} hub candidate(s) "
                                  f"in {len(a['hubs']['regions'])} region(s)")),
)


_LAST_NET_READER = max(i for i, stage in enumerate(STAGES) if "net" in stage.reads)


# -- reading stage files back ------------------------------------------------

# artifact -> the stage that writes the files it is read back from, and
# the files
STAGE_FILES = {
    "net": ("parse", "corpus.nodes.jsonl", "corpus.edges.csv"),
    "core": ("select", "core.nodes.jsonl", "core.edges.csv"),
    "scores": ("score", "scores.csv"),
    "strata": ("score", "scores.csv"),
    "paths": ("fronts", "fronts.csv"),
    "partition": ("fronts", "fronts.csv"),
    "hubs": ("hubs", "hubs.json"),
}


def load_artifacts(names, config: PipelineConfig) -> dict:
    """Read the named artifacts back from their stage files in config.out_dir;
    a corpus gets the config's lexicon, as `ktmap score --lexicon-*` asks.
    Besides the stage artifacts, "strata" is the stratum column `score`
    wrote with its thresholds and "paths" the front path tuple per node. A
    missing, unreadable or malformed file, hubs.json off the report
    schema's `hubs`, or rows that do not cover the core read with them,
    raises a StageFileError tagged with the stage that writes it."""
    out = Path(config.out_dir)
    artifacts = {}
    for name in names:
        maker, *files = STAGE_FILES[name]
        files = [out / f for f in files]
        where = f"{'/'.join(f.name for f in files)} in {out}"
        if not all(f.exists() for f in files):
            raise StageFileError(maker, f"missing {where}; run `ktmap {maker}` first")
        try:
            artifacts[name] = _read_artifact(name, files)
            if name in ("scores", "strata", "paths", "partition") and "core" in artifacts:
                _check_covers_core(artifacts[name], artifacts["core"],
                                   cited_only=maker == "fronts")
        except (KTMapError, ValueError, ReportSchemaError, OSError) as exc:
            raise StageFileError(maker, f"{where}: {exc}") from None
        if name in ("net", "core"):
            artifacts[name] = _with_lexicon(config, artifacts[name])
    return artifacts


def _read_artifact(name: str, files: list[Path]):
    """Artifact `name` of load_artifacts, read from its files."""
    if name in ("net", "core"):
        return load_corpus(*files)
    if name == "hubs":
        with open(files[0], encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_json(doc, load_report_schema()["properties"]["hubs"])
        return doc
    if name == "scores":
        return _read_rows(files[0], _score)
    if name == "strata":
        return _read_rows(files[0], _stratum)
    paths = _read_rows(files[0], _front_key)
    return paths if name == "paths" else level_assignment(paths, 2)


def _check_covers_core(rows: dict, core: CitationNetwork, cited_only: bool) -> None:
    """Raise a ValueError naming the first id of `rows` that is not a core
    document, else the first core document `rows` leaves out. With
    `cited_only`, rows of exactly the core documents cited inside the core
    (the co-citation nodes) cover it too."""
    unknown = next((v for v in rows if v not in core.index), None)
    if unknown is not None:
        raise ValueError(f"id {unknown!r} is not a core document")
    expected = core.ids
    if cited_only and all(core.in_degrees[core.index[v]] for v in rows):
        expected = [v for v, k in zip(core.ids, core.in_degrees) if k]
    missing = next((v for v in expected if v not in rows), None)
    if missing is not None:
        raise ValueError(f"no row for core document {missing!r}")


def _read_rows(path: Path, parse: Callable[[str], object]) -> dict:
    """{id: parse(rest of the line)} from a stage CSV whose first cell is the
    id; a line that `parse` rejects, or that repeats an id, raises a
    ValueError naming the line."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        next(fh, None)  # header
        for lineno, line in enumerate(fh, start=2):
            node, _, rest = line.rstrip("\n").partition(",")
            try:
                if node in rows:
                    raise ValueError(f"id {node!r} repeated")
                rows[node] = parse(rest)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return rows


def _front_key(path: str) -> tuple[int, ...]:
    """A fronts.csv path, read back only in the form path_string writes."""
    key = tuple(map(int, path.split(".")))
    if min(key) < 1 or path_string(key) != path:
        raise ValueError(f"front path {path!r} is not in the form fronts writes")
    return key


def _score(cells: str) -> float | None:
    """t from the `t,stratum` cells of a scores.csv line, a finite number
    in [0, 1]; None, and only then, if the stratum is unscored."""
    t, stratum = cells.split(",")
    if (not t) != (stratum == Stratum.UNSCORED.value):
        raise ValueError(f"t {t!r} does not fit stratum {stratum!r}")
    if t and not 0.0 <= float(t) <= 1.0:  # NaN fails it too
        raise ValueError(f"t {t!r} is not a number in [0, 1]")
    return float(t) if t else None


def _stratum(cells: str) -> str:
    """The stratum from the `t,stratum` cells of a scores.csv line."""
    _, stratum = cells.split(",")
    return Stratum(stratum).value
