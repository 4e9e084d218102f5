import argparse
import decimal
import gc
import itertools
import json
import logging
import os
import pickle
import runpy
import subprocess
import sys
import weakref
from contextlib import contextmanager, nullcontext
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktmap import _jsonio, corpus, errors, report
from ktmap.cli import build_parser, main
from ktmap.corpus import load_corpus, write_corpus
from ktmap.errors import InsufficientDataError, StageError, StageFileError
from ktmap.report import (STAGES, PipelineConfig, run_pipeline, run_stage,
                          validate_report)
from ktmap.selection import select_top_cited
from ktmap.synth import PlantedConfig, gen_planted_kt_network

from conftest import assert_no_child_left, read_graphml
from test_golden import GOLDEN, config_for

TOY = resources.files("ktmap.data").joinpath("toy")


def toy_config(out_dir, **overrides) -> PipelineConfig:
    return PipelineConfig.from_file(str(TOY / "config.cfg"),
                                    {"out_dir": str(out_dir), **overrides})


def write_lexicon_toy(tmp_path) -> tuple[str, str, str]:
    """The toy corpus with raw terms in place of its term counts, and the
    lexicon files that count them back; returns (nodes, basic, clinical)."""
    lines = []
    for line in (TOY / "nodes.jsonl").read_text().splitlines():
        rec = json.loads(line)
        rec["terms"] = (["kinase"] * rec.pop("basic_terms")
                        + ["trial"] * rec.pop("clinical_terms"))
        lines.append(json.dumps(rec))
    paths = tmp_path / "lex.nodes.jsonl", tmp_path / "basic.txt", tmp_path / "clinical.txt"
    for path, text in zip(paths, ("\n".join(lines), "kinase", "trial")):
        path.write_text(text + "\n")
    return tuple(str(p) for p in paths)


@contextmanager
def os_pipe(data: bytes):
    """A path whose reader gets `data` through an OS pipe that cannot seek,
    as bash's `<(cat file)` gives; `data` must fit the pipe's buffer."""
    read_fd, write_fd = os.pipe()
    try:
        with open(write_fd, "wb") as fh:
            fh.write(data)
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)


def count_node_records(monkeypatch) -> list:
    """A list that gains an entry per document write_corpus encodes from
    now on."""
    calls = []
    encode = corpus._node_record
    monkeypatch.setattr(corpus, "_node_record",
                        lambda *values: calls.append(values) or encode(*values))
    return calls


def strip_run_fields(doc: dict) -> dict:
    """Drop the timestamp and the run-specific output path from a report."""
    doc = json.loads(json.dumps(doc))
    doc.pop("generated_at")
    doc["config"].pop("out_dir")
    return doc


class TestPipeline:
    def test_toy_report_contents(self, tmp_path):
        doc = run_pipeline(toy_config(tmp_path))
        validate_report(doc)

        level2 = [row for row in doc["fronts"]["table"] if row["level"] == 2]
        assert len(level2) == 2
        means = [row["mean_t"] for row in level2]
        assert max(means) - min(means) >= 0.6
        assert [h["id"] for h in doc["hubs"]["candidates"]] == ["m00"]
        assert doc["corpus"]["n_documents"] == 40
        assert doc["corpus"]["n_selected"] == 40
        assert doc["assortativity"] > 0.5
        assert len(doc["main_path"]["nodes"]) >= 2

    def test_intermediate_artifacts_written(self, tmp_path):
        run_pipeline(toy_config(tmp_path))
        for name in ("corpus.nodes.jsonl", "corpus.edges.csv",
                     "corpus.summary.json", "core.nodes.jsonl",
                     "core.edges.csv", "selection.json", "powerlaw.json",
                     "scores.csv", "assortativity.json", "fronts.csv",
                     "fronts.json", "metrics.csv", "ck_fit.json", "hubs.json",
                     "main_path.json", "report.json"):
            assert (tmp_path / name).exists(), name

    def test_deterministic_across_runs(self, tmp_path):
        """Same config, same out dir: byte-identical apart from the timestamp."""
        out = tmp_path / "run"
        run_pipeline(toy_config(out))
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_pipeline(toy_config(out))
        for p in sorted(out.iterdir()):
            if p.name == "report.json":
                a = strip_run_fields(json.loads(first[p.name]))
                b = strip_run_fields(json.loads(p.read_bytes()))
                assert a == b
            else:
                assert p.read_bytes() == first[p.name], p.name

    def test_deterministic_across_thread_counts(self, tmp_path):
        docs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "ktmap.cli", "report",
                 "--config", str(TOY / "config.cfg"), "--out", str(out)],
                check=True, env=env, capture_output=True)
            with open(out / "report.json", encoding="utf-8") as fh:
                docs.append(strip_run_fields(json.load(fh)))
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)

    def test_runs_without_scipy(self, tmp_path):
        # scipy is only a test reference: the CLI must not import it, and a
        # report must come out the same where `import scipy` fails
        check = "import sys, ktmap.cli; assert 'scipy' not in sys.modules"
        subprocess.run([sys.executable, "-c", check], check=True)
        out = tmp_path / "noscipy"
        child = ("import sys; sys.modules['scipy'] = None\n"
                 "from ktmap.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", child, "report",
             "--config", str(TOY / "config.cfg"), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        run_pipeline(toy_config(tmp_path / "inproc"))
        assert ((out / "powerlaw.json").read_bytes()
                == (tmp_path / "inproc" / "powerlaw.json").read_bytes())

    def test_runs_without_jsonschema(self, tmp_path):
        # jsonschema is only the tests' reference for the schema check: a
        # report must not import it, and must come out the same where
        # `import jsonschema` fails
        plain = ("import sys\nfrom ktmap.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
                 "sys.exit(code)")
        blocked = ("import sys; sys.modules['jsonschema'] = None\n"
                   "from ktmap.cli import main; sys.exit(main(sys.argv[1:]))")
        outs = tmp_path / "plain", tmp_path / "blocked"
        for child, out in zip((plain, blocked), outs):
            proc = subprocess.run(
                [sys.executable, "-c", child, "report",
                 "--config", str(TOY / "config.cfg"), "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            a, b = ((out / name).read_bytes() for out in outs)
            if name == "report.json":
                a, b = (strip_run_fields(json.loads(x)) for x in (a, b))
            assert a == b, name

    def test_report_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.quantile and np.median import numpy.ma on first use; hubs
        # takes its quantiles without them
        child = ("import sys\nfrom ktmap.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
                 "sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", child, "report",
             "--config", str(TOY / "config.cfg"), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_stage_error_tagged(self, tmp_path):
        (tmp_path / "empty.jsonl").write_text("")
        (tmp_path / "edges.csv").write_text("")
        cfg = PipelineConfig(nodes=str(tmp_path / "empty.jsonl"),
                             edges=str(tmp_path / "edges.csv"),
                             out_dir=str(tmp_path / "out"))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "parse"

    def test_missing_input_rejected(self, tmp_path):
        cfg = PipelineConfig(nodes=str(tmp_path / "nope.jsonl"),
                             edges=str(tmp_path / "nope.csv"),
                             out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="not found"):
            run_pipeline(cfg)

    def test_lexicon_route(self, tmp_path):
        (tmp_path / "nodes.jsonl").write_text(
            '{"id": "a", "year": 2, "terms": ["kinase", "kinase", "trial"]}\n'
            '{"id": "b", "year": 1, "terms": ["trial"]}\n')
        (tmp_path / "edges.csv").write_text("a,b\na,ghost\n")
        (tmp_path / "basic.txt").write_text("kinase\n")
        (tmp_path / "clinical.txt").write_text("trial\n")
        cfg = PipelineConfig(nodes=str(tmp_path / "nodes.jsonl"),
                             edges=str(tmp_path / "edges.csv"),
                             lexicon_basic=str(tmp_path / "basic.txt"),
                             lexicon_clinical=str(tmp_path / "clinical.txt"),
                             fraction=1.0, min_front_size=50, lenient=True,
                             out_dir=str(tmp_path / "out"))
        with pytest.raises(StageError):
            # two docs, one edge: fronts stage works but the power-law fit
            # cannot (single positive degree value) - stage tag must say so
            run_pipeline(cfg)
        # the per-document counting still happened before the failing stage
        back = load_corpus(tmp_path / "out" / "corpus.nodes.jsonl",
                           tmp_path / "out" / "corpus.edges.csv")
        a = back.document(back.index["a"])
        assert (a.basic_terms, a.clinical_terms) == (2, 1)
        # counting terms keeps the edges the lenient parse skipped
        summary = json.loads((tmp_path / "out" / "corpus.summary.json").read_text())
        assert summary["n_skipped_edges"] == 1


class TestCopiedOutput:
    """Files the report writes as copies of files it wrote before."""

    @pytest.mark.parametrize("route", ["pipeline", "stages", "lexicon"])
    def test_whole_core_is_the_corpus_files(self, tmp_path, monkeypatch, route):
        # the toy config keeps every document (fraction = 1.0)
        nodes, edges = str(TOY / "nodes.jsonl"), str(TOY / "edges.csv")
        config = toy_config(tmp_path / "o")
        if route == "lexicon":
            nodes, basic, clinical = write_lexicon_toy(tmp_path)
            config = toy_config(tmp_path / "o", nodes=nodes, lexicon_basic=basic,
                                lexicon_clinical=clinical)
        encoded = count_node_records(monkeypatch)
        if route == "stages":
            for argv in (["parse", "--nodes", nodes, "--edges", edges],
                         ["select", "--fraction", "1.0"]):
                assert main([*argv, "--out", config.out_dir]) == 0
        else:
            run_pipeline(config)
        # parse copies the toy fixture and encodes the counted lexicon
        # corpus; select encodes nothing
        assert len(encoded) == (40 if route == "lexicon" else 0)
        core = select_top_cited(
            report._with_lexicon(config, load_corpus(nodes, edges)), 1.0)
        assert core.n_docs == 40
        write_corpus(core, tmp_path / "nodes.jsonl", tmp_path / "edges.csv")
        out = Path(config.out_dir)
        for name in ("nodes.jsonl", "edges.csv"):
            assert ((out / f"core.{name}").read_bytes()
                    == (out / f"corpus.{name}").read_bytes()
                    == (tmp_path / name).read_bytes()), name

    @pytest.mark.parametrize("case", ["toy-citation", "toy-cocitation", "planted",
                                      "no-ck-fit"])
    def test_report_json_is_the_returned_doc(self, tmp_path, case):
        # power_law, ck_scaling, hubs and main_path are copied from their
        # stage files, the rest encoded
        config = (toy_config(tmp_path, fraction=0.3) if case == "no-ck-fit"
                  else config_for(case, tmp_path))
        doc = run_pipeline(config)
        assert (doc["ck_scaling"] is None) == (case == "no-ck-fit")
        assert (Path(config.out_dir) / "report.json").read_text() == json.dumps(
            doc, indent=2, sort_keys=True) + "\n"


@contextmanager
def collector(enabled: bool):
    """The cyclic collector on or off inside the block, as before after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def empty_corpus(tmp_path) -> tuple[str, str]:
    nodes, edges = tmp_path / "empty.jsonl", tmp_path / "empty.csv"
    nodes.write_text("")
    edges.write_text("")
    return str(nodes), str(edges)


class TestCollectorPause:
    """run_pipeline and each stage command run with the cyclic garbage
    collector paused and leave the caller's setting as they found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_pipeline_restores_setting(self, tmp_path, monkeypatch, enabled):
        inside = []
        validate = report.validate_report
        monkeypatch.setattr(report, "validate_report",
                            lambda doc: (inside.append(gc.isenabled()), validate(doc)))
        nodes, edges = empty_corpus(tmp_path)
        with collector(enabled):
            run_pipeline(toy_config(tmp_path / "out"))
            assert gc.isenabled() is enabled
            with pytest.raises(StageError):
                run_pipeline(PipelineConfig(nodes=nodes, edges=edges,
                                            out_dir=str(tmp_path / "bad")))
            assert gc.isenabled() is enabled
        assert inside == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_stage_command_restores_setting(self, tmp_path, monkeypatch, enabled):
        inside = []
        load = report.load_corpus
        monkeypatch.setattr(report, "load_corpus", lambda *args, **kwargs: (
            inside.append(gc.isenabled()), load(*args, **kwargs))[1])
        nodes, edges = empty_corpus(tmp_path)
        with collector(enabled):
            assert main(["parse", "--nodes", str(TOY / "nodes.jsonl"), "--edges",
                         str(TOY / "edges.csv"), "--out", str(tmp_path / "out")]) == 0
            assert gc.isenabled() is enabled
            # a StageError from the stage, and a StageFileError from reading
            # the stage files, both exit 2
            assert main(["parse", "--nodes", nodes, "--edges", edges,
                         "--out", str(tmp_path / "bad")]) == 2
            assert gc.isenabled() is enabled
            assert main(["select", "--out", str(tmp_path / "bad")]) == 2
            assert gc.isenabled() is enabled
        assert inside == [False, False]

    def test_paused_report_garbage_does_not_grow_with_corpus(self, tmp_path, cpus):
        # the pause frees a report from collection passes; it is safe only
        # because a report leaves no cyclic garbage, in this process or
        # forking: none for 40 toy documents nor for 2k planted ones (a
        # graph left in a cycle would stay alive to the end)
        net, _ = gen_planted_kt_network(PlantedConfig(
            branching=(4, 5), leaf_size=100, p_within=(0.0155, 0.1245),
            p_between=0.00415, homophily=0.5, n_hubs=5), seed=1)
        nodes, edges = str(tmp_path / "p.nodes.jsonl"), str(tmp_path / "p.edges.csv")
        write_corpus(net, nodes, edges)
        garbage, held = [], []
        debug = gc.get_debug()
        with collector(False):
            for n in (1, 3):
                workers = cpus(n)
                for config in (toy_config(tmp_path / f"toy{n}"),
                               PipelineConfig(nodes=nodes, edges=edges,
                                              mode="cocitation",
                                              out_dir=str(tmp_path / f"planted{n}"))):
                    gc.collect()
                    run_pipeline(config)
                    gc.set_debug(gc.DEBUG_SAVEALL)
                    try:
                        garbage.append(gc.collect())
                        held += [type(obj).__name__ for obj in gc.garbage
                                 if type(obj).__module__.startswith("ktmap")]
                    finally:
                        gc.set_debug(debug)
                        gc.garbage.clear()
                assert bool(workers) == (n > 1)
        assert net.n_docs == 2005 and held == []
        assert garbage == [0, 0, 0, 0]


class TestReportEdgeStore:
    def test_report_builds_no_full_corpus_adjacency(self, tmp_path):
        config = toy_config(tmp_path, fraction=0.5)
        artifacts: dict = {}
        for stage in STAGES:
            run_stage(stage, config, artifacts)
        assert artifacts["net"].n_docs > artifacts["core"].n_docs
        assert not artifacts["net"]._adjacency and artifacts["core"]._adjacency


def run_files(out: Path) -> dict[str, bytes]:
    """Every file a report wrote to `out`, report.json without its run
    fields."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    doc = strip_run_fields(json.loads(files.pop("report.json")))
    files["report.json"] = json.dumps(doc, sort_keys=True).encode()
    return files


def test_same_run_tool(tmp_path, capsys):
    same_run = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "same_run.py"))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_pipeline(toy_config(out))
    assert same_run["main"]([str(a), str(b)]) == 0
    # out_dir is left out only by default
    assert same_run["main"]([str(a), str(b), "--ignore-config", "nodes"]) == 1
    assert capsys.readouterr().err == "report.json differs\n"
    # an SPC of 5,000 digits, more than int() reads from text by default
    doc = json.loads((a / "report.json").read_text(encoding="utf-8"))
    doc["main_path"]["spc"][0] = "SPC"
    (a / "report.json").write_text(json.dumps(doc).replace('"SPC"', "9" * 5000),
                                   encoding="utf-8")
    for last, code in (("9", 0), ("8", 1), ("9", 0)):  # b's last digit
        (b / "report.json").write_text(
            json.dumps(doc).replace('"SPC"', "9" * 4999 + last), encoding="utf-8")
        assert same_run["main"]([str(a), str(b)]) == code
    assert capsys.readouterr().err == "report.json differs\n"
    with open(b / "fronts.csv", "a", encoding="utf-8") as fh:
        fh.write("x\n")
    assert same_run["main"]([str(a), str(b)]) == 1
    assert capsys.readouterr().err == "fronts.csv differs\n"
    (b / "fronts.csv").unlink()
    assert same_run["main"]([str(a), str(b)]) == 1
    assert capsys.readouterr().err == f"{a} and {b} list different files\n"


# each stage after select, failed through the library call it makes
FAILING = {"fit-degrees": "fit_power_law", "score": "score_documents",
           "mainpath": "main_path", "fronts": "hierarchical_fronts",
           "metrics": "node_metrics_table", "hubs": "detect_translational_hubs"}


# the workers a report forks on three CPUs, all of them the fronts split's:
# the toy corpus's fronts are too small to be split again
FRONTS_WORKERS = {"toy-citation": 0, "toy-cocitation": 0, "planted": 2,
                  "planted-cocitation": 2, "cyclic": 2}


def fails(stage: str):
    """A stand-in for a stage's library call that fails as bad data does."""
    def fail(*args, **kwargs):
        raise InsufficientDataError(f"{stage} cannot run")
    return fail


class TestSideStages:
    """A report on one CPU and on three: only the fronts split forks, and
    the report is the same, and fails the same, either way."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_corpus_dropped_before_fronts(self, n, tmp_path, cpus, monkeypatch):
        # the report process's peak memory depends on it
        refs, alive = [], []
        select, fronts_ = report.select_top_cited, report.hierarchical_fronts
        monkeypatch.setattr(report, "select_top_cited", lambda net, *args, **kwargs: (
            refs.append(weakref.ref(net)), select(net, *args, **kwargs))[1])
        monkeypatch.setattr(report, "hierarchical_fronts", lambda *args, **kwargs: (
            alive.append(refs[0]() is not None), fronts_(*args, **kwargs))[1])
        workers = cpus(n)
        run_pipeline(toy_config(tmp_path, fraction=0.5))
        assert alive == [False]
        assert workers == []  # the toy corpus's fronts are too small to split

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_same_files_on_one_and_three_cpus(self, case, tmp_path, cpus):
        config = config_for(case, tmp_path)
        files = []
        for n in (1, 3):
            workers = cpus(n)
            config.out_dir = str(tmp_path / f"cpus{n}")
            run_pipeline(config)
            assert len(workers) == (FRONTS_WORKERS[case] if n > 1 else 0)
            files.append(run_files(Path(config.out_dir)))
        assert files[0] == files[1]
        assert_no_child_left()

    @pytest.mark.parametrize("failing, raised", [
        (["fit-degrees"], "fit-degrees"),
        (["fit-degrees", "fronts"], "fit-degrees"),
        (["score", "hubs"], "score"),
        (["fronts", "mainpath"], "mainpath"),
        (["hubs", "mainpath"], "mainpath"),
        (["mainpath"], "mainpath"),
        (["mainpath", "metrics"], "mainpath"),
    ])
    def test_first_failing_stage_in_table_order(self, failing, raised, tmp_path,
                                                 cpus, monkeypatch, capsys):
        for stage in failing:
            monkeypatch.setattr(report, FAILING[stage], fails(stage))
        seen = []
        for n in (1, 3):
            workers = cpus(n)
            with pytest.raises(StageError) as info:
                run_pipeline(toy_config(tmp_path / f"run{n}"))
            assert_no_child_left()
            code = main(["report", "--config", str(TOY / "config.cfg"),
                         "--out", str(tmp_path / f"cli{n}")])
            assert_no_child_left()
            assert workers == []  # the toy corpus's fronts are too small to split
            last = capsys.readouterr().err.splitlines()[-1]
            seen.append((info.value.stage, str(info.value), info.value.exit_code,
                         code, last))
        assert seen[0] == seen[1]
        assert seen[0][0] == raised
        assert seen[0][3] == 2
        assert seen[0][4] == (f"ktmap {raised}: stage '{raised}' failed: "
                              f"{raised} cannot run")

    def test_edgeless_core_fails_at_mainpath(self, tmp_path, cpus, capsys):
        # the core of the top 1% has no citation edge: mainpath and fronts
        # both fail, and mainpath comes first in the table
        seen = []
        for n in (1, 3):
            cpus(n)
            code = main(["report", "--config", str(TOY / "config.cfg"),
                         "--fraction", "0.01", "--out", str(tmp_path / f"cpus{n}")])
            assert_no_child_left()
            seen.append((code, capsys.readouterr().err.splitlines()[-1]))
        assert seen[0] == seen[1] == (
            2, "ktmap mainpath: stage 'mainpath' failed: "
               "main path undefined: graph has no edges")

    def test_records_handled_once(self, tmp_path, cpus, caplog):
        # a handler on the "ktmap" logger writes to a file the fronts
        # workers inherit, so a record handled in a worker too would show
        # twice
        handler = logging.FileHandler(tmp_path / "ktmap.log")
        handler.setLevel(logging.WARNING)
        logging.getLogger("ktmap").addHandler(handler)
        config = config_for("cyclic", tmp_path)
        records = []
        try:
            for n in (1, 3):
                cpus(n)
                caplog.clear()
                config.out_dir = str(tmp_path / f"cpus{n}")
                with caplog.at_level(logging.DEBUG, logger="ktmap"):
                    run_pipeline(config)
                records.append(sorted((r.name, r.levelname, r.getMessage())
                                      for r in caplog.records))
        finally:
            logging.getLogger("ktmap").removeHandler(handler)
            handler.close()
        assert records[0] == records[1]
        warnings = [m for _, level, m in records[1] if level == "WARNING"]
        assert any(m.startswith("dropping") for m in warnings)
        assert any(m.startswith("broke citation cycles") for m in warnings)
        lines = (tmp_path / "ktmap.log").read_text().splitlines()
        assert sorted(lines) == sorted(2 * warnings)  # both runs', each once


@pytest.mark.parametrize("error", [
    cls("a message") for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
    and cls not in (StageError, StageFileError)
], ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error):
    # the errors a fronts split worker can raise, sent back through its pipe
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(doc=json_values)
    def test_bytes_of_indented_sorted_json_dump(self, doc, tmp_path_factory):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        report.write_json(path, doc)
        assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True)
                                     + "\n").encode()

    def test_edge_values(self, tmp_path):
        doc = {"empty": [[], {}, ()], "nested": {"b": [1, {"c": []}], "a": None},
               "text": "caf\u00e9 \U0001f600 \"q\"\n\x00", "big": 10 ** 30,
               "floats": [0.1, -0.0, 1e300, float("nan"), float("inf"), -float("inf")],
               "flags": [True, False]}
        report.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == json.dumps(
            doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [{1: "int key"}, {"a": {1, 2}}, [object()],
                                     {"a": b"bytes"}])
    def test_other_types_raise_type_error(self, doc, tmp_path):
        with pytest.raises(TypeError):
            report.write_json(tmp_path / "doc.json", doc)

    def test_equal_ints_converted_once_per_file(self, tmp_path, monkeypatch):
        converted = []
        monkeypatch.setattr(_jsonio, "_int_text",
                            lambda n: converted.append(n) or int.__repr__(n))
        big = 7 ** 900
        report.write_json(tmp_path / "a.json", {"spc": [big, big * 1, 3, 3]})
        report.write_json(tmp_path / "b.json", [big])
        assert converted == [big, 3, big]
        assert (tmp_path / "a.json").read_text() == json.dumps(
            {"spc": [big, big, 3, 3]}, indent=2) + "\n"

    def test_ints_beyond_the_str_digit_limit(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        big = [7 ** 9000, -(10 ** 4300), 10 ** 4299]
        report.write_json(tmp_path / "doc.json", {"spc": big})
        assert sys.get_int_max_str_digits() == limit
        text = (tmp_path / "doc.json").read_text()
        digits = [str(decimal.Decimal(n)) for n in big]
        assert text == '{\n  "spc": [\n    ' + ",\n    ".join(digits) + "\n  ]\n}\n"
        back = json.loads(text, parse_int=decimal.Decimal)["spc"]
        assert back == [decimal.Decimal(n) for n in big]

    @pytest.mark.parametrize("old", [None, "{}\n"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, old):
        # the document fails half way through, after "a" was written
        path = tmp_path / "doc.json"
        if old is not None:
            path.write_text(old)
        with pytest.raises(TypeError):
            report.write_json(path, {"a": list(range(10_000)), "b": object()})
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["doc.json"])
        if old is not None:
            assert path.read_text() == old

    def test_stage_csv_written_whole(self, tmp_path, monkeypatch):
        # fronts.csv fails after its header and first rows are written
        config = toy_config(tmp_path)
        run_pipeline(config)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        written = []

        def failing(path):
            if len(written) == 3:
                raise ValueError("no path string")
            written.append(path)
            return ".".join(map(str, path))

        monkeypatch.setattr(report, "path_string", failing)
        fronts = next(stage for stage in STAGES if stage.name == "fronts")
        with pytest.raises(StageError, match="no path string"):
            run_stage(fronts, config, report.load_artifacts(fronts.reads, config))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestConfigFile:
    def test_round_trip_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("nodes = n.jsonl\nedges = e.csv\nfraction = 0.5\n"
                            "# comment\nmin_front_size = 7\nlenient = true\n")
        cfg = PipelineConfig.from_file(cfg_file, {"fraction": 0.25})
        assert cfg.fraction == 0.25
        assert cfg.min_front_size == 7
        assert cfg.lenient is True
        assert cfg.nodes == str(tmp_path / "n.jsonl")

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("nodes = n\nedges = e\nmystery = 1\n")
        with pytest.raises(ValueError, match="mystery"):
            PipelineConfig.from_file(cfg_file)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(nodes="n", edges="e", mode="sideways")

    @pytest.mark.parametrize("field", ["rank_by", "mode", "binning"])
    def test_choices_checked_when_built(self, field):
        with pytest.raises(ValueError, match=f"{field} must be "):
            PipelineConfig(**{field: "sideways"})

    @pytest.mark.parametrize("line", [
        "fraction = none", "lenient = maybe", "max_depth = 2.5",
        # values of the right type that the stage using them rejects
        "min_q_gain = nan", "c_max = nan", "c_max = -1", "t_spread_min = nan",
        "t_spread_min = inf", "bootstrap = -3", "seed = -1"])
    def test_bad_value_names_key_exit_1(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text((TOY / "config.cfg").read_text() + line + "\n")
        (tmp_path / "nodes.jsonl").write_text((TOY / "nodes.jsonl").read_text())
        (tmp_path / "edges.csv").write_text((TOY / "edges.csv").read_text())
        assert main(["report", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        key = line.partition(" ")[0]
        assert len(err) == 1
        if err[0].startswith("ktmap: "):
            assert err[0].startswith(f"ktmap: invalid parameter: {cfg_file}: {key}: ")
        else:
            stage = {"min_q_gain": "fronts", "bootstrap": "fit-degrees",
                     "seed": "fit-degrees"}.get(key, "hubs")
            assert err[0].startswith(f"ktmap {stage}: stage '{stage}' failed: {key} ")
        assert not (tmp_path / "o" / "report.json").exists()
        assert not (tmp_path / "o" / "hubs.json").exists()

    @pytest.mark.parametrize("argv", [["hubs", "--c-max", "nan"],
                                      ["hubs", "--c-max", "1.5"],
                                      ["hubs", "--t-spread", "inf"],
                                      ["fronts", "--min-q", "nan"],
                                      ["fit-degrees", "--bootstrap", "-3"]],
                             ids=" ".join)
    def test_non_finite_or_out_of_range_flag_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        run_pipeline(toy_config(out))
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"ktmap {argv[0]}: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_values_by_annotation(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("nodes = none\nedges = e.csv\nc_max = None\n"
                            "lenient = No\nseed = 3\nbinning = none\n"
                            "out_dir = o\n")
        cfg = PipelineConfig.from_file(cfg_file)
        # only the input files resolve against the config file's directory
        assert (cfg.nodes, cfg.out_dir) == (str(tmp_path / "none"), "o")
        assert (cfg.c_max, cfg.lenient, cfg.seed, cfg.binning) == (None, False, 3, "none")


class TestCliStages:
    def run_cli(self, *argv) -> int:
        return main(list(argv))

    @pytest.mark.parametrize("route", ["citation", "cocitation", "lexicon", "planted"])
    def test_stagewise_run_matches_pipeline(self, tmp_path, route):
        nodes, edges = str(TOY / "nodes.jsonl"), str(TOY / "edges.csv")
        overrides, fronts_flags, score_flags, differ = {}, [], [], set()
        if route == "cocitation":
            overrides["mode"] = "cocitation"
            fronts_flags = ["--mode", "cocitation"]
        if route == "lexicon":
            nodes, basic, clinical = write_lexicon_toy(tmp_path)
            overrides.update(nodes=nodes, lexicon_basic=basic,
                             lexicon_clinical=clinical)
            score_flags = ["--lexicon-basic", basic, "--lexicon-clinical", clinical]
            # the pipeline counts raw terms at parse, the stage commands only
            # at score, so their corpus files keep the terms uncounted
            differ = {"corpus.nodes.jsonl", "core.nodes.jsonl"}
        if route == "planted":
            # fronts.csv lists nodes by id, the front tree front by front: the
            # hub scores sum in that order, so it must survive the round trip
            net, _ = gen_planted_kt_network(PlantedConfig(
                branching=(3, 2), leaf_size=20, p_within=(0.1, 0.3),
                p_between=0.01, n_hubs=3), seed=5)
            nodes, edges = str(tmp_path / "p.nodes.jsonl"), str(tmp_path / "p.edges.csv")
            write_corpus(net, nodes, edges)
            overrides.update(nodes=nodes, edges=edges)

        out = tmp_path / "stages"
        assert self.run_cli("parse", "--nodes", nodes, "--edges", edges,
                            "--out", str(out)) == 0
        assert self.run_cli("select", "--fraction", "1.0", "--out", str(out)) == 0
        assert self.run_cli("fit-degrees", "--out", str(out)) == 0
        assert self.run_cli("score", *score_flags, "--out", str(out)) == 0
        assert self.run_cli("fronts", "--min-size", "25", *fronts_flags,
                            "--out", str(out)) == 0
        assert self.run_cli("metrics", "--out", str(out)) == 0
        assert self.run_cli("hubs", "--out", str(out)) == 0
        assert self.run_cli("mainpath", "--out", str(out)) == 0

        ref = tmp_path / "pipeline"
        run_pipeline(toy_config(ref, **overrides))
        written = sorted(p.name for p in out.iterdir())
        assert len(written) == 15
        for name in written:
            if name not in differ:
                assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_mainpath_spc_beyond_the_str_digit_limit(self, tmp_path, capsys):
        # a dated ladder of 9,100 layers of 3 documents, each citing every
        # document of the layer before: every main path edge lies on
        # 3 ** 9098 source-sink paths, 4,341 digits, more than the
        # interpreter's default int to str limit of 4,300
        layers, width = 9100, 3
        names = [[f"d{i:04d}{s}" for s in "abc"[:width]] for i in range(layers)]
        (tmp_path / "nodes.jsonl").write_text("".join(
            f'{{"id": "{v}", "year": {i}}}\n' for i, layer in enumerate(names)
            for v in layer))
        (tmp_path / "edges.csv").write_text("citing,cited\n" + "".join(
            f"{u},{v}\n" for i in range(1, layers) for u in names[i]
            for v in names[i - 1]))
        out = str(tmp_path / "o")
        limit = sys.get_int_max_str_digits()
        assert self.run_cli("parse", "--nodes", str(tmp_path / "nodes.jsonl"),
                            "--edges", str(tmp_path / "edges.csv"), "--out", out) == 0
        assert self.run_cli("select", "--fraction", "1", "--out", out) == 0
        assert self.run_cli("mainpath", "--out", out) == 0
        assert sys.get_int_max_str_digits() == limit
        with open(tmp_path / "o" / "main_path.json", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=decimal.Decimal)
        assert len(doc["nodes"]) == layers
        assert doc["spc"] == [decimal.Decimal(width ** (layers - 2))] * (layers - 1)
        capsys.readouterr()

    def test_missing_stage_inputs_exit_2(self, tmp_path):
        assert self.run_cli("select", "--out", str(tmp_path)) == 2
        assert self.run_cli("hubs", "--out", str(tmp_path)) == 2

    def test_missing_stage_file_tagged_with_its_stage(self, tmp_path, capsys):
        assert self.run_cli("hubs", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"ktmap select: missing core.nodes.jsonl/core.edges.csv in {tmp_path}; "
            "run `ktmap select` first\n")

    @pytest.mark.parametrize("name,stage,bad,expect", [
        pytest.param("fronts.csv", "fronts", "m00,x.y",
                     "line 4: invalid literal for int()",
                     id="fronts.csv-fronts-m00,x.y-invalid literal for int()"),
        pytest.param("scores.csv", "score", "m00",
                     "line 4: not enough values to unpack",
                     id="scores.csv-score-m00-not enough values to unpack"),
        # rows that disagree with the core
        pytest.param("fronts.csv", "fronts", lambda rows: rows + ["zz9,1"],
                     "id 'zz9' is not a core document", id="fronts-unknown-id"),
        pytest.param("fronts.csv", "fronts",
                     lambda rows: [r for r in rows if not r.startswith("a01,")],
                     "no row for core document 'a01'", id="fronts-cited-id-missing"),
        pytest.param("scores.csv", "score",
                     lambda rows: [r for r in rows if not r.startswith("a01,")],
                     "no row for core document 'a01'", id="scores-id-missing"),
        # a repeated id, which would otherwise win over the row before it
        pytest.param("fronts.csv", "fronts", lambda rows: rows + ["a00,9"],
                     "line 42: id 'a00' repeated", id="fronts-repeated-id"),
        pytest.param("scores.csv", "score", lambda rows: rows + ["a02,1.0,clinical"],
                     "line 42: id 'a02' repeated", id="scores-repeated-id"),
        # a T that is not a score, or that disagrees with the stratum on
        # whether the document was scored
        pytest.param("scores.csv", "score", "a02,7.5,clinical",
                     "line 4: t '7.5' is not a number in [0, 1]", id="scores-t-above-1"),
        pytest.param("scores.csv", "score", "a02,nan,basic",
                     "line 4: t 'nan' is not a number in [0, 1]", id="scores-t-nan"),
        pytest.param("scores.csv", "score", "a02,,basic",
                     "line 4: t '' does not fit stratum 'basic'", id="scores-no-t-scored"),
        pytest.param("scores.csv", "score", "a02,0.5,unscored",
                     "line 4: t '0.5' does not fit stratum 'unscored'",
                     id="scores-t-unscored"),
        pytest.param("hubs.json", "hubs", lambda rows: rows[:len(rows) // 2],
                     "Expecting", id="hubs-truncated"),
        pytest.param("hubs.json", "hubs",
                     lambda rows: [r.replace('"candidates"', '"candidate"')
                                   for r in rows],
                     "$: required property 'candidates' is missing",
                     id="hubs-no-candidates"),
    ])
    def test_malformed_stage_file_exit_2(self, tmp_path, capsys, name, stage,
                                         bad, expect):
        out = tmp_path / "o"
        run_pipeline(toy_config(out))
        lines = (out / name).read_text().splitlines()
        if callable(bad):
            lines = bad(lines)
        else:
            lines[3] = bad
        (out / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        readers = {"fronts.csv": ["metrics", "hubs", "export"],
                   "scores.csv": ["hubs", "export"], "hubs.json": ["export"]}[name]
        for command in readers:
            assert self.run_cli(command, "--out", str(out)) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"ktmap {stage}: {name} in {out}: {expect}")

    @pytest.mark.parametrize("path", ["-0", "+2", " 1", "1_0", "0", "01", "1.0"])
    def test_front_path_read_only_as_written(self, tmp_path, capsys, path):
        # int() takes every component of these paths
        out = tmp_path / "o"
        run_pipeline(toy_config(out))
        lines = (out / "fronts.csv").read_text().splitlines()
        lineno = lines.index("a01,1") + 1
        lines[lineno - 1] = f"a01,{path}"
        (out / "fronts.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for command in ("hubs", "export"):
            assert self.run_cli(command, "--out", str(out)) == 2
            assert capsys.readouterr().err == (
                f"ktmap fronts: fronts.csv in {out}: line {lineno}: front path "
                f"{path!r} is not in the form fronts writes\n")

    def test_bad_parameter_in_stage_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert self.run_cli("parse", "--nodes", str(TOY / "nodes.jsonl"),
                            "--edges", str(TOY / "edges.csv"), "--out", str(out)) == 0
        assert self.run_cli("select", "--fraction", "2", "--out", str(out)) == 1
        assert self.run_cli("report", "--config", str(TOY / "config.cfg"),
                            "--fraction", "2", "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("ktmap select: ") for line in err)
        with pytest.raises(StageError) as exc:
            run_pipeline(toy_config(tmp_path / "p", fraction=2.0))
        assert exc.value.stage == "select"
        assert exc.value.exit_code == 1

    def test_missing_input_file_exit_1(self, tmp_path, capsys):
        (tmp_path / "clinical.txt").write_text("trial\n")
        assert self.run_cli("parse", "--nodes", str(tmp_path / "missing.jsonl"),
                            "--edges", str(TOY / "edges.csv"),
                            "--out", str(tmp_path / "o")) == 1
        assert self.run_cli("score", "--lexicon-basic", str(tmp_path / "missing.txt"),
                            "--lexicon-clinical", str(tmp_path / "clinical.txt"),
                            "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "nodes file not found" in err
        assert "lexicon_basic file not found" in err

    @pytest.mark.parametrize("argv, message", [
        (["parse", "--nodes", "{tmp}", "--edges", "{toy}/edges.csv"],
         "nodes file is a directory: {tmp}"),
        (["score", "--lexicon-basic", "{tmp}", "--lexicon-clinical", "{tmp}"],
         "lexicon_basic file is a directory: {tmp}"),
        (["report", "--config", "{tmp}/dir.cfg"], "nodes file is a directory: {tmp}"),
    ], ids=["parse-nodes", "score-lexicon", "report-nodes"])
    def test_directory_input_exit_1(self, tmp_path, capsys, argv, message):
        (tmp_path / "dir.cfg").write_text(f"nodes = .\nedges = {TOY / 'edges.csv'}\n")
        argv = [arg.format(toy=TOY, tmp=tmp_path) for arg in argv]
        assert self.run_cli(*argv, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ktmap: invalid parameter: {message.format(tmp=tmp_path)}"]

    def test_unreadable_lexicon_is_a_bad_parameter(self, tmp_path):
        with pytest.raises(ValueError, match=f"^lexicon_basic file {tmp_path}: "):
            corpus.Lexicon.load(tmp_path, tmp_path)

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        (tmp_path / "n.jsonl").write_text("")
        (tmp_path / "e.csv").write_text("")
        assert self.run_cli("parse", "--nodes", str(tmp_path / "n.jsonl"),
                            "--edges", str(tmp_path / "e.csv"),
                            "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("ktmap parse: ")

    def test_duplicate_id_names_its_line_exit_2(self, tmp_path, capsys):
        (tmp_path / "n.jsonl").write_text('{"id": "a"}\n{"id": "b"}\n{"id": "a"}\n')
        (tmp_path / "e.csv").write_text("")
        assert self.run_cli("parse", "--nodes", str(tmp_path / "n.jsonl"),
                            "--edges", str(tmp_path / "e.csv"),
                            "--out", str(tmp_path / "o")) == 2
        assert "nodes line 3: duplicate document id 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, line, command", [
        ("nodes", 4, "parse"), ("edges", 5, "parse"), ("lexicon_basic", 2, "score")])
    def test_undecodable_input_exit_2(self, tmp_path, capsys, bad, line, command):
        # a byte that is not UTF-8, in a file with LF or CRLF line ends or
        # read from a pipe: each command reading the input exits 2 with the
        # same last stderr line, which names the input and the byte's line
        nodes, basic, clinical = write_lexicon_toy(tmp_path)
        good = {"nodes": nodes, "edges": str(TOY / "edges.csv"),
                "lexicon_basic": basic, "lexicon_clinical": clinical}
        lines = Path(good[bad]).read_bytes().split(b"\n")
        lines[line - 1] = b"\xff" + lines[line - 1]
        data = b"\n".join(lines)
        core = str(tmp_path / "core")
        if command == "score":
            assert self.run_cli("parse", "--nodes", nodes, "--edges", good["edges"],
                                "--out", core) == 0
            assert self.run_cli("select", "--out", core) == 0

        def source(how):
            if how == "pipe":
                return os_pipe(data)
            path = tmp_path / f"{how}-{bad}"
            path.write_bytes(data.replace(b"\n", b"\r\n") if how == "crlf" else data)
            return nullcontext(str(path))

        def argv(command, path):
            paths = {**good, bad: path}
            if command == "report":
                config = tmp_path / "bad.cfg"
                config.write_text("".join(f"{k} = {v}\n" for k, v in paths.items()))
                return ["report", "--config", str(config), "--out", str(tmp_path / "r")]
            if command == "score":
                return ["score", "--lexicon-basic", path, "--lexicon-clinical",
                        clinical, "--out", core]
            return ["parse", "--nodes", paths["nodes"], "--edges", paths["edges"],
                    "--out", str(tmp_path / "p")]

        last = {"report": set(), command: set()}
        for how, run in itertools.product(("file", "crlf", "pipe"), last):
            capsys.readouterr()
            with source(how) as path:
                assert self.run_cli(*argv(run, path)) == 2
            last[run].add(capsys.readouterr().err.splitlines()[-1])
        message = f"{bad} line {line}: not UTF-8 (invalid start byte)"
        in_parse = f"ktmap parse: stage 'parse' failed: {message}"
        assert last == {"report": {in_parse}, command: {
            f"ktmap error: {message}" if command == "score" else in_parse}}

    def test_written_corpus_from_pipes_copied(self, tmp_path, monkeypatch):
        # the toy fixture is in the written form: read through pipes, it is
        # copied to corpus.*, not encoded again
        toy = {name: (TOY / name).read_bytes() for name in ("nodes.jsonl", "edges.csv")}
        out = tmp_path / "o"
        encoded = count_node_records(monkeypatch)
        with os_pipe(toy["nodes.jsonl"]) as nodes, os_pipe(toy["edges.csv"]) as edges:
            assert self.run_cli("parse", "--nodes", nodes, "--edges", edges,
                                "--out", str(out)) == 0
        assert encoded == []
        for name, data in toy.items():
            assert (out / f"corpus.{name}").read_bytes() == data

    def test_byte_order_mark_not_part_of_the_text(self, tmp_path, monkeypatch):
        # a leading UTF-8 BOM, as a "CSV UTF-8" export writes it: the toy
        # fixture is still copied to corpus.* (without the BOM), and a
        # report from a config and lexicons with one is that without
        bom = "\ufeff".encode("utf-8")
        toy = {name: (TOY / name).read_bytes() for name in ("nodes.jsonl", "edges.csv")}
        for name, data in toy.items():
            (tmp_path / name).write_bytes(bom + data)
        out = tmp_path / "o"
        encoded = count_node_records(monkeypatch)
        assert self.run_cli("parse", "--nodes", str(tmp_path / "nodes.jsonl"),
                            "--edges", str(tmp_path / "edges.csv"), "--out", str(out)) == 0
        assert encoded == []
        for name, data in toy.items():
            assert (out / f"corpus.{name}").read_bytes() == data
        files = write_lexicon_toy(tmp_path)
        config = tmp_path / "lex.cfg"
        config.write_text((TOY / "config.cfg").read_text().replace(
            "nodes.jsonl", "lex.nodes.jsonl")
            + "lexicon_basic = basic.txt\nlexicon_clinical = clinical.txt\n")
        docs = []
        for run, prefix in enumerate((b"", bom)):
            for path in (*files, config, tmp_path / "edges.csv"):
                data = Path(path).read_bytes().removeprefix(bom)
                Path(path).write_bytes(prefix + data)
            assert self.run_cli("report", "--config", str(config),
                                "--out", str(tmp_path / f"r{run}")) == 0
            docs.append(strip_run_fields(json.loads(
                (tmp_path / f"r{run}" / "report.json").read_text())))
        assert docs[0] == docs[1]
        net = load_corpus(tmp_path / "r1" / "corpus.nodes.jsonl",
                          tmp_path / "r1" / "corpus.edges.csv")
        assert sum(net.basic_terms) > 0 and sum(net.clinical_terms) > 0

    @pytest.mark.parametrize("argv, message", [
        (["parse", "--nodes", "{toy}/nodes.jsonl", "--edges", "{toy}/edges.csv",
          "--out", "{tmp}/file"], "output directory {tmp}/file: File exists"),
        (["report", "--config", "{toy}/config.cfg", "--out", "{tmp}/file"],
         "output directory {tmp}/file: File exists"),
        (["report", "--config", "{tmp}/missing.cfg", "--out", "{tmp}/o"],
         "config file {tmp}/missing.cfg: No such file or directory"),
        (["report", "--config", "{tmp}", "--out", "{tmp}/o"],
         "config file {tmp}: Is a directory"),
    ], ids=["parse-out-is-a-file", "report-out-is-a-file", "config-missing",
            "config-is-a-directory"])
    def test_unusable_out_or_config_exit_1(self, tmp_path, capsys, argv, message):
        (tmp_path / "file").write_text("")
        assert self.run_cli(*[arg.format(toy=TOY, tmp=tmp_path) for arg in argv]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ktmap: invalid parameter: {message.format(tmp=tmp_path)}"]

    def test_unreadable_stage_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        run_pipeline(toy_config(out))
        (out / "fronts.csv").unlink()
        (out / "fronts.csv").mkdir()
        capsys.readouterr()
        for command in ("metrics", "hubs", "export"):
            assert self.run_cli(command, "--out", str(out)) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"ktmap fronts: fronts.csv in {out}: [Errno 21] ")

    def test_invalid_log_level_exit_1(self):
        # in a child: under pytest the root logger has handlers already, so
        # logging.basicConfig would not even look at the level
        proc = subprocess.run([sys.executable, "-m", "ktmap.cli", "--version"],
                              env=dict(os.environ, KTMAP_LOG="verbose"),
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "ktmap: invalid parameter: KTMAP_LOG must be "
            "debug|info|warning|error, got 'verbose'"]

    def test_usage_error_exit_1(self):
        assert self.run_cli("parse", "--nodes-only-bad-flag") == 1
        assert self.run_cli() == 1

    def test_data_error_exit_2(self, tmp_path):
        (tmp_path / "n.jsonl").write_text('{"id": "a"}\n{"id": "a"}\n')
        (tmp_path / "e.csv").write_text("")
        code = self.run_cli("parse", "--nodes", str(tmp_path / "n.jsonl"),
                            "--edges", str(tmp_path / "e.csv"),
                            "--out", str(tmp_path / "o"))
        assert code == 2

    def test_id_with_comma_exit_2(self, tmp_path, capsys):
        nodes = (TOY / "nodes.jsonl").read_text()
        n_lines = len(nodes.splitlines())
        (tmp_path / "n.jsonl").write_text(nodes + '{"id": "x,y"}\n')
        code = self.run_cli("parse", "--nodes", str(tmp_path / "n.jsonl"),
                            "--edges", str(TOY / "edges.csv"),
                            "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"line {n_lines + 1}" in capsys.readouterr().err

    def test_lone_surrogate_id_exit_2(self, tmp_path, capsys):
        # a \ud800 escape: no UTF-8 file can hold the id
        nodes = (TOY / "nodes.jsonl").read_text()
        n_lines = len(nodes.splitlines())
        (tmp_path / "n.jsonl").write_text(nodes + '{"id": "\\ud800"}\n')
        code = self.run_cli("parse", "--nodes", str(tmp_path / "n.jsonl"),
                            "--edges", str(TOY / "edges.csv"),
                            "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"ktmap parse: stage 'parse' failed: nodes line {n_lines + 1}: ")

    def test_report_command(self, tmp_path):
        code = self.run_cli("report", "--config", str(TOY / "config.cfg"),
                            "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            validate_report(json.load(fh))

    def test_schema_violation_exit_3(self, tmp_path, capsys, monkeypatch):
        # a report that fails its own schema is a bug in ktmap: an internal
        # error, and no report.json
        monkeypatch.setattr("ktmap.report.main_path", lambda core: SimpleNamespace(
            nodes=("m00",), spc=(1,), removed_edges=()))
        code = self.run_cli("report", "--config", str(TOY / "config.cfg"),
                            "--out", str(tmp_path))
        assert code == 3
        assert "$.main_path.nodes: ['m00'] fails minItems 2" in capsys.readouterr().err
        assert (tmp_path / "main_path.json").exists()
        assert not (tmp_path / "report.json").exists()

    def test_simulate_presets(self, tmp_path):
        for preset, extra in (("planted", ["--blocks", "2", "--leaf-size", "10",
                                           "--p-within", "0.4"]),
                              ("hierarchical", ["--iterations", "2"]),
                              ("random", ["--n", "30", "--p", "0.1"])):
            out = tmp_path / preset
            assert self.run_cli("simulate", "--preset", preset, "--seed", "1",
                                "--out", str(out), *extra) == 0
            net = load_corpus(out / "nodes.jsonl", out / "edges.csv")
            assert net.n_docs > 0
        assert (tmp_path / "planted" / "ground_truth.json").exists()

    def test_simulated_corpus_feeds_pipeline(self, tmp_path):
        sim = tmp_path / "sim"
        assert self.run_cli("simulate", "--preset", "planted", "--seed", "4",
                            "--blocks", "2", "--leaf-size", "30",
                            "--p-within", "0.3", "--p-between", "0.02",
                            "--out", str(sim)) == 0
        out = tmp_path / "run"
        assert self.run_cli("parse", "--nodes", str(sim / "nodes.jsonl"),
                            "--edges", str(sim / "edges.csv"),
                            "--out", str(out)) == 0
        assert self.run_cli("select", "--fraction", "1.0", "--out", str(out)) == 0
        assert self.run_cli("fronts", "--out", str(out)) == 0


class TestExport:
    def prepared(self, tmp_path) -> Path:
        out = tmp_path / "exp"
        run_pipeline(toy_config(out))
        return out

    def test_graphml_round_trip(self, tmp_path):
        out = self.prepared(tmp_path)
        assert main(["export", "--format", "graphml", "--out", str(out)]) == 0
        nodes, edges, attrs = read_graphml(out / "graph.graphml")
        net = load_corpus(out / "core.nodes.jsonl", out / "core.edges.csv")
        assert sorted(nodes) == list(net.ids)
        assert sorted(edges) == list(net.edges)

    def test_hub_attribute_matches_report(self, tmp_path):
        out = self.prepared(tmp_path)
        main(["export", "--format", "graphml", "--out", str(out)])
        _, _, attrs = read_graphml(out / "graph.graphml")
        with open(out / "hubs.json", encoding="utf-8") as fh:
            hub_ids = {h["id"] for h in json.load(fh)["candidates"]}
        flagged = {v for v, a in attrs.items() if a.get("hub") == "true"}
        assert flagged == hub_ids

    def test_front_attribute_matches_table(self, tmp_path):
        out = self.prepared(tmp_path)
        main(["export", "--format", "graphml", "--out", str(out)])
        _, _, attrs = read_graphml(out / "graph.graphml")
        paths = {}
        with open(out / "fronts.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                node, _, path = line.strip().partition(",")
                paths[node] = path
        for node, path in paths.items():
            assert attrs[node].get("front") == path

    def test_dot_output(self, tmp_path):
        out = self.prepared(tmp_path)
        assert main(["export", "--format", "dot", "--out", str(out)]) == 0
        text = (out / "graph.dot").read_text()
        assert text.startswith("digraph")
        assert '"m00"' in text and "doublecircle" in text

    def test_stratum_attribute_from_score_thresholds(self, tmp_path):
        # the strata `score` wrote with its --low/--high, not the defaults
        out = tmp_path / "exp"
        assert main(["parse", "--nodes", str(TOY / "nodes.jsonl"),
                     "--edges", str(TOY / "edges.csv"), "--out", str(out)]) == 0
        assert main(["select", "--fraction", "1.0", "--out", str(out)]) == 0
        assert main(["score", "--low", "0.1", "--high", "0.2",
                     "--out", str(out)]) == 0
        assert main(["export", "--format", "graphml", "--out", str(out)]) == 0
        _, _, attrs = read_graphml(out / "graph.graphml")
        with open(out / "scores.csv", encoding="utf-8") as fh:
            next(fh)
            strata = dict(line.strip().split(",")[::2] for line in fh)
        assert attrs["m00"]["stratum"] == strata["m00"] == "clinical"
        assert {v: a["stratum"] for v, a in attrs.items()} == strata

    def test_unknown_format_listed(self, tmp_path):
        out = self.prepared(tmp_path)
        from ktmap.export import export_graph
        net = load_corpus(out / "core.nodes.jsonl", out / "core.edges.csv")
        with pytest.raises(ValueError, match="graphml, dot"):
            export_graph(net, out / "x", "gexf")


# Every subcommand's options as "option strings -> dest [type] [choices]
# [flag] [required]". Config flags are derived from the PipelineConfig
# annotations, so a renamed flag, a changed type or a lost choice shows here.
CLI_SURFACE = {
    'parse': [
        '-h/--help -> help flag',
        '--nodes -> nodes required',
        '--edges -> edges required',
        '--lenient -> lenient flag',
        '--out -> out_dir required',
    ],
    'select': [
        '-h/--help -> help flag',
        '--fraction -> fraction type=float',
        '--rank-by -> rank_by choices=in_degree|external',
        '--out -> out_dir required',
    ],
    'fit-degrees': [
        '-h/--help -> help flag',
        '--bootstrap -> bootstrap type=int',
        '--seed -> seed type=int',
        '--out -> out_dir required',
    ],
    'score': [
        '-h/--help -> help flag',
        '--lexicon-basic -> lexicon_basic',
        '--lexicon-clinical -> lexicon_clinical',
        '--low -> low type=float',
        '--high -> high type=float',
        '--out -> out_dir required',
    ],
    'fronts': [
        '-h/--help -> help flag',
        '--max-depth -> max_depth type=int',
        '--min-size -> min_front_size type=int',
        '--min-q -> min_q_gain type=float',
        '--mode -> mode choices=citation|cocitation',
        '--out -> out_dir required',
    ],
    'metrics': [
        '-h/--help -> help flag',
        '--binning -> binning choices=log2|none',
        '--out -> out_dir required',
    ],
    'hubs': [
        '-h/--help -> help flag',
        '--degree-pct -> degree_pct type=float',
        '--c-max -> c_max type=float',
        '--p-min -> p_min type=float',
        '--t-spread -> t_spread_min type=float',
        '--out -> out_dir required',
    ],
    'mainpath': [
        '-h/--help -> help flag',
        '--out -> out_dir required',
    ],
    'simulate': [
        '-h/--help -> help flag',
        '--preset -> preset choices=planted|hierarchical|random required',
        '--seed -> seed type=int',
        '--blocks -> blocks',
        '--leaf-size -> leaf_size type=int',
        '--p-within -> p_within',
        '--p-between -> p_between type=float',
        '--homophily -> homophily type=float',
        '--t-targets -> t_targets',
        '--hubs -> n_hubs type=int',
        '--hub-degree -> hub_degree type=int',
        '--iterations -> iterations type=int',
        '--n -> n type=int',
        '--p -> p type=float',
        '--out -> out_dir required',
    ],
    'report': [
        '-h/--help -> help flag',
        '--config -> config required',
        '--fraction -> fraction type=float',
        '--seed -> seed type=int',
        '--mode -> mode choices=citation|cocitation',
        '--out -> out_dir',
    ],
    'export': [
        '-h/--help -> help flag',
        '--format -> format choices=graphml|dot',
        '--out -> out_dir required',
    ],
}


def cli_surface() -> dict[str, list[str]]:
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, sub in subcommands.choices.items():
        rows = []
        for action in sub._actions:
            row = "/".join(action.option_strings) + " -> " + action.dest
            if action.type is not None:
                row += f" type={action.type.__name__}"
            if action.choices is not None:
                row += " choices=" + "|".join(map(str, action.choices))
            if action.nargs == 0:
                row += " flag"
            if action.required:
                row += " required"
            rows.append(row)
        surface[name] = rows
    return surface


def test_cli_surface_pinned():
    assert cli_surface() == CLI_SURFACE
