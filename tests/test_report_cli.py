import argparse
import gc
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from ktmap import report
from ktmap.cli import build_parser, main
from ktmap.corpus import load_corpus, write_corpus
from ktmap.errors import StageError
from ktmap.report import (STAGES, PipelineConfig, run_pipeline, run_stage,
                          validate_report)
from ktmap.synth import PlantedConfig, gen_planted_kt_network

from conftest import read_graphml

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

    def test_paused_report_garbage_does_not_grow_with_corpus(self, tmp_path):
        # the pause frees a report from collection passes; it is safe only
        # because the cyclic garbage a report leaves stays small: about 300
        # objects for 40 toy documents and for 2k planted ones, none of them
        # a ktmap object (a graph left in a cycle would stay alive to the end)
        net, _ = gen_planted_kt_network(PlantedConfig(
            branching=(4, 5), leaf_size=100, p_within=(0.0155, 0.1245),
            p_between=0.00415, homophily=0.5, n_hubs=5), seed=1)
        nodes, edges = str(tmp_path / "p.nodes.jsonl"), str(tmp_path / "p.edges.csv")
        write_corpus(net, nodes, edges)
        garbage, held = [], []
        debug = gc.get_debug()
        with collector(False):
            for config in (toy_config(tmp_path / "toy"),
                           PipelineConfig(nodes=nodes, edges=edges, mode="cocitation",
                                          out_dir=str(tmp_path / "planted"))):
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
        assert net.n_docs == 2005 and held == []
        assert garbage[1] <= garbage[0] + 10 < net.n_docs // 4


class TestReportEdgeStore:
    def test_report_builds_no_full_corpus_adjacency(self, tmp_path):
        config = toy_config(tmp_path, fraction=0.5)
        artifacts: dict = {}
        for stage in STAGES:
            run_stage(stage, config, artifacts)
        assert artifacts["net"].n_docs > artifacts["core"].n_docs
        assert not artifacts["net"]._adjacency and artifacts["core"]._adjacency


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
        "t_spread_min = inf"])
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
            stage = "fronts" if key == "min_q_gain" else "hubs"
            assert err[0].startswith(f"ktmap {stage}: stage '{stage}' failed: {key} ")
        assert not (tmp_path / "o" / "report.json").exists()
        assert not (tmp_path / "o" / "hubs.json").exists()

    @pytest.mark.parametrize("argv", [["hubs", "--c-max", "nan"],
                                      ["hubs", "--c-max", "1.5"],
                                      ["hubs", "--t-spread", "inf"],
                                      ["fronts", "--min-q", "nan"]],
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
