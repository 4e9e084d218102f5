#!/usr/bin/env python3
"""End-to-end benchmark of ``ktmap report`` (``ktmap.report.run_pipeline``).

Run from the root of a ktmap source checkout:

    python3 perfbench/run.py --workload planted --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke            # every metric emitted, gate on
    python3 perfbench/run.py --record-digests   # rewrite digests.json

Each report runs in a fresh single-threaded child process, one at a time.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs untraced /
traced child pairs on the same corpus and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# leave no bytecode cache next to the benchmark's own modules
sys.dont_write_bytecode = True

from speed import at_reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORK_DIR = ".perfbench_work"
MIN_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s

UNITS = {"peak_rss_mb": "MB", "success_rate": "ratio", "front_nmi": "nmi"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Bench:
    """Launches child processes from the checkout at ``root``."""

    def __init__(self, root: str, deadline_s: float | None = None):
        self.root = root
        self.deadline_s = deadline_s
        self.work = os.path.join(root, WORK_DIR)
        self.out_root = os.path.join(self.work, f"run-{os.getpid()}")
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"

    def time_left(self) -> float:
        if self.deadline_s is None:
            return float("inf")
        return self.deadline_s - (time.monotonic() - self.started)

    def timeout(self) -> float | None:
        """Timeout for the next child, so the whole run meets its deadline."""
        return None if self.deadline_s is None else max(1.0, self.time_left())

    def warm_up(self) -> None:
        """Import ktmap.cli once untimed, so bytecode caches exist."""
        subprocess.run([sys.executable, "-c", "import ktmap.cli"],
                       env=self.env, check=True, timeout=self.timeout())

    def report(self, workload, corpus_dir: str, trace: bool) -> dict:
        """One report in a fresh child; returns its result or an error."""
        out = os.path.join(self.out_root, "out")
        shutil.rmtree(out, ignore_errors=True)
        job = {"nodes": os.path.join(corpus_dir, "nodes.jsonl"),
               "edges": os.path.join(corpus_dir, "edges.csv"),
               "out": out, "pipeline": workload.pipeline, "trace": trace,
               "spans": os.path.join(self.out_root, "spans.json")}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
                env=self.env, capture_output=True, text=True,
                timeout=self.timeout())
        except subprocess.TimeoutExpired:
            return {"error": "timed out", "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"exit {proc.returncode}: {tail[0]}", "wall_s": wall}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = wall
        # wall times, and the same scaled to the reference speed by the probe
        # the child sampled while it imported and while it ran the report
        result["setup_wall_s"] = result["ready"] - t0
        result["report_wall_s"] = result["report_s"]
        result["setup_s"] = at_reference(result["setup_wall_s"],
                                         result["setup_probe_s"])
        result["report_s"] = at_reference(result["report_wall_s"],
                                          result["report_probe_s"])
        for name in result.get("layers", {}):
            if name.endswith("_s"):
                result["layers"][name] = at_reference(
                    result["layers"][name], result["report_probe_s"])
        result["front_nmi"] = front_nmi(out, corpus_dir)
        if trace:
            with open(job["spans"], encoding="utf-8") as fh:
                result["spans"] = json.load(fh)
        return result

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)


def front_nmi(out_dir: str, corpus_dir: str) -> float:
    """NMI of level-2 fronts against the planted level-1 blocks, over the
    clustered core (planted hubs have no block and are left out)."""
    from ktmap.synth import nmi

    with open(os.path.join(corpus_dir, "blocks.json"), encoding="utf-8") as fh:
        blocks = json.load(fh)
    fronts = {}
    with open(os.path.join(out_dir, "fronts.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            node, path = line.rstrip("\n").rsplit(",", 1)
            if node in blocks:
                fronts[node] = path.split(".")[0]
    return nmi(fronts, {node: blocks[node] for node in fronts})


def load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check(result: dict, expected: str | None, backend: str | None) -> str | None:
    """Reason the sample failed the correctness gate, or None."""
    if "error" in result:
        return result["error"]
    if expected is None:
        return "no reference digest for this corpus"
    if result["digest"] != expected:
        return f"digest {result['digest'][:12]} != reference {expected[:12]}"
    if backend is not None and result["backend"] != backend:
        return f"kernel backend changed mid-run: {result['backend']}"
    return None


def measure(bench: Bench, workload, seed: int, seconds: float, trace: bool,
            min_samples: int) -> dict:
    """Run reports while the next one (assumed as long as the last) fits in
    `seconds` of child time, corpus generation excluded, and until at least
    `min_samples` corpora are done."""
    from corpora import ensure_corpus

    reference = load_digests().get(workload.name, {})
    corpora_dir = os.path.join(bench.work, "corpora")
    samples, failures, backend = [], [], None
    spent = last = 0.0
    i = 0
    while (i < min_samples or spent + last <= seconds) \
            and bench.time_left() > 30:
        cseed = workload.corpus_seed(seed, i)
        corpus = ensure_corpus(workload, cseed, corpora_dir)
        expected = reference.get(str(cseed))
        pair = [bench.report(workload, corpus, trace=False)]
        if trace:
            pair.append(bench.report(workload, corpus, trace=True))
        if trace and "digest" in pair[0] and "digest" in pair[1] \
                and pair[0]["digest"] != pair[1]["digest"]:
            pair[1]["error"] = "traced report differs from untraced"
        last = sum(result["wall_s"] for result in pair)
        spent += last
        for result in pair:
            reason = check(result, expected, backend)
            if reason is not None:
                failures.append(f"corpus {workload.name}-{cseed}: {reason}")
            backend = backend or result.get("backend")
        samples.append({"corpus_seed": cseed, "runs": pair})
        i += 1
    return {"samples": samples, "failures": failures, "backend": backend}


def summarise(summary: dict, trace: bool) -> dict:
    ok = [s["runs"] for s in summary["samples"]
          if all("error" not in r for r in s["runs"])]
    attempted = sum(len(s["runs"]) for s in summary["samples"])
    metrics: dict[str, float] = {}
    if not ok:
        return metrics
    if not trace:
        runs = [p[0] for p in ok]
        metrics["report_s"] = statistics.median(r["report_s"] for r in runs)
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        # Means, not medians: both are fixed per corpus up to ~1%, and the
        # median of a run's 6-7 corpora jumps between corpora from seed to
        # seed (front_nmi spread 7.7% over ten seeds, the mean's 3-5%).
        metrics["peak_rss_mb"] = statistics.mean(r["peak_rss_mb"] for r in runs)
        metrics["success_rate"] = 1.0 - len(summary["failures"]) / attempted
        metrics["front_nmi"] = statistics.mean(r["front_nmi"] for r in runs)
        return metrics
    for name in ok[0][1]["layers"]:
        metrics[name] = statistics.median(p[1]["layers"][name] for p in ok)
    metrics["trace.overhead_s"] = statistics.median(
        p[1]["report_s"] - p[0]["report_s"] for p in ok)
    return metrics


def environment(seed: int, backend: str | None) -> dict:
    return {"kernel_backend": backend, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed,
            "KTMAP_PURE": os.environ.get("KTMAP_PURE")}


def run_workload(bench: Bench, name: str, seed: int, seconds: float,
                 trace: bool, min_samples: int = MIN_SAMPLES) -> dict:
    from corpora import WORKLOADS

    bench.warm_up()
    summary = measure(bench, WORKLOADS[name], seed, seconds, trace,
                      1 if trace else min_samples)
    metrics = summarise(summary, trace)
    attempted = sum(len(s["runs"]) for s in summary["samples"])
    failed = len(summary["failures"])
    env = environment(seed, summary["backend"])
    print(f"# {name}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# samples={len(summary['samples'])}")
    for sample in summary["samples"]:
        print(f"# corpus {name}-{sample['corpus_seed']}: " + " ".join(
            f"{k}={r[k]:.4f}" for r in sample["runs"]
            for k in ("setup_s", "report_s", "setup_wall_s", "report_wall_s")
            if k in r) + " probe_us=" + ",".join(
            f"{r[k] * 1e6:.0f}" for r in sample["runs"]
            for k in ("setup_probe_s", "report_probe_s") if k in r))
    for reason in summary["failures"]:
        print(f"# FAILED {reason}")
    if trace:
        spans = summary["samples"][-1]["runs"][-1].get("spans")
        with open(os.path.join(bench.work, f"spans-{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"environment": env, "spans": spans}, fh)
        if "trace.overhead_s" in metrics:
            print(f"# {name}: tracing overhead "
                  f"{metrics['trace.overhead_s']:+.4f} s per report")
    else:
        print(f"# {name}: error_rate={failed / attempted:.4f} "
              f"({failed}/{attempted})")
        for key in ("report_wall_s", "setup_wall_s"):
            times = [r[key] for s in summary["samples"] for r in s["runs"]
                     if key in r]
            if times:
                print(f"# {name}: {key} median={statistics.median(times):.4f} "
                      f"min={min(times):.4f} over {len(times)} reports")
    for key, value in metrics.items():
        print(f"{name} {key} {value} {unit_of(key)}")
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()}}


def smoke(bench: Bench) -> bool:
    """One short traced and untraced run per workload; every metric named in
    BENCHMARK.json must be emitted and the correctness gate must pass."""
    with open(os.path.join(bench.root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run_workload(bench, workload["name"], 0, 0.0, trace,
                               min_samples=1)
            missing = {m["name"] for m in spec[key]} - set(res["metrics"])
            if missing or not res["correct"]:
                ok = False
                print(f"# SMOKE FAIL {workload['name']} trace={int(trace)} "
                      f"missing={sorted(missing)} correct={res['correct']}")
    print("# smoke " + ("ok" if ok else "FAILED"))
    return ok


def record_digests(bench: Bench) -> None:
    """Write the reference digest of every pool corpus of every workload."""
    from corpora import POOL_SIZE, WORKLOADS, ensure_corpus

    digests: dict = {}
    for workload in WORKLOADS.values():
        digests[workload.name] = {}
        for cseed in range(POOL_SIZE):
            corpus = ensure_corpus(workload, cseed,
                                   os.path.join(bench.work, "corpora"))
            result = bench.report(workload, corpus, trace=False)
            if "error" in result:
                raise SystemExit(f"{workload.name}-{cseed}: {result['error']}")
            digests[workload.name][str(cseed)] = result["digest"]
            print(f"{workload.name}-{cseed} {result['digest']}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ktmap", "report.py")):
        print("perfbench: run from the root of a ktmap checkout "
              "(src/ktmap not found)", file=sys.stderr)
        return 2
    from corpora import WORKLOADS

    # the corpus generators run in this process, on the checkout's ktmap
    sys.path.insert(0, os.path.join(root, "src"))
    # only a measured run is held to the deadline
    timed = not (args.smoke or args.record_digests)
    bench = Bench(root, DEADLINE_S if timed else None)
    try:
        if args.smoke:
            return 0 if smoke(bench) else 1
        if args.record_digests:
            record_digests(bench)
            return 0
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
        result = run_workload(bench, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
