"""One measured report in a fresh interpreter.

Usage: python3 perfbench/child.py '<json job>'

The job names the input files, the output directory, the pipeline settings
and whether to trace. The child first imports ``ktmap.cli``, as every ktmap
command does, and notes when that import finished, so the parent can time
interpreter start-up (``setup_s``) on the same process. It then calls
``ktmap.report.run_pipeline`` once and times only that call, checks
``report.json`` against the shipped schema, digests the report and the stage
CSVs, and prints one JSON line with the results. Peak RSS is the child's
own high-water mark (Linux ``VmHWM``), so it covers the interpreter, the
imports and the one report. Both the import and the call run under a
``speed.SpeedSampler``, so the parent can scale their times to the
reference speed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys
import time

def report_digest(out_dir: str) -> str:
    """sha256 of report.json without its run-dependent fields (timestamp and
    file locations), plus every stage CSV."""
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


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    Not getrusage's ru_maxrss: Linux carries that over from the parent
    across fork and exec, so a large parent would inflate it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(job: dict, ready: float, sampler) -> dict:
    import ktmap
    import ktmap.report

    tracer = None
    if job["trace"]:
        sys.dont_write_bytecode = True  # for tracing.py, not for ktmap
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    config = ktmap.report.PipelineConfig(nodes=job["nodes"], edges=job["edges"],
                                         out_dir=job["out"], **job["pipeline"])
    sampler.start()
    t0 = time.perf_counter()
    ktmap.report.run_pipeline(config)
    report_s = time.perf_counter() - t0
    report_probe_s = sampler.stop()
    peak_rss_mb = peak_rss_kb() / 1024.0

    result = {"ready": ready, "report_s": report_s,
              "report_probe_s": report_probe_s, "peak_rss_mb": peak_rss_mb,
              "backend": ktmap.KERNEL_BACKEND}
    if tracer is not None:
        tracer.restore()
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, tracer.warnings)
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(os.path.join(job["out"], "report.json"), encoding="utf-8") as fh:
        ktmap.report.validate_report(json.load(fh))
    result["digest"] = report_digest(job["out"])
    return result


if __name__ == "__main__":
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    from speed import SpeedSampler  # leaves no cache next to speed.py

    sys.dont_write_bytecode = write_bytecode
    sampler = SpeedSampler()
    sampler.start()
    import ktmap.cli  # noqa: F401

    # perf_counter is the system-wide monotonic clock on Linux, so the parent
    # can subtract its own spawn time from this
    ready = time.perf_counter()
    setup_probe_s = sampler.stop()
    result = main(json.loads(sys.argv[1]), ready, sampler)
    result["setup_probe_s"] = setup_probe_s
    print(json.dumps(result))
