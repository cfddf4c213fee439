"""The measured process: set-up, then timed passes of one workload.

Usage: ``python3 perfbench/worker.py JOB_JSON RESULT_JSON``, started by
``run.py`` with ``PYTHONPATH`` pointing at ``src``. Set-up ends when
``valgram`` is imported and the frame index and voice rules are loaded; with
``setup_only`` the process stops there. Otherwise it runs passes one after
another until the next pass would end past the job's ``seconds`` (at least
one pass), and writes per-pass wall and CPU time, per-operation outcomes, the
process's peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

import spans
import workloads  # imports every module of the valgram package
from valgram import frames, normalize


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    frames.load_frame_index(Path(job["inputs"]["frames"]))
    rules = normalize.load_voice_rules(None)
    result: dict = {"setup_done_ns": time.monotonic_ns()}
    if not job["setup_only"]:
        result.update(measure(job, rules))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def measure(job: dict, rules: dict) -> dict:
    # Configure logging the way valgram.cli.main does, before any operation
    # redirects stderr, so log records keep going to the real stderr.
    logging.basicConfig(
        level=os.environ.get("VALGRAM_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    recorder = None
    result: dict = {}
    if job["trace"]:
        recorder = spans.SpanRecorder()
        result["wrapped"] = spans.install(recorder)

    ctx = workloads.Context(inputs=job["inputs"], seed=job["seed"], rules=rules)
    run_pass = workloads.PASSES[job["workload"]]
    out_root = Path(job["out_dir"])
    passes, digests = [], []
    measured = 0.0
    while True:
        index = len(passes)
        out = out_root / f"pass-{index}"
        out.mkdir(parents=True)
        if recorder is not None:
            recorder.pass_index = index
        ops = workloads.Ops()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        aborted = False
        try:
            state = run_pass(ctx, out, ops)
        except workloads.OpFailed:
            state, aborted = None, True
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        passes.append({"wall_s": wall, "cpu_s": cpu, "ops": ops.records})
        digests.append(workloads.after_pass(job["workload"], state, out, keep=index == 0))
        measured += wall
        if aborted or measured + wall > job["seconds"]:
            break

    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["passes"] = passes
    result["digests"] = digests
    if recorder is not None:
        recorder.write(out_root / "spans.jsonl")
    return result


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
