#!/usr/bin/env python3
"""valgram benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload reference_run --seed 1 --seconds 20 --trace 0

Workloads (see ``inputs.WORKLOADS``): ``reference_run``, ``settings_sweep``,
``stage_chain``, or ``all`` to run the three in turn. The inputs are
generated from ``--seed`` in this process. Each measurement then runs in a
fresh single-threaded process (``worker.py``) that does one operation at a
time; set-up time is the median over several such processes. After the timed
passes the outputs are checked here by the oracles in ``oracles.py``.

With ``--trace 0`` the result line carries the end-to-end metrics. With
``--trace 1`` an untraced and a traced process run the same passes, and the
result line carries the per-layer metrics from the traced one's spans.
Every metric is also printed on its own line as ``workload metric value unit``.
The last line of standard output is the JSON result; the exit code is 1 when
any output check or operation failed unexpectedly, 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/valgram/cli.py", "scripts/make_synthetic_corpus.py")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("sentences_per_s", "1/s"),
    ("peak_rss_mib", "MiB"), ("setup_s", "s"),
]

# Operations that fail at the parent commit for a documented defect
# (ROADMAP item 4: `aggregate --settings 1.B` writes native-type valences
# that `compare` cannot read back). They stay in the chain and are timed;
# they are reported as known failures, and fail the run if they fail in
# any other way.
KNOWN_DEFECTS = [(re.compile(r"^compare 1\.B "), "cannot parse FE token")]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # A fixed hash seed keeps set iteration order, and so the work done,
    # the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(job: dict, tag: str, work: Path) -> dict:
    """Run one worker process to completion and return its result."""
    job_path, result_path = work / f"{tag}.job.json", work / f"{tag}.result.json"
    log_path = work / f"{tag}.stderr"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(job_path), str(result_path)]
    with log_path.open("w", encoding="utf-8") as log:
        spawned = time.monotonic_ns()
        proc = subprocess.run(cmd, env=_env(), stdout=log, stderr=log, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = (result["setup_done_ns"] - spawned) / 1e9
    return result


def _tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    if len(xs) < 11:
        return f"none (n={len(xs)})"
    return f"p{100 * (len(xs) - 10) / len(xs):.1f}={xs[len(xs) - 11]:.6f}s (n={len(xs)})"


def _classify(ops: list[dict], checks: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """(failed, known failures, messages) over the operations of a run."""
    failed = known = 0
    messages = []
    for op in ops:
        errors = ([op["error"]] if op["error"] else []) + checks.get(op["name"], [])
        if not errors:
            continue
        defect = next(
            (text for pattern, text in KNOWN_DEFECTS if pattern.match(op["name"])), None
        )
        if defect and not op["ok"] and not checks.get(op["name"]) and defect in op["error"]:
            known += 1
            continue
        failed += 1
        messages.append(f"{op['name']}: {'; '.join(errors)}")
    return failed, known, messages


def _check_outputs(name: str, work: Path, paths: dict[str, str]) -> list[tuple[str, str]]:
    """Oracle findings on the first untraced pass."""
    first = work / "untraced" / "pass-0"
    if name == "reference_run":
        return oracles.check_reference(first)
    if name == "settings_sweep":
        return oracles.check_sweep(first)
    run_out = work / "run"
    subprocess.run(
        [sys.executable, "-m", "valgram.cli", "run",
         "--left", paths["bfn"], "--left-dialect", "bfn",
         "--right", paths["swefn"], "--right-dialect", "swefn",
         "--frames", paths["frames"], "--settings", "2.B", "--out-dir", str(run_out)],
        env=_env(), check=True, timeout=WORKER_TIMEOUT_S, capture_output=True,
    )
    return oracles.check_chain(first, run_out)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = inputs.WORKLOADS[name]
    work = ROOT / ".perfbench-work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = inputs.generate(ROOT, workload, seed, work / "in")
        sentences_by_path = {paths["bfn"]: workload.n_bfn, paths["swefn"]: workload.n_swefn}
        base_job = {
            "workload": name, "inputs": paths, "seed": seed, "seconds": seconds,
            "trace": False, "setup_only": False,
        }
        setups = [
            _worker({**base_job, "setup_only": True, "out_dir": str(work / "probe")},
                    f"probe{i}", work)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        runs = {"untraced": _worker({**base_job, "out_dir": str(work / "untraced")}, "untraced", work)}
        if trace:
            runs["traced"] = _worker(
                {**base_job, "trace": True, "out_dir": str(work / "traced")}, "traced", work
            )
        setups += [r["setup_s"] for r in runs.values()]

        checks: dict[str, list[str]] = {}
        for op, message in _check_outputs(name, work, paths):
            checks.setdefault(op, []).append(message)

        # Every other pass, traced or not, must leave the same bytes as the
        # pass the oracles checked.
        reference_digest = runs["untraced"]["digests"][0]
        all_ops = []
        for tag, r in runs.items():
            for i, (p, digest) in enumerate(zip(r["passes"], r["digests"])):
                if digest != reference_digest:
                    diff = sorted(set(digest.items()) ^ set(reference_digest.items()))[:3]
                    checks.setdefault(f"{tag} pass {i}", []).append(f"outputs differ: {diff}")
                all_ops.extend(p["ops"])
        failed, known, messages = _classify(all_ops, checks)
        unmatched = set(checks) - {op["name"] for op in all_ops}
        messages += [f"{op}: {'; '.join(checks[op])}" for op in sorted(unmatched)]
        failed += len(unmatched)

        base = runs["untraced"]
        walls = [p["wall_s"] for p in base["passes"]]
        wall = statistics.median(walls)
        e2e = {
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in base["passes"]),
            "sentences_per_s": workload.sentences / wall,
            "peak_rss_mib": base["peak_rss_mib"],
            "setup_s": statistics.median(setups),
        }
        layer = None
        if trace:
            traced = runs["traced"]
            per_pass = [
                spans.pass_metrics(group, sentences_by_path)
                for group in spans.split_passes(spans.read_spans(work / "traced" / "spans.jsonl"))
            ]
            layer = {
                metric: float(statistics.median(m[metric] for m in per_pass))
                for metric, _ in spans.PER_LAYER_METRICS if metric in per_pass[0]
            }
            traced_wall = statistics.median(p["wall_s"] for p in traced["passes"])
            self_total = statistics.median(
                sum(m[f"{layer_name}.self_s"] for layer_name in spans.LAYERS) for m in per_pass
            )
            layer["trace.overhead_s"] = traced_wall - wall
            layer["trace.unattributed_s"] = traced_wall - self_total
        attempted = sum(len(p["ops"]) for r in runs.values() for p in r["passes"])
        return {
            "workload": workload, "e2e": e2e, "layer": layer, "attempted": attempted,
            "failed": failed, "known": known, "messages": messages,
            "latencies": [op["latency_s"] for p in base["passes"] for op in p["ops"]],
            "passes": len(base["passes"]),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def report(result: dict, trace: bool) -> dict:
    """Print every metric on its own line; return the JSON metrics."""
    name = result["workload"].name
    for metric, unit in END_TO_END:
        print(f"{name} {metric} {result['e2e'][metric]:.6f} {unit}")
    ops = result["attempted"]
    print(f"{name} ops_failed_frac {(result['failed'] + result['known']) / ops:.6f} ratio"
          f" ({result['failed']} unexpected + {result['known']} known of {ops})")
    lat = result["latencies"]
    print(f"{name} op_latency median={statistics.median(lat):.6f}s tail={_tail_percentile(lat)}"
          f" passes={result['passes']}")
    units = dict(END_TO_END)
    chosen = {m: result["e2e"][m] for m, _ in END_TO_END}
    if trace:
        units = dict(spans.PER_LAYER_METRICS)
        chosen = result["layer"]
        for metric, unit in spans.PER_LAYER_METRICS:
            print(f"{name} {metric} {chosen[metric]:.6f} {unit}")
        self_sum = sum(chosen[f"{layer}.self_s"] for layer in spans.LAYERS)
        print(f"{name} trace.self_sum_s {self_sum:.6f} s "
              f"(traced wall_s minus this is trace.unattributed_s)")
    for message in result["messages"]:
        print(f"{name} FAILED {message}", file=sys.stderr)
    return {m: {"value": v, "unit": units[m]} for m, v in chosen.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a valgram checkout, missing {missing}", file=sys.stderr)
        return 2
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except Exception:  # report the workload as failed and go on
            print(f"{name} FAILED\n{traceback.format_exc()}", file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            continue
        found = report(result, bool(args.trace))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: v for m, v in found.items()})
        attempted += result["attempted"]
        failed += result["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
