"""Timed passes of each workload, run inside the measured process.

Every call into valgram goes through a module attribute (``ingest.parse_corpus``,
not a name imported from it), so the span recorder in ``spans.py`` sees it.
Operations run one at a time, each after the previous one returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from valgram import aggregate, cli, compare, coverage, frames, ingest, normalize, pipeline

SIDES = ("bfn", "swefn")
SWEEP_SAMPLE = 24  # (LEFT:RIGHT, level, mode) combinations the oracle recomputes


@dataclass
class Context:
    inputs: dict[str, str]
    seed: int
    rules: dict


class OpFailed(Exception):
    pass


class Ops:
    """Records name, latency and outcome of each operation of a pass."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._record(name, start, f"{type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        self._record(name, start, None)
        return result

    def cli(self, name: str, argv: list) -> None:
        """One subcommand through ``valgram.cli.main``; a non-zero exit is a
        failed operation, and the next one still runs."""
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
        lines = err.getvalue().strip().splitlines()
        self._record(name, start, None if code == 0 else (lines[-1] if lines else f"exit {code}"))

    def _record(self, name: str, start: float, error: str | None) -> None:
        self.records.append({
            "name": name,
            "latency_s": time.perf_counter() - start,
            "ok": error is None,
            "error": error,
        })


# ---------------------------------------------------------------------------
# reference_run
# ---------------------------------------------------------------------------

def reference_pass(ctx: Context, out: Path, ops: Ops) -> None:
    def side(name: str) -> pipeline.SideConfig:
        return pipeline.SideConfig(
            name, ingest.Dialect(name), [Path(ctx.inputs[name])], [Path(ctx.inputs["frames"])]
        )

    config = pipeline.PipelineConfig(left=side("bfn"), right=side("swefn"), out_dir=out)
    ops.call("run_pipeline", pipeline.run_pipeline, config)


# ---------------------------------------------------------------------------
# settings_sweep
# ---------------------------------------------------------------------------

def _combinations() -> list[tuple[str, str, compare.MatchLevel, compare.MatchMode]]:
    ids = aggregate.ALL_SETTINGS_IDS
    return [
        (left, right, level, mode)
        for left in ids for right in ids
        for level in compare.MatchLevel for mode in compare.MatchMode
    ]


def sweep_pass(ctx: Context, out: Path, ops: Ops) -> dict:
    (out / "reports").mkdir(parents=True)
    index = ops.call("load_frame_index", frames.load_frame_index, Path(ctx.inputs["frames"]))
    examples, valences = {}, {}
    for side in SIDES:
        sentences = ops.call(
            f"parse_corpus {side}", ingest.parse_corpus,
            Path(ctx.inputs[side]), ingest.Dialect(side),
        )
        all_patterns, _ = ops.call(
            f"normalize_corpus {side}", normalize.normalize_corpus,
            sentences, index, ctx.rules, skip_unconsidered=False,
        )
        examples[side], _ = ops.call(
            f"promote_unconsidered_skips {side}", normalize.promote_unconsidered_skips,
            all_patterns,
        )
        valences[side] = {
            sid: ops.call(
                f"aggregate_corpus {side} {sid}", aggregate.aggregate_corpus,
                all_patterns, aggregate.Settings.from_id(sid),
            )[0]
            for sid in aggregate.ALL_SETTINGS_IDS
        }

    sample = set(random.Random(ctx.seed).sample(_combinations(), SWEEP_SAMPLE))
    kept = {}
    reports: dict[tuple[str, str], list] = {}
    coverage_rows = []
    for combo in _combinations():
        left, right, level, mode = combo
        pair = f"{left}:{right}"
        shared = ops.call(
            f"intersect {pair} {level.value} {mode.value}", compare.intersect,
            valences["bfn"][left], valences["swefn"][right], level, mode,
        )
        reports.setdefault((left, right), []).append(compare.pattern_set_report(shared))
        for side in SIDES:
            report = ops.call(
                f"coverage {side} {pair} {level.value} {mode.value}", coverage.coverage,
                shared, examples[side],
            )
            coverage_rows.append((f"{side} {pair}", report))
        if combo in sample:
            kept[combo] = shared
    for (left, right), rows in reports.items():
        ops.call(
            f"write_pattern_report_csv {left}:{right}", compare.write_pattern_report_csv,
            rows, out / "reports" / f"{left}_{right}.csv",
        )
    ops.call("write_coverage_csv", coverage.write_coverage_csv, coverage_rows, out / "coverage.csv")
    return {"examples": examples, "valences": valences, "sample": kept}


def dump_sweep_sample(state: dict, path: Path) -> None:
    """Plain-data copy of what the sweep oracle recomputes: both sides'
    valences and examples, and the final sets of the sampled combinations."""
    def valence_rows(vs):
        return [[v.frame, v.voice.value, [list(k) for k in v.fes], v.count] for v in vs]

    def example_rows(ps):
        return [
            [p.frame, p.voice.value, [
                [r.fe_name, r.rgl_type.value if r.rgl_type else None,
                 r.coreness is frames.Coreness.NONCORE]
                for r in p.realizations
            ]]
            for p in ps
        ]

    data = {
        "valences": {
            side: {sid: valence_rows(vs) for sid, vs in by_sid.items()}
            for side, by_sid in state["valences"].items()
        },
        "examples": {side: example_rows(ps) for side, ps in state["examples"].items()},
        "sample": [
            {
                "left": left, "right": right, "level": level.value, "mode": mode.value,
                "final": [
                    [sp.frame, sp.voice, sorted(sp.fes), sp.combined_count, list(sp.sides)]
                    for sp in shared.patterns
                ],
            }
            for (left, right, level, mode), shared in sorted(state["sample"].items())
        ],
    }
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# stage_chain
# ---------------------------------------------------------------------------

LEVELS = ("sem", "semsyn")
MODES = ("exact", "fuzzy")
CHAIN_SETTINGS = ("2.B", "1.B")


def chain_pass(ctx: Context, out: Path, ops: Ops) -> None:
    frames_tsv = ctx.inputs["frames"]
    for sid in CHAIN_SETTINGS:
        (out / "shared" / sid).mkdir(parents=True)
        (out / "reports" / sid).mkdir(parents=True)
    (out / "coverage").mkdir()

    def jsonl(side):
        return out / f"{side}.sentences.jsonl"

    for side in SIDES:
        ops.cli(f"ingest {side}", ["ingest", "--dialect", side, ctx.inputs[side], "--out", jsonl(side)])
    for side in SIDES:
        ops.cli(f"normalize {side}", [
            "normalize", "--jsonl", "--frames", frames_tsv,
            "--out", out / f"{side}.patterns.tsv", "--skips", out / f"{side}.skips.tsv", jsonl(side),
        ])
    for side in SIDES:
        ops.cli(f"aggregate {side} 2.B", [
            "aggregate", "--settings", "2.B", "--in", jsonl(side), "--frames", frames_tsv,
            "--out", out / f"{side}.2.B.valences.tsv",
            "--out-patterns", out / f"{side}.2.B.filtered-patterns.tsv",
            "--summary-dir", out / "summaries" / side,
            "--stats-out", out / f"{side}.stats.csv",
        ])
        ops.cli(f"aggregate {side} 1.B", [
            "aggregate", "--settings", "1.B", "--in", jsonl(side), "--frames", frames_tsv,
            "--out", out / f"{side}.1.B.valences.tsv",
            "--out-patterns", out / f"{side}.1.B.filtered-patterns.tsv",
        ])
    for sid in CHAIN_SETTINGS:
        for level in LEVELS:
            for mode in MODES:
                ops.cli(f"compare {sid} {level} {mode}", [
                    "compare", "--left", out / f"bfn.{sid}.valences.tsv",
                    "--right", out / f"swefn.{sid}.valences.tsv",
                    "--level", level, "--mode", mode,
                    "--out", out / "shared" / sid / f"{level}-{mode}.tsv",
                    "--report", out / "reports" / sid / f"{level}-{mode}.csv",
                ])
    for side in SIDES:
        for level in LEVELS:
            for mode in MODES:
                ops.cli(f"evaluate {side} {level} {mode}", [
                    "evaluate", "--final", out / "shared" / "2.B" / f"{level}-{mode}.tsv",
                    "--examples", out / f"{side}.patterns.tsv", "--side", side,
                    "--out", out / "coverage" / f"{side}-{level}-{mode}.csv",
                ])
    ops.cli("generate", [
        "generate", "--shared", out / "shared" / "2.B" / "semsyn-fuzzy.tsv",
        "--lu-left", out / "bfn.2.B.filtered-patterns.tsv",
        "--lu-right", out / "swefn.2.B.filtered-patterns.tsv",
        "--out-dir", out / "grammar",
    ])


PASSES = {
    "reference_run": reference_pass,
    "settings_sweep": sweep_pass,
    "stage_chain": chain_pass,
}


def after_pass(workload: str, state, out: Path, keep: bool) -> dict[str, str]:
    """Untimed: write the sweep sample, digest the pass's output tree, and
    delete the tree unless it is kept for the oracles. ``manifest.json``
    records the output path, so it is left out of the digest."""
    if workload == "settings_sweep" and state is not None:
        dump_sweep_sample(state, out / "sample.json")
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel != "manifest.json":
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    if not keep:
        shutil.rmtree(out)
    return digests
