"""Output checks, run in the benchmark's own process after the timed passes.

The shared-set and coverage checks recompute the results by brute force
from the plain-text (or plain-data) valence and example files, restating the
definitions of the README instead of calling ``valgram.compare`` or
``valgram.coverage``: a pattern is admitted when some pattern of the other
side with the same frame (and voice, at the semsyn level) has a superset of
its FEs, or, in exact mode, when both sides have it; the final set drops
members strictly subsumed by another member; an example is covered when its
core FEs are a subset of some final pattern of its frame (and voice).

Each check returns ``(operation name, message)`` pairs for what failed.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

LEVELS = ("sem", "semsyn")
MODES = ("exact", "fuzzy")
SIDES = ("bfn", "swefn")

_TOKEN = re.compile(r"^(Opt_)?(.+?)_(NP|Adv|VP)(?:\.(?:Subj|Obj))?(?:\[[^\]]*\])?$")


def _fe(token: str) -> tuple[str, str, bool]:
    m = _TOKEN.match(token)
    if m is None:
        raise ValueError(f"unreadable FE token {token!r}")
    return m.group(2), m.group(3), m.group(1) is not None


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def read_valences(path: Path) -> list[tuple]:
    """(frame, voice, [(fe, type, noncore)], count) rows of a valences TSV."""
    rows = []
    for line in _lines(path):
        frame, voice, tokens, count = line.split("\t")
        rows.append((frame, voice, [_fe(t) for t in tokens.split(",") if t], int(count)))
    return rows


def read_examples(path: Path) -> list[tuple]:
    """(frame, voice, [(fe, type, noncore)]) rows of a sentence-patterns TSV."""
    rows = []
    for line in _lines(path):
        frame, voice, tokens, _lu, _sid = line.split("\t")
        rows.append((frame, voice, [_fe(t) for t in tokens.split()]))
    return rows


def _key(frame: str, voice: str, fes, level: str) -> tuple:
    if level == "sem":
        return (frame, None, frozenset(("Opt_" if nc else "") + fe for fe, _, nc in fes))
    return (frame, voice, frozenset(("Opt_" if nc else "") + f"{fe}_{ty}" for fe, ty, nc in fes))


def _subsumes(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and a[1] == b[1] and b[2] <= a[2]


def _pct(num: int, den: int) -> str:
    return f"{(num / den if den else 0.0) * 100:.1f}"


def _by_frame(keys) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for k in keys:
        out.setdefault(k[0], []).append(k)
    return out


def shared_set(left: list[tuple], right: list[tuple], level: str, mode: str) -> dict:
    """Brute-force shared set of two valence lists: the final rows and the
    pattern-report row."""
    frames = {r[0] for r in left} & {r[0] for r in right}

    def project(rows):
        proj: dict[tuple, int] = {}
        for frame, voice, fes, count in rows:
            if frame in frames:
                k = _key(frame, voice, fes, level)
                proj[k] = proj.get(k, 0) + count
        return proj

    lproj, rproj = project(left), project(right)
    sides: dict[tuple, set[str]] = {}
    if mode == "exact":
        for k in lproj:
            if k in rproj:
                sides[k] = {"left", "right"}
    else:
        for own, other, name in ((lproj, rproj, "left"), (rproj, lproj, "right")):
            other_by_frame = _by_frame(other)
            for k in own:
                if any(_subsumes(q, k) for q in other_by_frame.get(k[0], ())):
                    sides.setdefault(k, set()).add(name)
    admitted_by_frame = _by_frame(sides)
    final = [
        k for k in sides
        if not any(o != k and _subsumes(o, k) for o in admitted_by_frame[k[0]])
    ]
    final.sort(key=lambda k: (k[0], k[1] or "", tuple(sorted(k[2]))))
    rows = [
        [k[0], k[1], sorted(k[2]), lproj.get(k, 0) + rproj.get(k, 0), sorted(sides[k])]
        for k in final
    ]
    left_only = len(lproj) - sum(1 for k in lproj if k in sides)
    right_only = len(rproj) - sum(1 for k in rproj if k in sides)
    union = len(set(lproj) | set(rproj))
    report = [
        level, mode, str(len(lproj)), str(len(rproj)),
        str(left_only), _pct(left_only, len(lproj)),
        str(right_only), _pct(right_only, len(rproj)),
        str(union), str(len(sides)), _pct(len(sides), union),
        str(len(final)), str(len({k[0] for k in final})),
    ]
    return {"final": final, "rows": rows, "report": report}


def coverage_row(side: str, final: list[tuple], examples: list[tuple], level: str, mode: str) -> list[str]:
    """Brute-force coverage.csv row of one side against one final set."""
    final_by_frame = _by_frame(final)
    covered = in_shared = 0
    for frame, voice, fes in examples:
        if frame not in final_by_frame:
            continue
        in_shared += 1
        core = [(fe, ty) for fe, ty, nc in fes if not nc]
        if level == "sem":
            reduced, want_voice = {fe for fe, _ in core}, None
        else:
            reduced, want_voice = {f"{fe}_{ty}" for fe, ty in core if ty is not None}, voice
        if any(k[1] == want_voice and reduced <= k[2] for k in final_by_frame[frame]):
            covered += 1
    total = len(examples)
    return [
        side, level, mode, str(covered), str(in_shared), str(total),
        _pct(covered, in_shared), _pct(covered, total), str(in_shared), _pct(in_shared, total),
    ]


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as f:
        return list(csv.reader(f))[1:]


def _shared_tsv_rows(path: Path) -> list[list]:
    rows = []
    for line in _lines(path)[1:]:
        frame, voice, fes, count, meta = line.split("\t")
        rows.append([
            frame, None if voice == "-" else voice, fes.split(","), int(count),
            json.loads(meta)["sides"],
        ])
    return rows


def check_reference(out: Path) -> list[tuple[str, str]]:
    """``run`` output tree: record accounting, shared sets, pattern report
    and coverage table, all recomputed from valences.tsv and patterns.tsv."""
    op = "run_pipeline"
    failures = []
    for side in SIDES:
        jsonl = len(_lines(out / f"{side}.sentences.jsonl"))
        kept = len(_lines(out / f"{side}.patterns.tsv"))
        skipped = len(_lines(out / f"{side}.skips.tsv"))
        if jsonl != kept + skipped:
            failures.append((op, f"{side}: {jsonl} JSONL records != {kept} patterns + {skipped} skips"))
    left = read_valences(out / "bfn.valences.tsv")
    right = read_valences(out / "swefn.valences.tsv")
    examples = {side: read_examples(out / f"{side}.patterns.tsv") for side in SIDES}
    reports = _csv_rows(out / "pattern-report.csv")
    want_reports, want_coverage = [], {side: [] for side in SIDES}
    for level in LEVELS:
        for mode in MODES:
            want = shared_set(left, right, level, mode)
            if _shared_tsv_rows(out / "shared" / f"{level}-{mode}.tsv") != want["rows"]:
                failures.append((op, f"shared/{level}-{mode}.tsv differs from the brute-force set"))
            want_reports.append(want["report"])
            for side in SIDES:
                want_coverage[side].append(
                    coverage_row(side, want["final"], examples[side], level, mode)
                )
    if reports != want_reports:
        failures.append((op, "pattern-report.csv differs from the brute-force recount"))
    if _csv_rows(out / "coverage.csv") != want_coverage["bfn"] + want_coverage["swefn"]:
        failures.append((op, "coverage.csv differs from the brute-force recount"))
    return failures


def check_sweep(out: Path) -> list[tuple[str, str]]:
    """Sampled sweep combinations: final sets, pattern-report rows and both
    coverage rows against the brute-force recomputation."""
    data = json.loads((out / "sample.json").read_text(encoding="utf-8"))

    def valences(side, sid):
        return [(f, v, [(fe, ty, nc) for fe, ty, _syn, nc in fes], n)
                for f, v, fes, n in data["valences"][side][sid]]

    examples = {
        side: [(f, v, [tuple(r) for r in fes]) for f, v, fes in rows]
        for side, rows in data["examples"].items()
    }
    coverage_rows = {(row[0], row[1], row[2]): row for row in _csv_rows(out / "coverage.csv")}
    failures = []
    for item in data["sample"]:
        left, right, level, mode = item["left"], item["right"], item["level"], item["mode"]
        pair = f"{left}:{right}"
        want = shared_set(valences("bfn", left), valences("swefn", right), level, mode)
        op = f"intersect {pair} {level} {mode}"
        if item["final"] != want["rows"]:
            failures.append((op, "final set differs from the brute-force set"))
        reports = _csv_rows(out / "reports" / f"{left}_{right}.csv")
        if want["report"] not in reports:
            failures.append((op, "pattern-report row differs from the brute-force recount"))
        for side in SIDES:
            got = coverage_rows.get((f"{side} {pair}", level, mode))
            expect = coverage_row(f"{side} {pair}", want["final"], examples[side], level, mode)
            if got != expect:
                failures.append((f"coverage {side} {pair} {level} {mode}",
                                 "coverage row differs from the brute-force recount"))
    return failures


def check_chain(out: Path, run_out: Path) -> list[tuple[str, str]]:
    """Chain artifacts at 2.B against ``valgram run`` on the same inputs."""
    failures = []

    def same_bytes(a: Path, b: Path) -> bool:
        return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()

    run_reports = {(r[0], r[1]): r for r in _csv_rows(run_out / "pattern-report.csv")}
    run_coverage = {(r[0], r[1], r[2]): r for r in _csv_rows(run_out / "coverage.csv")}
    for level in LEVELS:
        for mode in MODES:
            op = f"compare 2.B {level} {mode}"
            if not same_bytes(out / "shared" / "2.B" / f"{level}-{mode}.tsv",
                              run_out / "shared" / f"{level}-{mode}.tsv"):
                failures.append((op, "shared TSV differs from run's"))
            report = out / "reports" / "2.B" / f"{level}-{mode}.csv"
            if not report.is_file() or _csv_rows(report) != [run_reports.get((level, mode))]:
                failures.append((op, "pattern-report row differs from run's"))
            for side in SIDES:
                op = f"evaluate {side} {level} {mode}"
                path = out / "coverage" / f"{side}-{level}-{mode}.csv"
                if not path.is_file() or _csv_rows(path) != [run_coverage.get((side, level, mode))]:
                    failures.append((op, "coverage row differs from run's"))
    for side in SIDES:
        if not same_bytes(out / f"{side}.stats.csv", run_out / f"{side}.stats.csv"):
            failures.append((f"aggregate {side} 2.B", "stats.csv differs from run's"))
    return failures
