"""End-to-end acceptance suite.

Each test covers one release criterion; the terminal summary prints one
PASS/FAIL line per criterion (see conftest).
"""

import csv
import random
import subprocess
import sys
import time
from pathlib import Path

from valgram.aggregate import Settings, aggregate_corpus, read_valences_tsv
from valgram.cli import main as cli_main
from valgram.compare import MatchLevel, MatchMode, intersect
from valgram.coverage import coverage
from valgram.frames import load_frame_index
from valgram.ingest import Dialect, parse_corpus
from valgram.normalize import normalize_corpus
from valgram.pipeline import PipelineConfig, SideConfig, run_pipeline
from helpers import (
    load_corpus_generator,
    oracle_fuzzy_intersection,
    random_side,
    valences_by_settings,
)

REPO = Path(__file__).resolve().parents[1]


def test_criterion_1_reference_sentence_pattern_lines(bfn_mini, frame_index):
    started = time.perf_counter()
    sentences = parse_corpus(bfn_mini, Dialect.BFN_PHRASE)
    patterns, skips = normalize_corpus(sentences, frame_index)
    elapsed = time.perf_counter() - started
    lines = [(p.frame, p.voice.value, p.rgl_fes) for p in patterns]
    assert lines == [
        ("Desiring", "Act", "Event_NP.Obj Experiencer_NP.Subj"),
        ("Desiring", "Act", "Experiencer_NP.Subj Event_NP.Obj"),
        ("Desiring", "Act", "Experiencer_NP.Subj Event_NP.Obj"),
        ("Desiring", "Act", "Experiencer_NP.Subj Event_Adv[for]"),
        ("Desiring", "Act", "Event_VP"),
        ("Desiring", "Act", "Experiencer_NP.Subj Event_VP"),
        ("Desiring", "Pass", "Event_NP.Subj Experiencer_NP.Obj"),
    ]
    assert skips == []
    assert elapsed < 1.0


def test_criterion_2_desiring_fuzzy_intersection(data_dir):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences.tsv")
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    got = {tuple(sp.fes_sorted()) for sp in shared.patterns}
    assert got == {
        ("Event_VP", "Experiencer_NP"),
        ("Experiencer_NP", "Focal_participant_Adv"),
        ("Experiencer_NP", "Focal_participant_NP"),
    }
    for excluded in (
        frozenset({"Event_Adv", "Experiencer_NP", "Focal_participant_NP"}),
        frozenset({"Event_NP", "Experiencer_NP"}),
        frozenset({"Event_VP", "Experiencer_NP", "Focal_participant_NP"}),
    ):
        assert excluded not in {sp.fes for sp in shared.patterns}


def test_criterion_3_grammar_golden_files(tmp_path, data_dir):
    shared = tmp_path / "shared.tsv"
    assert cli_main([
        "compare",
        "--left", str(data_dir / "desiring_bfn_valences_voiced.tsv"),
        "--right", str(data_dir / "desiring_swefn_valences_voiced.tsv"),
        "--level", "semsyn", "--mode", "fuzzy", "--out", str(shared),
    ]) == 0
    assert cli_main([
        "generate", "--shared", str(shared),
        "--lu-left", str(data_dir / "desiring_bfn_patterns.tsv"),
        "--lu-right", str(data_dir / "desiring_swefn_patterns.tsv"),
        "--out-dir", str(tmp_path / "grammar"),
    ]) == 0
    golden_dir = data_dir / "golden" / "desiring"
    for name in ("FrameFE.gf-abs.txt", "Frames.gf-abs.txt",
                 "LU_bfn.gf-abs.txt", "LU_swefn.gf-abs.txt"):
        got = (tmp_path / "grammar" / name).read_bytes()
        assert got == (golden_dir / name).read_bytes(), name
    frames_text = (tmp_path / "grammar" / "Frames.gf-abs.txt").read_text(encoding="utf-8")
    for signature in (
        "fun Desiring_P1_Act : Experiencer_NP -> Focal_participant_NP -> V2 -> Clause ;",
        "fun Desiring_P1_Pass : Experiencer_NP -> Focal_participant_NP -> V2 -> Clause ;",
        "fun Desiring_P2 : Event_VP -> Experiencer_NP -> V2 -> Clause ;",
    ):
        assert signature in frames_text


def test_criterion_4_subsumption_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(424242)
    mismatches = 0
    for i in range(200):
        left = random_side(rng, max_patterns=8, max_fes=5)
        right = random_side(rng, max_patterns=8, max_fes=5)
        level = MatchLevel.SEMANTIC_SYNTACTIC if i % 2 else MatchLevel.SEMANTIC
        shared = intersect(left, right, level, MatchMode.FUZZY)
        oracle_admitted, oracle_final = oracle_fuzzy_intersection(left, right, level)
        got_final = set()
        for sp in shared.patterns:
            if level is MatchLevel.SEMANTIC:
                got_final.add((sp.frame, None, frozenset(sp.fes)))
            else:
                got_final.add((
                    sp.frame, sp.voice,
                    frozenset(tuple(t.rsplit("_", 1)) for t in sp.fes),
                ))
        want_final = {
            (frame, voice, frozenset(fes)) for frame, voice, fes in oracle_final
        }
        if got_final != want_final or shared.intersection_total != len(oracle_admitted):
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_5_lattice_monotonicity(bfn_mini, swefn_mini, frames_tsv, frame_index, data_dir):
    # settings chains on both bundled corpora
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(
            parse_corpus(path, dialect), frame_index, skip_unconsidered=False
        )
        results = valences_by_settings(patterns)
        for x in ("1", "2", "3"):
            assert len(results[f"{x}.B"]) <= len(results[f"{x}.A"]) <= len(results[f"{x}.0"])
        for y in ("0", "A", "B"):
            keys3 = {(v.frame, v.voice.value, v.fes) for v in results[f"3.{y}"]}
            keys2 = {(v.frame, v.voice.value, v.fes) for v in results[f"2.{y}"]}
            assert keys3 <= keys2
            assert {v.frame for v in results[f"3.{y}"]} <= {v.frame for v in results[f"2.{y}"]}

    # exact intersection is contained in the fuzzy-admitted set, and the
    # semantic level never covers fewer frames than the syntactic level
    left = read_valences_tsv(data_dir / "desiring_bfn_valences_voiced.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences_voiced.tsv")
    rng = random.Random(5)
    sides = [(left, right)] + [(random_side(rng), random_side(rng)) for _ in range(30)]
    for a, b in sides:
        for level in MatchLevel:
            exact = intersect(a, b, level, MatchMode.EXACT)
            fuzzy = intersect(a, b, level, MatchMode.FUZZY)
            assert exact.intersection_total <= fuzzy.intersection_total
        for mode in MatchMode:
            sem = intersect(a, b, MatchLevel.SEMANTIC, mode)
            syn = intersect(a, b, MatchLevel.SEMANTIC_SYNTACTIC, mode)
            assert len(sem.final_frames()) >= len(syn.final_frames())


def test_criterion_6_self_coverage(bfn_mini, swefn_mini, frame_index, tmp_path):
    corpora = [
        parse_corpus(bfn_mini, Dialect.BFN_PHRASE),
        parse_corpus(swefn_mini, Dialect.SWEFN_DEP),
    ]
    synth = load_corpus_generator()
    paths = synth.write_corpus_files(tmp_path, n_bfn=1500, n_swefn=400, n_frames=40)
    synth_index = load_frame_index(paths["frames"])
    corpora.append((parse_corpus(paths["bfn"], Dialect.BFN_PHRASE), synth_index))
    corpora.append((parse_corpus(paths["swefn"], Dialect.SWEFN_DEP), synth_index))

    for item in corpora:
        sentences, index = item if isinstance(item, tuple) else (item, frame_index)
        patterns, _ = normalize_corpus(sentences, index)
        valences, filtered, _ = aggregate_corpus(patterns, Settings.from_id("2.B"))
        final = intersect(valences, valences, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
        report = coverage(final, filtered)
        assert report.total > 0
        assert report.covered == report.in_shared_frames == report.total
        assert report.pct_of_shared == 1.0 and report.pct_of_all == 1.0


def test_criterion_7_deterministic_artifact_trees(tmp_path, bfn_mini, swefn_mini, frames_tsv):
    import shutil

    out = tmp_path / "out"
    args = [
        "run", "--left", str(bfn_mini), "--left-dialect", "bfn",
        "--right", str(swefn_mini), "--right-dialect", "swefn",
        "--frames", str(frames_tsv), "--out-dir", str(out),
    ]
    assert cli_main(args) == 0
    snapshot = tmp_path / "snapshot"
    shutil.copytree(out, snapshot)
    assert cli_main(args) == 0  # identical config, same output directory

    first_files = sorted(p.relative_to(snapshot) for p in snapshot.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert first_files == second_files
    for rel in first_files:
        assert (snapshot / rel).read_bytes() == (out / rel).read_bytes(), rel


def test_criterion_8_table_shapes_and_arithmetic(tmp_path, bfn_mini, swefn_mini, frames_tsv):
    out = tmp_path / "out"
    assert cli_main([
        "run", "--left", str(bfn_mini), "--left-dialect", "bfn",
        "--right", str(swefn_mini), "--right-dialect", "swefn",
        "--frames", str(frames_tsv), "--out-dir", str(out),
    ]) == 0

    def rows_of(path):
        with path.open() as f:
            return list(csv.DictReader(f))

    stats = rows_of(out / "bfn.stats.csv")
    assert list(stats[0]) == [
        "settings", "frames", "valence_patterns", "valence_patterns_per_frame",
        "sentence_patterns", "sentence_patterns_per_valence_pattern",
        "corpus_examples", "corpus_examples_per_sentence_pattern",
    ]
    assert [r["settings"] for r in stats] == [
        "0.0", "1.0", "1.A", "1.B", "2.0", "2.A", "2.B", "3.0", "3.A", "3.B",
    ]
    for r in stats:
        if int(r["frames"]):
            ratio = int(r["valence_patterns"]) / int(r["frames"])
            assert abs(ratio - float(r["valence_patterns_per_frame"])) < 0.05 + 1e-9

    frame_rows = rows_of(out / "frame-report.csv")
    assert list(frame_rows[0]) == [
        "left_frames", "right_frames", "left_only", "left_only_pct",
        "right_only", "right_only_pct", "union", "intersection", "intersection_pct",
    ]
    fr = frame_rows[0]
    assert int(fr["union"]) == (
        int(fr["left_frames"]) + int(fr["right_frames"]) - int(fr["intersection"])
    )
    assert abs(
        float(fr["intersection_pct"]) - 100 * int(fr["intersection"]) / int(fr["union"])
    ) <= 0.1

    pattern_rows = rows_of(out / "pattern-report.csv")
    assert list(pattern_rows[0]) == [
        "level", "mode", "left_patterns", "right_patterns",
        "left_only", "left_only_pct", "right_only", "right_only_pct",
        "union", "intersection", "intersection_pct", "final_patterns", "final_frames",
    ]
    assert {(r["level"], r["mode"]) for r in pattern_rows} == {
        ("sem", "exact"), ("sem", "fuzzy"), ("semsyn", "exact"), ("semsyn", "fuzzy"),
    }
    for r in pattern_rows:
        assert abs(
            float(r["left_only_pct"]) - 100 * int(r["left_only"]) / int(r["left_patterns"])
        ) <= 0.1
        assert abs(
            float(r["intersection_pct"]) - 100 * int(r["intersection"]) / int(r["union"])
        ) <= 0.1

    coverage_rows = rows_of(out / "coverage.csv")
    assert list(coverage_rows[0]) == [
        "side", "level", "mode", "covered", "in_shared_frames", "total",
        "pct_of_shared", "pct_of_all", "frame_level_covered", "frame_level_pct",
    ]
    assert len(coverage_rows) == 8  # two sides x two levels x two modes
    for r in coverage_rows:
        covered, shared, total = int(r["covered"]), int(r["in_shared_frames"]), int(r["total"])
        assert covered <= shared <= total
        if shared:
            assert abs(float(r["pct_of_shared"]) - 100 * covered / shared) <= 0.1
        if total:
            assert abs(float(r["pct_of_all"]) - 100 * covered / total) <= 0.1
            assert abs(float(r["frame_level_pct"]) - 100 * shared / total) <= 0.1

    # the documented full-corpus mode prints all five table sections
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "full_corpus_tables.py"),
         "--left", str(bfn_mini), "--left-dialect", "bfn",
         "--right", str(swefn_mini), "--right-dialect", "swefn",
         "--frames", str(frames_tsv), "--out-dir", str(tmp_path / "tables")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for section in ("extraction statistics", "frame set comparison",
                    "valence pattern comparison", "example coverage"):
        assert section in proc.stdout


def test_criterion_9_throughput_at_reference_scale(tmp_path):
    synth = load_corpus_generator()
    paths = synth.write_corpus_files(tmp_path, n_bfn=68500, n_swefn=3700, n_frames=550)
    config = PipelineConfig(
        left=SideConfig("bfn", Dialect.BFN_PHRASE, [paths["bfn"]], [paths["frames"]]),
        right=SideConfig("swefn", Dialect.SWEFN_DEP, [paths["swefn"]], [paths["frames"]]),
        out_dir=tmp_path / "out",
    )
    started = time.perf_counter()
    run_pipeline(config)
    elapsed = time.perf_counter() - started
    assert (tmp_path / "out" / "coverage.csv").exists()
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
