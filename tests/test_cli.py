import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valgram import _base
from valgram.aggregate import ALL_SETTINGS_IDS, Settings, aggregate_corpus
from valgram.cli import main
from valgram.compare import MatchLevel, MatchMode, intersect
from valgram.coverage import coverage
from valgram.frames import load_frame_index
from valgram.ingest import Dialect, parse_corpus
from valgram.normalize import normalize_corpus
from valgram.pipeline import PipelineConfig, SideConfig, StageError, run_pipeline

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args):
    return main([str(a) for a in args])


def test_ingest_writes_sorted_jsonl(tmp_path, bfn_mini):
    out = tmp_path / "sentences.jsonl"
    assert run_cli("ingest", "--dialect", "bfn", "--out", out, bfn_mini) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    ids = [r["sentence_id"] for r in records]
    assert ids == sorted(ids) and len(ids) == 7


def test_ingest_stdout_matches_out_file(tmp_path, capsys, swefn_mini):
    out = tmp_path / "sentences.jsonl"
    assert run_cli("ingest", "--dialect", "swefn", "--out", out, swefn_mini) == 0
    capsys.readouterr()
    assert run_cli("ingest", "--dialect", "swefn", swefn_mini) == 0
    stdout = capsys.readouterr().out
    assert "å" in stdout  # written as UTF-8 text, not as \u escapes
    assert stdout == out.read_text(encoding="utf-8")


def test_frames_validate(capsys, frames_tsv):
    assert run_cli("frames", "--validate", frames_tsv) == 0
    assert "2 frames" in capsys.readouterr().out


def test_frames_validate_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("Desiring\tcore\tEvent\nDesiring\tnoncore\tEvent\n")
    assert run_cli("frames", "--validate", bad) == 1
    err = capsys.readouterr().err
    record = json.loads(err)
    assert record["stage"] == "frames"
    assert "Desiring" in record["message"]


@pytest.mark.parametrize("overlay,message", [
    ("Desiring\tcore\tEvent\nDesiring\tkernel\tDegree\n", ":2: unknown coreness kind 'kernel'"),
    ("Desiring\tcore\tEvent\nDesiring\tnoncore\tEvent\n",
     ": frame 'Desiring' lists ['Event'] as both core and non-core"),
], ids=["line", "clash"])
def test_frame_index_error_names_the_file_at_fault(
    tmp_path, capsys, bfn_mini, frames_tsv, overlay, message
):
    bad = tmp_path / "overlay.tsv"
    bad.write_text(overlay, encoding="utf-8")
    assert run_cli(
        "normalize", "--dialect", "bfn", "--frames", frames_tsv, bad,
        "--out", tmp_path / "patterns.tsv", bfn_mini,
    ) == 1
    record = json.loads(capsys.readouterr().err)
    assert (record["stage"], record["error"]) == ("normalize", "FrameIndexError")
    assert record["message"] == f"{bad}{message}"


def test_normalize_command(tmp_path, bfn_mini, frames_tsv):
    out = tmp_path / "patterns.tsv"
    skips = tmp_path / "skips.tsv"
    assert run_cli(
        "normalize", "--dialect", "bfn", "--frames", frames_tsv,
        "--out", out, "--skips", skips, bfn_mini,
    ) == 0
    lines = [l for l in out.read_text().splitlines() if l]
    assert len(lines) == 7
    assert lines[0].split("\t")[:3] == ["Desiring", "Act", "Event_NP.Obj Experiencer_NP.Subj"]
    assert skips.read_text() == ""


def test_normalize_native_types(tmp_path, bfn_mini, frames_tsv):
    out = tmp_path / "native.tsv"
    assert run_cli(
        "normalize", "--dialect", "bfn", "--frames", frames_tsv,
        "--types", "native", "--out", out, bfn_mini,
    ) == 0
    first = out.read_text().splitlines()[0]
    assert "Event_NP.Obj" in first and "Experiencer_NP.Ext" in first


def test_aggregate_command(tmp_path, bfn_mini, frames_tsv):
    patterns = tmp_path / "patterns.tsv"
    run_cli("normalize", "--dialect", "bfn", "--frames", frames_tsv, "--out", patterns, bfn_mini)
    valences = tmp_path / "valences.tsv"
    filtered = tmp_path / "filtered.tsv"
    summaries = tmp_path / "summaries"
    assert run_cli(
        "aggregate", "--settings", "2.B", "--in", patterns,
        "--out", valences, "--out-patterns", filtered, "--summary-dir", summaries,
    ) == 0
    assert len(valences.read_text().splitlines()) == 5
    assert (summaries / "Desiring.txt").exists()
    assert len(filtered.read_text().splitlines()) == 7


def test_aggregate_stats_needs_jsonl(tmp_path, bfn_mini, frames_tsv):
    patterns = tmp_path / "patterns.tsv"
    run_cli("normalize", "--dialect", "bfn", "--frames", frames_tsv, "--out", patterns, bfn_mini)
    assert run_cli(
        "aggregate", "--settings", "2.B", "--in", patterns, "--stats-out", tmp_path / "s.csv",
    ) == 1


def test_aggregate_stats_from_jsonl(tmp_path, bfn_mini, frames_tsv):
    sentences = tmp_path / "sentences.jsonl"
    run_cli("ingest", "--dialect", "bfn", "--out", sentences, bfn_mini)
    stats = tmp_path / "stats.csv"
    assert run_cli(
        "aggregate", "--settings", "2.B", "--in", sentences, "--frames", frames_tsv,
        "--stats-out", stats, "--out", tmp_path / "v.tsv",
    ) == 0
    rows = stats.read_text().splitlines()
    assert rows[0].startswith("settings,frames,valence_patterns")
    assert len(rows) == 11  # header + ten settings


def test_native_settings_require_jsonl(tmp_path, bfn_mini, frames_tsv):
    patterns = tmp_path / "patterns.tsv"
    run_cli("normalize", "--dialect", "bfn", "--frames", frames_tsv, "--out", patterns, bfn_mini)
    assert run_cli(
        "aggregate", "--settings", "1.A", "--in", patterns, "--out", tmp_path / "v.tsv",
    ) == 1


def test_compare_and_generate_round_trip(tmp_path, data_dir):
    shared = tmp_path / "shared.tsv"
    report = tmp_path / "report.csv"
    assert run_cli(
        "compare",
        "--left", data_dir / "desiring_bfn_valences_voiced.tsv",
        "--right", data_dir / "desiring_swefn_valences_voiced.tsv",
        "--level", "semsyn", "--mode", "fuzzy",
        "--out", shared, "--report", report,
    ) == 0
    assert run_cli(
        "generate", "--shared", shared,
        "--lu-left", data_dir / "desiring_bfn_patterns.tsv",
        "--lu-right", data_dir / "desiring_swefn_patterns.tsv",
        "--out-dir", tmp_path / "grammar",
    ) == 0
    golden_dir = data_dir / "golden" / "desiring"
    for name in ("FrameFE.gf-abs.txt", "Frames.gf-abs.txt",
                 "LU_bfn.gf-abs.txt", "LU_swefn.gf-abs.txt"):
        assert (tmp_path / "grammar" / name).read_bytes() == (golden_dir / name).read_bytes()


def test_evaluate_command(tmp_path, data_dir, bfn_mini, frames_tsv):
    shared = tmp_path / "shared.tsv"
    run_cli(
        "compare",
        "--left", data_dir / "desiring_bfn_valences.tsv",
        "--right", data_dir / "desiring_swefn_valences.tsv",
        "--level", "semsyn", "--mode", "fuzzy", "--out", shared,
    )
    patterns = tmp_path / "patterns.tsv"
    run_cli("normalize", "--dialect", "bfn", "--frames", frames_tsv, "--out", patterns, bfn_mini)
    coverage_csv = tmp_path / "coverage.csv"
    assert run_cli(
        "evaluate", "--final", shared, "--examples", patterns,
        "--side", "bfn", "--out", coverage_csv,
    ) == 0
    rows = coverage_csv.read_text().splitlines()
    assert rows[0].split(",")[:3] == ["side", "level", "mode"]
    assert rows[1].startswith("bfn,semsyn,fuzzy")


def test_evaluate_level_mismatch_fails(tmp_path, data_dir, bfn_mini, frames_tsv):
    shared = tmp_path / "shared.tsv"
    run_cli(
        "compare",
        "--left", data_dir / "desiring_bfn_valences.tsv",
        "--right", data_dir / "desiring_swefn_valences.tsv",
        "--level", "semsyn", "--mode", "fuzzy", "--out", shared,
    )
    patterns = tmp_path / "patterns.tsv"
    run_cli("normalize", "--dialect", "bfn", "--frames", frames_tsv, "--out", patterns, bfn_mini)
    assert run_cli(
        "evaluate", "--final", shared, "--examples", patterns,
        "--level", "sem", "--out", tmp_path / "c.csv",
    ) == 1


@pytest.mark.parametrize("command", ["evaluate", "generate"])
def test_shared_tsv_without_its_header_is_an_error_record(tmp_path, capsys, data_dir, command):
    shared = tmp_path / "shared.tsv"
    assert run_cli(
        "compare",
        "--left", data_dir / "desiring_bfn_valences.tsv",
        "--right", data_dir / "desiring_swefn_valences.tsv",
        "--level", "sem", "--mode", "fuzzy", "--out", shared,
    ) == 0
    shared.write_text("".join(shared.read_text().splitlines(keepends=True)[1:]))
    patterns = data_dir / "desiring_bfn_patterns.tsv"
    args = {
        "evaluate": ["--final", shared, "--examples", patterns, "--out", tmp_path / "c.csv"],
        "generate": [
            "--shared", shared, "--lu-left", patterns,
            "--lu-right", data_dir / "desiring_swefn_patterns.tsv", "--out-dir", tmp_path / "g",
        ],
    }[command]
    capsys.readouterr()
    assert run_cli(command, *args) == 1
    record = json.loads(capsys.readouterr().err)
    assert (record["stage"], record["error"]) == (command, "ValueError")
    assert record["message"].startswith(f"{shared}:1: expected a header")


def test_unknown_settings_id_is_usage_error(tmp_path, bfn_mini, swefn_mini, frames_tsv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(
            "run", "--left", bfn_mini, "--left-dialect", "bfn",
            "--right", swefn_mini, "--right-dialect", "swefn",
            "--frames", frames_tsv, "--settings", "9.Z",
            "--out-dir", tmp_path / "out",
        )
    assert excinfo.value.code == 2


def test_run_produces_expected_artifacts(tmp_path, bfn_mini, swefn_mini, frames_tsv):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn",
        "--frames", frames_tsv, "--out-dir", out,
    ) == 0
    expected = [
        "manifest.json", "frame-report.csv", "pattern-report.csv", "coverage.csv",
        "bfn.sentences.jsonl", "bfn.patterns.tsv", "bfn.skips.tsv",
        "bfn.stats.csv", "bfn.valences.tsv", "bfn.filtered-patterns.tsv",
        "swefn.sentences.jsonl", "swefn.patterns.tsv", "swefn.skips.tsv",
        "swefn.stats.csv", "swefn.valences.tsv", "swefn.filtered-patterns.tsv",
        "grammar/FrameFE.gf-abs.txt", "grammar/Frames.gf-abs.txt",
        "grammar/LU_bfn.gf-abs.txt", "grammar/LU_swefn.gf-abs.txt",
        "shared/sem-exact.tsv", "shared/sem-fuzzy.tsv",
        "shared/semsyn-exact.tsv", "shared/semsyn-fuzzy.tsv",
        "summaries/bfn/Desiring.txt", "summaries/swefn/Desiring.txt",
        "summaries/swefn/Motion.txt",
    ]
    for rel in expected:
        assert (out / rel).exists(), rel
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "valgram"
    assert set(manifest["inputs"]) == {
        str(bfn_mini), str(swefn_mini), str(frames_tsv),
    }


def test_manifest_holds_the_voice_rules_digest(tmp_path, bfn_mini, swefn_mini, frames_tsv):
    rules = tmp_path / "rules.json"
    rules.write_text('{"bfn": {"aux_window": 2}}', encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn",
        "--frames", frames_tsv, "--voice-rules", rules, "--out-dir", out,
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["voice_rules_path"] == str(rules)
    assert manifest["inputs"][str(rules)] == hashlib.sha256(rules.read_bytes()).hexdigest()
    assert len(manifest["inputs"]) == 4


def test_run_grammar_matches_goldens(tmp_path, bfn_mini, swefn_mini, frames_tsv, data_dir):
    out = tmp_path / "out"
    run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn",
        "--frames", frames_tsv, "--out-dir", out,
    )
    golden_dir = data_dir / "golden" / "run_grammar"
    for name in ("FrameFE.gf-abs.txt", "Frames.gf-abs.txt",
                 "LU_bfn.gf-abs.txt", "LU_swefn.gf-abs.txt"):
        assert (out / "grammar" / name).read_bytes() == (golden_dir / name).read_bytes(), name


def test_stage_error_record_on_missing_input(tmp_path, capsys, frames_tsv):
    status = run_cli(
        "run", "--left", tmp_path / "missing.xml", "--left-dialect", "bfn",
        "--right", tmp_path / "missing2.xml", "--right-dialect", "swefn",
        "--frames", frames_tsv, "--out-dir", tmp_path / "out",
    )
    assert status == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"].startswith("ingest")


def test_console_script_entry_point(bfn_mini):
    proc = subprocess.run(
        [sys.executable, "-m", "valgram.cli", "ingest", "--dialect", "bfn", str(bfn_mini)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 7


def test_run_with_per_side_settings_pair(tmp_path, bfn_mini, swefn_mini, frames_tsv):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn",
        "--frames", frames_tsv, "--settings", "3.B:2.B",
        "--out-dir", out,
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["left"]["settings"] == "3.B"
    assert manifest["config"]["right"]["settings"] == "2.B"
    # under 3.B only the left corpus's reused valence patterns survive
    left_rows = (out / "bfn.valences.tsv").read_text().splitlines()
    assert all(int(row.split("\t")[3]) > 1 for row in left_rows if row)


def test_full_corpus_tables_takes_run_arguments(tmp_path, bfn_mini, swefn_mini, frames_tsv):
    # Under -X dev, a file that the script leaves open prints a ResourceWarning.
    out = tmp_path / "tables"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", str(REPO / "scripts" / "full_corpus_tables.py"),
         "--left", str(bfn_mini), "--left-dialect", "bfn",
         "--right", str(swefn_mini), "--right-dialect", "swefn",
         "--frames-left", str(frames_tsv), "--frames-right", str(frames_tsv),
         "--settings", "3.B:2.B", "--out-dir", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert "example coverage" in proc.stdout
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["left"]["settings"], config["right"]["settings"]) == ("3.B", "2.B")


@pytest.mark.parametrize("side", ["bfn", "swefn"])
def test_normalize_xml_matches_run(tmp_path, side, bfn_mini, swefn_mini, frames_tsv):
    run_out = tmp_path / "run"
    assert run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn",
        "--frames", frames_tsv, "--out-dir", run_out,
    ) == 0
    corpus = bfn_mini if side == "bfn" else swefn_mini
    patterns, skips = tmp_path / "patterns.tsv", tmp_path / "skips.tsv"
    assert run_cli(
        "normalize", "--dialect", side, "--frames", frames_tsv,
        "--out", patterns, "--skips", skips, corpus,
    ) == 0
    assert patterns.read_bytes() == (run_out / f"{side}.patterns.tsv").read_bytes()
    assert skips.read_bytes() == (run_out / f"{side}.skips.tsv").read_bytes()


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


@pytest.mark.parametrize("sid", ALL_SETTINGS_IDS)
def test_subcommand_chain_matches_run(tmp_path, sid, bfn_mini, swefn_mini, frames_tsv):
    run_out = tmp_path / "run"
    assert run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn",
        "--frames", frames_tsv, "--settings", sid, "--out-dir", run_out,
    ) == 0
    valences = {}
    for side, corpus in (("bfn", bfn_mini), ("swefn", swefn_mini)):
        sentences = tmp_path / f"{side}.sentences.jsonl"
        assert run_cli("ingest", "--dialect", side, "--out", sentences, corpus) == 0
        valences[side] = tmp_path / f"{side}.valences.tsv"
        assert run_cli(
            "aggregate", "--settings", sid, "--in", sentences, "--frames", frames_tsv,
            "--out", valences[side],
        ) == 0
        assert valences[side].read_bytes() == (run_out / f"{side}.valences.tsv").read_bytes()
    run_reports = {tuple(row[:2]): row for row in _csv_rows(run_out / "pattern-report.csv")}
    for level in ("sem", "semsyn"):
        for mode in ("exact", "fuzzy"):
            shared, report = tmp_path / f"{level}-{mode}.tsv", tmp_path / f"{level}-{mode}.csv"
            assert run_cli(
                "compare", "--left", valences["bfn"], "--right", valences["swefn"],
                "--level", level, "--mode", mode, "--out", shared, "--report", report,
            ) == 0
            assert shared.read_bytes() == (run_out / "shared" / f"{level}-{mode}.tsv").read_bytes()
            assert _csv_rows(report)[1:] == [run_reports[(level, mode)]]


def test_unconsidered_examples_keep_native_types_in_filtered_patterns(
    tmp_path, bfn_mini, swefn_mini, frames_tsv
):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn",
        "--frames", frames_tsv, "--settings", "0.0", "--out-dir", out,
    ) == 0
    # swefn-005 has a subclause FE, so only 0.0 keeps it
    lines = (out / "swefn.filtered-patterns.tsv").read_text().splitlines()
    (row,) = [line.split("\t") for line in lines if line.endswith("\tswefn-005")]
    assert "_SN." in row[2]


# ---------------------------------------------------------------------------
# Sentence JSONL read errors, and the key cache between commands
# ---------------------------------------------------------------------------

# The JSON types each sentence-JSONL field may hold, and whether it may be
# absent. Field names are unique across the record kinds.
_JSONL_FIELDS = {
    "sentence_id": ({"a string"}, False), "text": ({"a string"}, False),
    "frame": ({"a string"}, False), "target": ({"an object"}, False),
    "lu_ref": ({"a string"}, False), "fe_spans": ({"an array"}, False),
    "dialect": ({"a string"}, False), "tokens": ({"an array"}, True),
    "fe_name": ({"a string"}, False), "span": ({"an object", "null"}, True),
    "phrase_type": ({"a string", "null"}, True), "gram_function": ({"a string", "null"}, True),
    "words": ({"an array", "null"}, True), "null_instantiated": ({"a boolean"}, True),
    "surface": ({"a string"}, False), "pos": ({"a string"}, False),
    "ref": ({"an integer"}, False), "msd": ({"a string", "null"}, True),
    "dephead": ({"an integer", "null"}, True), "deprel": ({"a string"}, True),
    "start": ({"an integer"}, False), "end": ({"an integer"}, False),
}
_JSON_VALUES = {
    "an integer": 7, "a number": 1.5, "a boolean": True, "a string": "x", "null": None,
    "an array": [], "an object": {},
}


def _fields(record: dict, prefix: str = ""):
    """(path, object, key) of every field of a JSONL record, nested ones too."""
    for key, value in record.items():
        path = f"{prefix}.{key}" if prefix else key
        yield path, record, key
        items = value if isinstance(value, list) else [value]
        for i, item in enumerate(items):
            if isinstance(item, dict):
                yield from _fields(item, f"{path}[{i}]" if isinstance(value, list) else path)


def _normalize_jsonl(path: Path, frames_tsv: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(
            "normalize", "--jsonl", "--frames", frames_tsv,
            "--out", path.with_suffix(".patterns.tsv"), path,
        )
    return code, err.getvalue()


def _single_error_message(stderr: str, stage: str = "normalize") -> str:
    (line,) = stderr.splitlines()
    record = json.loads(line)
    assert (record["stage"], record["error"]) == (stage, "ValueError")
    return record["message"]


@pytest.mark.parametrize("field,value,message", [
    ("text", None, "text: missing"),
    ("frame", 7, "frame: expected a string, got an integer"),
    ("dialect", "fn", "dialect: 'fn' is not one of 'bfn', 'swefn'"),
], ids=["missing-text", "integer-frame", "unknown-dialect"])
def test_sentence_jsonl_field_error_names_file_line_and_field(
    tmp_path, bfn_mini, frames_tsv, field, value, message
):
    path = tmp_path / "bfn.sentences.jsonl"
    assert run_cli("ingest", "--dialect", "bfn", "--out", path, bfn_mini) == 0
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    if value is None:
        del record[field]
    else:
        record[field] = value
    lines[2] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    code, stderr = _normalize_jsonl(path, frames_tsv)
    assert code == 1
    assert _single_error_message(stderr) == f"{path}:3: {message}"


@pytest.fixture(scope="module")
def mini_jsonl_lines(tmp_path_factory, data_dir):
    """The sentence-JSONL lines of each mini corpus, as ingest writes them."""
    lines = {}
    for dialect in ("bfn", "swefn"):
        path = tmp_path_factory.mktemp("jsonl") / f"{dialect}.sentences.jsonl"
        assert run_cli(
            "ingest", "--dialect", dialect, "--out", path, data_dir / f"{dialect}_mini.xml"
        ) == 0
        lines[dialect] = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return lines


@pytest.mark.parametrize("dialect", ["bfn", "swefn"])
@settings(max_examples=50)  # each example runs normalize through the CLI
@given(data=st.data())
def test_corrupted_sentence_jsonl_field_is_one_error_record(
    tmp_path_factory, mini_jsonl_lines, frames_tsv, dialect, data
):
    # One field of one record is dropped, when it may not be absent, or
    # given a value of another JSON type. normalize --jsonl then fails with
    # one error record naming the file, the line and the field.
    path = tmp_path_factory.getbasetemp() / f"corrupt.{dialect}.sentences.jsonl"
    lines = list(mini_jsonl_lines[dialect])
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    record = json.loads(lines[i])
    field, obj, key = data.draw(st.sampled_from(list(_fields(record))), label="field")
    allowed, optional = _JSONL_FIELDS[key]
    wrong = [kind for kind in _JSON_VALUES if kind not in allowed]
    kind = data.draw(st.sampled_from(wrong + ([] if optional else ["absent"])), label="kind")
    if kind == "absent":
        del obj[key]
    else:
        obj[key] = _JSON_VALUES[kind]
    lines[i] = json.dumps(record, ensure_ascii=False) + "\n"
    path.write_text("".join(lines), encoding="utf-8")

    code, stderr = _normalize_jsonl(path, frames_tsv)
    assert code == 1
    message = _single_error_message(stderr)
    assert message.startswith(f"{path}:{i + 1}: {field}: ")
    assert message.endswith("missing" if kind == "absent" else f"got {kind}")


def _size(table) -> int:
    return table.cache_info().currsize if hasattr(table, "cache_info") else len(table)


def _nothing_cached() -> bool:
    """No process-wide table holds anything."""
    return not any(map(_size, _base._TABLES))


def _slot_values(records) -> Iterator[tuple[object, str, object]]:
    """Each (record, slot, value) of the records and of the slotted records
    and tuples their slots hold."""
    for record in records:
        if isinstance(record, tuple):
            yield from _slot_values(record)
        for slot in getattr(type(record), "__slots__", ()):
            value = getattr(record, slot)
            yield record, slot, value
            yield from _slot_values([value])


def _use_every_stage(data_dir: Path) -> None:
    """Parse, normalize, aggregate, intersect and cover the mini corpora,
    each stage called directly, and check that no stage stores anything on
    the sentences, patterns and valences it is given: each of their slots
    still holds the same object."""
    frame_index = load_frame_index(data_dir / "frames_fixture.tsv")
    given = []

    def give(records):
        given.extend(_slot_values(records))
        return records

    sides = []
    corpora = (("bfn_mini.xml", Dialect.BFN_PHRASE), ("swefn_mini.xml", Dialect.SWEFN_DEP))
    for name, dialect in corpora:
        sentences = give(parse_corpus(data_dir / name, dialect))
        patterns = give(normalize_corpus(sentences, frame_index)[0])
        sides.append((patterns, give(aggregate_corpus(patterns, Settings.from_id("2.B"))[0])))
    shared = intersect(sides[0][1], sides[1][1], MatchLevel.SEMANTIC, MatchMode.FUZZY)
    coverage(shared, sides[0][0])
    stored = {
        f"{type(record).__name__}.{slot}"
        for record, slot, value in given if getattr(record, slot) is not value
    }
    assert not stored, stored


def test_no_stage_stores_anything_on_the_records_it_is_given(data_dir):
    _use_every_stage(data_dir)


def _cache_an_earlier_callers_keys(data_dir: Path) -> None:
    _use_every_stage(data_dir)
    assert all(map(_size, _base._TABLES))


def _check_every_grown_table_is_registered(data_dir: str) -> None:
    """Every module-level container or functools cache of the package that
    the stages grow is a registered table, each registered table grows, and
    ``clear()`` empties them all."""
    tables = {
        f"{name}.{attr}": obj
        for name, module in list(sys.modules.items()) if name.split(".")[0] == "valgram"
        for attr, obj in vars(module).items()
        if not attr.startswith("__")
        and (isinstance(obj, (dict, list, set)) or hasattr(obj, "cache_info"))
    }
    before = {name: _size(table) for name, table in tables.items()}
    _use_every_stage(Path(data_dir))
    grown = {name for name, table in tables.items() if _size(table) != before[name]}
    registered = {id(table) for table in _base._TABLES}
    unregistered = {name for name in grown if id(tables[name]) not in registered}
    assert not unregistered, unregistered
    assert {id(tables[name]) for name in grown} == registered
    _base.clear()
    assert _nothing_cached()


def test_every_table_the_stages_grow_is_registered_and_cleared(data_dir):
    # In a new process: here, earlier tests may already have filled an
    # unregistered table with the keys of the mini corpora.
    check = (
        f"import sys; sys.path.insert(0, {str(REPO / 'tests')!r}); import test_cli; "
        f"test_cli._check_every_grown_table_is_registered({str(data_dir)!r})"
    )
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_commands_leave_no_cached_keys(tmp_path, data_dir):
    compare = [
        "compare", "--left", data_dir / "desiring_bfn_valences.tsv",
        "--right", data_dir / "desiring_swefn_valences.tsv", "--level", "semsyn", "--mode", "fuzzy",
    ]
    assert run_cli(*compare, "--out", tmp_path / "shared.tsv") == 0
    assert _nothing_cached()
    # The shared set is built before its write fails, and an earlier
    # caller's keys are there too: none is left once the command returns.
    _cache_an_earlier_callers_keys(data_dir)
    assert run_cli(*compare, "--out", tmp_path / "missing" / "shared.tsv") == 1
    assert _nothing_cached()


def test_runs_leave_no_cached_keys_or_inputs(tmp_path, data_dir, bfn_mini, swefn_mini, frames_tsv):
    # A run's examples are kept for reuse while it runs; an in-process caller
    # must not keep them, nor any key, once run_pipeline or cli.main returns.
    def config(out):
        return PipelineConfig(
            left=SideConfig("bfn", Dialect.BFN_PHRASE, [bfn_mini], [frames_tsv]),
            right=SideConfig("swefn", Dialect.SWEFN_DEP, [swefn_mini], [frames_tsv]),
            out_dir=out,
        )

    run = [
        "run", "--left", bfn_mini, "--left-dialect", "bfn",
        "--right", swefn_mini, "--right-dialect", "swefn", "--frames", frames_tsv,
    ]
    # The coverage counts are made before the coverage table's write fails.
    bad = tmp_path / "bad"
    (bad / "coverage.csv").mkdir(parents=True)
    for succeeds, out in ((True, tmp_path / "ok"), (False, bad)):
        _cache_an_earlier_callers_keys(data_dir)
        if succeeds:
            run_pipeline(config(out))
        else:
            with pytest.raises(StageError, match="evaluate"):
                run_pipeline(config(out))
        assert _nothing_cached()
        _cache_an_earlier_callers_keys(data_dir)
        assert run_cli(*run, "--out-dir", out) == (0 if succeeds else 1)
        assert _nothing_cached()


# ---------------------------------------------------------------------------
# TSV reads through the consuming subcommands
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mini_run(tmp_path_factory, bfn_mini, swefn_mini, frames_tsv):
    """The ``run`` tree of the mini corpora at a settings id, made once per id."""
    trees = {}

    def tree(sid: str) -> Path:
        if sid not in trees:
            out = tmp_path_factory.mktemp(f"run-{sid}")
            assert run_cli(
                "run", "--left", bfn_mini, "--left-dialect", "bfn",
                "--right", swefn_mini, "--right-dialect", "swefn",
                "--frames", frames_tsv, "--settings", sid, "--out-dir", out,
            ) == 0
            trees[sid] = out
        return trees[sid]

    return tree


def _evaluate(shared: Path, examples: Path, side: str, out: Path) -> list:
    return ["evaluate", "--final", shared, "--examples", examples, "--side", side, "--out", out]


def _generate(shared: Path, left: Path, right: Path, out_dir: Path) -> list:
    return ["generate", "--shared", shared, "--lu-left", left, "--lu-right", right,
            "--out-dir", out_dir]


def _consumer_argv(command: str, inputs: dict[str, Path], out: Path) -> list:
    """``command`` on the artifacts of a run tree, by their names in it."""
    if command == "evaluate":
        return _evaluate(inputs["shared/semsyn-fuzzy.tsv"], inputs["bfn.patterns.tsv"], "bfn", out)
    if command == "generate":
        return _generate(
            inputs["shared/semsyn-fuzzy.tsv"], inputs["bfn.filtered-patterns.tsv"],
            inputs["swefn.filtered-patterns.tsv"], out,
        )
    return ["compare", "--left", inputs["bfn.valences.tsv"], "--right", inputs["swefn.valences.tsv"],
            "--level", "semsyn", "--mode", "fuzzy", "--out", out]


def _command_error(argv: list) -> str:
    """The message of the one error record that ``argv`` exits 1 with."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(*argv) == 1
    return _single_error_message(err.getvalue(), argv[0])


# (consuming command, artifact, line (-1: the last), column, new field, the
# message after "<path>:<line>: "). Each bad value follows good rows, so a
# decode cached from an earlier row cannot hide it.
_TSV_CORRUPTIONS = {
    "voice": ("evaluate", "bfn.patterns.tsv", -1, 1, "Actv",
              "voice: 'Actv' is not a valid Voice"),
    "pattern-token": ("evaluate", "bfn.patterns.tsv", -1, 2, "Experiencer_NP.Subj Bogus",
                      "fes: cannot parse FE token 'Bogus' as a pattern"),
    "filtered-token": ("generate", "swefn.filtered-patterns.tsv", -1, 2, "Bogus",
                       "fes: cannot parse FE token 'Bogus' as a pattern"),
    "valence-token": ("compare", "swefn.valences.tsv", -1, 2, "Experiencer_NP.Subj,Bogus",
                      "fes: cannot parse FE token 'Bogus' as a key"),
    "count": ("compare", "bfn.valences.tsv", -1, 3, "x",
              "count: invalid literal for int() with base 10: 'x'"),
    # int() alone reads these two as 10 and -3.
    "count-underscore": ("compare", "bfn.valences.tsv", -1, 3, "1_0",
                         "count: expected ASCII digits, got '1_0'"),
    "count-sign": ("compare", "bfn.valences.tsv", -1, 3, "-3",
                   "count: expected ASCII digits, got '-3'"),
    "meta-json": ("evaluate", "shared/semsyn-fuzzy.tsv", -1, 4, "{oops",
                  "meta: Expecting property name enclosed in double quotes"),
    "meta-array": ("generate", "shared/semsyn-fuzzy.tsv", -1, 4, "[1]",
                   "meta: expected an object, got an array"),
    "meta-count": ("evaluate", "shared/semsyn-fuzzy.tsv", -1, 4,
                   '{"syn": {"left": [[["Event_VP"], "3"]]}}',
                   "meta: syn.left[0][1]: expected an integer, got a string"),
    "meta-subsumed-by": ("evaluate", "shared/semsyn-fuzzy.tsv", -1, 4, '{"subsumed_by": []}',
                         "meta: subsumed_by: expected an object, got an array"),
    "meta-subsumed-by-side": ("generate", "shared/semsyn-fuzzy.tsv", -1, 4,
                              '{"subsumed_by": {"left": ["Event_VP", 1]}}',
                              "meta: subsumed_by.left: expected an array of strings"),
    "meta-syn": ("evaluate", "shared/semsyn-fuzzy.tsv", -1, 4, '{"syn": 1}',
                 "meta: syn: expected an object, got an integer"),
    "meta-syn-side": ("generate", "shared/semsyn-fuzzy.tsv", -1, 4, '{"syn": {"left": {}}}',
                      "meta: syn.left: expected an array, got an object"),
    "meta-variant": ("evaluate", "shared/semsyn-fuzzy.tsv", -1, 4,
                     '{"syn": {"left": [[["Event_VP"], 3, 4]]}}',
                     "meta: syn.left[0]: expected a [tokens, count] pair"),
    "meta-variant-tokens": ("generate", "shared/semsyn-fuzzy.tsv", -1, 4,
                            '{"syn": {"left": [["Event_VP", 3]]}}',
                            "meta: syn.left[0][0]: expected an array of strings"),
    "shared-voice": ("evaluate", "shared/semsyn-fuzzy.tsv", -1, 1, "Bogus",
                     "voice: expected 'Act' or 'Pass' at level semsyn, got 'Bogus'"),
    "shared-token": ("generate", "shared/semsyn-fuzzy.tsv", -1, 2, "Event_NP,Nonsense",
                     "fes: cannot parse FE token 'Nonsense' as a category"),
}


@pytest.mark.parametrize("case", list(_TSV_CORRUPTIONS))
def test_tsv_field_error_names_file_line_and_field(tmp_path, mini_run, case):
    command, name, line, column, value, message = _TSV_CORRUPTIONS[case]
    run = mini_run("2.B")
    lines = (run / name).read_text(encoding="utf-8").splitlines(keepends=True)
    line = line % len(lines) + 1
    assert line > 2  # an earlier data row holds a good value of the field
    fields = lines[line - 1].rstrip("\n").split("\t")
    fields[column] = value
    lines[line - 1] = "\t".join(fields) + "\n"
    bad = tmp_path / name.replace("/", "-")
    bad.write_text("".join(lines), encoding="utf-8")
    inputs = {n: run / n for n in (
        "shared/semsyn-fuzzy.tsv", "bfn.patterns.tsv", "bfn.filtered-patterns.tsv",
        "swefn.filtered-patterns.tsv", "bfn.valences.tsv", "swefn.valences.tsv",
    )}
    inputs[name] = bad
    assert _command_error(_consumer_argv(command, inputs, tmp_path / "out")).startswith(
        f"{bad}:{line}: {message}"
    )


# Tokens that no reading of a sentence-pattern FE field takes: no type, or a
# type outside the interlingual inventory. A native token such as
# ``Event_NP.Obj`` also reads as an interlingual one, so none is drawn.
_BAD_FE_TOKENS = st.one_of(
    st.sampled_from(["Event", "Opt_Degree", "Experiencer_"]),
    st.builds(
        "{}_{}".format,
        st.sampled_from(["Event", "Experiencer", "Opt_Degree"]),
        st.sampled_from(["Sfin", "PP", "AVP", "NP.Dep", "VPto", "Adv[for", "np"]),
    ),
)
# A UTF-8 file cannot hold a lone surrogate, so none is drawn.
_FIELD_TEXT = st.text(
    st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)), max_size=6
)


@pytest.mark.parametrize("command", ["aggregate", "evaluate"])
@settings(max_examples=50)  # each example runs a command on the mini patterns
@given(data=st.data())
def test_corrupted_patterns_tsv_line_is_one_error_record(
    tmp_path_factory, mini_run, command, data
):
    # One line of the mini patterns TSV gets another field count, a voice
    # that is not one, or an FE token that does not read. The command then
    # fails with one error record naming the file and the line, and the
    # field when a field is at fault.
    run = mini_run("2.B")
    lines = (run / "bfn.patterns.tsv").read_text(encoding="utf-8").split("\n")[:-1]
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    fields = lines[i].split("\t")
    kind = data.draw(st.sampled_from(["fields", "voice", "token"]), label="kind")
    if kind == "fields":
        n = data.draw(st.integers(1, 8).filter(lambda n: n != len(fields)), label="fields")
        fields = (fields + data.draw(st.lists(_FIELD_TEXT, min_size=3, max_size=3)))[:n]
        message = f"expected 5 fields, got {n}"
    elif kind == "voice":
        fields[1] = data.draw(_FIELD_TEXT.filter(lambda v: v not in ("Act", "Pass")), label="voice")
        message = f"voice: {fields[1]!r} is not a valid Voice"
    else:
        tokens = fields[2].split()
        token = data.draw(_BAD_FE_TOKENS, label="token")
        tokens.insert(data.draw(st.integers(0, len(tokens)), label="at"), token)
        fields[2] = " ".join(tokens)
        message = f"fes: cannot parse FE token {token!r} as a pattern"
    lines[i] = "\t".join(fields)
    bad = tmp_path_factory.getbasetemp() / f"corrupt-{command}.patterns.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path_factory.getbasetemp() / f"corrupt-{command}.out"
    if command == "aggregate":
        argv = ["aggregate", "--in", bad, "--settings", "2.B", "--out", out]
    else:
        argv = _evaluate(run / "shared" / "semsyn-fuzzy.tsv", bad, "bfn", out)
    assert _command_error(argv).startswith(f"{bad}:{i + 1}: {message}")


def _corrupt_line(data, path: Path, kinds: list[str]):
    """The lines of the TSV at ``path``, the index and fields of one drawn
    data line, and one drawn kind of corruption. The caller corrupts the
    fields and writes them with ``_write_line``."""
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    i = data.draw(st.sampled_from(rows), label="line")
    return lines, i, lines[i].split("\t"), data.draw(st.sampled_from(kinds), label="kind")


def _write_line(lines: list[str], i: int, fields: list[str], out: Path) -> str:
    """``lines`` with line ``i`` made of ``fields``, written to ``out``; the
    ``<path>:<line>: `` that an error at that line starts with."""
    lines = list(lines)
    lines[i] = "\t".join(fields)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{out}:{i + 1}: "


def _other_field_count(data, fields: list[str]) -> tuple[list[str], int]:
    n = data.draw(st.integers(1, 8).filter(lambda n: n != len(fields)), label="fields")
    return (fields + data.draw(st.lists(_FIELD_TEXT, min_size=4, max_size=4)))[:n], n


def _insert_token(data, fes_field: str, token: str, sep: str) -> str:
    tokens = fes_field.split(sep)
    tokens.insert(data.draw(st.integers(0, len(tokens)), label="at"), token)
    return sep.join(tokens)


# Count columns that are not what the writers write: ASCII digits only.
_BAD_COUNTS = st.one_of(
    st.sampled_from(["x", "1_0", "-3", "+3", " 3", "3.0", "", "\u0663"]),
    _FIELD_TEXT.filter(lambda text: not (text.isascii() and text.isdigit())),
)
# Key tokens with no "_<type>", which no reading of a key takes. A name with
# an "_" inside would read as a name and a type, so none is drawn.
_UNTYPED_TOKENS = st.one_of(
    st.from_regex(r"[A-Za-z]{1,10}", fullmatch=True),
    st.from_regex(r"[A-Za-z]{1,10}_", fullmatch=True),
)


@settings(max_examples=50)  # each example runs compare on the mini valences
@given(data=st.data())
def test_corrupted_valences_tsv_line_is_one_error_record(tmp_path_factory, mini_run, data):
    # One line of the mini valences TSV gets another field count, a voice
    # that is not one, a count that is not ASCII digits, or an FE token with
    # no type. compare then fails with one error record naming the file, the
    # line and the field.
    run = mini_run("2.B")
    side = data.draw(st.sampled_from(["bfn", "swefn"]), label="side")
    bad = tmp_path_factory.getbasetemp() / f"corrupt.{side}.valences.tsv"
    lines, i, fields, kind = _corrupt_line(
        data, run / f"{side}.valences.tsv", ["fields", "voice", "count", "token"]
    )
    if kind == "fields":
        fields, n = _other_field_count(data, fields)
        message = f"expected 4 fields, got {n}"
    elif kind == "voice":
        fields[1] = data.draw(_FIELD_TEXT.filter(lambda v: v not in ("Act", "Pass")), label="voice")
        message = f"voice: {fields[1]!r} is not a valid Voice"
    elif kind == "count":
        fields[3] = data.draw(_BAD_COUNTS, label="count")
        message = "count: "
    else:
        token = data.draw(_UNTYPED_TOKENS, label="token")
        fields[2] = _insert_token(data, fields[2], token, ",")
        message = f"fes: cannot parse FE token {token!r} as a key"
    at = _write_line(lines, i, fields, bad)
    inputs = {f"{s}.valences.tsv": run / f"{s}.valences.tsv" for s in ("bfn", "swefn")}
    inputs[f"{side}.valences.tsv"] = bad
    argv = _consumer_argv("compare", inputs, tmp_path_factory.getbasetemp() / "corrupt.out")
    assert _command_error(argv).startswith(at + message)


# FE tokens that a shared set of each level does not hold: at the semantic
# level an FE name that tokens cannot carry, at the semantic-syntactic level
# anything but a grammar category (a typed FE with no syntactic function).
_BAD_SHARED_TOKENS = {
    "sem": st.sampled_from(["Opt_", "Event.x", "A[b", "b]", "Exp erien", "Opt_Opt_Degree"]),
    "semsyn": st.one_of(_BAD_FE_TOKENS, st.sampled_from(["Event_NP.Subj", "Event_Adv[for]"])),
}


def _bad_meta(data, meta: dict) -> str:
    """The provenance column of a shared-set row made into something that
    write_shared_tsv does not write: text that is not JSON, a value of
    another JSON type in place of the object or of one of its values, or a
    variant token that does not read as a key."""
    text = json.dumps(meta, ensure_ascii=False, sort_keys=True)
    kind = data.draw(st.sampled_from(["truncated", "whole", "value", "token"]), label="meta")
    if kind == "truncated":
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    if kind == "whole":
        wrong = [k for k in _JSON_VALUES if k != "an object"]
        return json.dumps(_JSON_VALUES[data.draw(st.sampled_from(wrong), label="value")])
    side = data.draw(st.sampled_from(sorted(meta["syn"])), label="side")
    variants = meta["syn"][side]
    at = data.draw(st.integers(0, len(variants) - 1), label="variant")
    if kind == "token":
        variants[at][0].append(data.draw(_UNTYPED_TOKENS, label="token"))
        return json.dumps(meta)
    # (the object holding the value, its key, the JSON type it may hold)
    slots = [
        (meta, "syn", "an object"), (meta, "subsumed_by", "an object"),
        (meta["syn"], side, "an array"), (variants, at, None),  # a pair, not any array
        (variants[at], 0, "an array"), (variants[at], 1, "an integer"),
    ]
    holder, key, allowed = data.draw(st.sampled_from(slots), label="slot")
    wrong = [k for k in _JSON_VALUES if k != allowed]
    holder[key] = _JSON_VALUES[data.draw(st.sampled_from(wrong), label="value")]
    return json.dumps(meta)


@pytest.mark.parametrize("command,level", [
    ("evaluate", "sem"), ("evaluate", "semsyn"), ("generate", "semsyn"),
])
@settings(max_examples=50)  # each example runs a command on the mini shared set
@given(data=st.data())
def test_corrupted_shared_tsv_line_is_one_error_record(
    tmp_path_factory, mini_run, command, level, data
):
    # One row of a mini shared set gets another field count, a voice its
    # level does not take, an FE token its level does not hold, a count that
    # is not the sum of the variants' counts, or a provenance column that is
    # not the JSON write_shared_tsv writes. The command then fails with one
    # error record naming the file, the line and the field.
    run = mini_run("2.B")
    bad = tmp_path_factory.getbasetemp() / f"corrupt-{command}.{level}-fuzzy.tsv"
    lines, i, fields, kind = _corrupt_line(
        data, run / "shared" / f"{level}-fuzzy.tsv", ["fields", "voice", "token", "count", "meta"]
    )
    if kind == "fields":
        fields, n = _other_field_count(data, fields)
        message = f"expected 5 fields, got {n}"
    elif kind == "voice":
        voices = ("-",) if level == "sem" else ("Act", "Pass")
        fields[1] = data.draw(_FIELD_TEXT.filter(lambda v: v not in voices), label="voice")
        expected = " or ".join(map(repr, voices))
        message = f"voice: expected {expected} at level {level}, got {fields[1]!r}"
    elif kind == "token":
        token = data.draw(_BAD_SHARED_TOKENS[level], label="token")
        fields[2] = _insert_token(data, fields[2], token, ",")
        reading = "an FE name" if level == "sem" else "a category"
        message = f"fes: cannot parse FE token {token!r} as {reading}"
    elif kind == "count":
        total = int(fields[3])
        fields[3] = str(data.draw(st.integers(0, 10**6).filter(lambda n: n != total), label="count"))
        message = f"count: {fields[3]} is not the sum of the variants' counts, {total}"
    else:
        fields[4] = _bad_meta(data, json.loads(fields[4]))
        message = "meta: "
    at = _write_line(lines, i, fields, bad)
    inputs = {n: run / n for n in (
        "bfn.patterns.tsv", "bfn.filtered-patterns.tsv", "swefn.filtered-patterns.tsv",
    )}
    inputs["shared/semsyn-fuzzy.tsv"] = bad  # the consumer's shared set, of either level
    out = tmp_path_factory.getbasetemp() / f"corrupt-{command}.out"
    assert _command_error(_consumer_argv(command, inputs, out)).startswith(at + message)


@pytest.mark.parametrize("count", ["x", "999"])
@pytest.mark.parametrize("command", ["evaluate", "generate"])
def test_shared_tsv_count_must_be_the_variants_sum(tmp_path, mini_run, command, count):
    run = mini_run("2.B")
    lines = (run / "shared/semsyn-fuzzy.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split("\t")
    total, fields[3] = fields[3], count
    assert total != count
    lines[1] = "\t".join(fields) + "\n"
    bad = tmp_path / "semsyn-fuzzy.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    inputs = {n: run / n for n in (
        "bfn.patterns.tsv", "bfn.filtered-patterns.tsv", "swefn.filtered-patterns.tsv",
    )}
    inputs["shared/semsyn-fuzzy.tsv"] = bad
    reason = (
        f"invalid literal for int() with base 10: {count!r}" if count == "x"
        else f"{count} is not the sum of the variants' counts, {total}"
    )
    assert _command_error(_consumer_argv(command, inputs, tmp_path / "out")) == (
        f"{bad}:2: count: {reason}"
    )


def test_shared_tsv_count_with_a_sign_is_refused(tmp_path, mini_run):
    # int() reads "+<sum>" as the sum itself.
    run = mini_run("2.B")
    lines = (run / "shared/semsyn-fuzzy.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split("\t")
    fields[3] = f"+{fields[3]}"
    lines[1] = "\t".join(fields) + "\n"
    bad = tmp_path / "semsyn-fuzzy.tsv"
    bad.write_text("".join(lines), encoding="utf-8")
    argv = _evaluate(bad, run / "bfn.patterns.tsv", "bfn", tmp_path / "out")
    assert _command_error(argv) == f"{bad}:2: count: expected ASCII digits, got {fields[3]!r}"


def test_generate_on_native_filtered_patterns_names_the_limit(tmp_path, mini_run):
    # Under 0.0 the filtered patterns keep corpus-native types, and LU arity
    # needs interlingual ones.
    run = mini_run("0.0")
    left = run / "bfn.filtered-patterns.tsv"
    assert left.read_text(encoding="utf-8").startswith(
        "Desiring\tAct\tEvent_NP.Obj Experiencer_NP.Ext\t"
    )
    argv = _generate(
        run / "shared" / "semsyn-fuzzy.tsv", left, run / "swefn.filtered-patterns.tsv",
        tmp_path / "grammar",
    )
    assert _command_error(argv) == (
        f"{left}:1: fes: cannot parse FE token 'Experiencer_NP.Ext' as a pattern: "
        "type 'NP.Ext' is corpus-native, and a pattern needs interlingual types"
    )


def _tree_digests(root: Path) -> dict[str, str]:
    """The sha256 of each file of a ``run`` tree but ``manifest.json``,
    which names the input paths, by its path in the tree."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


@pytest.mark.parametrize("sid", [*ALL_SETTINGS_IDS, "3.B:2.B"])
def test_mini_run_tree_matches_its_pinned_digests(mini_run, data_dir, sid):
    # Every artifact byte of the mini runs is pinned. A change to any of them
    # must be deliberate, with the file written anew from _tree_digests.
    pinned = json.loads((data_dir / "golden" / "run_trees.json").read_text(encoding="utf-8"))
    assert _tree_digests(mini_run(sid)) == pinned[sid]


@pytest.mark.parametrize("sid", ALL_SETTINGS_IDS)
def test_evaluate_reproduces_run_coverage(tmp_path, mini_run, sid):
    run = mini_run(sid)
    header, *rows = _csv_rows(run / "coverage.csv")
    for side in ("bfn", "swefn"):
        for level in ("sem", "semsyn"):
            for mode in ("exact", "fuzzy"):
                out = tmp_path / f"{side}-{level}-{mode}.csv"
                assert run_cli(*_evaluate(
                    run / "shared" / f"{level}-{mode}.tsv", run / f"{side}.patterns.tsv",
                    side, out,
                )) == 0
                assert _csv_rows(out) == [header] + [
                    row for row in rows if row[:3] == [side, level, mode]
                ]


def _grammar_body(path: Path) -> list[str]:
    """A grammar module's lines without the settings and input header lines,
    which name the run's settings pair and its inputs."""
    return [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith(("-- settings:", "-- input:"))
    ]


@pytest.mark.parametrize("sid", [sid for sid in ALL_SETTINGS_IDS if sid != "0.0"])
def test_generate_reproduces_run_grammar(tmp_path, mini_run, sid):
    run = mini_run(sid)
    out = tmp_path / "grammar"
    assert run_cli(*_generate(
        run / "shared" / "semsyn-fuzzy.tsv", run / "bfn.filtered-patterns.tsv",
        run / "swefn.filtered-patterns.tsv", out,
    )) == 0
    names = sorted(p.name for p in (run / "grammar").iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert _grammar_body(out / name) == _grammar_body(run / "grammar" / name)


def test_generate_include_noncore_declares_the_attested_opt_categories(
    tmp_path, mini_run, bfn_mini, frames_tsv
):
    # The mini corpora annotate core FEs only, so an overlay makes Event
    # non-core. The filtered patterns of 2.B drop non-core FEs; the
    # normalize patterns keep them.
    run = mini_run("2.B")
    overlay = tmp_path / "overlay.tsv"
    overlay.write_text("Desiring\tcore\tExperiencer\nDesiring\tnoncore\tEvent\n", encoding="utf-8")
    patterns = tmp_path / "bfn.patterns.tsv"
    assert run_cli(
        "normalize", "--dialect", "bfn", "--frames", frames_tsv, overlay, "--out", patterns, bfn_mini,
    ) == 0
    argv = _generate(
        run / "shared" / "semsyn-fuzzy.tsv", patterns, run / "swefn.filtered-patterns.tsv",
        tmp_path / "plain",
    )
    assert run_cli(*argv) == 0
    assert run_cli(*argv[:-1], tmp_path / "noncore", "--include-noncore") == 0

    def categories(out_dir: Path) -> set[str]:
        lines = _grammar_body(out_dir / "FrameFE.gf-abs.txt")
        return {line[4:-2] for line in lines if line.startswith("cat ")}

    assert categories(tmp_path / "noncore") - categories(tmp_path / "plain") == {
        "Opt_Event_Adv", "Opt_Event_NP", "Opt_Event_VP",
    }
    assert not any(c.startswith("Opt_") for c in categories(tmp_path / "plain"))
    assert _grammar_body(tmp_path / "noncore" / "Frames.gf-abs.txt") == _grammar_body(
        tmp_path / "plain" / "Frames.gf-abs.txt"
    )


def test_aggregate_in_format_overrides_the_suffix(tmp_path, mini_run, frames_tsv):
    # A patterns TSV under a .jsonl name, and a sentence JSONL under a .tsv name.
    run = mini_run("2.B")
    tsv, jsonl = tmp_path / "patterns.jsonl", tmp_path / "sentences.tsv"
    tsv.write_bytes((run / "bfn.patterns.tsv").read_bytes())
    jsonl.write_bytes((run / "bfn.sentences.jsonl").read_bytes())
    aggregate = ["aggregate", "--settings", "2.B", "--frames", frames_tsv]
    for path, in_format in ((tsv, "tsv"), (jsonl, "jsonl")):
        out = tmp_path / f"{in_format}.valences.tsv"
        assert run_cli(*aggregate, "--in", path, "--out", out) == 1
        assert run_cli(*aggregate, "--in", path, "--in-format", in_format, "--out", out) == 0
        assert out.read_bytes() == (run / "bfn.valences.tsv").read_bytes()


def test_equal_side_names_are_refused(tmp_path, mini_run, bfn_mini, swefn_mini, frames_tsv):
    # Each side's artifacts and LU module are named after it, so with equal
    # names the right side would overwrite the left. Nothing is written.
    out = tmp_path / "run"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(
            "run", "--left", bfn_mini, "--left-dialect", "bfn", "--left-name", "x",
            "--right", swefn_mini, "--right-dialect", "swefn", "--right-name", "x",
            "--frames", frames_tsv, "--out-dir", out,
        ) == 1
    message = _single_error_message(err.getvalue(), "configure")
    assert message == "the left and right sides are both named 'x'"
    assert not out.exists()

    run, grammar = mini_run("2.B"), tmp_path / "grammar"
    argv = _generate(
        run / "shared" / "semsyn-fuzzy.tsv", run / "bfn.filtered-patterns.tsv",
        run / "swefn.filtered-patterns.tsv", grammar,
    )
    message = _command_error([*argv, "--left-name", "y", "--right-name", "y"])
    assert message == "the left and right sides are both named 'y'"
    assert not grammar.exists()


def test_run_side_names_name_the_artifacts_lu_modules_and_input_digests(
    tmp_path, mini_run, bfn_mini, swefn_mini, frames_tsv
):
    default, named = mini_run("2.B"), tmp_path / "named"
    assert run_cli(
        "run", "--left", bfn_mini, "--left-dialect", "bfn", "--left-name", "en",
        "--right", swefn_mini, "--right-dialect", "swefn", "--right-name", "sv",
        "--frames", frames_tsv, "--out-dir", named,
    ) == 0

    def renamed(text: str) -> str:
        return text.replace("swefn", "sv").replace("bfn", "en")

    files = sorted(_tree_digests(default))
    assert sorted(_tree_digests(named)) == sorted(map(renamed, files))
    for name in files:
        want = (default / name).read_text(encoding="utf-8")
        # Only the coverage rows and the grammar modules name the sides; the
        # sentence records keep their dialect and their ids.
        if name == "coverage.csv" or name.startswith("grammar/"):
            want = renamed(want)
        assert (named / renamed(name)).read_text(encoding="utf-8") == want
    lu = (named / "grammar" / "LU_en.gf-abs.txt").read_text(encoding="utf-8").splitlines()
    assert lu[0] == "-- Lexical unit functions: en"
    digest = hashlib.sha256((named / "en.valences.tsv").read_bytes()).hexdigest()
    assert f"-- input: en.valences=sha256:{digest}" in lu


# ---------------------------------------------------------------------------
# Usage errors, and names that would leave their directory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", [
    "normalize-xml-without-dialect", "aggregate-jsonl-without-frames", "evaluate-other-mode",
    "run-without-frames",
])
def test_usage_error_is_one_error_record(tmp_path, mini_run, bfn_mini, swefn_mini, frames_tsv, case):
    tree = mini_run("2.B")
    argv, message = {
        "normalize-xml-without-dialect": (
            ["normalize", "--frames", frames_tsv, "--out", tmp_path / "p.tsv", bfn_mini],
            "--dialect is required when reading corpus XML",
        ),
        "aggregate-jsonl-without-frames": (
            ["aggregate", "--settings", "2.B", "--in", tree / "bfn.sentences.jsonl"],
            "aggregating from sentences requires --frames",
        ),
        "evaluate-other-mode": (
            _evaluate(tree / "shared/semsyn-fuzzy.tsv", tree / "bfn.patterns.tsv", "bfn",
                      tmp_path / "c.csv") + ["--mode", "exact"],
            "shared set was built in mode 'fuzzy', not 'exact'",
        ),
        "run-without-frames": (
            ["run", "--left", bfn_mini, "--left-dialect", "bfn", "--right", swefn_mini,
             "--right-dialect", "swefn", "--out-dir", tmp_path / "out"],
            "run requires --frames (or --frames-left/--frames-right)",
        ),
    }[case]
    assert _command_error(argv) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("route,kind,stage", [
    ("run", "frame", "aggregate[bfn]"),
    ("aggregate", "frame", "aggregate"),
    ("run", "side", "configure"),
    ("generate", "side", "generate"),
])
def test_a_name_that_would_leave_its_directory_is_refused(
    tmp_path, data_dir, bfn_mini, swefn_mini, frames_tsv, route, kind, stage
):
    # Every input lies outside ``box``; every output belongs in ``target``.
    bad = "../../../escaped" if kind == "frame" else "../escaped"
    box = tmp_path / "box"
    target = box / "out" / "a" / "b"
    frames, left = frames_tsv, bfn_mini
    if kind == "frame":
        frames, left = tmp_path / "frames.tsv", tmp_path / "bfn.xml"
        lines = frames_tsv.read_text().splitlines(keepends=True)
        frames.write_text("".join(lines + [
            line.replace("Desiring", bad, 1) for line in lines if line.startswith("Desiring\t")
        ]))
        left.write_text(bfn_mini.read_text().replace('frameName="Desiring"', f'frameName="{bad}"'))
    run = [
        "run", "--left", left, "--left-dialect", "bfn", "--right", swefn_mini,
        "--right-dialect", "swefn", "--frames", frames, "--out-dir", target,
    ]
    if route == "aggregate":
        patterns = tmp_path / "patterns.tsv"
        patterns.write_text((data_dir / "desiring_bfn_patterns.tsv").read_text().replace(
            "Desiring\t", f"{bad}\t"
        ))
        argv = ["aggregate", "--settings", "2.B", "--in", patterns, "--summary-dir", target]
    elif route == "generate":
        shared = tmp_path / "shared.tsv"
        assert run_cli(
            "compare", "--left", data_dir / "desiring_bfn_valences_voiced.tsv",
            "--right", data_dir / "desiring_swefn_valences_voiced.tsv",
            "--level", "semsyn", "--mode", "fuzzy", "--out", shared,
        ) == 0
        argv = _generate(
            shared, data_dir / "desiring_bfn_patterns.tsv",
            data_dir / "desiring_swefn_patterns.tsv", target,
        ) + ["--left-name", bad]
    else:
        argv = run + (["--left-name", bad] if kind == "side" else [])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(*argv) == 1
    (line,) = err.getvalue().splitlines()
    record = json.loads(line)
    assert (record["stage"], record["error"]) == (stage, "ValueError")
    assert record["message"].startswith(f"{kind} name {bad!r} cannot name a file: ")
    written = [path for path in box.rglob("*") if path.is_file()]
    assert [path for path in written if not path.is_relative_to(target)] == []
