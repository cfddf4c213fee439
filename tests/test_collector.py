"""The cyclic garbage collector is paused while a run builds its records, and
found as it was afterwards; the records hold no reference cycles, so
reference counting alone frees them."""

import gc
from pathlib import Path

import pytest

from valgram import pipeline
from valgram.aggregate import Settings
from valgram.cli import main
from valgram.frames import load_frame_index
from valgram.ingest import Dialect
from valgram.normalize import load_voice_rules
from valgram.pipeline import PipelineConfig, SideConfig, StageError, run_pipeline


@pytest.fixture
def collector_state():
    """Restores the collector's state whatever a test leaves."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def seen_during_ingest(monkeypatch):
    """Whether the collector was enabled at each ingest call of a run."""
    seen = []
    ingest = pipeline.ingest_corpora

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return ingest(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ingest_corpora", recording)
    return seen


@pytest.fixture
def full_collections(monkeypatch):
    """The argument tuples of each gc.collect call during a test."""
    calls = []
    collect = gc.collect

    def recording(*args):
        calls.append(args)
        return collect(*args)

    monkeypatch.setattr(gc, "collect", recording)
    return calls


def _config(out, bfn, swefn, frames):
    return PipelineConfig(
        left=SideConfig("bfn", Dialect.BFN_PHRASE, [bfn], [frames]),
        right=SideConfig("swefn", Dialect.SWEFN_DEP, [swefn], [frames]),
        out_dir=out,
    )


def _run_argv(out, bfn, swefn, frames):
    return [
        "run", "--left", str(bfn), "--left-dialect", "bfn",
        "--right", str(swefn), "--right-dialect", "swefn",
        "--frames", str(frames), "--out-dir", str(out),
    ]


def test_run_pipeline_pauses_the_collector_and_restores_it(
    tmp_path, bfn_mini, swefn_mini, frames_tsv, collector_state, seen_during_ingest,
    full_collections,
):
    gc.enable()
    run_pipeline(_config(tmp_path, bfn_mini, swefn_mini, frames_tsv))
    assert seen_during_ingest == [False, False]
    assert gc.isenabled()
    # The collection the pause postponed runs once, as a full one.
    assert full_collections == [()]


def test_run_pipeline_restores_the_collector_after_a_stage_error(
    tmp_path, bfn_mini, frames_tsv, collector_state, seen_during_ingest
):
    gc.enable()
    with pytest.raises(StageError, match="ingest"):
        run_pipeline(_config(tmp_path, bfn_mini, tmp_path / "missing.xml", frames_tsv))
    assert seen_during_ingest == [False, False]
    assert gc.isenabled()


def test_cli_main_restores_the_collector_on_success_and_on_failure(
    tmp_path, bfn_mini, swefn_mini, frames_tsv, collector_state, seen_during_ingest
):
    gc.enable()
    assert main(_run_argv(tmp_path / "ok", bfn_mini, swefn_mini, frames_tsv)) == 0
    assert gc.isenabled()
    assert main(_run_argv(tmp_path / "bad", bfn_mini, tmp_path / "missing.xml", frames_tsv)) == 1
    assert gc.isenabled()
    assert main(["frames", "--validate", str(tmp_path / "missing.tsv")]) == 1
    assert gc.isenabled()
    assert seen_during_ingest == [False] * 4


def test_a_disabled_collector_stays_disabled(
    tmp_path, bfn_mini, swefn_mini, frames_tsv, collector_state, full_collections
):
    gc.disable()
    run_pipeline(_config(tmp_path / "run", bfn_mini, swefn_mini, frames_tsv))
    assert not gc.isenabled()
    with pytest.raises(StageError):
        run_pipeline(_config(tmp_path / "bad", bfn_mini, tmp_path / "missing.xml", frames_tsv))
    assert not gc.isenabled()
    assert main(_run_argv(tmp_path / "cli", bfn_mini, swefn_mini, frames_tsv)) == 0
    assert main(["frames", "--validate", str(tmp_path / "missing.tsv")]) == 1
    assert not gc.isenabled()
    assert full_collections == []


def _build_and_drop_records(bfn, swefn, frames, out: Path) -> None:
    index = load_frame_index(Path(frames))
    rules = load_voice_rules(None)
    for name, path in (("bfn", bfn), ("swefn", swefn)):
        sentences = pipeline.ingest_corpora([path], Dialect(name))
        all_patterns, _, _ = pipeline.normalize_sentences(sentences, index, rules)
        for sid in ("2.B", "3.B", "0.0"):
            pipeline.aggregate_patterns(
                all_patterns, Settings.from_id(sid),
                summary_dir=out / name / sid, stats_out=out / f"{name}-{sid}.csv",
            )
    run_pipeline(_config(out / "run", bfn, swefn, frames))


def test_records_form_no_reference_cycles(
    tmp_path, bfn_mini, swefn_mini, frames_tsv, collector_state
):
    # Anything the run leaves only to the collector is unreachable after it
    # returns; under DEBUG_SAVEALL the collector keeps those objects in
    # gc.garbage instead of freeing them.
    gc.collect()
    flags = gc.get_debug()
    before = len(gc.garbage)
    gc.disable()
    try:
        _build_and_drop_records(bfn_mini, swefn_mini, frames_tsv, tmp_path)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted({
            type(obj).__qualname__ for obj in gc.garbage[before:]
            if type(obj).__module__.split(".")[0] == "valgram"
        })
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
    assert cyclic == []
