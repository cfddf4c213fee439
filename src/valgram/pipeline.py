"""End-to-end pipeline: ingest, normalize, aggregate, compare, generate,
evaluate, with every intermediate artifact persisted as plain text.

Each stage is one function here; :func:`run_pipeline` composes them and each
CLI subcommand calls one of them. A manifest written next to the outputs
records the configuration, input digests and tool version; reruns with
identical inputs produce byte-identical artifact trees.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import __version__, _base
from .aggregate import (
    Settings,
    ValencePattern,
    aggregate_corpus,
    aggregate_lattice,
    write_frame_summaries,
    write_stats_csv,
    write_valences_tsv,
)
from .compare import (
    MatchLevel,
    MatchMode,
    SharedPatternSet,
    frame_set_report,
    intersect,
    pattern_set_report,
    write_frame_report_csv,
    write_pattern_report_csv,
    write_shared_tsv,
)
from .coverage import coverage, write_coverage_csv
from .frames import FrameIndex, load_frame_index
from .grammar import derive_grammar, emit_abstract_syntax, file_digest, noncore_categories
from .ingest import AnnotatedSentence, Dialect, parse_corpora, write_sentences_jsonl
from .normalize import (
    SentencePattern,
    Skip,
    load_voice_rules,
    normalize_corpus,
    promote_unconsidered_skips,
    write_patterns_tsv,
    write_skips_tsv,
)


class StageError(RuntimeError):
    def __init__(self, stage: str, error: Exception):
        self.stage = stage
        self.error = error
        super().__init__(f"stage {stage!r} failed: {error}")


@dataclass
class SideConfig:
    name: str
    dialect: Dialect
    corpus_paths: list[Path]
    frame_index_paths: list[Path]
    settings_id: str = "2.B"


@dataclass
class PipelineConfig:
    left: SideConfig
    right: SideConfig
    out_dir: Path
    grammar_level: MatchLevel = MatchLevel.SEMANTIC_SYNTACTIC
    grammar_mode: MatchMode = MatchMode.FUZZY
    voice_rules_path: Path | None = None

    def to_dict(self) -> dict:
        def side(s: SideConfig) -> dict:
            return {
                "name": s.name,
                "dialect": s.dialect.value,
                "corpus_paths": [str(p) for p in s.corpus_paths],
                "frame_index_paths": [str(p) for p in s.frame_index_paths],
                "settings": s.settings_id,
            }

        return {
            "left": side(self.left),
            "right": side(self.right),
            "out_dir": str(self.out_dir),
            "grammar_level": self.grammar_level.value,
            "grammar_mode": self.grammar_mode.value,
            "voice_rules_path": str(self.voice_rules_path) if self.voice_rules_path else None,
        }


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def ingest_corpora(
    paths: Iterable[Path | str], dialect: Dialect, out: Path | None = None
) -> list[AnnotatedSentence]:
    """Sentences of the corpus files, sorted by (path, sentence id). A large
    side is parsed in two processes (see :func:`ingest.parse_corpora`)."""
    records = [
        (str(path), s)
        for path, sentences in parse_corpora(sorted(Path(p) for p in paths), dialect)
        for s in sentences
    ]
    records.sort(key=lambda pair: (pair[0], pair[1].sentence_id))
    sentences = [s for _, s in records]
    if out is not None:
        write_sentences_jsonl(sentences, out)
    return sentences


def normalize_sentences(
    sentences: Sequence[AnnotatedSentence],
    index: FrameIndex,
    rules: dict,
    *,
    skip_unconsidered: bool = True,
    native: bool = False,
    patterns_out: Path | None = None,
    skips_out: Path | None = None,
) -> tuple[list[SentencePattern], list[SentencePattern], list[Skip]]:
    """Returns (every pattern, the kept patterns, the skips). Every pattern
    feeds the baseline settings; ``skip_unconsidered`` promotes examples with
    an FE outside the interlingual inventory to skips, sorted by sentence id."""
    all_patterns, skips = normalize_corpus(sentences, index, rules, skip_unconsidered=False)
    patterns = all_patterns
    if skip_unconsidered:
        patterns, skips = promote_unconsidered_skips(all_patterns, skips)
    if patterns_out is not None:
        write_patterns_tsv(patterns, patterns_out, native=native)
    if skips_out is not None:
        write_skips_tsv(skips, skips_out)
    return all_patterns, patterns, skips


def aggregate_patterns(
    patterns: Sequence[SentencePattern],
    settings: Settings,
    *,
    valences_out: Path | None = None,
    patterns_out: Path | None = None,
    summary_dir: Path | None = None,
    stats_out: Path | None = None,
) -> tuple[list[ValencePattern], list[SentencePattern]]:
    """Returns (valences, filtered patterns); ``stats_out`` gets the
    statistics table over all settings ids, aggregated in one pass."""
    if stats_out is None:
        valences, filtered, _ = aggregate_corpus(patterns, settings)
    else:
        rows, valences, filtered, _ = aggregate_lattice(patterns, settings)
        write_stats_csv(rows, stats_out)
    if valences_out is not None:
        write_valences_tsv(valences, valences_out)
    if patterns_out is not None:
        # Only settings that keep unconsidered examples (0.0) hold FEs with no
        # interlingual type; their patterns are written with native types.
        write_patterns_tsv(filtered, patterns_out, native=not settings.skip_unconsidered)
    if summary_dir is not None:
        write_frame_summaries(valences, summary_dir)
    return valences, filtered


def compare_valences(
    left: Sequence[ValencePattern],
    right: Sequence[ValencePattern],
    shared_out: Mapping[tuple[MatchLevel, MatchMode], Path],
    *,
    report_out: Path | None = None,
    frame_report_out: Path | None = None,
) -> dict[tuple[MatchLevel, MatchMode], SharedPatternSet]:
    """One shared set per (level, mode) key of ``shared_out``, written to its
    path; the pattern report has one row per set, in that order."""
    shared_sets = {}
    for (level, mode), path in shared_out.items():
        shared_sets[(level, mode)] = shared = intersect(left, right, level, mode)
        write_shared_tsv(shared, path)
    if report_out is not None:
        write_pattern_report_csv(
            [pattern_set_report(shared) for shared in shared_sets.values()], report_out
        )
    if frame_report_out is not None:
        write_frame_report_csv(frame_set_report(left, right), frame_report_out)
    return shared_sets


def generate_grammar(
    shared: SharedPatternSet,
    lu_patterns: Mapping[str, Sequence[SentencePattern]],
    out_dir: Path,
    *,
    settings_desc: str,
    input_digests: Sequence[tuple[str, str]],
    include_noncore: bool = False,
) -> None:
    """``include_noncore`` also declares the Opt_ categories attested in the
    patterns."""
    extra = []
    if include_noncore:
        for patterns in lu_patterns.values():
            extra.extend(noncore_categories(patterns))
    grammar = derive_grammar(
        shared,
        lu_patterns,
        settings_desc=settings_desc,
        input_digests=input_digests,
        extra_categories=extra,
    )
    emit_abstract_syntax(grammar, out_dir)


def evaluate_coverage(
    shared_sets: Sequence[SharedPatternSet],
    examples: Iterable[tuple[str, Sequence[SentencePattern]]],
    out: Path,
) -> None:
    """One coverage row per (side, shared set), sides outermost."""
    rows = [
        (side, coverage(shared, patterns))
        for side, patterns in examples
        for shared in shared_sets
    ]
    write_coverage_csv(rows, out)


# ---------------------------------------------------------------------------
# Whole run
# ---------------------------------------------------------------------------

@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the enclosed work with Python's cyclic garbage collector off. On
    exit, also on an error, empty the process-wide tables, then restore the
    collector's state found: the tables live for this one scope.

    The records the stages build hold no reference cycles, so reference
    counting frees them; the collector would only rescan a heap of records
    that grows to hundreds of MiB. A collector found on runs one full
    collection on exit, the one the pause postponed, after the tables let go
    of what they held: it also empties the interpreter's free lists, whose
    objects would otherwise keep the memory blocks of the freed records from
    being returned to the system.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        _base.clear()
        if enabled:
            gc.enable()
            gc.collect()


def run_pipeline(config: PipelineConfig) -> Path:
    """Execute all stages; returns the output directory.

    Any stage failure is wrapped in a :class:`StageError` naming the stage.
    """
    with _collector_paused():
        # The stages' records are freed when _run_stages returns, before the
        # pause ends and the tables are emptied.
        _run_stages(config)
    return config.out_dir


def _run_stages(config: PipelineConfig) -> None:
    out = config.out_dir
    stage = "configure"
    try:
        # Each side's artifacts and per-side tables are named after it.
        for side in (config.left, config.right):
            _base._file_name(side.name, "side")
        if config.left.name == config.right.name:
            raise ValueError(f"the left and right sides are both named {config.left.name!r}")
        out.mkdir(parents=True, exist_ok=True)
        rules = load_voice_rules(config.voice_rules_path)
        valences, examples, filtered = {}, {}, {}  # by side name
        for side in (config.left, config.right):
            name = side.name
            stage = f"frames[{name}]"
            index = load_frame_index(*map(Path, side.frame_index_paths))

            stage = f"ingest[{name}]"
            sentences = ingest_corpora(
                side.corpus_paths, side.dialect, out / f"{name}.sentences.jsonl"
            )

            stage = f"normalize[{name}]"
            all_patterns, examples[name], _ = normalize_sentences(
                sentences, index, rules,
                patterns_out=out / f"{name}.patterns.tsv",
                skips_out=out / f"{name}.skips.tsv",
            )
            # Aggregation needs only the patterns; keeping the sentence records
            # alive through it would raise the run's peak memory.
            del sentences

            stage = f"aggregate[{name}]"
            valences[name], filtered[name] = aggregate_patterns(
                all_patterns,
                Settings.from_id(side.settings_id),
                valences_out=out / f"{name}.valences.tsv",
                patterns_out=out / f"{name}.filtered-patterns.tsv",
                summary_dir=out / "summaries" / name,
                stats_out=out / f"{name}.stats.csv",
            )
        left, right = config.left.name, config.right.name

        stage = "compare"
        shared_dir = out / "shared"
        shared_dir.mkdir(exist_ok=True)
        shared_sets = compare_valences(
            valences[left],
            valences[right],
            {
                (level, mode): shared_dir / f"{level.value}-{mode.value}.tsv"
                for level in MatchLevel for mode in MatchMode
            },
            report_out=out / "pattern-report.csv",
            frame_report_out=out / "frame-report.csv",
        )

        stage = "generate"
        generate_grammar(
            shared_sets[(config.grammar_level, config.grammar_mode)],
            filtered,
            out / "grammar",
            settings_desc=(
                f"{config.left.settings_id}:{config.right.settings_id} "
                f"{config.grammar_level.value} {config.grammar_mode.value}"
            ),
            input_digests=[
                (f"{name}.valences", file_digest(out / f"{name}.valences.tsv"))
                for name in (left, right)
            ],
        )

        stage = "evaluate"
        evaluate_coverage(list(shared_sets.values()), examples.items(), out / "coverage.csv")

        stage = "manifest"
        inputs = {}
        for side in (config.left, config.right):
            for path in sorted(side.corpus_paths) + sorted(side.frame_index_paths):
                inputs[str(path)] = file_digest(Path(path))
        if config.voice_rules_path:
            inputs[str(config.voice_rules_path)] = file_digest(config.voice_rules_path)
        manifest = {
            "tool": "valgram",
            "version": __version__,
            "config": config.to_dict(),
            "inputs": inputs,
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    except Exception as exc:
        raise StageError(stage, exc) from exc
