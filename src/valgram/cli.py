"""Command-line interface.

Subcommands mirror the pipeline stages (ingest, frames, normalize, aggregate,
compare, generate, evaluate) plus ``run`` for the whole pipeline. All stages
are deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .aggregate import ALL_SETTINGS_IDS, Settings, read_valences_tsv
from .compare import MatchLevel, MatchMode, read_shared_tsv
from .frames import load_frame_index
from .grammar import file_digest
from .ingest import Dialect, _json_lines, read_sentences_jsonl
from .normalize import load_voice_rules, read_patterns_tsv
from .pipeline import (
    PipelineConfig,
    SideConfig,
    StageError,
    _check_side_names,
    _collector_paused,
    aggregate_patterns,
    compare_valences,
    evaluate_coverage,
    generate_grammar,
    ingest_corpora,
    normalize_sentences,
    run_pipeline,
)

logger = logging.getLogger(__name__)


def _error_record(stage: str, error: Exception) -> str:
    return json.dumps(
        {"stage": stage, "error": type(error).__name__, "message": str(error)},
        ensure_ascii=False,
        sort_keys=True,
    )


def _optional_path(value: str | None) -> Path | None:
    return Path(value) if value else None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    sentences = ingest_corpora(args.paths, Dialect(args.dialect), _optional_path(args.out))
    if not args.out:
        for line in _json_lines(sentences):
            sys.stdout.write(line)
            sys.stdout.write("\n")
    logger.info("ingested %d sentences", len(sentences))
    return 0


def cmd_frames(args: argparse.Namespace) -> int:
    index = load_frame_index(Path(args.validate))
    n_core = sum(len(d.core_fes) for d in index.defs.values())
    n_noncore = sum(len(d.noncore_fes) for d in index.defs.values())
    print(f"{len(index.defs)} frames, {n_core} core FEs, {n_noncore} non-core FEs")
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    if args.jsonl:
        sentences = [s for path in args.paths for s in read_sentences_jsonl(Path(path))]
    elif args.dialect:
        sentences = ingest_corpora(args.paths, Dialect(args.dialect))
    else:
        raise ValueError("--dialect is required when reading corpus XML")
    native = args.types == "native"
    _, patterns, skips = normalize_sentences(
        sentences,
        load_frame_index(*map(Path, args.frames)),
        load_voice_rules(_optional_path(args.voice_rules)),
        skip_unconsidered=not native or args.skip_unconsidered,
        native=native,
        patterns_out=Path(args.out),
        skips_out=_optional_path(args.skips),
    )
    logger.info("normalized %d patterns, %d skips", len(patterns), len(skips))
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    in_path = Path(args.in_path)
    is_jsonl = args.in_format == "jsonl" or (
        args.in_format == "auto" and in_path.suffix == ".jsonl"
    )
    settings = Settings.from_id(args.settings)
    if args.stats_out and not is_jsonl:
        raise ValueError("--stats-out needs the corpus serialization (.jsonl input)")
    if not settings.generalize_types and not is_jsonl:
        raise ValueError(
            f"settings {settings.id} use corpus-native types; "
            "provide the corpus serialization (.jsonl) as input"
        )
    if not is_jsonl:
        patterns = read_patterns_tsv(in_path)
    elif args.frames:
        patterns, _, _ = normalize_sentences(
            read_sentences_jsonl(in_path),
            load_frame_index(*map(Path, args.frames)),
            load_voice_rules(_optional_path(args.voice_rules)),
            skip_unconsidered=False,
        )
    else:
        raise ValueError("aggregating from sentences requires --frames")
    valences, _ = aggregate_patterns(
        patterns,
        settings,
        valences_out=_optional_path(args.out),
        patterns_out=_optional_path(args.out_patterns),
        summary_dir=_optional_path(args.summary_dir),
        stats_out=_optional_path(args.stats_out),
    )
    logger.info("aggregated %d valence patterns under %s", len(valences), settings.id)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    level, mode = MatchLevel(args.level), MatchMode(args.mode)
    shared = compare_valences(
        read_valences_tsv(Path(args.left)),
        read_valences_tsv(Path(args.right)),
        {(level, mode): Path(args.out)},
        report_out=_optional_path(args.report),
        frame_report_out=_optional_path(args.frame_report),
    )[(level, mode)]
    logger.info(
        "shared set: %d final patterns over %d frames",
        len(shared.patterns), len(shared.final_frames()),
    )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    _check_side_names(args.left_name, args.right_name)
    shared_path, left_path, right_path = Path(args.shared), Path(args.lu_left), Path(args.lu_right)
    shared = read_shared_tsv(shared_path)
    generate_grammar(
        shared,
        {
            args.left_name: read_patterns_tsv(left_path),
            args.right_name: read_patterns_tsv(right_path),
        },
        Path(args.out_dir),
        settings_desc=f"{shared.level.value} {shared.mode.value}",
        input_digests=[
            ("shared", file_digest(shared_path)),
            (args.left_name, file_digest(left_path)),
            (args.right_name, file_digest(right_path)),
        ],
        include_noncore=args.include_noncore,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    shared = read_shared_tsv(Path(args.final))
    if args.level and shared.level.value != args.level:
        raise ValueError(
            f"shared set was built at level {shared.level.value!r}, not {args.level!r}"
        )
    if args.mode and shared.mode.value != args.mode:
        raise ValueError(
            f"shared set was built in mode {shared.mode.value!r}, not {args.mode!r}"
        )
    examples = read_patterns_tsv(Path(args.examples))
    evaluate_coverage([shared], [(args.side, examples)], Path(args.out))
    return 0


def _parse_settings_pair(text: str) -> tuple[str, str]:
    if ":" in text:
        left, right = text.split(":", 1)
    else:
        left = right = text
    try:
        return Settings.from_id(left).id, Settings.from_id(right).id
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_run(args: argparse.Namespace) -> int:
    def side(which: str, settings_id: str) -> SideConfig:
        frames = getattr(args, f"frames_{which}") or args.frames
        if not frames:
            raise ValueError("run requires --frames (or --frames-left/--frames-right)")
        return SideConfig(
            name=getattr(args, f"{which}_name"),
            dialect=Dialect(getattr(args, f"{which}_dialect")),
            corpus_paths=[Path(p) for p in getattr(args, which)],
            frame_index_paths=[Path(p) for p in frames],
            settings=settings_id,
        )

    settings_left, settings_right = args.settings
    run_pipeline(PipelineConfig(
        left=side("left", settings_left),
        right=side("right", settings_right),
        out_dir=Path(args.out_dir),
        grammar_level=MatchLevel(args.level),
        grammar_mode=MatchMode(args.mode),
        voice_rules_path=_optional_path(args.voice_rules),
    ))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valgram",
        description=(
            "Extract shared verb valence patterns from two FrameNet-annotated "
            "corpora and generate the abstract syntax of a frame-semantic grammar."
        ),
    )
    parser.add_argument("--version", action="version", version=f"valgram {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse corpus XML into the internal serialization")
    p.add_argument("--dialect", required=True, choices=[d.value for d in Dialect])
    p.add_argument("--out", help="output JSON-lines file (default: stdout)")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("frames", help="validate a frame index file")
    p.add_argument("--validate", required=True, metavar="FILE")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("normalize", help="convert corpus examples into sentence patterns")
    p.add_argument("--dialect", choices=[d.value for d in Dialect])
    p.add_argument("--frames", required=True, nargs="+", metavar="INDEX_TSV",
                   help="frame index file(s); later files take precedence per frame")
    p.add_argument("--voice-rules", metavar="JSON")
    p.add_argument("--types", choices=["rgl", "native"], default="rgl")
    p.add_argument("--skip-unconsidered", action="store_true",
                   help="with --types native, still skip unmappable examples")
    p.add_argument("--jsonl", action="store_true", help="inputs are ingested JSON-lines")
    p.add_argument("--out", required=True)
    p.add_argument("--skips", help="write skipped sentences with reasons")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("aggregate", help="group sentence patterns into valence patterns")
    p.add_argument("--settings", required=True, choices=ALL_SETTINGS_IDS)
    p.add_argument("--in", dest="in_path", required=True,
                   help="patterns TSV, or sentences JSONL for native-type settings")
    p.add_argument("--in-format", choices=["auto", "tsv", "jsonl"], default="auto")
    p.add_argument("--frames", nargs="+", help="frame index (JSONL input only)")
    p.add_argument("--voice-rules")
    p.add_argument("--out", help="valence TSV output")
    p.add_argument("--out-patterns", help="settings-filtered sentence patterns TSV")
    p.add_argument("--summary-dir", help="per-frame valence summaries")
    p.add_argument("--stats-out", help="statistics table over all settings (JSONL input only)")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("compare", help="intersect two valence pattern sets")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--level", required=True, choices=[l.value for l in MatchLevel])
    p.add_argument("--mode", required=True, choices=[m.value for m in MatchMode])
    p.add_argument("--out", required=True, help="shared pattern set TSV")
    p.add_argument("--report", help="pattern set report CSV")
    p.add_argument("--frame-report", help="frame set report CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="emit the abstract syntax modules")
    p.add_argument("--shared", required=True)
    p.add_argument("--lu-left", required=True, help="left-side sentence patterns TSV")
    p.add_argument("--lu-right", required=True, help="right-side sentence patterns TSV")
    p.add_argument("--left-name", default="bfn")
    p.add_argument("--right-name", default="swefn")
    p.add_argument("--include-noncore", action="store_true",
                   help="also declare Opt_ categories attested in the patterns")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="coverage of examples by a final pattern set")
    p.add_argument("--final", required=True, help="shared pattern set TSV")
    p.add_argument("--examples", required=True, help="sentence patterns TSV")
    p.add_argument("--level", choices=[l.value for l in MatchLevel])
    p.add_argument("--mode", choices=[m.value for m in MatchMode])
    p.add_argument("--side", default="corpus", help="label for the report rows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the whole pipeline")
    for which, default_name in (("left", "bfn"), ("right", "swefn")):
        p.add_argument(f"--{which}", required=True, nargs="+", metavar="CORPUS")
        p.add_argument(f"--{which}-dialect", required=True, choices=[d.value for d in Dialect])
        p.add_argument(f"--{which}-name", default=default_name)
    p.add_argument("--frames", nargs="+", help="frame index for both sides")
    p.add_argument("--frames-left", nargs="+")
    p.add_argument("--frames-right", nargs="+")
    p.add_argument("--settings", type=_parse_settings_pair, default=("2.B", "2.B"),
                   help="settings id, or LEFT:RIGHT pair (default 2.B)")
    p.add_argument("--level", choices=[l.value for l in MatchLevel], default="semsyn",
                   help="match level feeding the grammar")
    p.add_argument("--mode", choices=[m.value for m in MatchMode], default="fuzzy",
                   help="match mode feeding the grammar")
    p.add_argument("--voice-rules")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("VALGRAM_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    with _collector_paused():
        # The parser and the command's data are dropped when _run_command
        # returns, before the pause ends and the tables are emptied.
        return _run_command(argv)


def _run_command(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse handles usage errors with exit 2
        staged = isinstance(exc, StageError)
        stage, error = (exc.stage, exc.error) if staged else (args.command, exc)
        print(_error_record(stage, error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
