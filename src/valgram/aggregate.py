"""Grouping of sentence patterns into valence patterns under the
experiment-settings lattice.

The ten settings differ along five switches: whether grammatical types are
generalized to the interlingual inventory, whether examples with unmappable
types are skipped, whether repeated FEs are collapsed, whether non-core FEs
are removed, and whether once-used valence patterns are dropped.
"""

from __future__ import annotations

import csv
from contextlib import suppress
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from .frames import Coreness
from .normalize import (
    FeKey,
    FeRealization,
    SentencePattern,
    Skip,
    SkipReason,
    Voice,
    fe_key_token,
    parse_fe_key,
    promote_unconsidered_skips,
    read_tsv_rows,
)


_SETTINGS_FLAGS: dict[str, tuple[bool, bool, bool, bool, bool]] = {
    # id: (generalize_types, skip_unconsidered, dedupe_repeated_fes,
    #      drop_noncore, drop_singleton_valences)
    "0.0": (False, False, False, False, False),
    "1.0": (False, True, False, False, False),
    "1.A": (False, True, True, False, False),
    "1.B": (False, True, True, True, False),
    "2.0": (True, True, False, False, False),
    "2.A": (True, True, True, False, False),
    "2.B": (True, True, True, True, False),
    "3.0": (True, True, False, False, True),
    "3.A": (True, True, True, False, True),
    "3.B": (True, True, True, True, True),
}

ALL_SETTINGS_IDS = list(_SETTINGS_FLAGS)


@dataclass(frozen=True)
class Settings:
    id: str
    generalize_types: bool
    skip_unconsidered: bool
    dedupe_repeated_fes: bool
    drop_noncore: bool
    drop_singleton_valences: bool

    @classmethod
    def from_id(cls, settings_id: str) -> "Settings":
        try:
            flags = _SETTINGS_FLAGS[settings_id]
        except KeyError:
            raise ValueError(
                f"unknown settings id {settings_id!r}; expected one of {ALL_SETTINGS_IDS}"
            ) from None
        return cls(settings_id, *flags)

    def __post_init__(self) -> None:
        if self.drop_noncore and not self.dedupe_repeated_fes:
            raise ValueError("drop_noncore implies dedupe_repeated_fes")
        if self.drop_singleton_valences and not self.generalize_types:
            raise ValueError("singleton filtering applies to generalized types only")
        if self.generalize_types and not self.skip_unconsidered:
            raise ValueError("generalize_types implies skip_unconsidered")


def _granularity(settings: Settings) -> tuple[attrgetter, attrgetter, attrgetter]:
    """Getters for an FE's key, a pattern's FE-key set and its word-order
    line, at interlingual types when the settings generalize and at
    corpus-native types otherwise."""
    if settings.generalize_types:
        return attrgetter("rgl_key"), attrgetter("rgl_fe_set"), attrgetter("rgl_fes")
    return attrgetter("native_key"), attrgetter("native_fe_set"), attrgetter("native_fes")


def apply_settings(
    patterns: Iterable[SentencePattern], settings: Settings
) -> tuple[list[SentencePattern], list[Skip]]:
    """Filter sentence patterns according to the settings switches.

    Non-core FEs are removed before repeated FEs are collapsed. When repeated
    FEs disagree on their type the whole example is dropped; when they agree,
    the first occurrence in word order is kept. The function is idempotent.
    """
    dropped: list[Skip] = []
    if settings.skip_unconsidered:
        patterns, dropped = promote_unconsidered_skips(patterns)
    fe_key = _granularity(settings)[0]
    kept: list[SentencePattern] = []
    for p in patterns:
        reals: Sequence[FeRealization] = p.realizations
        if settings.drop_noncore:
            reals = [r for r in reals if r.coreness is not Coreness.NONCORE]
            if not reals:
                dropped.append(Skip(p.sentence_id, SkipReason.EMPTY_AFTER_NONCORE_REMOVAL))
                continue

        if settings.dedupe_repeated_fes:
            first: dict[str, FeRealization] = {}
            types_by_fe: dict[str, set[str]] = {}
            for r in reals:
                first.setdefault(r.fe_name, r)
                types_by_fe.setdefault(r.fe_name, set()).add(fe_key(r)[1])
            mixed = [fe for fe, types in types_by_fe.items() if len(types) > 1]
            if mixed:
                dropped.append(Skip(
                    p.sentence_id, SkipReason.MIXED_REPEATED_FE_TYPES, ",".join(sorted(mixed)),
                ))
                continue
            reals = list(first.values())

        if tuple(reals) == p.realizations:
            kept.append(p)
        else:
            kept.append(SentencePattern(
                frame=p.frame, voice=p.voice, realizations=tuple(reals),
                lu_ref=p.lu_ref, sentence_id=p.sentence_id,
            ))
    return kept, dropped


# ---------------------------------------------------------------------------
# Valence patterns
# ---------------------------------------------------------------------------

@dataclass
class ValencePattern:
    """Order- and preposition-free abstraction of sentence patterns."""

    frame: str
    voice: Voice
    fes: tuple[FeKey, ...]  # sorted by (fe_name, type, syn)
    count: int
    sentence_variants: dict[str, int]
    lu_refs: set[str]

    def key(self) -> tuple[str, str, tuple[FeKey, ...]]:
        return (self.frame, self.voice.value, self.fes)

    def fes_string(self) -> str:
        return "  ".join(fe_key_token(k) for k in self.fes)


def group_valence_patterns(
    patterns: Iterable[SentencePattern], settings: Settings
) -> list[ValencePattern]:
    """Group sentence patterns by (frame, voice, FE set), ignoring word order
    and prepositions. When the settings drop once-used valence patterns,
    groups with a single occurrence are removed after grouping."""
    _, fe_set, ordered_line = _granularity(settings)
    groups: dict[tuple[str, str, tuple[FeKey, ...]], ValencePattern] = {}
    for p in patterns:
        fes = fe_set(p)
        key = (p.frame, p.voice.value, fes)
        vp = groups.get(key)
        if vp is None:
            vp = ValencePattern(
                frame=p.frame, voice=p.voice, fes=fes, count=0,
                sentence_variants={}, lu_refs=set(),
            )
            groups[key] = vp
        vp.count += 1
        line = ordered_line(p)
        vp.sentence_variants[line] = vp.sentence_variants.get(line, 0) + 1
        vp.lu_refs.add(p.lu_ref)

    valences = [groups[k] for k in sorted(groups)]
    if settings.drop_singleton_valences:
        valences = [v for v in valences if v.count > 1]
    return valences


def aggregate_corpus(
    patterns: Iterable[SentencePattern], settings: Settings
) -> tuple[list[ValencePattern], list[SentencePattern], list[Skip]]:
    """Apply the settings and group; returns (valences, kept patterns, drops).

    With singleton filtering active, kept patterns are restricted to those
    whose valence pattern survived.
    """
    kept, dropped = apply_settings(patterns, settings)
    valences = group_valence_patterns(kept, settings)
    if settings.drop_singleton_valences:
        surviving = {v.key() for v in valences}
        fe_set = _granularity(settings)[1]
        kept = [p for p in kept if (p.frame, p.voice.value, fe_set(p)) in surviving]
    return valences, kept, dropped


# ---------------------------------------------------------------------------
# Statistics table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatsRow:
    settings_id: str
    frames: int
    valence_total: int
    valence_per_frame: float
    sentence_total: int
    sentences_per_valence: float
    examples_total: int
    examples_per_sentence: float


def stats_row(settings: Settings, valences: Sequence[ValencePattern]) -> StatsRow:
    frames = len({v.frame for v in valences})
    valence_total = len(valences)
    sentence_total = sum(len(v.sentence_variants) for v in valences)
    examples_total = sum(v.count for v in valences)
    return StatsRow(
        settings_id=settings.id,
        frames=frames,
        valence_total=valence_total,
        valence_per_frame=valence_total / frames if frames else 0.0,
        sentence_total=sentence_total,
        sentences_per_valence=sentence_total / valence_total if valence_total else 0.0,
        examples_total=examples_total,
        examples_per_sentence=examples_total / sentence_total if sentence_total else 0.0,
    )


STATS_COLUMNS = [
    "settings",
    "frames",
    "valence_patterns",
    "valence_patterns_per_frame",
    "sentence_patterns",
    "sentence_patterns_per_valence_pattern",
    "corpus_examples",
    "corpus_examples_per_sentence_pattern",
]


def write_stats_csv(rows: Sequence[StatsRow], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(STATS_COLUMNS)
        for r in rows:
            writer.writerow([
                r.settings_id,
                r.frames,
                r.valence_total,
                f"{r.valence_per_frame:.1f}",
                r.sentence_total,
                f"{r.sentences_per_valence:.1f}",
                r.examples_total,
                f"{r.examples_per_sentence:.1f}",
            ])


# ---------------------------------------------------------------------------
# Per-frame summaries
# ---------------------------------------------------------------------------

def frame_summary(valences: Sequence[ValencePattern], frame: str, voice: Voice) -> str:
    """Human-readable per-frame, per-voice valence summary.

    Valence patterns are listed by descending occurrence count, each followed
    by its ordered sentence-pattern variants.
    """
    rows = [v for v in valences if v.frame == frame and v.voice is voice]
    rows.sort(key=lambda v: (-v.count, v.fes_string()))
    if not rows:
        return ""
    width = max(
        [len(v.fes_string()) for v in rows]
        + [2 + len(line) for v in rows for line in v.sentence_variants]
    ) + 2
    out: list[str] = [f"{frame} {voice.value}"]
    for v in rows:
        out.append(f"{v.fes_string():<{width}} : {v.count}")
        variants = sorted(v.sentence_variants.items(), key=lambda kv: (-kv[1], kv[0]))
        for line, n in variants:
            out.append(f"  {line:<{width}} {n}")
    return "\n".join(out) + "\n"


def write_frame_summaries(valences: Sequence[ValencePattern], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    frames = sorted({v.frame for v in valences})
    for frame in frames:
        parts = [
            frame_summary(valences, frame, voice)
            for voice in (Voice.ACT, Voice.PASS)
        ]
        content = "\n".join(p for p in parts if p)
        (out_dir / f"{frame}.txt").write_text(content, encoding="utf-8")


# ---------------------------------------------------------------------------
# Valence TSV
# ---------------------------------------------------------------------------

def _decodable_token(key: FeKey) -> str:
    token = fe_key_token(key)
    with suppress(ValueError):
        if parse_fe_key(token) == key:
            return token
    raise ValueError(f"FE key {key!r} has no token that reads back as itself: {token!r}")


def write_valences_tsv(valences: Sequence[ValencePattern], path: Path) -> None:
    """Rows: frame, voice, comma-joined FE tokens, count. A key whose token
    would read back as a different key is a ValueError."""
    with path.open("w", encoding="utf-8") as f:
        for v in valences:
            tokens = ",".join(_decodable_token(k) for k in v.fes)
            f.write(f"{v.frame}\t{v.voice.value}\t{tokens}\t{v.count}\n")


def read_valences_tsv(path: Path) -> list[ValencePattern]:
    return [
        ValencePattern(
            frame=frame,
            voice=Voice(voice),
            fes=tuple(sorted(parse_fe_key(token) for token in tokens_field.split(",") if token)),
            count=int(count),
            sentence_variants={},
            lu_refs=set(),
        )
        for frame, voice, tokens_field, count in read_tsv_rows(path, 4)
    ]
