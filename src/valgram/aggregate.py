"""Grouping of sentence patterns into valence patterns under the
experiment-settings lattice.

The ten settings differ along five switches: whether grammatical types are
generalized to the interlingual inventory, whether examples with unmappable
types are skipped, whether repeated FEs are collapsed, whether non-core FEs
are removed, and whether once-used valence patterns are dropped.
"""

from __future__ import annotations

import csv
import functools
import sys
from contextlib import suppress
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from ._base import _file_name, _register
from .frames import Coreness
from .normalize import (
    FeKey,
    FeRealization,
    SentencePattern,
    Skip,
    SkipReason,
    Voice,
    _decode_count,
    fe_key_token,
    parse_fe_key,
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


_NONCORE = Coreness.NONCORE

# The switches that decide how patterns are grouped: (generalize_types,
# skip_unconsidered, dedupe_repeated_fes, drop_noncore). Dropping once-used
# valence patterns only filters a grouping's result, so 3.x shares the
# grouping of 2.x.
_Grouping = tuple[bool, bool, bool, bool]


def _grouping(settings: Settings) -> _Grouping:
    return (
        settings.generalize_types, settings.skip_unconsidered,
        settings.dedupe_repeated_fes, settings.drop_noncore,
    )


# Getters for a pattern's FE-key set and its word-order line, by whether the
# settings generalize: interlingual types if so, corpus-native types if not.
_GRANULARITY = {
    True: (attrgetter("rgl_fe_set"), attrgetter("rgl_fes")),
    False: (attrgetter("native_fe_set"), attrgetter("native_fes")),
}


def _filtered(
    p: SentencePattern, generalize_types: bool, dedupe: bool, drop_noncore: bool
) -> SentencePattern | Skip:
    """One example under the realization switches, which remove at least one
    of its FEs or drop it: a pattern of the realizations they keep, or the
    Skip that drops the example.

    Non-core FEs are removed before repeated FEs are collapsed. When repeated
    FEs disagree on their type the whole example is dropped; when they agree,
    the first occurrence in word order is kept.
    """
    reals: Sequence[FeRealization] = p.realizations
    if drop_noncore:
        reals = [r for r in reals if r.coreness is not _NONCORE]
        if not reals:
            return Skip(p.sentence_id, SkipReason.EMPTY_AFTER_NONCORE_REMOVAL)
    if dedupe:
        first: dict[str, FeRealization] = {}
        for r in reals:
            first.setdefault(r.fe_name, r)
        if len(first) < len(reals):
            types_by_fe: dict[str, set[str]] = {}
            for r in reals:
                key = r.rgl_key if generalize_types else r.native_key
                types_by_fe.setdefault(r.fe_name, set()).add(key[1])
            mixed = [fe for fe, types in types_by_fe.items() if len(types) > 1]
            if mixed:
                return Skip(
                    p.sentence_id, SkipReason.MIXED_REPEATED_FE_TYPES, ",".join(sorted(mixed))
                )
            reals = list(first.values())
    return SentencePattern(
        frame=p.frame, voice=p.voice, realizations=tuple(reals),
        lu_ref=p.lu_ref, sentence_id=p.sentence_id,
    )


# ---------------------------------------------------------------------------
# Valence patterns
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ValencePattern:
    """Order- and preposition-free abstraction of sentence patterns.

    Its frame, voice and FE keys are assumed unchanged after aggregation:
    ``compare.intersect`` keeps the projection it builds from them for later
    calls on the same list. Its count is read at every call."""

    frame: str
    voice: Voice
    fes: tuple[FeKey, ...]  # sorted by (fe_name, type, syn)
    count: int
    sentence_variants: dict[str, int]

    def fes_string(self) -> str:
        return "  ".join(fe_key_token(k) for k in self.fes)


_ValenceKey = tuple[str, str, tuple[FeKey, ...]]  # frame, voice, FE-key set
_Groups = dict[_ValenceKey, ValencePattern]
# A pattern's valence key, the key's number when a pass counts groups by
# number, and the pattern's word-order line.
_Entry = tuple[_ValenceKey, int | None, str]


def _valence_entry(
    p: SentencePattern, generalize_types: bool, key_ids: dict[_ValenceKey, int] | None
) -> _Entry:
    fe_set, ordered_line = _GRANULARITY[generalize_types]
    key = (p.frame, p.voice.value, fe_set(p))
    key_id = key_ids.setdefault(key, len(key_ids)) if key_ids is not None else None
    return key, key_id, sys.intern(ordered_line(p))  # held once per distinct line


# One copy of each FE-key set: the valences of the ten settings ids repeat the
# same few thousand sets, which also key compare's token cache.
_FE_SETS: dict[tuple[FeKey, ...], tuple[FeKey, ...]] = _register({})


def _sorted_valences(groups: _Groups, drop_singletons: bool) -> list[ValencePattern]:
    valences = [groups[k] for k in sorted(groups)]
    if drop_singletons:
        valences = [v for v in valences if v.count > 1]
    return valences


# Of one group: its frame, examples and distinct sentence patterns, which is
# all the statistics table reads.
_GroupSize = tuple[str, int, int]


def _group(
    patterns: Iterable[SentencePattern],
    groupings: Sequence[_Grouping],
    full: _Grouping,
    drop_singletons: bool = False,
) -> tuple[_Groups, dict[_Grouping, list[_GroupSize]], list[SentencePattern], list[Skip]]:
    """Group the patterns under each grouping, filtering, keying and
    counting each distinct example once, weighted by its examples.

    A distinct example is a (frame, voice, realizations tuple), the tuple by
    identity: equal patterns share one tuple (see ``normalize_corpus``), and
    equal tuples that are different objects only cost a second distinct
    example. An example's valence key and line at one granularity are
    computed once for all groupings that keep the example whole, which is
    every grouping unless the example repeats an FE or has a non-core one.
    ``full``, which must be among the groupings, gets valence patterns,
    returned by valence key; every other grouping only counts its groups'
    sizes. Also returns ``full``'s kept patterns, restricted to reused
    valences when ``drop_singletons``, and its drops, examples with an
    unconsidered FE first, each in input order.
    """
    # Each distinct example's [first example, examples, outcome under
    # ``full``, the outcome's list or valence], by key and by example. The
    # first example holds the realizations tuple, so no id is reused while
    # the call runs.
    patterns = list(patterns)
    distinct: dict[tuple[str, Voice, int], list] = {}
    of_example: list[list] = []
    for p in patterns:
        key = (p.frame, p.voice, id(p.realizations))
        d = distinct.get(key)
        if d is None:
            d = distinct[key] = [p, 0, None, None]
        d[1] += 1
        of_example.append(d)

    groups: _Groups = {}
    # A counted grouping's [examples, first line, set of lines once a
    # second one appears] by key number; most groups have one line.
    # Numbering the keys hashes each nested key tuple once per distinct
    # example and granularity, not once per grouping.
    tallies: dict[_Grouping, dict[int, list]] = {g: {} for g in groupings if g != full}
    key_ids: dict[_ValenceKey, int] | None = {} if tallies else None
    plan = [(*g, tallies.get(g)) for g in groupings]
    any_skip = any(g[1] for g in groupings)
    any_filter = any(g[2] or g[3] for g in groupings)
    unconsidered: list[Skip] = []
    dropped: list[Skip] = []
    skip = None
    repeats = noncore = False
    # Distinct examples come in the order of their first examples, so groups,
    # tallies and sentence variants fill in the order the examples would.
    for d in distinct.values():
        p, n = d[0], d[1]
        reals = p.realizations
        if any_skip:
            skip = p.unconsidered_skip()
        if any_filter:
            repeats = len({r.fe_name for r in reals}) < len(reals)
            # An example with no FE at all is dropped with the non-core ones.
            noncore = not reals or any(r.coreness is _NONCORE for r in reals)
        whole: list[_Entry | None] = [None, None]  # by generalize_types
        for generalize, skip_unconsidered, dedupe, drop_noncore, tally in plan:
            if skip is not None and skip_unconsidered:
                if tally is None:
                    d[2:] = skip, unconsidered
                continue
            q = p
            if (dedupe and repeats) or (drop_noncore and noncore):
                q = _filtered(p, generalize, dedupe, drop_noncore)
                if isinstance(q, Skip):
                    if tally is None:
                        d[2:] = q, dropped
                    continue
            if q is p:
                entry = whole[generalize] or _valence_entry(p, generalize, key_ids)
                whole[generalize] = entry
            else:
                entry = _valence_entry(q, generalize, key_ids)
            key, key_id, line = entry
            if tally is not None:
                counted = tally.get(key_id)
                if counted is None:
                    tally[key_id] = [n, line, None]
                    continue
                counted[0] += n
                if line != counted[1]:
                    if counted[2] is None:
                        counted[2] = {counted[1]}
                    counted[2].add(line)
                continue
            vp = groups.get(key)
            if vp is None:
                vp = groups[key] = ValencePattern(
                    frame=p.frame, voice=p.voice, fes=_FE_SETS.setdefault(key[2], key[2]),
                    count=0, sentence_variants={},
                )
            vp.count += n
            variants = vp.sentence_variants
            variants[line] = variants.get(line, 0) + n
            d[2:] = q, vp

    # Each example's own skip or kept pattern, from its distinct example's
    # outcome: a skip goes to the list of its kind, and a filtered pattern
    # carries the example's sentence id and LU.
    kept: list[SentencePattern] = []
    for p, (first, _, outcome, held) in zip(patterns, of_example):
        if type(outcome) is Skip:
            held.append(
                outcome if p is first else Skip(p.sentence_id, outcome.reason, outcome.detail)
            )
        elif drop_singletons and held.count < 2:
            continue
        elif outcome is first:
            kept.append(p)
        elif p is first:
            kept.append(outcome)
        else:
            kept.append(SentencePattern(
                frame=p.frame, voice=p.voice, realizations=outcome.realizations,
                lu_ref=p.lu_ref, sentence_id=p.sentence_id,
            ))
    frame_of = [frame for frame, _, _ in key_ids or ()]  # by key number
    plan.clear()  # so that each tally is freed once its sizes are listed
    sizes = {}
    while tallies:
        g, tally = tallies.popitem()
        sizes[g] = [(frame_of[k], n, len(lines or (line,))) for k, (n, line, lines) in tally.items()]
    return groups, sizes, kept, unconsidered + dropped


def aggregate_corpus(
    patterns: Iterable[SentencePattern], settings: Settings
) -> tuple[list[ValencePattern], list[SentencePattern], list[Skip]]:
    """Apply the settings and group; returns (valences, kept patterns, drops).

    With singleton filtering active, kept patterns are restricted to those
    whose valence pattern survived.
    """
    grouping = _grouping(settings)
    groups, _, kept, dropped = _group(
        patterns, [grouping], grouping, settings.drop_singleton_valences
    )
    return _sorted_valences(groups, settings.drop_singleton_valences), kept, dropped


def aggregate_lattice(
    patterns: Iterable[SentencePattern], keep: Settings
) -> tuple[list[StatsRow], list[ValencePattern], list[SentencePattern], list[Skip]]:
    """The statistics row of every settings id, in ``ALL_SETTINGS_IDS``
    order, each over the valences :func:`aggregate_corpus` gives that id,
    and :func:`aggregate_corpus`'s result for ``keep``, from one pass over
    the patterns. Each 3.x counts the groups of its 2.x."""
    every = [Settings.from_id(sid) for sid in ALL_SETTINGS_IDS]
    full = _grouping(keep)
    groupings = list(dict.fromkeys([*map(_grouping, every), full]))
    groups, sizes, kept, dropped = _group(
        patterns, groupings, full, keep.drop_singleton_valences
    )
    sizes[full] = [(v.frame, v.count, len(v.sentence_variants)) for v in groups.values()]
    rows = [
        _stats_row(s.id, [size for size in sizes[_grouping(s)]
                          if size[1] > 1 or not s.drop_singleton_valences])
        for s in every
    ]
    return rows, _sorted_valences(groups, keep.drop_singleton_valences), kept, dropped


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


def _stats_row(settings_id: str, sizes: Sequence[_GroupSize]) -> StatsRow:
    frames = len({frame for frame, _, _ in sizes})
    valence_total = len(sizes)
    sentence_total = sum(lines for _, _, lines in sizes)
    examples_total = sum(examples for _, examples, _ in sizes)
    return StatsRow(
        settings_id=settings_id,
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
    """One ``<frame>.txt`` per frame in ``out_dir``. A frame name that cannot
    name a file there is a ValueError, raised before anything is written."""
    by_group: dict[tuple[str, Voice], list[ValencePattern]] = {}
    for v in valences:
        by_group.setdefault((v.frame, v.voice), []).append(v)
    frames = sorted({_file_name(frame, "frame") for frame, _ in by_group})
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        parts = [
            frame_summary(by_group.get((frame, voice), []), frame, voice)
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
    """The patterns of a valence patterns TSV. Each distinct voice and FE
    token is decoded once per call, so equal tokens within the file are one
    key; two calls share none."""
    key = functools.cache(parse_fe_key)

    def fes(tokens_field: str) -> tuple[FeKey, ...]:
        return tuple(sorted(key(token) for token in tokens_field.split(",") if token))

    columns = {"frame": None, "voice": functools.cache(Voice), "fes": fes, "count": _decode_count}
    return [
        ValencePattern(frame=frame, voice=voice, fes=keys, count=count, sentence_variants={})
        for frame, voice, keys, count in read_tsv_rows(path, columns)
    ]
