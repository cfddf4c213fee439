"""Cross-framenet comparison of frame sets and valence-pattern sets.

Patterns are compared at two granularities (FE names only, or FE names plus
interlingual types with matching voice) and in two modes. Exact mode
intersects pattern keys. Fuzzy mode admits a pattern whenever some pattern on
the other side subsumes it, in either direction. In both modes the final set
then drops members subsumed by other members, leaving the maximal patterns;
the grammar built from them covers the removed ones through empty arguments.
"""

from __future__ import annotations

import csv
import functools
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ._base import _REQUIRED, _FieldError, _json_type, _register, _reused, _strings, _values
from .aggregate import ValencePattern
from .frames import fe_name_fits_tokens
from .normalize import (
    FeKey, _decode_count, fe_key_token, parse_fe_category, parse_fe_key, read_tsv_rows,
)


class MatchLevel(str, Enum):
    SEMANTIC = "sem"
    SEMANTIC_SYNTACTIC = "semsyn"

    def tokens(self, keys: Iterable[FeKey]) -> frozenset[str]:
        """FE keys projected onto this level: the FE name alone (semantic),
        or the name and type without syntactic function or preposition."""
        if self is _SEMANTIC:
            return frozenset([f"Opt_{fe}" if noncore else fe for fe, _, _, noncore in keys])
        return frozenset([fe_key_token((fe, typ, "", noncore)) for fe, typ, _, noncore in keys])


# Reaching a member through its enum class is slow on Python 3.11, and keys
# are built once per valence and shared set.
_SEMANTIC = MatchLevel.SEMANTIC


class MatchMode(str, Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"


# One token set per distinct FE-key tuple and level: a sweep's valences repeat
# a few thousand key sets, intersect projects each valence list through it,
# and coverage keys each example through it, so examples with the same core
# FEs share one set.
@_register
@functools.cache
def _level_tokens(fes: tuple[FeKey, ...], level: MatchLevel) -> frozenset[str]:
    return level.tokens(fes)


# ---------------------------------------------------------------------------
# Frame sets
# ---------------------------------------------------------------------------

class _SetShares:
    """Percentages of a set comparison, from its left_total, right_total,
    left_only, right_only, union and intersection counts."""

    @property
    def left_only_pct(self) -> float:
        return self.left_only / self.left_total if self.left_total else 0.0

    @property
    def right_only_pct(self) -> float:
        return self.right_only / self.right_total if self.right_total else 0.0

    @property
    def intersection_pct(self) -> float:
        return self.intersection / self.union if self.union else 0.0


@dataclass(frozen=True)
class FrameSetReport(_SetShares):
    left_total: int
    right_total: int
    left_only: int
    right_only: int
    union: int
    intersection: int


def frame_set_report(
    left: Iterable[ValencePattern], right: Iterable[ValencePattern]
) -> FrameSetReport:
    a = {v.frame for v in left}
    b = {v.frame for v in right}
    return FrameSetReport(
        left_total=len(a),
        right_total=len(b),
        left_only=len(a - b),
        right_only=len(b - a),
        union=len(a | b),
        intersection=len(a & b),
    )


# ---------------------------------------------------------------------------
# Pattern intersection
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SharedPattern:
    frame: str
    voice: str | None
    fes: frozenset[str]
    # side -> FE-set strings of the other-side patterns that subsume this one
    subsumed_by: dict[str, list[str]] = field(default_factory=dict)
    # side -> [(full FE keys with syntactic functions, count), ...]
    syn_variants: dict[str, list[tuple[tuple[FeKey, ...], int]]] = field(default_factory=dict)

    @property
    def sides(self) -> tuple[str, ...]:
        """The sides this pattern was admitted from."""
        return tuple(sorted(self.syn_variants))

    @property
    def left_count(self) -> int:
        return sum(n for _, n in self.syn_variants.get("left", ()))

    @property
    def right_count(self) -> int:
        return sum(n for _, n in self.syn_variants.get("right", ()))

    @property
    def combined_count(self) -> int:
        return self.left_count + self.right_count

    def fes_sorted(self) -> list[str]:
        return sorted(self.fes)

    def sort_key(self) -> tuple:
        return (self.frame, self.voice or "", tuple(self.fes_sorted()))


@dataclass
class SharedPatternSet:
    level: MatchLevel
    mode: MatchMode
    patterns: list[SharedPattern]  # final set: no member subsumed by another
    left_total: int
    right_total: int
    union_total: int
    intersection_total: int  # admitted patterns (before in-set pruning)
    left_only: int
    right_only: int

    def final_frames(self) -> set[str]:
        return {p.frame for p in self.patterns}


# A key's variants: [(full FE keys with syntactic functions, count), ...]
_Variants = list[tuple[tuple[FeKey, ...], int]]
# Keys can subsume each other only within one (frame, voice) group; the voice
# is None at the semantic level.
_Group = tuple[str, str | None]
# A side's keys by group, then FE set at the level, each with its valence, or
# the list of its valences once a second one has the key. Most keys have one
# valence, and a list for each would be the projection's largest allocation.
_Projection = dict[_Group, dict[frozenset[str], ValencePattern | list[ValencePattern]]]


def _project(valences: Iterable[ValencePattern], level: MatchLevel) -> _Projection:
    """The projection of the valences of every frame. Only their frames,
    voices and FE keys are read, so it stays valid while those stay as
    they are; counts are read from the valences at each intersect."""
    proj: _Projection = {}
    semantic = level is _SEMANTIC
    for vp in valences:
        # ``_value_`` skips the ``value`` property's descriptor call.
        key = (vp.frame, None) if semantic else (vp.frame, vp.voice._value_)
        group = proj.get(key)
        if group is None:
            group = proj[key] = {}
        fes = _level_tokens(vp.fes, level)
        same = group.get(fes)
        if same is None:
            group[fes] = vp
        elif type(same) is list:
            same.append(vp)
        else:
            group[fes] = [same, vp]
    return proj


def _variants(valences: ValencePattern | list[ValencePattern]) -> _Variants:
    """A key's FE keys, sorted, with the counts of equal keys summed."""
    if type(valences) is not list:
        return [(valences.fes, valences.count)]
    counts: dict[tuple[FeKey, ...], int] = {}
    for vp in valences:
        counts[vp.fes] = counts.get(vp.fes, 0) + vp.count
    return sorted(counts.items())


def intersect(
    left: Iterable[ValencePattern],
    right: Iterable[ValencePattern],
    level: MatchLevel,
    mode: MatchMode,
) -> SharedPatternSet:
    """Compute the shared pattern set over the shared frames.

    Exact mode admits keys present on both sides. Fuzzy mode admits any
    pattern subsumed by some pattern of the other side (checked in both
    directions, so either framenet can contribute the more specific pattern).
    The final set keeps only patterns not subsumed by another member.

    A side's projection is reused by the next call at the level that passes
    the same list, unchanged, as either side; a sweep over settings pairs
    then projects each side's list once per run of calls that share it.
    """
    project = functools.partial(_project, level=level)
    left_proj = _reused(level, left, project)
    right_proj = _reused(level, right, project)
    shared_frames = {frame for frame, _ in left_proj} & {frame for frame, _ in right_proj}

    # Keys can meet only within a group both sides have. Exact mode admits
    # a key the other side has; fuzzy mode one that some other-side key
    # subsumes, so a key both sides have is admitted from both. A member is
    # pruned when another of its group strictly contains it, and only the
    # members left get their provenance: each admitting side's variants, and
    # in fuzzy mode the other side's keys that strictly contain it, in that
    # side's order, as sorted, joined strings.
    exact = mode is MatchMode.EXACT
    final = []
    n_left = n_right = n_admitted = 0
    for group, lefts in left_proj.items():
        rights = right_proj.get(group)
        if rights is None:
            continue
        if exact:
            left_hits = right_hits = lefts.keys() & rights.keys()
        else:
            left_hits = {fes for fes in lefts if any(map(fes.issubset, rights))}
            right_hits = {fes for fes in rights if any(map(fes.issubset, lefts))}
        members = left_hits | right_hits
        n_left += len(left_hits)
        n_right += len(right_hits)
        n_admitted += len(members)
        sides = (("left", left_hits, lefts, rights), ("right", right_hits, rights, lefts))
        for fes in members:
            if any(map(fes.__lt__, members)):
                continue
            sp = SharedPattern(group[0], group[1], fes)
            for side, hits, keys, others in sides:
                if fes in hits:
                    sp.syn_variants[side] = _variants(keys[fes])
                    if not exact:
                        strict = [", ".join(sorted(s)) for s in others if fes < s]
                        if strict:
                            sp.subsumed_by[side] = strict
            final.append(sp)
    final.sort(key=SharedPattern.sort_key)

    # The projections hold every frame; the totals count shared frames only.
    left_total, right_total = (
        sum(len(keys) for (frame, _), keys in proj.items() if frame in shared_frames)
        for proj in (left_proj, right_proj)
    )
    # The keys both sides have are the ones admitted from both.
    both = n_left + n_right - n_admitted
    return SharedPatternSet(
        level=level,
        mode=mode,
        patterns=final,
        left_total=left_total,
        right_total=right_total,
        union_total=left_total + right_total - both,
        intersection_total=n_admitted,
        left_only=left_total - n_left,
        right_only=right_total - n_right,
    )


# ---------------------------------------------------------------------------
# Pattern set report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternSetReport(_SetShares):
    level: str
    mode: str
    left_total: int
    right_total: int
    left_only: int
    right_only: int
    union: int
    intersection: int
    final_patterns: int
    final_frames: int


def pattern_set_report(shared: SharedPatternSet) -> PatternSetReport:
    return PatternSetReport(
        level=shared.level.value,
        mode=shared.mode.value,
        left_total=shared.left_total,
        right_total=shared.right_total,
        left_only=shared.left_only,
        right_only=shared.right_only,
        union=shared.union_total,
        intersection=shared.intersection_total,
        final_patterns=len(shared.patterns),
        final_frames=len(shared.final_frames()),
    )


FRAME_REPORT_COLUMNS = [
    "left_frames", "right_frames",
    "left_only", "left_only_pct", "right_only", "right_only_pct",
    "union", "intersection", "intersection_pct",
]

PATTERN_REPORT_COLUMNS = [
    "level", "mode", "left_patterns", "right_patterns",
    "left_only", "left_only_pct", "right_only", "right_only_pct",
    "union", "intersection", "intersection_pct",
    "final_patterns", "final_frames",
]


def write_frame_report_csv(report: FrameSetReport, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(FRAME_REPORT_COLUMNS)
        writer.writerow([
            report.left_total, report.right_total,
            report.left_only, f"{report.left_only_pct * 100:.1f}",
            report.right_only, f"{report.right_only_pct * 100:.1f}",
            report.union, report.intersection,
            f"{report.intersection_pct * 100:.1f}",
        ])


def write_pattern_report_csv(reports: Sequence[PatternSetReport], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(PATTERN_REPORT_COLUMNS)
        for r in reports:
            writer.writerow([
                r.level, r.mode, r.left_total, r.right_total,
                r.left_only, f"{r.left_only_pct * 100:.1f}",
                r.right_only, f"{r.right_only_pct * 100:.1f}",
                r.union, r.intersection, f"{r.intersection_pct * 100:.1f}",
                r.final_patterns, r.final_frames,
            ])


# ---------------------------------------------------------------------------
# Shared set TSV
# ---------------------------------------------------------------------------

def write_shared_tsv(shared: SharedPatternSet, path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# level={shared.level.value} mode={shared.mode.value}\n")
        for sp in shared.patterns:
            meta = {
                "sides": list(sp.sides),
                "subsumed_by": sp.subsumed_by,
                "syn": {
                    side: [
                        [[fe_key_token(k) for k in fes], count]
                        for fes, count in variants
                    ]
                    for side, variants in sorted(sp.syn_variants.items())
                },
            }
            f.write("\t".join([
                sp.frame,
                sp.voice or "-",
                ",".join(sp.fes_sorted()),
                str(sp.combined_count),
                json.dumps(meta, ensure_ascii=False, sort_keys=True),
            ]))
            f.write("\n")


# The first line of a shared TSV, as write_shared_tsv writes it.
_SHARED_HEADER_RE = re.compile(r"# level=(sem|semsyn) mode=(exact|fuzzy)")


# The provenance column's two maps, each empty when absent. Sides and counts
# derive from the variants, so the "sides" key is not read back.
_META_FIELDS = (("subsumed_by", (dict,), {}), ("syn", (dict,), {}))


def _shared_meta(
    meta_field: str, key: Callable[[str], FeKey]
) -> tuple[dict[str, list[str]], dict[str, list[tuple[tuple[FeKey, ...], int]]]]:
    """The subsuming patterns and the syntactic variants in the JSON
    provenance column of a shared-set row, each checked for its JSON type.
    An error names its path within the column; the column itself has none."""
    try:
        subsumed_by, syn = _values(json.loads(meta_field), _META_FIELDS)
        for side, fes in subsumed_by.items():
            _strings(fes, f"subsumed_by.{side}")
        try:
            sides = _values(syn, tuple((side, (list,), _REQUIRED) for side in syn))
        except _FieldError as exc:
            raise exc.within("syn") from None
        decoded = {}
        for side, variants in zip(syn, sides):
            decoded[side] = []
            for i, variant in enumerate(variants):
                where = f"syn.{side}[{i}]"
                if type(variant) is not list or len(variant) != 2:
                    raise _FieldError(where, "expected a [tokens, count] pair")
                tokens, count = variant
                fes = tuple(sorted(map(key, _strings(tokens, f"{where}[0]"))))
                if type(count) is not int:
                    raise _FieldError(f"{where}[1]", f"expected an integer, got {_json_type(count)}")
                decoded[side].append((fes, count))
    except _FieldError as exc:
        raise ValueError(str(exc) if exc.field else exc.reason) from None
    return subsumed_by, decoded


def _check_count(row: list) -> None:
    """The count column of a decoded shared-set row must be the sum of its
    variants' counts, as write_shared_tsv writes it."""
    count, (_, syn_variants) = row[3], row[4]
    total = sum(n for variants in syn_variants.values() for _, n in variants)
    if count != total:
        raise ValueError(f"count: {count} is not the sum of the variants' counts, {total}")


def _sem_token(token: str) -> str:
    """An FE token of a semantic shared set: ``[Opt_]<FE>``."""
    name = token.removeprefix("Opt_")
    if not (name and fe_name_fits_tokens(name)):
        raise ValueError(f"cannot parse FE token {token!r} as an FE name")
    return token


def read_shared_tsv(path: Path) -> SharedPatternSet:
    """A shared set written by :func:`write_shared_tsv`; its first line must
    name the level and mode. The level decides each row's voice (``-``, or
    ``Act`` and ``Pass``) and FE tokens (``[Opt_]<FE>``, or grammar
    categories). Each distinct token is decoded once per call, so equal
    variant tokens within the file are one key; two calls share none."""
    with path.open("r", encoding="utf-8") as f:
        header = _SHARED_HEADER_RE.fullmatch(f.readline().rstrip("\n"))
    if header is None:
        raise ValueError(f"{path}:1: expected a header like '# level=semsyn mode=fuzzy'")
    level, mode = MatchLevel(header[1]), MatchMode(header[2])
    key = functools.cache(parse_fe_key)
    check_token = functools.cache(_sem_token if level is _SEMANTIC else parse_fe_category)
    voices = {"-": None} if level is _SEMANTIC else {"Act": "Act", "Pass": "Pass"}

    def decode_voice(text: str) -> str | None:
        if text not in voices:
            expected = " or ".join(map(repr, voices))
            raise ValueError(f"expected {expected} at level {level.value}, got {text!r}")
        return voices[text]

    def decode_fes(fes_field: str) -> frozenset[str]:
        tokens = [t for t in fes_field.split(",") if t]
        for t in tokens:
            check_token(t)
        return frozenset(tokens)

    columns = {
        "frame": None, "voice": decode_voice, "fes": decode_fes, "count": _decode_count,
        "meta": lambda meta_field: _shared_meta(meta_field, key),
    }
    patterns = [
        SharedPattern(
            frame=frame,
            voice=voice,
            fes=fes,
            subsumed_by=subsumed_by,
            syn_variants=syn_variants,
        )
        for frame, voice, fes, _count, (subsumed_by, syn_variants)
        in read_tsv_rows(path, columns, _check_count)
    ]
    return SharedPatternSet(
        level=level,
        mode=mode,
        patterns=patterns,
        left_total=0,
        right_total=0,
        union_total=0,
        intersection_total=len(patterns),
        left_only=0,
        right_only=0,
    )
