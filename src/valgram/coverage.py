"""Coverage of corpus examples by a final shared pattern set.

An example counts as covered when its frame belongs to the final set's frames
and some final pattern subsumes its reduced pattern. Subsumption is used even
when the final set was built by exact matching, because a frame function
accepts empty phrases for unexpressed FEs.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ._base import _once_per_object, _reused
from .compare import MatchLevel, SharedPatternSet, _Group, _level_tokens
from .frames import Coreness
from .normalize import FeRealization, SentencePattern


@dataclass(frozen=True)
class CoverageReport:
    level: str
    mode: str
    covered: int
    in_shared_frames: int
    total: int

    @property
    def pct_of_shared(self) -> float:
        return self.covered / self.in_shared_frames if self.in_shared_frames else 0.0

    @property
    def pct_of_all(self) -> float:
        return self.covered / self.total if self.total else 0.0

    @property
    def frame_level_covered(self) -> int:
        # An example passes the frame-level check as soon as its frame is in
        # the final set, regardless of its pattern.
        return self.in_shared_frames

    @property
    def frame_level_pct(self) -> float:
        return self.in_shared_frames / self.total if self.total else 0.0


# Members reached through their class cost a lookup on each use; these are
# read for each example keyed and each of its realizations.
_SEMANTIC = MatchLevel.SEMANTIC
_NONCORE = Coreness.NONCORE


def _reduced(reals: tuple[FeRealization, ...], level: MatchLevel) -> frozenset[str]:
    """The level's tokens of an example's core FEs, so word order,
    prepositions and repeats drop out. At the semantic level a token reads
    only the FE name and the non-core flag, so an FE without an interlingual
    type counts there; at the syntactic level it does not."""
    if level is _SEMANTIC:
        fes = [r.native_key for r in reals if r.coreness is not _NONCORE]
    else:
        fes = [r.rgl_key for r in reals if r.coreness is not _NONCORE and r.rgl_type is not None]
    return _level_tokens(tuple(fes), level)


# An example list's counts at a level: the examples per frame, and each
# (frame, voice) group's distinct reduced sets with their examples.
_ExampleCounts = tuple[dict[str, int], dict[_Group, list[tuple[frozenset[str], int]]]]


def _example_counts(examples: Sequence[SentencePattern], level: MatchLevel) -> _ExampleCounts:
    """Examples repeat their ((frame, voice), reduced set) keys, so each
    distinct key is counted once; the reduced set does not depend on the
    shared set. Examples that share a realizations tuple reduce it once."""
    reduce = _once_per_object(lambda reals: _reduced(reals, level))
    semantic = level is _SEMANTIC
    counts = Counter(
        ((p.frame, None if semantic else p.voice._value_), reduce(p.realizations))
        for p in examples
    )
    per_frame: dict[str, int] = {}
    by_group: dict[_Group, list[tuple[frozenset[str], int]]] = {}
    for (group, reduced), n in counts.items():
        per_frame[group[0]] = per_frame.get(group[0], 0) + n
        by_group.setdefault(group, []).append((reduced, n))
    return per_frame, by_group


def coverage(final: SharedPatternSet, examples: Sequence[SentencePattern]) -> CoverageReport:
    """The examples in the final set's frames, and those some final pattern
    covers. An example list's counts are reused by a later call at the level
    that passes one of the last two lists counted there, unchanged, so a
    sweep that alternates two sides counts each once per level."""
    level = final.level
    per_frame, by_group = _reused(
        ("coverage", level), examples, functools.partial(_example_counts, level=level)
    )
    # The final FE sets by (frame, voice), the only patterns that can cover an
    # example; each distinct key of such a group is tested once, weighted by
    # its count.
    candidates: dict[_Group, list[frozenset[str]]] = {}
    for sp in final.patterns:
        candidates.setdefault((sp.frame, sp.voice), []).append(sp.fes)
    covered = 0
    for group, fes_sets in candidates.items():
        for reduced, n in by_group.get(group, ()):
            if any(map(reduced.issubset, fes_sets)):
                covered += n

    return CoverageReport(
        level=level.value,
        mode=final.mode.value,
        covered=covered,
        in_shared_frames=sum(per_frame.get(frame, 0) for frame in final.final_frames()),
        total=len(examples),
    )


COVERAGE_COLUMNS = [
    "side", "level", "mode",
    "covered", "in_shared_frames", "total",
    "pct_of_shared", "pct_of_all",
    "frame_level_covered", "frame_level_pct",
]


def write_coverage_csv(rows: Iterable[tuple[str, CoverageReport]], path: Path) -> None:
    """Rows are (side label, report) pairs."""
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(COVERAGE_COLUMNS)
        for side, r in rows:
            writer.writerow([
                side, r.level, r.mode,
                r.covered, r.in_shared_frames, r.total,
                f"{r.pct_of_shared * 100:.1f}", f"{r.pct_of_all * 100:.1f}",
                r.frame_level_covered, f"{r.frame_level_pct * 100:.1f}",
            ])
