"""Registry of frames with their core and non-core frame element sets.

The canonical on-disk format is a neutral TSV so the pipeline does not depend
on any framenet's native frame-definition layout:

    frame<TAB>core<TAB>fe1,fe2,...
    frame<TAB>noncore<TAB>fe1,fe2,...

Lines starting with ``#`` are comments. Repeated rows for a frame are merged
by set union.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping


class FrameIndexError(ValueError):
    """Inconsistent or incomplete frame index data."""


class Coreness(str, Enum):
    CORE = "Core"
    NONCORE = "NonCore"


@dataclass(frozen=True)
class FrameDef:
    frame: str
    core_fes: frozenset[str]
    noncore_fes: frozenset[str]


@dataclass(frozen=True)
class FrameIndex:
    defs: Mapping[str, FrameDef]

    def __contains__(self, frame: str) -> bool:
        return frame in self.defs

    def coreness(self, frame: str, fe: str) -> Coreness:
        """Classify an FE; unknown frame or FE is an error, never a guess."""
        fdef = self.defs.get(frame)
        if fdef is None:
            raise FrameIndexError(f"unknown frame {frame!r}")
        if fe in fdef.core_fes:
            return Coreness.CORE
        if fe in fdef.noncore_fes:
            return Coreness.NONCORE
        raise FrameIndexError(f"unknown FE {fe!r} for frame {frame!r}")


def fe_name_fits_tokens(name: str) -> bool:
    """Whether FE tokens can carry an FE name: it holds no ".", "[", "]" or
    whitespace, and has no "Opt_" prefix, which would read as non-core."""
    return not name.startswith("Opt_") and not any(c in ".[]" or c.isspace() for c in name)


def load_frame_index(source: bytes | str | Path, *overrides: bytes | str | Path) -> FrameIndex:
    """Load the TSV format (``bytes`` or ``str`` hold the text, a ``Path``
    names the file), merging repeated rows per frame; each later source
    replaces the earlier definitions frame by frame. An FE name that FE
    tokens cannot carry is an error. Errors in a file start ``<path>:<line>:``,
    or ``<path>:`` for a frame's core/non-core clash; errors in text start
    ``line <n>:``."""
    if isinstance(source, Path):
        text, at, where = source.read_text(encoding="utf-8"), f"{source}:", f"{source}: "
    else:
        text = source.decode("utf-8") if isinstance(source, bytes) else source
        at, where = "line ", ""
    core: dict[str, set[str]] = {}
    noncore: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FrameIndexError(f"{at}{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        frame, kind, fes_field = parts
        fes = {fe.strip() for fe in fes_field.split(",") if fe.strip()}
        bad = sorted(fe for fe in fes if not fe_name_fits_tokens(fe))
        if bad:
            raise FrameIndexError(f"{at}{lineno}: FE tokens cannot carry the FE names {bad}")
        if kind == "core":
            core.setdefault(frame, set()).update(fes)
        elif kind == "noncore":
            noncore.setdefault(frame, set()).update(fes)
        else:
            raise FrameIndexError(f"{at}{lineno}: unknown coreness kind {kind!r}")

    defs: dict[str, FrameDef] = {}
    for frame in sorted(set(core) | set(noncore)):
        core_fes = frozenset(core.get(frame, ()))
        noncore_fes = frozenset(noncore.get(frame, ()))
        clash = core_fes & noncore_fes
        if clash:
            raise FrameIndexError(
                f"{where}frame {frame!r} lists {sorted(clash)} as both core and non-core"
            )
        defs[frame] = FrameDef(frame=frame, core_fes=core_fes, noncore_fes=noncore_fes)
    if overrides:
        defs.update(load_frame_index(*overrides).defs)
    return FrameIndex(defs=defs)
