"""Generation of the abstract syntax from a shared pattern set.

Three module kinds are emitted as plain text: frame element categories,
frame valence functions, and one lexical-unit module per framenet. Emission
is deterministic; identical inputs yield byte-identical files.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from ._base import _once_per_object
from .compare import MatchLevel, SharedPattern, SharedPatternSet
from .frames import Coreness
from .normalize import FeKey, RglType, SentencePattern, SynFunction, parse_fe_category


ARITY_ORDER = {"V": 0, "V2": 1, "V3": 2}


class GrammarError(ValueError):
    """The shared pattern set cannot be rendered as a consistent grammar."""


@dataclass(frozen=True)
class FeCategory:
    name: str  # e.g. "Experiencer_NP" or "Opt_Degree_Adv"
    rgl_type: RglType
    optional: bool


@dataclass(frozen=True)
class FrameFunction:
    name: str
    frame: str
    voice: str
    args: tuple[str, ...]  # category names in alphabetical order
    verb_arity: str  # V | V2 | V3

    def signature(self) -> str:
        parts = list(self.args) + [self.verb_arity, "Clause"]
        return f"fun {self.name} : {' -> '.join(parts)} ;"


@dataclass(frozen=True)
class LuFunction:
    name: str
    verb_arity: str
    frame: str
    framenet: str
    source_lemma: str

    def signature(self) -> str:
        line = f"fun {self.name} : {self.verb_arity} ;"
        translit = _transliterate(self.source_lemma)
        if translit != self.source_lemma:
            line += f"  -- {self.source_lemma}"
        return line


@dataclass
class AbstractGrammar:
    categories: list[FeCategory]
    frame_functions: list[FrameFunction]
    lu_modules: dict[str, list[LuFunction]]
    settings_desc: str = ""
    input_digests: list[tuple[str, str]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def _category(token: str) -> FeCategory:
    _, typ, _, optional = parse_fe_category(token)
    return FeCategory(name=token, rgl_type=RglType(typ), optional=optional)


def derive_fe_categories(shared: SharedPatternSet) -> list[FeCategory]:
    """One category per distinct FE-name/type pair used by a final pattern."""
    tokens = {token for sp in shared.patterns for token in sp.fes}
    return sorted((_category(t) for t in tokens), key=lambda c: c.name)


def choose_verb_arity(fes: Iterable[FeKey]) -> str:
    """Arity from the complement count: FEs functioning as objects plus
    VP-typed FEs. Adverbial modifiers never add to the arity."""
    complements = sum(
        1 for _, typ, syn, _ in fes if syn == SynFunction.OBJ.value or typ == RglType.VP.value
    )
    if complements == 0:
        return "V"
    if complements == 1:
        return "V2"
    return "V3"


def _pattern_arity(sp: SharedPattern) -> str:
    arities = [
        choose_verb_arity(fes)
        for variants in sp.syn_variants.values()
        for fes, _ in variants
    ]
    if arities:
        return max(arities, key=lambda a: ARITY_ORDER[a])
    # No syntactic-function evidence (hand-written shared sets): assume one
    # NP is the subject and every other NP an object.
    keys = [parse_fe_category(t) for t in sp.fes]
    n_np = sum(1 for _, typ, _, _ in keys if typ == RglType.NP.value)
    return choose_verb_arity(keys + [("", "NP", "Obj", False)] * max(0, n_np - 1))


def derive_frame_functions(shared: SharedPatternSet) -> list[FrameFunction]:
    """One function per final pattern; pattern numbers are assigned per frame
    by descending combined corpus count (ties broken by the FE-set string),
    and voice suffixes appear only when both voices of an FE set survived."""
    if shared.level is not MatchLevel.SEMANTIC_SYNTACTIC:
        raise GrammarError("frame functions require a semantic-syntactic shared set")

    groups: dict[tuple[str, frozenset[str]], list[SharedPattern]] = {}
    for sp in shared.patterns:
        groups.setdefault((sp.frame, sp.fes), []).append(sp)

    by_frame: dict[str, list[tuple[tuple[int, str], frozenset[str], list[SharedPattern]]]] = {}
    for (frame, fes), members in groups.items():
        combined = sum(sp.combined_count for sp in members)
        fes_string = " ".join(sorted(fes))
        by_frame.setdefault(frame, []).append(((-combined, fes_string), fes, members))

    functions: list[FrameFunction] = []
    for frame in sorted(by_frame):
        ranked = sorted(by_frame[frame], key=lambda item: item[0])
        for number, (_, fes, members) in enumerate(ranked, start=1):
            voices = sorted({sp.voice or "" for sp in members})
            both = len(voices) > 1
            for sp in sorted(members, key=lambda m: m.voice or ""):
                name = f"{frame}_P{number}"
                if both:
                    name += f"_{sp.voice}"
                functions.append(FrameFunction(
                    name=name,
                    frame=frame,
                    voice=sp.voice or "",
                    args=tuple(sorted(fes)),
                    verb_arity=_pattern_arity(sp),
                ))
    return functions


def _lemma_from_lu_ref(lu_ref: str) -> str:
    return lu_ref.split(".")[0] if lu_ref else lu_ref


_NON_IDENT_RE = re.compile(r"[^\w]", re.UNICODE)


def _transliterate(lemma: str) -> str:
    """Keep Unicode letters; spaces, periods and other punctuation become
    underscores."""
    return _NON_IDENT_RE.sub("_", unicodedata.normalize("NFC", lemma))


def derive_lu_module(patterns: Sequence[SentencePattern], framenet: str) -> list[LuFunction]:
    """One function per (lemma, frame), with the maximum arity over that
    lexical unit's attested patterns; sense identifiers are dropped. The
    arity of each realizations tuple is computed once per call."""
    best: dict[tuple[str, str], str] = {}
    # An FE without an interlingual type has no function, so it adds no complement.
    arity_of = _once_per_object(
        lambda reals: choose_verb_arity(r.rgl_key for r in reals if r.rgl_type is not None)
    )
    for p in patterns:
        lemma = _lemma_from_lu_ref(p.lu_ref)
        if not lemma:
            continue
        arity = arity_of(p.realizations)
        key = (lemma, p.frame)
        if key not in best or ARITY_ORDER[arity] > ARITY_ORDER[best[key]]:
            best[key] = arity

    by_name: dict[str, set[str]] = {}
    functions: list[LuFunction] = []
    for (lemma, frame), arity in best.items():
        name = f"{_transliterate(lemma)}_{arity}_{frame}"
        by_name.setdefault(name, set()).add(lemma)
        functions.append(LuFunction(
            name=name, verb_arity=arity, frame=frame,
            framenet=framenet, source_lemma=lemma,
        ))
    collisions = {name: lemmas for name, lemmas in by_name.items() if len(lemmas) > 1}
    if collisions:
        detail = "; ".join(
            f"{name} <- {sorted(lemmas)}" for name, lemmas in sorted(collisions.items())
        )
        raise GrammarError(f"LU name collisions after transliteration: {detail}")
    return sorted(functions, key=lambda f: (f.name,))


def derive_grammar(
    shared: SharedPatternSet,
    lu_patterns: Mapping[str, Sequence[SentencePattern]],
    *,
    settings_desc: str = "",
    input_digests: Sequence[tuple[str, str]] = (),
    extra_categories: Iterable[FeCategory] = (),
) -> AbstractGrammar:
    categories = derive_fe_categories(shared)
    names = {c.name for c in categories}
    for cat in extra_categories:
        if cat.name not in names:
            categories.append(cat)
            names.add(cat.name)
    categories.sort(key=lambda c: c.name)

    functions = derive_frame_functions(shared)
    missing = sorted({
        arg for fn in functions for arg in fn.args if arg not in names
    })
    if missing:
        raise GrammarError(f"frame functions reference undeclared categories: {missing}")

    return AbstractGrammar(
        categories=categories,
        frame_functions=functions,
        lu_modules={
            framenet: derive_lu_module(patterns, framenet)
            for framenet, patterns in sorted(lu_patterns.items())
        },
        settings_desc=settings_desc,
        input_digests=list(input_digests),
    )


def noncore_categories(patterns: Iterable[SentencePattern]) -> list[FeCategory]:
    """Optional (non-core) FE categories attested in sentence patterns, for
    users who want them listed alongside the core inventory."""
    tokens = MatchLevel.SEMANTIC_SYNTACTIC.tokens(
        r.rgl_key for p in patterns for r in p.realizations
        if r.rgl_type is not None and r.coreness is Coreness.NONCORE
    )
    return sorted((_category(t) for t in tokens), key=lambda c: c.name)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _header(title: str, grammar: AbstractGrammar) -> list[str]:
    lines = [f"-- {title}", f"-- tool: valgram {__version__}"]
    if grammar.settings_desc:
        lines.append(f"-- settings: {grammar.settings_desc}")
    for name, digest in grammar.input_digests:
        lines.append(f"-- input: {name}=sha256:{digest}")
    return lines


def render_fe_module(grammar: AbstractGrammar) -> str:
    lines = _header("Frame element categories", grammar)
    lines.append("-- Clause pairs a subject NP with a predicate VP; concrete")
    lines.append("-- syntaxes realize it as the record {np : NP ; vp : VP}.")
    lines.extend(["cat Clause ;", "cat V ;", "cat V2 ;", "cat V3 ;"])
    lines.extend(f"cat {c.name} ;" for c in grammar.categories)
    return "\n".join(lines) + "\n"


def render_frame_module(grammar: AbstractGrammar) -> str:
    lines = _header("Frame valence functions", grammar)
    lines.extend(fn.signature() for fn in grammar.frame_functions)
    return "\n".join(lines) + "\n"


def render_lu_module(grammar: AbstractGrammar, framenet: str) -> str:
    lines = _header(f"Lexical unit functions: {framenet}", grammar)
    lines.extend(fn.signature() for fn in grammar.lu_modules[framenet])
    return "\n".join(lines) + "\n"


def emit_abstract_syntax(grammar: AbstractGrammar, out_dir: Path) -> dict[str, Path]:
    """Write the grammar modules; returns the paths keyed by module name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    fe_path = out_dir / "FrameFE.gf-abs.txt"
    fe_path.write_text(render_fe_module(grammar), encoding="utf-8")
    written["fe"] = fe_path

    frames_path = out_dir / "Frames.gf-abs.txt"
    frames_path.write_text(render_frame_module(grammar), encoding="utf-8")
    written["frames"] = frames_path

    for framenet in grammar.lu_modules:
        lu_path = out_dir / f"LU_{framenet}.gf-abs.txt"
        lu_path.write_text(render_lu_module(grammar, framenet), encoding="utf-8")
        written[f"lu_{framenet}"] = lu_path
    return written


def file_digest(path: Path) -> str:
    """SHA-256 of the file, read one MiB at a time into one buffer, so that
    hashing a large corpus does not hold it in memory."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with path.open("rb") as f:
        while n := f.readinto(buffer):
            digest.update(view[:n])
    return digest.hexdigest()
