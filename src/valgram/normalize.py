"""Conversion of annotated sentences into uniform sentence patterns.

Each corpus example becomes one line in a shared intermediate format: frame,
grammatical voice, and the expressed frame elements in word order, typed by
the interlingual inventory NP / Adv / VP. Framenet-specific grammatical tags
never leak past this module; what cannot be mapped is skipped with a reason.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ._base import (
    _JSON_TYPES, _REQUIRED, _FieldError, _json_type, _once_per_object, _register, _strings,
    _values,
)
from .frames import Coreness, FrameIndex, fe_name_fits_tokens
from .ingest import AnnotatedSentence, Dialect, FeSpan, WordAnno

logger = logging.getLogger(__name__)


class RglType(str, Enum):
    NP = "NP"
    ADV = "Adv"
    VP = "VP"


_RGL_TYPES = frozenset(t.value for t in RglType)


class SynFunction(str, Enum):
    SUBJ = "Subj"
    OBJ = "Obj"
    NONE = "None"


class Voice(str, Enum):
    ACT = "Act"
    PASS = "Pass"


class SkipReason(str, Enum):
    UNCONSIDERED_PHRASE_TYPE = "UnconsideredPhraseType"
    SUBCLAUSE = "Subclause"
    MIXED_REPEATED_FE_TYPES = "MixedRepeatedFeTypes"
    NO_GRAMMATICAL_ANNOTATION = "NoGrammaticalAnnotation"
    UNKNOWN_FRAME = "UnknownFrame"
    EMPTY_AFTER_NONCORE_REMOVAL = "EmptyAfterNonCoreRemoval"


@dataclass(frozen=True)
class Skip:
    sentence_id: str
    reason: SkipReason
    detail: str = ""


class Generalized(NamedTuple):
    """Result of mapping one FE annotation onto the interlingual inventory.
    A tuple, so that keying ``_realization``'s cache on it hashes in C."""

    rgl_type: RglType
    syn_function: SynFunction = SynFunction.NONE
    preposition: str | None = None


# ---------------------------------------------------------------------------
# FE tokens
# ---------------------------------------------------------------------------

# An FE's key at one granularity: (fe_name, type, syntactic function, non-core).
FeKey = tuple[str, str, str, bool]


def fe_key_token(key: FeKey) -> str:
    """The typed FE token of a key: ``[Opt_]<FE>_<type>[.Subj|.Obj]``. A
    sentence-pattern token appends ``[prep]`` to it."""
    fe, typ, syn, noncore = key
    token = f"Opt_{fe}_{typ}" if noncore else f"{fe}_{typ}"
    return f"{token}.{syn}" if syn else token


# An FE name holds no "." or "[" (see fe_name_fits_tokens) and a type no "_",
# so the last "_" before the type separates the two.
_FE_TOKEN_RE = re.compile(
    r"^(?P<opt>Opt_)?(?P<fe>[^.\[]+)_(?P<ty>[^_]+?)"
    r"(?:\.(?P<syn>Subj|Obj))?(?:\[(?P<prep>[^\]]*)\])?$"
)


def _decode_fe_token(token: str, reading: str) -> tuple[FeKey, str | None]:
    """The one FE-token decoder; returns the key and the preposition.

    A ``key`` reading takes any type and folds a matched ``[prep]`` (with any
    syntactic function before it) back into the type, so the native type
    ``PP[to]`` stays a type. A ``pattern`` reading requires an interlingual
    type and returns the preposition; a ``category`` reading also requires no
    syntactic function and no preposition.
    """
    m = _FE_TOKEN_RE.match(token)
    reason = ""
    if m is not None:
        opt, fe, ty, syn, prep = m.group("opt", "fe", "ty", "syn", "prep")
        if reading == "key":
            if prep is not None:
                ty, syn, prep = token[m.start("ty"):], None, None
            return (fe, ty, syn or "", bool(opt)), prep
        if ty not in _RGL_TYPES:
            reason = f": type {ty!r} is corpus-native, and a {reading} needs interlingual types"
        elif reading == "pattern" or not syn and prep is None:
            return (fe, ty, syn or "", bool(opt)), prep
    raise ValueError(f"cannot parse FE token {token!r} as a {reading}{reason}")


def parse_fe_key(token: str) -> FeKey:
    """Inverse of :func:`fe_key_token`, for interlingual and corpus-native
    types alike (valence and shared-set keys)."""
    return _decode_fe_token(token, "key")[0]


def parse_fe_token(token: str) -> FeRealization:
    """A sentence-pattern token at interlingual types, with its ``[prep]``."""
    (fe, ty, syn, noncore), prep = _decode_fe_token(token, "pattern")
    return FeRealization(
        fe, "", RglType(ty), SynFunction(syn) if syn else SynFunction.NONE, prep,
        coreness=Coreness.NONCORE if noncore else Coreness.CORE,
    )


def parse_fe_category(token: str) -> FeKey:
    """Key of a grammar category name such as ``Opt_Degree_Adv``: an
    interlingual type, no syntactic function and no preposition."""
    return _decode_fe_token(token, "category")[0]


# Members reached through their class cost a lookup on each use; these are
# read once per realization built.
_SYN_NONE = SynFunction.NONE
_SUBJ = SynFunction.SUBJ
_NONCORE = Coreness.NONCORE


@dataclass(frozen=True, slots=True)
class FeRealization:
    """One expressed FE of a sentence pattern.

    ``native_type`` keeps the corpus-specific tag combination (e.g. ``NP.Ext``
    or ``VB.INF.VG``) so that baseline statistics can be computed without
    generalization; ``rgl_type`` is None when the annotation falls outside the
    considered inventory, with ``skip_reason`` saying why.
    """

    fe_name: str
    native_type: str
    rgl_type: RglType | None
    syn_function: SynFunction = SynFunction.NONE
    preposition: str | None = None
    coreness: Coreness = Coreness.CORE
    skip_reason: SkipReason | None = None
    # Derived in __post_init__, so ``dataclasses.replace`` derives them anew, and left
    # out of identity; the interlingual ones are None for an untyped FE.
    native_key: FeKey = field(init=False, repr=False, compare=False)
    _native_token: str = field(init=False, repr=False, compare=False)
    _rgl_key: FeKey | None = field(init=False, repr=False, compare=False)
    _rgl_token: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fe, native = self.fe_name, self.native_type
        syn = self.syn_function.value if self.syn_function is not _SYN_NONE else ""
        noncore = self.coreness is _NONCORE
        object.__setattr__(self, "native_key", (fe, native, syn, noncore))
        # The native token leaves out the syntactic function: the native type
        # already names the grammatical function.
        object.__setattr__(self, "_native_token", fe_key_token((fe, native, "", noncore)))
        rgl_key = rgl_token = None
        if self.rgl_type is not None:
            rgl_key = (fe, self.rgl_type.value, syn, noncore)
            rgl_token = fe_key_token(rgl_key)
            if self.preposition:
                rgl_token = f"{rgl_token}[{self.preposition}]"
        object.__setattr__(self, "_rgl_key", rgl_key)
        object.__setattr__(self, "_rgl_token", rgl_token)

    @property
    def rgl_key(self) -> FeKey:
        if self._rgl_key is None:
            raise ValueError(f"FE {self.fe_name!r} has no interlingual type")
        return self._rgl_key

    def rgl_token(self) -> str:
        if self._rgl_token is None:
            raise ValueError(f"FE {self.fe_name!r} has no interlingual type")
        return self._rgl_token

    def native_token(self) -> str:
        return self._native_token


@dataclass(frozen=True, slots=True)
class SentencePattern:
    frame: str
    voice: Voice
    realizations: tuple[FeRealization, ...]
    lu_ref: str
    sentence_id: str

    def unconsidered_skip(self) -> Skip | None:
        """The skip of an example with an FE outside the interlingual
        inventory, None for a fully mappable one; the first such FE decides
        the reason."""
        for r in self.realizations:
            if r.rgl_type is None:
                reason = r.skip_reason or SkipReason.UNCONSIDERED_PHRASE_TYPE
                return Skip(self.sentence_id, reason, f"{r.fe_name}:{r.native_type}")
        return None

    @property
    def rgl_fes(self) -> str:
        """FE tokens in word order, interlingual types."""
        return " ".join([r.rgl_token() for r in self.realizations])

    @property
    def native_fes(self) -> str:
        """FE tokens in word order, corpus-native types."""
        return " ".join([r.native_token() for r in self.realizations])

    @property
    def rgl_fe_set(self) -> tuple[FeKey, ...]:
        """Sorted, deduplicated FE keys at interlingual granularity."""
        return tuple(sorted({r.rgl_key for r in self.realizations}))

    @property
    def native_fe_set(self) -> tuple[FeKey, ...]:
        return tuple(sorted({r.native_key for r in self.realizations}))


# ---------------------------------------------------------------------------
# Voice rules
# ---------------------------------------------------------------------------

# The corpora do not annotate voice directly, so detection is heuristic and
# deliberately configurable: users can tighten the tables per corpus.
DEFAULT_VOICE_RULES: dict = {
    "bfn": {
        # Target POS tags that can head a passive (past participle family).
        "passive_target_tags": ["VVN", "VBN", "VDN", "VHN"],
        # Auxiliary word forms looked up in the tokens preceding the target.
        "aux_forms": [
            "be", "am", "is", "are", "was", "were", "been", "being",
            "get", "gets", "got", "gotten", "getting",
        ],
        "aux_window": 3,
        # An external argument realized as this preposition's PP also signals
        # a passive (agentive by-phrase).
        "agent_preposition": "by",
        # Token POS tags counted as prepositions when recovering the
        # preposition of a PP-typed FE from the text.
        "preposition_pos": ["PRP", "PRF"],
    },
    "swefn": {
        # Morphological s-passive markers on the target itself.
        "passive_msd_markers": ["SFO"],
        # Periphrastic passives: an auxiliary verb-group link to a participle.
        "vg_aux_forms": ["bli", "blir", "blev", "blivit", "vara", "är", "var", "varit"],
        "vg_participle_markers": ["PC"],
    },
}


def load_voice_rules(path: Path | None) -> dict:
    """Merge a user rule file over the defaults (per dialect, per key). A file
    that is not JSON, or not an object of objects, or that gives a key of the
    defaults a value of another JSON type than its default's (an array of
    strings, an integer or a string), is a ``ValueError`` that starts
    ``<path>:`` and names the bad key."""
    import json

    rules = {k: dict(v) for k, v in DEFAULT_VOICE_RULES.items()}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
            _values(user, ())  # an object
            tables = _values(user, tuple((dialect, (dict,), _REQUIRED) for dialect in user))
            for dialect, table in zip(user, tables):
                defaults = DEFAULT_VOICE_RULES.get(dialect, {})
                for key, value in table.items():
                    default, where = defaults.get(key), f"{dialect}.{key}"
                    if type(default) is list:
                        _strings(value, where)
                    elif default is not None and type(value) is not type(default):
                        expected = _JSON_TYPES[type(default)]
                        raise _FieldError(where, f"expected {expected}, got {_json_type(value)}")
        except _FieldError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
        for dialect, table in zip(user, tables):
            rules.setdefault(dialect, {}).update(table)
    return rules


class _SkipSentence(Exception):
    def __init__(self, reason: SkipReason, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(detail)


def _bfn_voice(s: AnnotatedSentence, rules: dict) -> Voice:
    table = rules["bfn"]
    targets = s.target_tokens()
    if not targets:
        raise _SkipSentence(SkipReason.NO_GRAMMATICAL_ANNOTATION, "target has no POS token")
    if targets[0].pos not in table["passive_target_tags"]:
        return Voice.ACT
    preceding = [
        t for t in s.tokens
        if t.span is not None and t.span.end < s.target.start
    ]
    window = preceding[max(0, len(preceding) - int(table["aux_window"])):]
    if any(t.surface.lower() in table["aux_forms"] for t in window):
        return Voice.PASS
    agent_prep = table["agent_preposition"]
    for fe in s.fe_spans:
        if fe.gram_function == "Ext" and fe.phrase_type:
            base, prep = _split_pt(fe.phrase_type)
            if base == "PP" and (prep or _bfn_prep(fe, s, rules)) == agent_prep:
                return Voice.PASS
    return Voice.ACT


def _vg_chain(s: AnnotatedSentence) -> list[WordAnno]:
    """Tokens linked to the target through verb-group dependency edges."""
    refs = {t.ref for t in s.target_tokens()}
    chain = list(s.target_tokens())
    changed = True
    while changed:
        changed = False
        for w in s.tokens:
            if w.ref in refs:
                continue
            links_down = w.deprel == "VG" and w.dephead in refs
            links_up = any(c.deprel == "VG" and c.dephead == w.ref for c in chain)
            if links_down or links_up:
                refs.add(w.ref)
                chain.append(w)
                changed = True
    return chain


def _swefn_voice(s: AnnotatedSentence, rules: dict) -> Voice:
    table = rules["swefn"]
    targets = s.target_tokens()
    if not targets or not any(t.msd or t.pos for t in targets):
        raise _SkipSentence(SkipReason.NO_GRAMMATICAL_ANNOTATION, "target has no MSD annotation")
    msd = targets[0].msd or ""
    if any(marker in msd.split(".") for marker in table["passive_msd_markers"]):
        return Voice.PASS
    chain = _vg_chain(s)
    has_aux = any(w.surface.lower() in table["vg_aux_forms"] for w in chain)
    has_participle = any(
        any(marker in (w.msd or "").split(".") for marker in table["vg_participle_markers"])
        for w in chain
    )
    if has_aux and has_participle:
        return Voice.PASS
    return Voice.ACT


def detect_voice(s: AnnotatedSentence, rules: dict | None = None) -> Voice:
    """Semi-heuristic voice detection driven by the configurable rule table."""
    rules = rules or DEFAULT_VOICE_RULES
    if s.dialect is Dialect.BFN_PHRASE:
        return _bfn_voice(s, rules)
    return _swefn_voice(s, rules)


# ---------------------------------------------------------------------------
# BFN generalization
# ---------------------------------------------------------------------------

_PT_RE = re.compile(r"^(?P<base>[^\[\]]+)(?:\[(?P<prep>[^\]]*)\])?$")


def _split_pt(pt: str) -> tuple[str, str | None]:
    m = _PT_RE.match(pt)
    if m is None:
        return pt, None
    return m.group("base"), m.group("prep")


def generalize_bfn_fe(pt: str, gf: str) -> Generalized | SkipReason:
    """Map a BFN phrase type / grammatical function pair onto NP, Adv or VP.

    Rules, applied in order: a PP functioning as object is an NP; PPs,
    adverbial and adjectival phrases are adverbial modifiers; an NP that is
    neither external argument nor object is also a modifier; a to-infinitive
    VP is a VP (always treated as object-like). Anything else (finite, bare,
    participial or gerundive VPs, wh- or gerund-governing PPs, clause types)
    is out of inventory.
    """
    base, prep = _split_pt(pt)
    if base == "PP" and gf == "Obj":
        return Generalized(RglType.NP, SynFunction.OBJ)
    if base in ("PP", "AVP", "AJP"):
        return Generalized(RglType.ADV, preposition=prep if base == "PP" else None)
    if base == "NP":
        if gf == "Ext":
            return Generalized(RglType.NP, SynFunction.SUBJ)
        if gf == "Obj":
            return Generalized(RglType.NP, SynFunction.OBJ)
        return Generalized(RglType.ADV)
    if base == "VPto":
        return Generalized(RglType.VP)
    return SkipReason.UNCONSIDERED_PHRASE_TYPE


def _bfn_prep(fe: FeSpan, s: AnnotatedSentence, rules: dict) -> str | None:
    """Preposition of a PP-typed FE: first span token with prepositional POS."""
    if fe.span is None:
        return None
    prep_tags = set(rules["bfn"]["preposition_pos"])
    for t in s.tokens:
        if t.span is None:
            continue
        if t.span.start >= fe.span.start and t.span.end <= fe.span.end:
            if t.pos in prep_tags:
                return t.surface.lower()
            break
    first_word = s.text[fe.span.start:fe.span.end + 1].split()
    return first_word[0].lower() if first_word else None


# Native tags and mapping of each phrase type and grammatical function pair.
@_register
@functools.cache
def _bfn_tags(pt: str, gf: str) -> tuple[str, Generalized | SkipReason]:
    return (f"{pt}.{gf}" if gf else pt), generalize_bfn_fe(pt, gf)


def _bfn_types(
    fe: FeSpan, s: AnnotatedSentence, rules: dict
) -> tuple[str, Generalized | SkipReason]:
    """Native tag combination of a BFN FE and its interlingual mapping."""
    pt = fe.phrase_type or ""
    if pt == "PP":
        # A bare PP takes its preposition from the sentence's tokens.
        prep = _bfn_prep(fe, s, rules)
        if prep:
            pt = f"PP[{prep}]"
    return _bfn_tags(pt, fe.gram_function or "")


# ---------------------------------------------------------------------------
# SweFN generalization
# ---------------------------------------------------------------------------

_NOMINAL_POS = {"NN", "PN", "PM"}
_CONJ_POS = {"KN"}
_ADJ_PARTICIPLE_POS = {"JJ", "PC"}
_SUBJUNCTION_POS = {"SN"}


def _head_word(words: Sequence[WordAnno]) -> WordAnno:
    """Constituent head: the word whose dependency head lies outside the FE."""
    refs = {w.ref for w in words}
    for w in words:
        if w.dephead is None or w.dephead not in refs:
            return w
    return words[0]


def _first_constituent(words: Sequence[WordAnno]) -> WordAnno | None:
    """The word whose annotations type a SweFN FE: leading coordinating
    conjunctions are stepped over, and a leading adjective or participle
    gives way to the constituent head. None if no word remains."""
    word = next((w for w in words if w.pos not in _CONJ_POS), None)
    if word is not None and word.pos in _ADJ_PARTICIPLE_POS:
        return _head_word(words)
    return word


def generalize_swefn_fe(words: Sequence[WordAnno]) -> Generalized | SkipReason:
    """Map a SweFN FE onto NP, Adv or VP from its first constituent.

    A leading coordinating conjunction is stepped over; for a leading
    adjective or participle the constituent head's annotations are used
    instead. Subclause realizations (subjunction-led, or headed by a verb
    outside an infinitive verb group) are skipped, mirroring how clause-typed
    phrase types are skipped on the phrase-structure side.
    """
    word = _first_constituent(words)
    if word is None:
        return SkipReason.UNCONSIDERED_PHRASE_TYPE

    pos = word.pos
    deprel = word.deprel
    msd_parts = (word.msd or "").split(".")

    if pos in _SUBJUNCTION_POS:
        return SkipReason.SUBCLAUSE
    if pos in _NOMINAL_POS:
        if deprel == "SS":
            return Generalized(RglType.NP, SynFunction.SUBJ)
        if deprel in ("OO", "IO"):
            return Generalized(RglType.NP, SynFunction.OBJ)
        return Generalized(RglType.ADV)
    if pos == "PP":
        return Generalized(RglType.ADV, preposition=word.surface.lower())
    if pos == "AB":
        return Generalized(RglType.ADV)
    if pos == "VB":
        if "INF" in msd_parts and deprel == "VG":
            return Generalized(RglType.VP)
        return SkipReason.SUBCLAUSE
    return SkipReason.UNCONSIDERED_PHRASE_TYPE


def _swefn_types(fe: FeSpan, s: AnnotatedSentence) -> tuple[str, Generalized | SkipReason]:
    """Native tag combination of a SweFN FE and its interlingual mapping."""
    words = fe.words or ()
    # An FE of conjunctions only keeps the tags of its first word.
    effective = _first_constituent(words) or (words[0] if words else None)
    if effective is None:
        native = ""
    else:
        native = f"{effective.msd or effective.pos}.{effective.deprel}"

    mapped = generalize_swefn_fe(words)
    if mapped is SkipReason.UNCONSIDERED_PHRASE_TYPE:
        logger.debug(
            "unmappable SweFN tags %r for FE %r in sentence %s",
            native, fe.fe_name, s.sentence_id,
        )
    return native, mapped


# ---------------------------------------------------------------------------
# Sentence pattern extraction
# ---------------------------------------------------------------------------

# One shared realization per distinct annotation: records are frozen, and
# thousands of examples repeat a few hundred FE annotations.
@_register
@functools.cache
def _realization(
    fe_name: str, native: str, mapped: Generalized | SkipReason, coreness: Coreness
) -> FeRealization:
    if isinstance(mapped, SkipReason):
        return FeRealization(fe_name, native, rgl_type=None, coreness=coreness, skip_reason=mapped)
    return FeRealization(
        fe_name, native, mapped.rgl_type, mapped.syn_function, mapped.preposition,
        coreness=coreness,
    )


def _demote_extra_subjects(reals: list[FeRealization], sentence_id: str) -> None:
    # Annotation noise can yield several external arguments; the leftmost is
    # kept as subject, the rest become modifiers, shared like any other
    # realization.
    seen = False
    for i, r in enumerate(reals):
        if r.syn_function is _SUBJ:
            if seen:
                logger.warning(
                    "sentence %s: extra subject %r demoted to Adv", sentence_id, r.fe_name
                )
                reals[i] = _realization(
                    r.fe_name, r.native_type, Generalized(RglType.ADV), r.coreness
                )
            seen = True


# A realizations tuple by the ids of its realizations.
_Tuples = dict[tuple[int, ...], tuple[FeRealization, ...]]


def _normalize_sentence(
    s: AnnotatedSentence, index: FrameIndex, rules: dict, tuples: _Tuples
) -> SentencePattern | Skip:
    """The sentence pattern, keeping FEs that fall outside the interlingual
    inventory as untyped realizations (their native tags remain available for
    baseline statistics). Its realizations tuple comes from ``tuples`` when an
    equal sequence is already there."""
    if s.frame not in index:
        return Skip(s.sentence_id, SkipReason.UNKNOWN_FRAME, s.frame)
    try:
        voice = detect_voice(s, rules)
    except _SkipSentence as exc:
        return Skip(s.sentence_id, exc.reason, exc.detail)

    reals: list[FeRealization] = []
    for fe in s.fe_spans:
        if fe.null_instantiated:
            continue
        core = index.coreness(s.frame, fe.fe_name)
        if s.dialect is Dialect.BFN_PHRASE:
            native, mapped = _bfn_types(fe, s, rules)
        else:
            native, mapped = _swefn_types(fe, s)
        reals.append(_realization(fe.fe_name, native, mapped, core))
    _demote_extra_subjects(reals, s.sentence_id)
    ids = tuple(map(id, reals))
    shared = tuples.get(ids)
    if shared is None:
        shared = tuples[ids] = tuple(reals)

    return SentencePattern(
        frame=s.frame,
        voice=voice,
        realizations=shared,
        lu_ref=s.lu_ref,
        sentence_id=s.sentence_id,
    )


def promote_unconsidered_skips(
    patterns: Iterable[SentencePattern], skips: Iterable[Skip] = ()
) -> tuple[list[SentencePattern], list[Skip]]:
    """The fully mappable patterns, and ``skips`` with the skips of the
    examples that hold an FE outside the interlingual inventory merged in,
    sorted by sentence id."""
    kept: list[SentencePattern] = []
    merged = list(skips)
    for p in patterns:
        skip = p.unconsidered_skip()
        if skip is None:
            kept.append(p)
        else:
            merged.append(skip)
    return kept, sorted(merged, key=lambda sk: sk.sentence_id)


def normalize_corpus(
    sentences: Iterable[AnnotatedSentence],
    index: FrameIndex,
    rules: dict | None = None,
    *,
    skip_unconsidered: bool = True,
) -> tuple[list[SentencePattern], list[Skip]]:
    """Normalize a corpus, splitting results into patterns and skips.

    Patterns with equal realizations share one tuple, so later stages can
    key an example's realizations by the tuple's identity. Realizations are
    one object per distinct annotation (see ``_realization``), so the ids of
    a sequence's realizations key its tuple; the table holds each tuple, so
    no id is reused while the call runs.
    """
    rules = rules or DEFAULT_VOICE_RULES
    tuples: _Tuples = {}
    patterns: list[SentencePattern] = []
    skips: list[Skip] = []
    for s in sentences:
        result = _normalize_sentence(s, index, rules, tuples)
        if isinstance(result, Skip):
            skips.append(result)
        else:
            patterns.append(result)
    if skip_unconsidered:
        return promote_unconsidered_skips(patterns, skips)
    return patterns, skips


# ---------------------------------------------------------------------------
# Pattern TSV
# ---------------------------------------------------------------------------

def write_patterns_tsv(
    patterns: Iterable[SentencePattern], path: Path, *, native: bool = False
) -> None:
    """One line per pattern; the FE field of each realizations tuple is
    joined once per call."""
    token = FeRealization.native_token if native else FeRealization.rgl_token
    fes_field = _once_per_object(lambda reals: " ".join(map(token, reals)))
    with path.open("w", encoding="utf-8") as f:
        for p in patterns:
            fes = fes_field(p.realizations)
            # ``_value_`` skips the ``value`` property's descriptor call.
            f.write(f"{p.frame}\t{p.voice._value_}\t{fes}\t{p.lu_ref}\t{p.sentence_id}\n")


def read_tsv_rows(
    path: Path,
    columns: dict[str, Callable[[str], object] | None],
    check: Callable[[list], None] | None = None,
) -> Iterator[list]:
    """Fields of each line of a TSV artifact, one per column of ``columns``,
    each decoded by its column's decoder (None keeps the text). Blank and
    ``#`` lines are skipped. A line with another field count is a ValueError
    that starts ``<path>:<line>:``, and a decoder's ValueError is re-raised as
    ``<path>:<line>: <column>: <reason>``. ``check``, when given, sees each
    decoded line, and its ValueError is re-raised as ``<path>:<line>: <reason>``."""
    n_fields = len(columns)
    decoders = [(i, name, decode) for i, (name, decode) in enumerate(columns.items()) if decode]
    with path.open("r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise ValueError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
            for i, name, decode in decoders:
                try:
                    parts[i] = decode(parts[i])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {name}: {exc}") from None
            if check is not None:
                try:
                    check(parts)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield parts


def _decode_count(text: str) -> int:
    """A count column as the writers write it: ASCII digits only. ``int``
    alone would also read ``1_0``, ``+3``, ``-3`` and padded forms."""
    count = int(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return count


def read_patterns_tsv(path: Path) -> list[SentencePattern]:
    """The patterns of a sentence patterns TSV. Each distinct voice, FE token
    and FE field is decoded once per call, so equal tokens within the file are
    one frozen realization, and equal fields one tuple; two calls share
    none."""
    realization = functools.cache(parse_fe_token)

    @functools.cache
    def realizations(fes_field: str) -> tuple[FeRealization, ...]:
        return tuple(map(realization, fes_field.split()))

    columns = {
        "frame": None, "voice": functools.cache(Voice), "fes": realizations,
        "lu_ref": None, "sentence_id": None,
    }
    return [
        SentencePattern(
            frame=frame, voice=voice, realizations=reals, lu_ref=lu_ref, sentence_id=sentence_id,
        )
        for frame, voice, reals, lu_ref, sentence_id in read_tsv_rows(path, columns)
    ]


def write_skips_tsv(skips: Iterable[Skip], path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        for sk in skips:
            f.write(f"{sk.sentence_id}\t{sk.reason.value}\t{sk.detail}\n")
