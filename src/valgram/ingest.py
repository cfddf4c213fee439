"""Parsers for the two corpus XML dialects.

Both dialects are reduced to the same in-memory sentence form so that the
downstream pipeline never needs to know which framenet an example came from.
The BFN dialect annotates phrase types and grammatical functions over
character spans; the SweFN dialect annotates part of speech, morphology and
dependency relations at the word level.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import operator
import os
import re
import sys
import xml.etree.ElementTree as ET
import xml.parsers.expat
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from ._base import _NULL, _REQUIRED, _FieldError, _once_per_object, _values

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

# Layers whose labels are treated as the token/POS layer of a BFN sentence.
BFN_POS_LAYERS = {"BNC", "PENN"}


class CorpusParseError(ValueError):
    """The document as a whole cannot be parsed (malformed XML etc.)."""


class Dialect(str, Enum):
    BFN_PHRASE = "bfn"
    SWEFN_DEP = "swefn"


def _pickled_as_a_call(cls: type[_T]) -> type[_T]:
    """``cls``, whose records pickle as a call of it on their fields. That
    loads in about half the time of the dataclass default, a state set field
    by field; a side parsed in two processes pickles half of its records."""
    fields = operator.attrgetter(*cls.__slots__)
    cls.__reduce__ = lambda self: (cls, fields(self))
    return cls


@_pickled_as_a_call
@dataclass(frozen=True, slots=True)
class TokenSpan:
    """Inclusive character offsets into the sentence text."""

    start: int
    end: int


@_pickled_as_a_call
@dataclass(frozen=True, slots=True)
class WordAnno:
    """One annotated token.

    For BFN tokens only ``surface``, ``pos`` and ``span`` are meaningful;
    SweFN tokens additionally carry msd, dependency head and relation.
    """

    surface: str
    pos: str
    ref: int
    msd: str | None = None
    dephead: int | None = None
    deprel: str = ""
    span: TokenSpan | None = None


@_pickled_as_a_call
@dataclass(frozen=True, slots=True)
class FeSpan:
    """One frame element annotation within a sentence."""

    fe_name: str
    span: TokenSpan | None = None
    phrase_type: str | None = None
    gram_function: str | None = None
    words: tuple[WordAnno, ...] | None = None
    null_instantiated: bool = False


@_pickled_as_a_call
@dataclass(frozen=True, slots=True)
class AnnotatedSentence:
    """Framenet-neutral form of one annotated corpus example."""

    sentence_id: str
    text: str
    frame: str
    target: TokenSpan
    lu_ref: str
    fe_spans: tuple[FeSpan, ...]
    dialect: Dialect
    tokens: tuple[WordAnno, ...] = ()

    def target_tokens(self) -> tuple[WordAnno, ...]:
        """Tokens whose span overlaps the target span."""
        return tuple(
            t for t in self.tokens
            if t.span is not None
            and t.span.start <= self.target.end
            and t.span.end >= self.target.start
        )


# Line ends as expat counts them.
_LINE_END = re.compile(rb"\r\n?|\n")


def _byte_offset(data: bytes, line: int, column: int) -> int:
    """Byte offset of expat's (line, column): the column counts characters,
    so it is converted to bytes over the text of its line."""
    start = 0
    for m in itertools.islice(_LINE_END.finditer(data), line - 1):
        start = m.end()
    end = _LINE_END.search(data, start)
    text = data[start:end.start() if end else None]
    chars = text.decode("utf-8", "surrogateescape")[:column]
    return start + len(chars.encode("utf-8", "surrogateescape"))


def _sentence_elements(chunks: Iterable[bytes]) -> Iterator[ET.Element]:
    """Each ``<sentence>`` element of the document whose bytes are
    ``chunks``, in the order the elements end, emptied once the caller asks
    for the next one. So memory is bounded by one sentence and one chunk
    plus the records the caller keeps, not by the document size. Malformed
    XML is an ``ET.ParseError``."""
    parser = ET.XMLPullParser(("end",))
    for chunk in itertools.chain(chunks, [None]):
        if chunk is None:
            # Expat 2.6 and later may hold back a token longer than the
            # input fed so far until the end: its events come after close().
            parser.close()
        else:
            parser.feed(chunk)
        for _, elem in parser.read_events():
            if elem.tag == "sentence":
                yield elem
                elem.clear()


class _RecordError(ValueError):
    """Sentence-level problem: the record is skipped and logged."""


# The builders of the shared records. Call sites name the fields they set,
# and the others take the dataclass defaults. Each record is built on the
# first request and looked up in ``table`` after it, so equal records are
# one object; ``table`` lives for one read, never longer. A nested span or
# word is keyed by its id, not hashed again: the record stored under the
# key holds it, so the id is not reused while the table lives.
def _span(table: dict, start: int, end: int) -> TokenSpan:
    key = (TokenSpan, start, end)
    record = table.get(key)
    if record is None:
        record = table[key] = TokenSpan(start, end)
    return record


def _word(
    table: dict, surface: str, pos: str, ref: int, msd: str | None = None,
    dephead: int | None = None, deprel: str = "", span: TokenSpan | None = None,
) -> WordAnno:
    key = (WordAnno, surface, pos, ref, msd, dephead, deprel, id(span))
    record = table.get(key)
    if record is None:
        record = table[key] = WordAnno(surface, pos, ref, msd, dephead, deprel, span)
    return record


def _fe(
    table: dict, fe_name: str, span: TokenSpan | None = None, phrase_type: str | None = None,
    gram_function: str | None = None, words: tuple[WordAnno, ...] | None = None,
    null_instantiated: bool = False,
) -> FeSpan:
    key = (
        FeSpan, fe_name, id(span), phrase_type, gram_function,
        words if words is None else tuple(map(id, words)), null_instantiated,
    )
    record = table.get(key)
    if record is None:
        record = table[key] = FeSpan(
            fe_name, span, phrase_type, gram_function, words, null_instantiated
        )
    return record


def _int(value: str, sid: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _RecordError(f"sentence {sid!r}: {what} {value!r} is not an integer") from None


# ---------------------------------------------------------------------------
# BFN dialect
# ---------------------------------------------------------------------------

def _bfn_labels(layer: ET.Element, sid: str) -> list[tuple[str, int | None, int | None]]:
    """(name, start, end) of each label; both offsets are None when the
    label carries none, as for a null-instantiated FE."""
    labels: list[tuple[str, int | None, int | None]] = []
    for label in layer.findall("label"):
        # Names (tags, FEs, types) repeat across a corpus: interned, each is held once.
        name = sys.intern(label.get("name", ""))
        start = label.get("start")
        end = label.get("end")
        if start is None or end is None:
            labels.append((name, None, None))
            continue
        try:
            labels.append((name, int(start), int(end)))
        except ValueError:
            # Converted again one at a time, to name the offset that failed.
            _int(start, sid, "label start")
            _int(end, sid, "label end")
            raise
    return labels


def _parse_bfn_sentence(sent: ET.Element, table: dict) -> list[AnnotatedSentence]:
    sid = sent.get("ID") or sent.get("id") or ""
    text_el = sent.find("text")
    if text_el is None or text_el.text is None:
        raise _RecordError(f"sentence {sid!r} has no text element")
    text = text_el.text

    # One walk over the annotation sets: POS labels become tokens, and each
    # set keeps its last layer of each name for the target pass below.
    tokens: list[WordAnno] = []
    annotation_sets: list[tuple[ET.Element, dict[str | None, ET.Element]]] = []
    for aset in sent.findall("annotationSet"):
        layers: dict[str | None, ET.Element] = {}
        for layer in aset.findall("layer"):
            name = layer.get("name")
            layers[name] = layer
            if name in BFN_POS_LAYERS:
                for pos, start, end in _bfn_labels(layer, sid):
                    if start is not None:
                        tokens.append(_word(
                            table, text[start:end + 1], pos, len(tokens) + 1,
                            span=_span(table, start, end),
                        ))
        if "Target" in layers:
            annotation_sets.append((aset, layers))
    tokens.sort(key=lambda t: t.span.start)  # type: ignore[union-attr]
    token_tuple = tuple(tokens)

    out: list[AnnotatedSentence] = []
    for aset, layers in annotation_sets:
        target_labels = _bfn_labels(layers["Target"], sid)
        if not target_labels:
            continue
        frame = sys.intern(aset.get("frameName") or "")
        if not frame:
            raise _RecordError(f"sentence {sid!r}: target annotation set lacks a frame name")

        target_offsets = [(start, end) for _, start, end in target_labels if start is not None]
        if not target_offsets:
            raise _RecordError(f"sentence {sid!r}: target labels carry no offsets")
        target = _span(
            table, min(o[0] for o in target_offsets), max(o[1] for o in target_offsets)
        )

        lu_name = aset.get("luName")
        lu_id = aset.get("luID")
        if lu_name and lu_id:
            lu_ref = f"{lu_name}.{lu_id}"
        elif lu_name:
            lu_ref = lu_name
        else:
            lu_ref = f"{text[target.start:target.end + 1].lower()}.{frame}"

        def by_offsets(name: str) -> dict[tuple[int, int], str]:
            layer = layers.get(name)
            if layer is None:
                return {}
            return {
                (start, end): label
                for label, start, end in _bfn_labels(layer, sid)
                if start is not None
            }

        gf_by_span = by_offsets("GF")
        pt_by_span = by_offsets("PT")

        fe_layer = layers.get("FE")
        fe_spans: list[FeSpan] = []
        for fe_name, start, end in _bfn_labels(fe_layer, sid) if fe_layer is not None else []:
            if start is None:
                fe_spans.append(_fe(table, fe_name, null_instantiated=True))
                continue
            if not (0 <= start <= end < len(text)):
                raise _RecordError(
                    f"sentence {sid!r}: FE {fe_name!r} offsets {start}..{end} "
                    f"overlap no text (length {len(text)})"
                )
            span = _span(table, start, end)
            pt = pt_by_span.get((start, end))
            gf = gf_by_span.get((start, end))
            if pt is None:
                # No phrase type at these offsets: the FE is annotated but not
                # grammatically realized, which is how omitted FEs surface here.
                fe_spans.append(_fe(table, fe_name, span, null_instantiated=True))
            else:
                fe_spans.append(_fe(table, fe_name, span, pt, gf or ""))
        fe_spans.sort(key=lambda f: (f.span.start, f.span.end) if f.span else (-1, -1))

        out.append(AnnotatedSentence(
            sentence_id=sid,
            text=text,
            frame=frame,
            target=target,
            lu_ref=lu_ref,
            fe_spans=tuple(fe_spans),
            dialect=Dialect.BFN_PHRASE,
            tokens=token_tuple,
        ))
    return out


# ---------------------------------------------------------------------------
# SweFN dialect
# ---------------------------------------------------------------------------

def _swefn_word(
    el: ET.Element, sid: str, ref_fallback: int, offset: int, table: dict
) -> WordAnno:
    surface = (el.text or "").strip()
    ref_attr = el.get("ref")
    ref = ref_fallback if ref_attr is None else _int(ref_attr, sid, "word ref")
    if not surface:
        raise _RecordError(f"sentence {sid!r}: word {ref} has an empty surface")
    msd = el.get("msd")
    pos = sys.intern(el.get("pos") or (msd.split(".")[0] if msd else ""))
    dephead_attr = el.get("dephead")
    dephead = _int(dephead_attr, sid, "word dephead") if dephead_attr else None
    return _word(
        table, surface, pos, ref, msd and sys.intern(msd), dephead,
        sys.intern(el.get("deprel", "")), _span(table, offset, offset + len(surface) - 1),
    )


def _parse_swefn_sentence(sent: ET.Element, table: dict) -> list[AnnotatedSentence]:
    sid = sent.get("id") or sent.get("ID") or ""
    frame = sys.intern(sent.get("frame") or "")
    if not frame:
        raise _RecordError(f"sentence {sid!r} lacks a frame attribute")

    tokens: list[WordAnno] = []
    elements: list[tuple[str, list[WordAnno]]] = []
    offset = 0

    def add_word(el: ET.Element) -> WordAnno:
        nonlocal offset
        word = _swefn_word(el, sid, ref_fallback=len(tokens) + 1, offset=offset, table=table)
        offset = word.span.end + 2  # type: ignore[union-attr]
        tokens.append(word)
        return word

    for child in sent:
        if child.tag == "w":
            add_word(child)
        elif child.tag == "element":
            name = sys.intern(child.get("name", ""))
            words = [add_word(w) for w in child.findall("w")]
            elements.append((name, words))

    text = " ".join(t.surface for t in tokens)

    lu_words = [w for name, words in elements if name == "LU" for w in words]
    if not lu_words:
        raise _RecordError(f"sentence {sid!r} has no LU element")
    target = _span(
        table,
        min(w.span.start for w in lu_words),  # type: ignore[union-attr]
        max(w.span.end for w in lu_words),  # type: ignore[union-attr]
    )
    lu_ref = sent.get("lu") or f"{lu_words[0].surface.lower()}.{frame}"

    fe_spans = tuple(
        _fe(
            table, name,
            _span(table, words[0].span.start, words[-1].span.end),  # type: ignore[union-attr]
            words=tuple(words),
        )
        for name, words in elements
        if name != "LU" and words
    )

    return [AnnotatedSentence(
        sentence_id=sid,
        text=text,
        frame=frame,
        target=target,
        lu_ref=lu_ref,
        fe_spans=fe_spans,
        dialect=Dialect.SWEFN_DEP,
        tokens=tuple(tokens),
    )]


# The sentence parser of each dialect and the name its skips are logged under.
_DIALECT_PARSERS: dict[
    Dialect, tuple[Callable[[ET.Element, dict], list[AnnotatedSentence]], str]
] = {
    Dialect.BFN_PHRASE: (_parse_bfn_sentence, "BFN"),
    Dialect.SWEFN_DEP: (_parse_swefn_sentence, "SweFN"),
}


def _parse(
    elements: Iterable[ET.Element], dialect: Dialect
) -> tuple[list[AnnotatedSentence], list[str]]:
    """The records of the sentence elements of one document, and the reason
    each skipped record was skipped, both in document order. Equal spans,
    words and FE annotations are one object."""
    parse_sentence, _ = _DIALECT_PARSERS[dialect]
    out: list[AnnotatedSentence] = []
    skips: list[str] = []
    table: dict = {}
    for sent in elements:
        try:
            out.extend(parse_sentence(sent, table))
        except _RecordError as exc:
            skips.append(str(exc))
    return out, skips


def _log_skips(dialect: Dialect, skips: Iterable[str]) -> None:
    _, dialect_name = _DIALECT_PARSERS[dialect]
    for reason in skips:
        logger.warning("skipping %s record: %s", dialect_name, reason)


def parse_corpus(source: bytes | str | Path, dialect: Dialect) -> list[AnnotatedSentence]:
    """Sentence records of one document; ``bytes`` and ``str`` are the XML
    itself, a ``Path`` names the file.

    A BFN document gives one record per target-bearing annotation set, a
    SweFN document one per sentence element. A sentence with inconsistent
    annotations is skipped and logged rather than aborting the run: in BFN,
    FE offsets outside the text, a missing frame name, target labels without
    offsets or non-integer offsets; in SweFN, no frame or LU, a word with an
    empty surface, or a non-integer ``ref`` or ``dephead``. The skips are
    logged once the whole document has parsed, so a malformed one logs
    none.

    Equal spans, words and FE annotations within the document are one
    object; two calls share none. Malformed XML is a :class:`CorpusParseError`
    giving its byte offset, for which the document is read again.
    """
    if isinstance(source, str):
        source = source.encode("utf-8")
    with source.open("rb") if isinstance(source, Path) else io.BytesIO(source) as f:
        try:
            records, skips = _parse(_sentence_elements(_piece_chunks(f, 0, 0, None, b"")), dialect)
        except ET.ParseError as exc:
            line, col = exc.position
            f.seek(0)
            offset = _byte_offset(f.read(), line, col)
            raise CorpusParseError(
                f"malformed XML at byte {offset} (line {line}, column {col}): {exc}"
            ) from exc
    _log_skips(dialect, skips)
    return records


# ---------------------------------------------------------------------------
# A document in two pieces
# ---------------------------------------------------------------------------

# A piece of a corpus file: (path, head, start, stop, tail). It reads as the
# file's first ``head`` bytes, then its bytes from ``start`` to ``stop`` (to
# the end when None), then ``tail``. A whole file is (path, 0, 0, None, b"").
_Piece = tuple[Path, int, int, "int | None", bytes]

_SENTENCE_END = b"</sentence>"
# The size of each read: a larger one holds more sentences unfreed at the peak.
_CHUNK = 1 << 14


class _FirstSentence(Exception):
    """Ends the probe of a document at its first ``<sentence>``."""


def _first_sentence(f: IO[bytes]) -> tuple[str, int, int] | None:
    """(The root's name, the byte offset of the first ``<sentence>`` start
    tag, the depth of that element: 1 for a child of the root), read from
    the start of ``f``; None when the document ends or is malformed first."""
    parser = xml.parsers.expat.ParserCreate()
    open_names: list[str] = []

    def start(name: str, attrs: dict) -> None:
        if name == "sentence" and open_names:
            raise _FirstSentence(open_names[0], parser.CurrentByteIndex, len(open_names))
        open_names.append(name)

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda name: open_names.pop()
    try:
        while chunk := f.read(_CHUNK):
            parser.Parse(chunk, False)
    except _FirstSentence as found:
        return found.args
    except xml.parsers.expat.ExpatError:
        pass
    return None


def _cut_in_two(path: Path, near: int) -> tuple[_Piece, _Piece] | None:
    """``path`` cut just after the first ``</sentence>`` at or past byte
    ``near``, as two pieces that are each a document: the first ends with
    the root's end tag, the second starts with the document up to its first
    ``<sentence>`` (prolog, DOCTYPE, the root start tag with its namespaces,
    and any header). None when the first ``<sentence>`` is not a child of
    the root, or no ``</sentence>`` ends within 64 KiB of ``near``.

    A cut that still lands inside nested markup leaves a piece malformed, so
    a caller that falls back to the whole document on a parse error in
    either piece gets the document's records either way.
    """
    with path.open("rb") as f:
        found = _first_sentence(f)
        if found is None or found[2] != 1:
            return None
        root, head, _ = found
        pos = max(near, head)
        f.seek(pos)
        i = f.read(4 * _CHUNK).find(_SENTENCE_END)
    if i < 0:
        return None
    cut = pos + i + len(_SENTENCE_END)
    return (path, 0, 0, cut, f"</{root}>".encode()), (path, head, cut, None, b"")


def _piece_chunks(
    f: IO[bytes], head: int, start: int, stop: int | None, tail: bytes
) -> Iterator[bytes]:
    """The bytes of a piece of ``f`` in chunks, some of them empty."""
    yield f.read(head)
    f.seek(start)
    left = sys.maxsize if stop is None else stop - start
    while left > 0 and (chunk := f.read(min(left, _CHUNK))):
        left -= len(chunk)
        yield chunk
    yield tail


def _parse_piece(piece: _Piece, dialect: Dialect) -> tuple[list[AnnotatedSentence], list[str]]:
    """The records and skip reasons of one piece of a corpus file, as
    :func:`_parse` gives them. Malformed XML is an ``ET.ParseError``, with
    no byte offset: a caller parses the whole document again to get it."""
    path, *extent = piece
    with path.open("rb") as f:
        return _parse(_sentence_elements(_piece_chunks(f, *extent)), dialect)


# ---------------------------------------------------------------------------
# A side parsed in two processes
# ---------------------------------------------------------------------------

# Below this many bytes a side is parsed in one process: starting a second
# one and pickling its records back cost more than the half of the parse it
# takes over. On synthetic corpora, 2 vCPUs, 12 alternating rounds per size,
# two processes broke even at 2.5 MB (BFN) and 2-2.5 MB (SweFN), and won 11
# or 12 of 12 rounds from 3 MB in both dialects.
_TWO_PROCESS_MIN_BYTES = 3_000_000


def _two_processes_pay(size: int) -> bool:
    """Whether ``size`` bytes of corpus are parsed faster in two processes:
    only from the break-even size, and only with a second usable CPU."""
    if size < _TWO_PROCESS_MIN_BYTES:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _two_parts(paths: Sequence[Path]) -> tuple[list[_Piece], list[_Piece]] | None:
    """The corpus files as two parts of about equal bytes, in order.
    A part is made of whole files, except that a file straddling the middle
    that would pay to split on its own is cut at a ``</sentence>`` near it.
    None when the files are parsed in one process."""
    try:
        sizes = [path.stat().st_size for path in paths]
    except OSError:
        return None  # the parse in one process reports it
    if not paths or not _two_processes_pay(sum(sizes)):
        return None
    half = sum(sizes) // 2
    before = 0  # the bytes of the files before the one straddling ``half``
    for i, size in enumerate(sizes):
        if before + size > half:
            break
        before += size
    whole = [(path, 0, 0, None, b"") for path in paths]
    cut = _cut_in_two(paths[i], half - before) if _two_processes_pay(sizes[i]) else None
    if cut is not None:
        first, second = whole[:i] + [cut[0]], [cut[1]] + whole[i + 1:]
    else:
        # The straddling file goes to the part it leaves closer to half.
        i += half - before > sizes[i] // 2
        first, second = whole[:i], whole[i:]
    return (first, second) if first and second else None


# The second process imports the package from where this one found it, and
# of the package only the parser. It runs isolated (-I: no environment
# variables, no user site, no current directory on the path) and without
# the site module (-S), and writes no bytecode when this process writes none.
_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from valgram.ingest import _parse_pieces_main; _parse_pieces_main()"
)


def _parse_in_two_processes(
    first: list[_Piece], second: list[_Piece], dialect: Dialect
) -> list[tuple[Path, list[AnnotatedSentence], list[str]]] | None:
    """The path, records and skip reasons of each piece, in order: a child
    process parses ``second``, sent whole on its stdin before this one
    streams ``first``, and sends its results back on its stdout.

    None, once the child has ended, when the child cannot start or fails,
    or either part fails to parse: the caller then parses every file in one
    process, which raises that parse's errors, with the byte offset of
    malformed XML. The child is a fresh interpreter started with
    ``subprocess``, so that no process pool or resource tracker outlives
    the call.
    """
    import pickle
    import subprocess

    root = str(Path(__file__).resolve().parents[1])
    flags = ["-I", "-S"] + (["-B"] if sys.dont_write_bytecode else [])
    try:
        child = subprocess.Popen(
            [sys.executable, *flags, "-c", _CHILD, root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return None
    with child:
        try:
            with child.stdin:
                pickle.dump((dialect, second), child.stdin, pickle.HIGHEST_PROTOCOL)
            mine = [_parse_piece(piece, dialect) for piece in first]
            theirs = pickle.load(child.stdout)
        except BaseException as exc:
            # A parse error, a child that ended early, or an interrupt: end
            # the child now rather than wait for it to finish its part.
            child.kill()
            child.wait()
            if not isinstance(exc, Exception):
                raise
            return None
    if child.returncode:
        return None
    return [(piece[0], *parsed) for piece, parsed in zip(first + second, mine + theirs)]


def parse_corpora(
    paths: Sequence[Path], dialect: Dialect
) -> list[tuple[Path, list[AnnotatedSentence]]]:
    """Each corpus file's records, in the order of ``paths``, as
    :func:`parse_corpus` gives them; a file cut in two gives two entries.

    When it pays, the files are parsed in two processes (see
    :func:`_two_parts`); the records, the skip warnings and their order are
    those of a parse in one process, and so are the errors: on any failure
    the files are parsed again in one process.
    """
    parts = _two_parts(paths)
    parsed = None if parts is None else _parse_in_two_processes(*parts, dialect)
    if parsed is None:
        return [(path, parse_corpus(path, dialect)) for path in paths]
    for _, _, skips in parsed:
        _log_skips(dialect, skips)
    return [(path, records) for path, records, _ in parsed]


def _parse_pieces_main() -> None:
    """The second process of a corpus side parsed in two: reads ``(dialect,
    pieces)`` from stdin as one pickle, parses each piece with the cyclic
    collector off, and writes the :func:`_parse_piece` result of each piece
    to stdout as one pickle."""
    import gc
    import pickle

    gc.disable()
    dialect, pieces = pickle.load(sys.stdin.buffer)
    results = [_parse_piece(piece, dialect) for piece in pieces]
    pickle.dump(results, sys.stdout.buffer, pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# JSON-lines serialization
# ---------------------------------------------------------------------------

# The fields of each record type in declaration order, each with the JSON
# types it may hold and its value when absent (_REQUIRED: it may not be).
_SPAN_FIELDS = (("start", (int,), _REQUIRED), ("end", (int,), _REQUIRED))
_WORD_FIELDS = (
    ("surface", (str,), _REQUIRED),
    ("pos", (str,), _REQUIRED),
    ("ref", (int,), _REQUIRED),
    ("msd", (str, _NULL), None),
    ("dephead", (int, _NULL), None),
    ("deprel", (str,), ""),
    ("span", (dict, _NULL), None),
)
_FE_FIELDS = (
    ("fe_name", (str,), _REQUIRED),
    ("span", (dict, _NULL), None),
    ("phrase_type", (str, _NULL), None),
    ("gram_function", (str, _NULL), None),
    ("words", (list, _NULL), None),
    ("null_instantiated", (bool,), False),
)
_SENTENCE_FIELDS = (
    ("sentence_id", (str,), _REQUIRED),
    ("text", (str,), _REQUIRED),
    ("frame", (str,), _REQUIRED),
    ("target", (dict,), _REQUIRED),
    ("lu_ref", (str,), _REQUIRED),
    ("fe_spans", (list,), _REQUIRED),
    ("dialect", (str,), _REQUIRED),
    ("tokens", (list,), []),
)


def _decoded(field: str, decode: Callable[[object, dict], object], value: object, table: dict):
    """``decode(value, table)``, None for a null value; a field error in it
    is placed under ``field``."""
    if value is None:
        return None
    try:
        return decode(value, table)
    except _FieldError as exc:
        raise exc.within(field) from None


def _decoded_each(
    field: str, decode: Callable[[object, dict], object], values: list, table: dict
) -> tuple:
    """Each value decoded; a field error is placed under ``field[i]``."""
    out = []
    for i, value in enumerate(values):
        try:
            out.append(decode(value, table))
        except _FieldError as exc:
            raise exc.within(f"{field}[{i}]") from None
    return tuple(out)


def _span_from(d: object, table: dict) -> TokenSpan:
    return _span(table, *_values(d, _SPAN_FIELDS))


def _word_from(d: object, table: dict) -> WordAnno:
    *fields, span = _values(d, _WORD_FIELDS)
    return _word(table, *fields, _decoded("span", _span_from, span, table))


def _fe_from(d: object, table: dict) -> FeSpan:
    name, span, pt, gf, words, null_instantiated = _values(d, _FE_FIELDS)
    return _fe(
        table, name, _decoded("span", _span_from, span, table), pt, gf,
        None if words is None else _decoded_each("words", _word_from, words, table),
        null_instantiated,
    )


def _sentence_from(d: object, table: dict) -> AnnotatedSentence:
    sid, text, frame, target, lu_ref, fe_spans, dialect, tokens = _values(d, _SENTENCE_FIELDS)
    try:
        dialect = Dialect(dialect)
    except ValueError:
        known = ", ".join(repr(member.value) for member in Dialect)
        raise _FieldError("dialect", f"{dialect!r} is not one of {known}") from None
    return AnnotatedSentence(
        sid, text, frame, _decoded("target", _span_from, target, table), lu_ref,
        _decoded_each("fe_spans", _fe_from, fe_spans, table), dialect,
        _decoded_each("tokens", _word_from, tokens, table),
    )


# The JSON-lines encoders write what ``json.dumps(..., ensure_ascii=False,
# sort_keys=True)`` writes for the dict form of a record (keys sorted, ", "
# and ": " separators), without building the dict: the schema is fixed.
_str = json.encoder.encode_basestring


def _span_json(span: TokenSpan | None) -> str:
    return "null" if span is None else f'{{"end": {span.end}, "start": {span.start}}}'


def _word_json(w: WordAnno) -> str:
    dephead = "null" if w.dephead is None else str(w.dephead)
    msd = "null" if w.msd is None else _str(w.msd)
    return (
        f'{{"dephead": {dephead}, "deprel": {_str(w.deprel)}, "msd": {msd}, '
        f'"pos": {_str(w.pos)}, "ref": {w.ref}, "span": {_span_json(w.span)}, '
        f'"surface": {_str(w.surface)}}}'
    )


def _fe_json(fe: FeSpan, word_json: Callable[[WordAnno], str]) -> str:
    gf = "null" if fe.gram_function is None else _str(fe.gram_function)
    pt = "null" if fe.phrase_type is None else _str(fe.phrase_type)
    words = "null" if fe.words is None else f"[{', '.join(map(word_json, fe.words))}]"
    return (
        f'{{"fe_name": {_str(fe.fe_name)}, "gram_function": {gf}, '
        f'"null_instantiated": {"true" if fe.null_instantiated else "false"}, '
        f'"phrase_type": {pt}, "span": {_span_json(fe.span)}, "words": {words}}}'
    )


def _json_lines(sentences: Iterable[AnnotatedSentence]) -> Iterator[str]:
    """The JSON-lines text of each sentence, without its newline.

    Each word and FE object is encoded once per call, through
    :func:`_once_per_object`, even when ``sentences`` is a generator whose
    records could be freed: memory grows with the distinct sub-records
    written, which for a generator of unshared records is the whole input.
    """
    word_json = _once_per_object(_word_json)
    fe_json = _once_per_object(lambda fe: _fe_json(fe, word_json))
    for s in sentences:
        yield (
            f'{{"dialect": {_str(s.dialect.value)}, '
            f'"fe_spans": [{", ".join(map(fe_json, s.fe_spans))}], '
            f'"frame": {_str(s.frame)}, "lu_ref": {_str(s.lu_ref)}, '
            f'"sentence_id": {_str(s.sentence_id)}, "target": {_span_json(s.target)}, '
            f'"text": {_str(s.text)}, "tokens": [{", ".join(map(word_json, s.tokens))}]}}'
        )


def write_sentences_jsonl(sentences: Iterable[AnnotatedSentence], path: Path) -> None:
    with path.open("w", encoding="utf-8") as f:
        for line in _json_lines(sentences):
            f.write(line)
            f.write("\n")


def read_sentences_jsonl(path: Path) -> list[AnnotatedSentence]:
    """The records of a sentence JSON-lines file. Equal spans, words and FE
    annotations within the file are one object.

    A line that is not JSON, or a record with a missing field or a field of
    the wrong JSON type, is a ``ValueError`` that starts
    ``<path>:<line>: <field>:``.
    """
    out: list[AnnotatedSentence] = []
    table: dict = {}
    with path.open("r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                out.append(_sentence_from(json.loads(line), table))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: record: not JSON: {exc}") from None
            except _FieldError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    return out
