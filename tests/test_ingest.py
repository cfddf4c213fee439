import gc
import json
import random
import tracemalloc
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import check_corrupted_sentence, load_corpus_generator, load_script, sub_records
from valgram import ingest
from valgram.ingest import (
    AnnotatedSentence,
    CorpusParseError,
    Dialect,
    FeSpan,
    TokenSpan,
    WordAnno,
    _json_lines,
    parse_corpus,
    _sentence_from,
    read_sentences_jsonl,
    write_sentences_jsonl,
)
from valgram.pipeline import ingest_corpora


def test_bfn_round_trip_count(bfn_mini):
    sentences = parse_corpus(bfn_mini, Dialect.BFN_PHRASE)
    assert len(sentences) == 7  # one per target-bearing annotation set


def test_bfn_excerpt_sentence(bfn_mini):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-002")
    assert s.text == "Traders in the city want a change."
    assert s.frame == "Desiring"
    assert s.target == TokenSpan(20, 23)
    assert s.text[s.target.start:s.target.end + 1] == "want"
    assert s.lu_ref == "want.v.6412"
    by_name = {fe.fe_name: fe for fe in s.fe_spans}
    assert by_name["Experiencer"].phrase_type == "NP"
    assert by_name["Experiencer"].gram_function == "Ext"
    assert by_name["Event"].phrase_type == "NP"
    assert by_name["Event"].gram_function == "Obj"


def test_bfn_offset_discipline(bfn_mini):
    for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE):
        for fe in s.fe_spans:
            if fe.span is None:
                continue
            surface = s.text[fe.span.start:fe.span.end + 1]
            assert surface == surface.strip()
            assert surface


def test_bfn_inclusive_offsets(bfn_mini):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-002")
    experiencer = next(fe for fe in s.fe_spans if fe.fe_name == "Experiencer")
    assert s.text[experiencer.span.start:experiencer.span.end + 1] == "Traders in the city"


def test_empty_corpus_documents():
    assert parse_corpus(b"<corpus/>", Dialect.BFN_PHRASE) == []
    assert parse_corpus(b"<corpus/>", Dialect.SWEFN_DEP) == []


def test_a_side_that_yields_no_record_says_so(bfn_mini, tmp_path, caplog):
    # A BFN release file declares a default namespace on its root, which the
    # parsers do not read: the side yields nothing, and one warning says so.
    # A single document read by parse_corpus stays silent.
    path = tmp_path / "bfn_mini.xml"
    path.write_bytes(bfn_mini.read_bytes().replace(
        b"<corpus>", b'<corpus xmlns="http://framenet.icsi.berkeley.edu">', 1
    ))
    with caplog.at_level("WARNING"):
        assert parse_corpus(path, Dialect.BFN_PHRASE) == []
        assert caplog.records == []
        assert ingest_corpora([path], Dialect.BFN_PHRASE) == []
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        ("valgram.ingest", "WARNING", f"no BFN record in 1 file(s) ({path}): 0 skipped"),
    ]


@pytest.mark.parametrize("dialect", list(Dialect))
def test_a_split_corpus_ingests_as_the_whole(data_dir, tmp_path, dialect):
    # scripts/split_corpus.py: each document keeps the prolog, the header
    # and the root tags, and the side of documents reads as the one file.
    split_corpus = load_script("split_corpus")
    head = b'<?xml version="1.0" encoding="UTF-8"?>\n<!-- <sentence> -->\n'
    data = head + (data_dir / f"{dialect.value}_mini.xml").read_bytes().replace(
        b"<corpus>", b'<corpus xmlns:fn="urn:example:fn">\n<fn:header/>', 1
    )
    whole = tmp_path / "whole.xml"
    whole.write_bytes(data)
    documents = split_corpus.split(data, 3)
    assert len(documents) == 3 and len(split_corpus.split(data, 100)) == data.count(b"<sentence ")
    paths = []
    for k, document in enumerate(documents):
        assert document.startswith(data[:data.index(b"<sentence ")])
        assert document.endswith(b"</corpus>\n")
        paths.append(tmp_path / f"part-{k}.xml")
        paths[-1].write_bytes(document)
    one = ingest_corpora([whole], dialect, tmp_path / "one.jsonl")
    assert ingest_corpora(paths, dialect, tmp_path / "many.jsonl") == one
    assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "many.jsonl").read_bytes()


def test_bfn_fe_without_pt_gf_becomes_null_instantiated():
    # The excerpt with the Experiencer GF/PT pair deleted: that FE keeps its
    # span but is flagged unexpressed, the Event FE is untouched.
    xml = b"""<corpus><sentence ID="x1">
      <text>Traders in the city want a change.</text>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="6412">
        <layer name="FE">
          <label start="0" end="18" name="Experiencer"/>
          <label start="25" end="32" name="Event"/>
        </layer>
        <layer name="GF"><label start="25" end="32" name="Obj"/></layer>
        <layer name="PT"><label start="25" end="32" name="NP"/></layer>
        <layer name="Target"><label start="20" end="23" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    by_name = {fe.fe_name: fe for fe in s.fe_spans}
    assert by_name["Experiencer"].null_instantiated
    assert not by_name["Event"].null_instantiated
    assert by_name["Event"].phrase_type == "NP"


def test_bfn_null_instantiated_without_offsets(bfn_mini):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-005")
    experiencer = next(fe for fe in s.fe_spans if fe.fe_name == "Experiencer")
    assert experiencer.null_instantiated
    assert experiencer.span is None


def test_bfn_fe_offsets_outside_text_skips_record(caplog):
    xml = b"""<corpus><sentence ID="bad">
      <text>Short.</text>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE"><label start="0" end="999" name="Event"/></layer>
        <layer name="GF"><label start="0" end="999" name="Obj"/></layer>
        <layer name="PT"><label start="0" end="999" name="NP"/></layer>
        <layer name="Target"><label start="0" end="4" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    with caplog.at_level("WARNING"):
        assert parse_corpus(xml, Dialect.BFN_PHRASE) == []
    assert "overlap no text" in caplog.text


def test_bfn_multiple_annotation_sets_yield_multiple_examples():
    xml = b"""<corpus><sentence ID="multi">
      <text>They want and crave it.</text>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="6412">
        <layer name="FE"><label start="0" end="3" name="Experiencer"/></layer>
        <layer name="GF"><label start="0" end="3" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="3" name="NP"/></layer>
        <layer name="Target"><label start="5" end="8" name="Target"/></layer>
      </annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="crave.v" luID="6596">
        <layer name="FE"><label start="0" end="3" name="Experiencer"/></layer>
        <layer name="GF"><label start="0" end="3" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="3" name="NP"/></layer>
        <layer name="Target"><label start="14" end="18" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    sentences = parse_corpus(xml, Dialect.BFN_PHRASE)
    assert len(sentences) == 2
    assert {s.lu_ref for s in sentences} == {"want.v.6412", "crave.v.6596"}


def test_bfn_unknown_layers_ignored():
    xml = b"""<corpus><sentence ID="x">
      <text>They want it.</text>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE"><label start="0" end="3" name="Experiencer"/></layer>
        <layer name="GF"><label start="0" end="3" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="3" name="NP"/></layer>
        <layer name="Sent"><label start="0" end="12" name="Declarative"/></layer>
        <layer name="Target"><label start="5" end="8" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    assert len(s.fe_spans) == 1


def test_malformed_xml_raises_with_position():
    with pytest.raises(CorpusParseError) as excinfo:
        parse_corpus(b"<corpus><sentence>", Dialect.BFN_PHRASE)
    assert "line" in str(excinfo.value)


def test_swefn_round_trip_count(swefn_mini):
    assert len(parse_corpus(swefn_mini, Dialect.SWEFN_DEP)) == 6


def test_swefn_excerpt_sentence(swefn_mini):
    s = next(s for s in parse_corpus(swefn_mini, Dialect.SWEFN_DEP) if s.sentence_id == "swefn-001")
    assert s.frame == "Desiring"
    assert s.lu_ref == "vilja.vb.1"
    assert s.text == "Nästa gång skulle jag vilja ha sju sångare"
    target_words = s.target_tokens()
    assert [w.surface for w in target_words] == ["vilja"]
    assert target_words[0].msd == "VB.AKT"
    by_name = {fe.fe_name: fe for fe in s.fe_spans}
    assert [(w.surface, w.pos, w.deprel) for w in by_name["Experiencer"].words] == [
        ("jag", "PN", "SS")
    ]
    assert [(w.surface, w.msd or w.pos, w.deprel) for w in by_name["Event"].words] == [
        ("ha", "VB.INF", "VG"),
        ("sju", "RG", "DT"),
        ("sångare", "NN", "OO"),
    ]


def test_swefn_zero_fe_elements():
    xml = "".join([
        '<corpus><sentence id="z" frame="Motion" lu="gå.vb.1">',
        '<w pos="PN" ref="1" dephead="2" deprel="SS">Han</w>',
        '<element name="LU"><w msd="VB.PRS.AKT" ref="2" deprel="ROOT">går</w></element>',
        "</sentence></corpus>",
    ]).encode("utf-8")
    (s,) = parse_corpus(xml, Dialect.SWEFN_DEP)
    assert s.fe_spans == ()
    assert s.text == "Han går"


def test_swefn_conjunction_initial_words_preserved(swefn_mini):
    s = next(s for s in parse_corpus(swefn_mini, Dialect.SWEFN_DEP) if s.sentence_id == "swefn-003")
    experiencer = next(fe for fe in s.fe_spans if fe.fe_name == "Experiencer")
    assert [w.surface for w in experiencer.words] == ["Och", "hunden"]
    assert experiencer.words[0].pos == "KN"


def test_swefn_missing_lu_skips_sentence(caplog):
    xml = b"""<corpus><sentence id="nolu" frame="Desiring">
      <w pos="PN" ref="1" deprel="SS">jag</w>
    </sentence></corpus>"""
    with caplog.at_level("WARNING"):
        assert parse_corpus(xml, Dialect.SWEFN_DEP) == []
    assert "no LU element" in caplog.text


@pytest.mark.parametrize("dialect", list(Dialect))
def test_parsing_is_pure(data_dir, dialect):
    data = (data_dir / f"{dialect.value}_mini.xml").read_bytes()
    assert parse_corpus(data, dialect) == parse_corpus(data, dialect)


def test_jsonl_round_trip(bfn_mini, swefn_mini):
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        for s in parse_corpus(path, dialect):
            assert _sentence_from(json.loads(next(_json_lines([s]))), {}) == s


# The dict form of a record: the JSON-lines encoder must write exactly what
# json.dumps(..., ensure_ascii=False, sort_keys=True) writes for it.
def _span_dict(span: TokenSpan | None) -> dict | None:
    return None if span is None else {"start": span.start, "end": span.end}


def _word_dict(word: WordAnno) -> dict:
    return {
        "surface": word.surface,
        "pos": word.pos,
        "ref": word.ref,
        "msd": word.msd,
        "dephead": word.dephead,
        "deprel": word.deprel,
        "span": _span_dict(word.span),
    }


def sentence_to_dict(s: AnnotatedSentence) -> dict:
    return {
        "sentence_id": s.sentence_id,
        "text": s.text,
        "frame": s.frame,
        "target": _span_dict(s.target),
        "lu_ref": s.lu_ref,
        "fe_spans": [
            {
                "fe_name": fe.fe_name,
                "span": _span_dict(fe.span),
                "phrase_type": fe.phrase_type,
                "gram_function": fe.gram_function,
                "words": None if fe.words is None else [_word_dict(w) for w in fe.words],
                "null_instantiated": fe.null_instantiated,
            }
            for fe in s.fe_spans
        ],
        "dialect": s.dialect.value,
        "tokens": [_word_dict(t) for t in s.tokens],
    }


_DUMPS = {"ensure_ascii": False, "sort_keys": True}

# Characters JSON escapes or that need care: quotes, backslashes, control
# characters, the JavaScript line separators and non-ASCII text.
_AWKWARD = '"\\\x00\x01\x08\t\n\x0c\r\x1f\x7f\u2028\u2029åäöß€😀'
_TEXT = st.text(
    st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from(_AWKWARD)),
    max_size=8,
)
_INT = st.integers(-(2**70), 2**70)
_SPAN = st.builds(TokenSpan, _INT, _INT)
_WORD = st.builds(
    WordAnno, surface=_TEXT, pos=_TEXT, ref=_INT, msd=st.none() | _TEXT,
    dephead=st.none() | _INT, deprel=_TEXT, span=st.none() | _SPAN,
)
_WORDS = st.lists(_WORD, max_size=3).map(tuple)
_FE = st.builds(
    FeSpan, fe_name=_TEXT, span=st.none() | _SPAN, phrase_type=st.none() | _TEXT,
    gram_function=st.none() | _TEXT, words=st.none() | _WORDS,
    null_instantiated=st.booleans(),
)
_SENTENCE = st.builds(
    AnnotatedSentence, sentence_id=_TEXT, text=_TEXT, frame=_TEXT, target=_SPAN,
    lu_ref=_TEXT, fe_spans=st.lists(_FE, max_size=3).map(tuple),
    dialect=st.sampled_from(Dialect), tokens=_WORDS,
)
_BARE_WORD = WordAnno("x", "NN", 1)  # msd, dephead and span None
_EVERY_CASE = AnnotatedSentence(
    sentence_id='s"1\\', text=_AWKWARD, frame="Désir\u2028", target=TokenSpan(0, 3),
    lu_ref="vilja.vb.1\u2029", dialect=Dialect.SWEFN_DEP,
    fe_spans=(
        FeSpan("Ev\x00ent"),  # span, phrase_type, gram_function and words None
        FeSpan("Exp", TokenSpan(2, 5), "PP[för]", "Ext", (_BARE_WORD,), True),
        FeSpan("Empty", words=()),
    ),
    tokens=(_BARE_WORD, WordAnno("å\t", "PN", 2, "PN.UTR", 3, "SS", TokenSpan(-1, 2**64))),
)


@given(_SENTENCE)
@example(_EVERY_CASE)
@example(replace(_EVERY_CASE, dialect=Dialect.BFN_PHRASE))
def test_sentence_line_matches_json_dumps_of_the_dict_form(s):
    assert list(_json_lines([s])) == [json.dumps(sentence_to_dict(s), **_DUMPS)]


@settings(max_examples=40)  # three drawn records cost what 100 single ones do
@given(st.lists(_SENTENCE, min_size=2, max_size=3))
def test_writer_matches_json_dumps_on_a_generator_of_fresh_records(tmp_path_factory, sentences):
    # Each record is built afresh and dropped once it is written, so the
    # ids of its words and FEs are free to be reused by the next record's.
    def fresh():
        for s in sentences:
            yield _sentence_from(sentence_to_dict(s), {})

    path = tmp_path_factory.getbasetemp() / "fresh.sentences.jsonl"
    write_sentences_jsonl(fresh(), path)
    expected = [json.dumps(sentence_to_dict(s), **_DUMPS) for s in sentences]
    assert path.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in expected)


@given(_SENTENCE)
@example(_EVERY_CASE)
def test_writer_matches_json_dumps_with_equal_but_distinct_sub_records(tmp_path_factory, s):
    twin = _sentence_from(sentence_to_dict(s), {})  # equal words and FEs, other objects
    mixed = replace(s, fe_spans=s.fe_spans + twin.fe_spans, tokens=twin.tokens + s.tokens)
    sentences = [s, twin, mixed, s]
    path = tmp_path_factory.getbasetemp() / "twins.sentences.jsonl"
    write_sentences_jsonl(sentences, path)
    expected = [json.dumps(sentence_to_dict(s), **_DUMPS) for s in sentences]
    assert path.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in expected)


def _read_twice(tmp_path, dialect, via_jsonl):
    """Two reads of one generated corpus, by its parser or its JSONL reader."""
    gen = load_corpus_generator()
    frames = gen.build_frames(20, random.Random(3))
    build = gen.build_bfn_corpus if dialect is Dialect.BFN_PHRASE else gen.build_swefn_corpus
    xml = tmp_path / "corpus.xml"
    xml.write_text(build(300, frames, seed=4), encoding="utf-8")
    if not via_jsonl:
        return parse_corpus(xml, dialect), parse_corpus(xml, dialect)
    jsonl = tmp_path / "corpus.sentences.jsonl"
    write_sentences_jsonl(parse_corpus(xml, dialect), jsonl)
    return read_sentences_jsonl(jsonl), read_sentences_jsonl(jsonl)


_READS = pytest.mark.parametrize("dialect,via_jsonl", [
    (Dialect.BFN_PHRASE, False), (Dialect.SWEFN_DEP, False),
    (Dialect.BFN_PHRASE, True), (Dialect.SWEFN_DEP, True),
], ids=["bfn-parse", "swefn-parse", "bfn-jsonl", "swefn-jsonl"])


@_READS
def test_equal_sub_records_are_one_object_within_a_read(tmp_path, dialect, via_jsonl):
    sentences, _ = _read_twice(tmp_path, dialect, via_jsonl)
    first: dict = {}
    held = 0
    for record in sub_records(sentences):
        assert first.setdefault(record, record) is record
        held += 1
    kinds = {type(r) for r in first}
    assert kinds == {TokenSpan, WordAnno, FeSpan}
    for kind in kinds:  # the corpus repeats each kind, so sharing is exercised
        assert sum(type(r) is kind for r in first) < sum(
            type(r) is kind for r in sub_records(sentences)
        )
    assert len(first) < held


@_READS
def test_two_reads_share_no_sub_record(tmp_path, dialect, via_jsonl):
    first, second = _read_twice(tmp_path, dialect, via_jsonl)
    assert first == second
    assert {id(r) for r in sub_records(first)}.isdisjoint(id(r) for r in sub_records(second))


@_READS
def test_shared_sub_records_stay_frozen(tmp_path, dialect, via_jsonl):
    sentences, _ = _read_twice(tmp_path, dialect, via_jsonl)
    seen: set[int] = set()
    shared = {}
    for record in sub_records(sentences):
        if id(record) in seen:
            shared.setdefault(type(record), record)
        seen.add(id(record))
    assert set(shared) == {TokenSpan, WordAnno, FeSpan}
    for record, field in (
        (shared[TokenSpan], "start"), (shared[WordAnno], "surface"), (shared[FeSpan], "fe_name"),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("record_type,build,required,table", [
    (TokenSpan, ingest._span, (0, 1), ingest._SPAN_FIELDS),
    (WordAnno, ingest._word, ("dog", "NN", 1), ingest._WORD_FIELDS),
    (FeSpan, ingest._fe, ("Agent",), ingest._FE_FIELDS),
], ids=["span", "word", "fe"])
def test_builders_and_reader_fields_follow_the_record_type(record_type, build, required, table):
    # The builder's defaults are the dataclass's, and the reader's field
    # table lists the dataclass's fields in order with the same defaults.
    assert build({}, *required) == record_type(*required)
    declared = [(f.name, ingest._REQUIRED if f.default is MISSING else f.default)
                for f in fields(record_type)]
    assert [(name, default) for name, _, default in table] == declared


def test_dialect_determines_annotation_fields(bfn_mini, swefn_mini):
    for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE):
        assert s.dialect is Dialect.BFN_PHRASE
        for fe in s.fe_spans:
            assert fe.words is None
            assert fe.null_instantiated or fe.phrase_type is not None
    for s in parse_corpus(swefn_mini, Dialect.SWEFN_DEP):
        assert s.dialect is Dialect.SWEFN_DEP
        for fe in s.fe_spans:
            assert fe.phrase_type is None
            assert fe.words


def test_parse_error_reports_byte_offset():
    data = b"<corpus>\n <sentence>\n</corpus>"
    with pytest.raises(CorpusParseError) as excinfo:
        parse_corpus(data, Dialect.BFN_PHRASE)
    message = str(excinfo.value)
    assert "byte" in message
    offset = int(message.split("byte ")[1].split(" ")[0])
    assert 0 <= offset <= len(data)


def test_swefn_refs_unique_within_sentence(swefn_mini):
    for s in parse_corpus(swefn_mini, Dialect.SWEFN_DEP):
        refs = [w.ref for w in s.tokens]
        assert len(refs) == len(set(refs))
        for w in s.tokens:
            if w.dephead is not None:
                assert w.dephead in set(refs)


_WORDS = ["traders", "want", "a", "change", "in", "the", "city", "markets"]


@st.composite
def bfn_corpus_xml(draw):
    n_sentences = draw(st.integers(min_value=0, max_value=5))
    sentences = []
    for i in range(n_sentences):
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=2, max_size=8))
        offsets = []
        cursor = 0
        for w in words:
            offsets.append((cursor, cursor + len(w) - 1))
            cursor += len(w) + 1
        text = " ".join(words)
        target_idx = draw(st.integers(0, len(words) - 1))
        fe_spans = []
        n_fes = draw(st.integers(0, 2))
        for _ in range(n_fes):
            lo = draw(st.integers(0, len(words) - 1))
            hi = draw(st.integers(lo, len(words) - 1))
            if lo <= target_idx <= hi:
                continue  # FEs never overlap the target in this generator
            fe_spans.append((offsets[lo][0], offsets[hi][1]))
        fe_labels = "".join(
            f'<label start="{s}" end="{e}" name="FE{j}"/>'
            for j, (s, e) in enumerate(fe_spans)
        )
        gf_labels = "".join(
            f'<label start="{s}" end="{e}" name="Ext"/>' for s, e in fe_spans
        )
        pt_labels = "".join(
            f'<label start="{s}" end="{e}" name="NP"/>' for s, e in fe_spans
        )
        ts, te = offsets[target_idx]
        sentences.append(
            f'<sentence ID="g{i}"><text>{text}</text>'
            f'<annotationSet status="MANUAL" frameName="F" luName="w.v" luID="1">'
            f'<layer name="FE">{fe_labels}</layer>'
            f'<layer name="GF">{gf_labels}</layer>'
            f'<layer name="PT">{pt_labels}</layer>'
            f'<layer name="Target"><label start="{ts}" end="{te}" name="Target"/></layer>'
            f"</annotationSet></sentence>"
        )
    return ("<corpus>" + "".join(sentences) + "</corpus>").encode(), n_sentences


@given(bfn_corpus_xml())
def test_generated_bfn_corpora_parse_cleanly(corpus):
    data, n_sentences = corpus
    parsed = parse_corpus(data, Dialect.BFN_PHRASE)
    assert len(parsed) == n_sentences  # every annotation set is target-bearing
    assert parse_corpus(data, Dialect.BFN_PHRASE) == parsed  # purity
    for s in parsed:
        assert 0 <= s.target.start <= s.target.end < len(s.text)
        for fe in s.fe_spans:
            surface = s.text[fe.span.start:fe.span.end + 1]
            assert surface == surface.strip() and surface


# ---------------------------------------------------------------------------
# Record-level faults, corruption and streaming
# ---------------------------------------------------------------------------

_BFN_PAIR = """<corpus><sentence ID="bad">
  <text>They want it.</text>
  <annotationSet status="MANUAL" {frame} luName="want.v" luID="1">
    <layer name="FE"><label {fe} name="Experiencer"/></layer>
    <layer name="GF"><label start="0" end="3" name="Ext"/></layer>
    <layer name="PT"><label start="0" end="3" name="NP"/></layer>
    <layer name="Target"><label {target} name="Target"/></layer>
  </annotationSet>
</sentence><sentence ID="neighbour">
  <text>They want it.</text>
  <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
    <layer name="Target"><label start="5" end="8" name="Target"/></layer>
  </annotationSet>
</sentence></corpus>"""


_FRAME = 'frameName="Desiring"'


@pytest.mark.parametrize("frame,fe,target,message", [
    (_FRAME, 'start="0" end="3"', "", "target labels carry no offsets"),
    (_FRAME, 'start="zero" end="3"', 'start="5" end="8"', "label start 'zero' is not an integer"),
    (_FRAME, 'start="0" end="3"', 'start="5" end="8.0"', "label end '8.0' is not an integer"),
    ("", 'start="0" end="3"', 'start="5" end="8"', "target annotation set lacks a frame name"),
], ids=["target-without-offsets", "non-integer-start", "non-integer-end", "no-frame-name"])
def test_bfn_bad_record_is_skipped_and_neighbour_parses(caplog, frame, fe, target, message):
    xml = _BFN_PAIR.format(frame=frame, fe=fe, target=target).encode()
    with caplog.at_level("WARNING"):
        sentences = parse_corpus(xml, Dialect.BFN_PHRASE)
    assert [s.sentence_id for s in sentences] == ["neighbour"]
    assert "sentence 'bad'" in caplog.text and message in caplog.text


@pytest.mark.parametrize("lu,expected", [
    ('luName="want.v" luID="1"', "want.v.1"),
    ('luName="want.v"', "want.v"),
    ('luID="1"', "want.Desiring"),
    ("", "want.Desiring"),
], ids=["name-and-id", "name-only", "id-only", "neither"])
def test_bfn_lu_ref_falls_back_to_the_target_text_and_frame(lu, expected):
    xml = f"""<corpus><sentence ID="s1"><text>They WANT it.</text>
      <annotationSet frameName="Desiring" {lu}>
        <layer name="Target"><label start="5" end="8" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml.encode(), Dialect.BFN_PHRASE)
    assert s.lu_ref == expected


_SWEFN_PAIR = """<corpus><sentence id="bad" frame="Desiring" lu="vilja.vb.1">
  <element name="Experiencer"><w pos="PN" {word}>jag</w></element>
  <element name="LU"><w msd="VB.PRS.AKT" ref="2" deprel="ROOT">{verb}</w></element>
</sentence><sentence id="neighbour" frame="Desiring" lu="vilja.vb.1">
  <element name="Experiencer"><w pos="PN" ref="1" dephead="2" deprel="SS">jag</w></element>
  <element name="LU"><w msd="VB.PRS.AKT" ref="2" deprel="ROOT">vill</w></element>
</sentence></corpus>"""


@pytest.mark.parametrize("word,verb,message", [
    ('ref="one" dephead="2" deprel="SS"', "vill", "word ref 'one' is not an integer"),
    ('ref="1" dephead="two" deprel="SS"', "vill", "word dephead 'two' is not an integer"),
    ('ref="1" dephead="2" deprel="SS"', " ", "word 2 has an empty surface"),
], ids=["non-integer-ref", "non-integer-dephead", "empty-surface"])
def test_swefn_bad_record_is_skipped_and_neighbour_parses(caplog, word, verb, message):
    xml = _SWEFN_PAIR.format(word=word, verb=verb).encode()
    with caplog.at_level("WARNING"):
        sentences = parse_corpus(xml, Dialect.SWEFN_DEP)
    assert [s.sentence_id for s in sentences] == ["neighbour"]
    assert "sentence 'bad'" in caplog.text and message in caplog.text


@pytest.mark.parametrize("dialect", list(Dialect))
@given(data=st.data())
def test_corrupted_sentence_leaves_the_others_intact(data_dir, dialect, data):
    check_corrupted_sentence(data_dir, dialect, data, lambda document: parse_corpus(document, dialect))


@pytest.mark.parametrize("dialect", list(Dialect))
def test_parse_memory_is_bounded_by_the_records_kept(tmp_path, dialect):
    gen = load_corpus_generator()
    frames = gen.build_frames(50, random.Random(1))
    build = gen.build_bfn_corpus if dialect is Dialect.BFN_PHRASE else gen.build_swefn_corpus

    def corpus(size):
        path = tmp_path / f"corpus-{size}.xml"
        path.write_text(build(size, frames, seed=5), encoding="utf-8")
        return path

    def traced(parse):
        # A full collection empties the interpreter's free lists. Objects
        # taken from them are not traced, so otherwise what earlier code left
        # there would go uncounted and shift the ratio below from run to run.
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            records = parse()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A whole-document element tree costs several times the records built
        # from it; reading one sentence at a time keeps the peak near them.
        assert peak - base <= 1.5 * (retained - base)
        return records

    path = corpus(3000)
    sentences = traced(lambda: parse_corpus(path, dialect))
    assert len(sentences) == 3000
    assert parse_corpus(path.read_bytes(), dialect) == sentences
    # Each piece of a document cut in two is read under the same bound. The
    # parser's own memory does not shrink with the records, so each piece
    # holds about as many records as the document above.
    path = corpus(6000)
    pieces = ingest._cut_in_two(path, path.stat().st_size // 2)
    parts = [traced(lambda: ingest._parse_pieces([piece], dialect)[0][0][1]) for piece in pieces]
    assert parts[0] + parts[1] == parse_corpus(path, dialect)


def test_malformed_xml_from_a_path_reports_its_byte_offset(tmp_path):
    # The error follows complete, valid sentences: it is still one error
    # for the whole document, with no records returned.
    data = (
        b'<corpus><sentence ID="a"><text>x</text></sentence>\n'
        b'<sentence ID="b"><text>y</text></sentence>\n<oops</corpus>'
    )
    path = tmp_path / "bad.xml"
    path.write_bytes(data)
    messages = []
    for source in (data, path):
        with pytest.raises(CorpusParseError) as excinfo:
            parse_corpus(source, Dialect.BFN_PHRASE)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    offset = int(messages[1].split("byte ")[1].split(" ")[0])
    assert data[offset:] == b"</corpus>"


@pytest.mark.parametrize("data", [
    '<corpus>\n<sentence id="s1" frame="F">åäö <bad&></sentence></corpus>'.encode(),
    b'<corpus>\r<sentence id="s1" frame="F">x\r<bad&></sentence></corpus>',
], ids=["multibyte-characters", "bare-carriage-returns"])
def test_malformed_xml_byte_offset_counts_bytes_and_every_line_end(data):
    # Expat counts columns in characters and ends a line at \r\n, \r or \n.
    with pytest.raises(CorpusParseError) as excinfo:
        parse_corpus(data, Dialect.SWEFN_DEP)
    offset = int(str(excinfo.value).split("byte ")[1].split(" ")[0])
    assert offset == data.index(b"&")
