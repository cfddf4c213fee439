from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valgram import normalize, pipeline
from valgram.aggregate import read_valences_tsv
from valgram.compare import MatchLevel, MatchMode, intersect, read_shared_tsv, write_shared_tsv
from valgram.frames import Coreness, FrameIndexError, load_frame_index
from valgram.ingest import Dialect, WordAnno, parse_corpus
from valgram.normalize import (
    DEFAULT_VOICE_RULES,
    FeRealization,
    Generalized,
    RglType,
    SentencePattern,
    Skip,
    SkipReason,
    SynFunction,
    Voice,
    detect_voice,
    fe_key_token,
    fe_name_fits_tokens,
    generalize_bfn_fe,
    generalize_swefn_fe,
    load_voice_rules,
    normalize_corpus,
    parse_fe_category,
    parse_fe_key,
    parse_fe_token,
    promote_unconsidered_skips,
    read_patterns_tsv,
    write_patterns_tsv,
)

EXPECTED_BFN_LINES = [
    ("Desiring", "Act", "Event_NP.Obj Experiencer_NP.Subj"),
    ("Desiring", "Act", "Experiencer_NP.Subj Event_NP.Obj"),
    ("Desiring", "Act", "Experiencer_NP.Subj Event_NP.Obj"),
    ("Desiring", "Act", "Experiencer_NP.Subj Event_Adv[for]"),
    ("Desiring", "Act", "Event_VP"),
    ("Desiring", "Act", "Experiencer_NP.Subj Event_VP"),
    ("Desiring", "Pass", "Event_NP.Subj Experiencer_NP.Obj"),
]


def _fes(pattern: SentencePattern) -> str:
    return " ".join(r.rgl_token() for r in pattern.realizations)


def _normalized(s, index) -> SentencePattern | Skip:
    """The pattern of one sentence, with FEs outside the interlingual
    inventory kept as untyped realizations, or its skip."""
    patterns, skips = normalize_corpus([s], index, skip_unconsidered=False)
    return [*patterns, *skips][0]


def _pattern_or_skip(s, index) -> SentencePattern | Skip:
    """One sentence through normalization and the promotion of an FE outside
    the interlingual inventory to a whole-sentence skip."""
    result = _normalized(s, index)
    if isinstance(result, Skip):
        return result
    kept, skips = promote_unconsidered_skips([result])
    return kept[0] if kept else skips[0]


# ---------------------------------------------------------------------------
# Voice detection
# ---------------------------------------------------------------------------

def test_bfn_active_target(bfn_mini):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-002")
    assert detect_voice(s) is Voice.ACT


def test_swefn_active_target(swefn_mini):
    s = next(s for s in parse_corpus(swefn_mini, Dialect.SWEFN_DEP) if s.sentence_id == "swefn-001")
    assert detect_voice(s) is Voice.ACT


def test_bfn_passive_participle_with_preceding_aux(bfn_mini):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-007")
    assert detect_voice(s) is Voice.PASS


def test_bfn_passive_by_phrase_route():
    # No auxiliary in the window, but the external argument is a by-PP.
    xml = b"""<corpus><sentence ID="p1">
      <text>Wanted by traders, it vanished.</text>
      <annotationSet>
        <layer name="BNC">
          <label start="0" end="5" name="VVN"/>
          <label start="7" end="8" name="PRP"/>
        </layer>
      </annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="6412">
        <layer name="FE"><label start="7" end="17" name="Experiencer"/></layer>
        <layer name="GF"><label start="7" end="17" name="Ext"/></layer>
        <layer name="PT"><label start="7" end="17" name="PP[by]"/></layer>
        <layer name="Target"><label start="0" end="5" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    assert detect_voice(s) is Voice.PASS


def test_swefn_s_passive(swefn_mini):
    s = next(s for s in parse_corpus(swefn_mini, Dialect.SWEFN_DEP) if s.sentence_id == "swefn-004")
    assert detect_voice(s) is Voice.PASS


def test_bfn_participle_without_aux_is_active():
    xml = b"""<corpus><sentence ID="a1">
      <text>Traders wanted a change.</text>
      <annotationSet>
        <layer name="BNC">
          <label start="0" end="6" name="NN2"/>
          <label start="8" end="13" name="VVN"/>
        </layer>
      </annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="6412">
        <layer name="FE"><label start="0" end="6" name="Experiencer"/></layer>
        <layer name="GF"><label start="0" end="6" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="6" name="NP"/></layer>
        <layer name="Target"><label start="8" end="13" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    assert detect_voice(s) is Voice.ACT


@pytest.mark.parametrize("window,expected", [
    (0, Voice.ACT), (1, Voice.PASS), (3, Voice.PASS), (10, Voice.PASS),
])
def test_bfn_aux_window_bounds_the_auxiliary_check(window, expected):
    # "was" directly precedes the participle; a window of 0 turns the
    # auxiliary check off, and a window longer than the sentence is harmless.
    xml = b"""<corpus><sentence ID="w1">
      <text>It was wanted.</text>
      <annotationSet>
        <layer name="BNC">
          <label start="0" end="1" name="PNP"/>
          <label start="3" end="5" name="VBD"/>
          <label start="7" end="12" name="VVN"/>
        </layer>
      </annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="6412">
        <layer name="FE"><label start="0" end="1" name="Event"/></layer>
        <layer name="GF"><label start="0" end="1" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="1" name="NP"/></layer>
        <layer name="Target"><label start="7" end="12" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    rules = {**DEFAULT_VOICE_RULES, "bfn": {**DEFAULT_VOICE_RULES["bfn"], "aux_window": window}}
    assert detect_voice(s, rules) is expected


@pytest.mark.parametrize("deprel,expected", [("VG", Voice.PASS), ("OO", Voice.ACT)])
def test_swefn_periphrastic_passive_needs_the_verb_group_link(deprel, expected):
    # No s-passive marker on the target: the passive is an auxiliary that
    # the participle links to through a verb-group edge.
    xml = f"""<corpus><sentence id="p1" frame="Desiring" lu="önska.vb.1">
      <element name="Event"><w pos="NN" ref="1" dephead="2" deprel="SS">fred</w></element>
      <w msd="VB.PRT.AKT" ref="2" deprel="ROOT">blev</w>
      <element name="LU">
        <w msd="PC.PRF.UTR.SIN.IND.NOM" ref="3" dephead="2" deprel="{deprel}">önskad</w>
      </element>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml.encode(), Dialect.SWEFN_DEP)
    assert detect_voice(s) is expected


def test_voice_rules_are_configurable(tmp_path, bfn_mini):
    cfg = tmp_path / "rules.json"
    cfg.write_text('{"bfn": {"passive_target_tags": []}}', encoding="utf-8")
    rules = load_voice_rules(cfg)
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-007")
    assert detect_voice(s, rules) is Voice.ACT
    assert detect_voice(s, DEFAULT_VOICE_RULES) is Voice.PASS


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "record: expected an object, got an array"),
    ('{"bfn": ["x"]}', "bfn: expected an object, got an array"),
    ("{bfn", "not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"swefn": {"passive_msd_markers": "SFO"}}',
     "swefn.passive_msd_markers: expected an array of strings, got a string"),
    ('{"bfn": {"passive_target_tags": 5}}',
     "bfn.passive_target_tags: expected an array of strings, got an integer"),
    ('{"bfn": {"aux_forms": ["be", null]}}',
     "bfn.aux_forms: expected an array of strings, got an array holding null"),
    ('{"bfn": {"aux_window": "three"}}', "bfn.aux_window: expected an integer, got a string"),
    ('{"bfn": {"aux_window": true}}', "bfn.aux_window: expected an integer, got a boolean"),
    ('{"bfn": {"agent_preposition": ["by"]}}',
     "bfn.agent_preposition: expected a string, got an array"),
], ids=[
    "not-an-object", "dialect-not-an-object", "not-json", "string-for-markers",
    "integer-for-tags", "null-among-forms", "string-for-window", "boolean-for-window",
    "array-for-preposition",
])
def test_voice_rules_file_errors_name_the_file_and_key(tmp_path, text, message):
    cfg = tmp_path / "rules.json"
    cfg.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_voice_rules(cfg)
    assert str(excinfo.value) == f"{cfg}: {message}"


# ---------------------------------------------------------------------------
# BFN generalization rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pt,gf,expected", [
    ("PP[by]", "Obj", Generalized(RglType.NP, SynFunction.OBJ)),
    ("VPto", "Dep", Generalized(RglType.VP)),
    ("NP", "Dep", Generalized(RglType.ADV)),
    ("NP", "Ext", Generalized(RglType.NP, SynFunction.SUBJ)),
    ("NP", "Obj", Generalized(RglType.NP, SynFunction.OBJ)),
    ("PP[for]", "Dep", Generalized(RglType.ADV, preposition="for")),
    ("AVP", "Dep", Generalized(RglType.ADV)),
    ("AJP", "Dep", Generalized(RglType.ADV)),
])
def test_generalize_bfn_fe(pt, gf, expected):
    assert generalize_bfn_fe(pt, gf) == expected


@pytest.mark.parametrize("pt", [
    "Sfin", "Sint", "Srel", "Swhether", "Sforto", "Sub",
    "VPfin", "VPbrst", "VPed", "VPing",
    "PPing", "PPinterrog",
    "QUO", "N", "Poss",
])
def test_generalize_bfn_fe_unconsidered(pt):
    assert generalize_bfn_fe(pt, "Dep") is SkipReason.UNCONSIDERED_PHRASE_TYPE


# ---------------------------------------------------------------------------
# SweFN generalization rules
# ---------------------------------------------------------------------------

def _w(surface, pos, deprel, ref=1, dephead=None, msd=None):
    return WordAnno(surface=surface, pos=pos, ref=ref, msd=msd, dephead=dephead, deprel=deprel)


@pytest.mark.parametrize("words,expected", [
    ([_w("jag", "PN", "SS")], Generalized(RglType.NP, SynFunction.SUBJ)),
    ([_w("sångare", "NN", "OO")], Generalized(RglType.NP, SynFunction.OBJ)),
    ([_w("honom", "PN", "IO")], Generalized(RglType.NP, SynFunction.OBJ)),
    ([_w("Stockholm", "PM", "RA")], Generalized(RglType.ADV)),
    ([_w("hem", "AB", "RA")], Generalized(RglType.ADV)),
    (
        [_w("i", "PP", "RA"), _w("staden", "NN", "PA", ref=2, dephead=1)],
        Generalized(RglType.ADV, preposition="i"),
    ),
    (
        [_w("ha", "VB", "VG", msd="VB.INF"), _w("kul", "JJ", "OO", ref=2, dephead=1)],
        Generalized(RglType.VP),
    ),
])
def test_generalize_swefn_fe(words, expected):
    assert generalize_swefn_fe(words) == expected


def test_swefn_conjunction_initial_advances():
    words = [
        _w("och", "KN", "CC", ref=1, dephead=3),
        _w("hunden", "NN", "SS", ref=2, dephead=3),
    ]
    assert generalize_swefn_fe(words) == Generalized(RglType.NP, SynFunction.SUBJ)


def test_swefn_adjective_initial_uses_head_deprel():
    # "stora hunden": the adjective modifies the in-FE noun whose head is the
    # verb outside the FE, so the noun's relation drives the mapping.
    words = [
        _w("stora", "JJ", "AT", ref=1, dephead=2),
        _w("hunden", "NN", "SS", ref=2, dephead=5),
    ]
    assert generalize_swefn_fe(words) == Generalized(RglType.NP, SynFunction.SUBJ)


def test_swefn_subclause_is_skipped():
    words = [
        _w("att", "SN", "UA", ref=1, dephead=5),
        _w("laget", "NN", "SS", ref=2, dephead=3),
        _w("vinner", "VB", "UA", ref=3, dephead=1, msd="VB.PRS"),
    ]
    assert generalize_swefn_fe(words) is SkipReason.SUBCLAUSE


def test_swefn_finite_verb_is_subclause():
    assert generalize_swefn_fe([_w("vinner", "VB", "OO", msd="VB.PRS")]) is SkipReason.SUBCLAUSE


def test_swefn_unmappable_tags_skip():
    assert generalize_swefn_fe([_w("en", "DT", "DT")]) is SkipReason.UNCONSIDERED_PHRASE_TYPE


# ---------------------------------------------------------------------------
# Sentence pattern extraction
# ---------------------------------------------------------------------------

def test_bfn_excerpt_pattern(bfn_mini, frame_index):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-002")
    pattern = _pattern_or_skip(s, frame_index)
    assert isinstance(pattern, SentencePattern)
    assert (pattern.frame, pattern.voice.value, _fes(pattern)) == (
        "Desiring", "Act", "Experiencer_NP.Subj Event_NP.Obj"
    )


def test_swefn_excerpt_pattern(swefn_mini, frame_index):
    s = next(s for s in parse_corpus(swefn_mini, Dialect.SWEFN_DEP) if s.sentence_id == "swefn-001")
    pattern = _pattern_or_skip(s, frame_index)
    assert (pattern.frame, pattern.voice.value, _fes(pattern)) == (
        "Desiring", "Act", "Experiencer_NP.Subj Event_VP"
    )


def test_bfn_wished_for_pattern(bfn_mini, frame_index):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-004")
    pattern = _pattern_or_skip(s, frame_index)
    assert _fes(pattern) == "Experiencer_NP.Subj Event_Adv[for]"


def test_bfn_fixture_emits_reference_lines_verbatim(bfn_mini, frame_index):
    patterns, skips = normalize_corpus(parse_corpus(bfn_mini, Dialect.BFN_PHRASE), frame_index)
    assert skips == []
    lines = [(p.frame, p.voice.value, _fes(p)) for p in patterns]
    assert lines == EXPECTED_BFN_LINES


def test_null_instantiated_fes_dropped_rest_kept(bfn_mini, frame_index):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-005")
    pattern = _pattern_or_skip(s, frame_index)
    assert _fes(pattern) == "Event_VP"


def test_unknown_frame_skips(bfn_mini, frame_index):
    s = next(s for s in parse_corpus(bfn_mini, Dialect.BFN_PHRASE) if s.sentence_id == "bfn-002")
    tiny_index = load_frame_index("Motion\tcore\tTheme\n")
    result = _pattern_or_skip(s, tiny_index)
    assert isinstance(result, Skip)
    assert result.reason is SkipReason.UNKNOWN_FRAME


def test_unknown_fe_is_a_hard_error(frame_index):
    xml = b"""<corpus><sentence ID="x">
      <text>They want it.</text>
      <annotationSet>
        <layer name="BNC"><label start="5" end="8" name="VVB"/></layer>
      </annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE"><label start="0" end="3" name="Weather"/></layer>
        <layer name="GF"><label start="0" end="3" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="3" name="NP"/></layer>
        <layer name="Target"><label start="5" end="8" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    with pytest.raises(FrameIndexError, match="Weather"):
        _pattern_or_skip(s, frame_index)


def test_target_without_pos_skips(frame_index):
    xml = b"""<corpus><sentence ID="x">
      <text>They want it.</text>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE"><label start="0" end="3" name="Experiencer"/></layer>
        <layer name="GF"><label start="0" end="3" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="3" name="NP"/></layer>
        <layer name="Target"><label start="5" end="8" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    result = _pattern_or_skip(s, frame_index)
    assert isinstance(result, Skip)
    assert result.reason is SkipReason.NO_GRAMMATICAL_ANNOTATION


def test_swefn_target_without_msd_or_pos_skips(frame_index):
    xml = """<corpus><sentence id="x" frame="Desiring" lu="vilja.vb.1">
      <element name="Experiencer"><w pos="PN" ref="1" dephead="2" deprel="SS">jag</w></element>
      <element name="LU"><w ref="2" deprel="ROOT">vill</w></element>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml.encode(), Dialect.SWEFN_DEP)
    assert (s.target_tokens()[0].msd, s.target_tokens()[0].pos) == (None, "")
    result = _pattern_or_skip(s, frame_index)
    assert isinstance(result, Skip)
    assert (result.reason, result.detail) == (
        SkipReason.NO_GRAMMATICAL_ANNOTATION, "target has no MSD annotation"
    )


def test_extra_subjects_demoted_leftmost_kept(frame_index, caplog):
    xml = b"""<corpus><sentence ID="two-subj">
      <text>Traders and the city want a change.</text>
      <annotationSet>
        <layer name="BNC"><label start="20" end="23" name="VVB"/></layer>
      </annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE">
          <label start="0" end="6" name="Experiencer"/>
          <label start="12" end="19" name="Event"/>
        </layer>
        <layer name="GF">
          <label start="0" end="6" name="Ext"/>
          <label start="12" end="19" name="Ext"/>
        </layer>
        <layer name="PT">
          <label start="0" end="6" name="NP"/>
          <label start="12" end="19" name="NP"/>
        </layer>
        <layer name="Target"><label start="20" end="23" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    (s,) = parse_corpus(xml, Dialect.BFN_PHRASE)
    with caplog.at_level("WARNING"):
        pattern = _pattern_or_skip(s, frame_index)
    assert _fes(pattern) == "Experiencer_NP.Subj Event_Adv"
    assert "demoted" in caplog.text


def test_swefn_all_conjunction_fe_keeps_first_word_native_type(frame_index):
    xml = """<corpus>
     <sentence id="kn-1" frame="Desiring" lu="vilja.vb.1">
      <element name="Experiencer">
       <w pos="KN" ref="1" dephead="3" deprel="CC">och</w>
       <w pos="KN" ref="2" dephead="3" deprel="++">men</w>
      </element>
      <element name="LU"><w msd="VB.PRS.AKT" ref="3" deprel="ROOT">vill</w></element>
     </sentence>
    </corpus>""".encode("utf-8")
    (s,) = parse_corpus(xml, Dialect.SWEFN_DEP)
    pattern = _normalized(s, frame_index)
    (r,) = pattern.realizations
    assert (r.fe_name, r.native_type, r.rgl_type) == ("Experiencer", "KN.CC", None)
    assert r.skip_reason is SkipReason.UNCONSIDERED_PHRASE_TYPE


def test_sentence_level_skip_reason_is_first_triggered(swefn_mini, frame_index):
    sentences = parse_corpus(swefn_mini, Dialect.SWEFN_DEP)
    s = next(s for s in sentences if s.sentence_id == "swefn-005")
    result = _pattern_or_skip(s, frame_index)
    assert isinstance(result, Skip)
    assert result.reason is SkipReason.SUBCLAUSE


def test_skip_accounting(bfn_mini, swefn_mini, frame_index):
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        sentences = parse_corpus(path, dialect)
        patterns, skips = normalize_corpus(sentences, frame_index)
        assert len(patterns) + len(skips) == len(sentences)


def test_no_native_tags_leak(bfn_mini, swefn_mini, frame_index):
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(parse_corpus(path, dialect), frame_index)
        for p in patterns:
            for r in p.realizations:
                assert r.rgl_type in (RglType.NP, RglType.ADV, RglType.VP)
                parsed = parse_fe_token(r.rgl_token())
                assert parsed.rgl_type is r.rgl_type


def test_syn_function_only_on_np(bfn_mini, swefn_mini, frame_index):
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(parse_corpus(path, dialect), frame_index)
        for p in patterns:
            subj = [r for r in p.realizations if r.syn_function is SynFunction.SUBJ]
            obj = [r for r in p.realizations if r.syn_function is SynFunction.OBJ]
            assert len(subj) <= 1
            for r in subj + obj:
                assert r.rgl_type is RglType.NP
            for r in p.realizations:
                if r.preposition is not None:
                    assert r.rgl_type is RglType.ADV


def test_native_types_preserved_for_baselines(bfn_mini, frame_index):
    patterns, _ = normalize_corpus(parse_corpus(bfn_mini, Dialect.BFN_PHRASE), frame_index)
    by_id = {p.sentence_id: p for p in patterns}
    assert [r.native_type for r in by_id["bfn-004"].realizations] == ["NP.Ext", "PP[for].Dep"]
    assert [r.native_type for r in by_id["bfn-007"].realizations] == ["NP.Ext", "PP[by].Obj"]


def test_patterns_tsv_round_trip(tmp_path, bfn_mini, frame_index):
    patterns, _ = normalize_corpus(parse_corpus(bfn_mini, Dialect.BFN_PHRASE), frame_index)
    path = tmp_path / "patterns.tsv"
    write_patterns_tsv(patterns, path)
    loaded = read_patterns_tsv(path)
    assert [(p.frame, p.voice, p.lu_ref, p.sentence_id) for p in loaded] == [
        (p.frame, p.voice, p.lu_ref, p.sentence_id) for p in patterns
    ]
    for a, b in zip(loaded, patterns):
        assert [r.rgl_token() for r in a.realizations] == [
            r.rgl_token() for r in b.realizations
        ]


fe_name_st = st.sampled_from(
    ["Event", "Experiencer", "Focal_participant", "Location_of_Event", "Theme", "Goal"]
)


@given(
    fe_name_st,
    st.sampled_from(list(RglType)),
    st.sampled_from([SynFunction.SUBJ, SynFunction.OBJ, SynFunction.NONE]),
    st.one_of(st.none(), st.sampled_from(["for", "by", "i", "på"])),
    st.booleans(),
)
def test_fe_token_round_trip(fe, rgl, syn, prep, noncore):
    if rgl is not RglType.NP:
        syn = SynFunction.NONE
    if rgl is not RglType.ADV:
        prep = None
    r = FeRealization(
        fe_name=fe,
        native_type="",
        rgl_type=rgl,
        syn_function=syn,
        preposition=prep,
        coreness=Coreness.NONCORE if noncore else Coreness.CORE,
    )
    parsed = parse_fe_token(r.rgl_token())
    assert (parsed.fe_name, parsed.rgl_type, parsed.syn_function,
            parsed.preposition, parsed.coreness) == (fe, rgl, syn, prep, r.coreness)


# FE names the frame index accepts, with the "_"s and type-like parts that
# make the FE/type split of a token ambiguous to a naive reader.
codec_fe_st = st.text(alphabet="AaOpt_NPVdv", min_size=1, max_size=10).filter(fe_name_fits_tokens)
native_type_st = st.sampled_from([
    "NP.Ext", "NP.Obj", "PP[by].Ext", "PP[to]", "PP[for].Dep", "VB.INF.VG", "Sfin.Dep",
    "AVP.Dep", "VPto.Dep", "PN.SS", "NN.UTR.SIN.IND.NOM.OO",
])
syn_st = st.sampled_from(["", "Subj", "Obj"])


@given(codec_fe_st, native_type_st | st.sampled_from([t.value for t in RglType]), syn_st,
       st.booleans())
def test_fe_key_codec_round_trips_native_and_interlingual_keys(fe, typ, syn, noncore):
    # A native type ending in a syntactic function needs one after it to
    # read back (valence writing rejects such keys without one).
    assume(syn or not typ.endswith((".Subj", ".Obj")))
    key = (fe, typ, syn, noncore)
    assert parse_fe_key(fe_key_token(key)) == key


@given(codec_fe_st, st.sampled_from(list(RglType)), syn_st,
       st.one_of(st.none(), st.sampled_from(["for", "by", "på", "a_b"])), st.booleans())
def test_pattern_and_category_tokens_round_trip(fe, rgl, syn, prep, noncore):
    coreness = Coreness.NONCORE if noncore else Coreness.CORE
    r = FeRealization(fe, "", rgl, SynFunction(syn) if syn else SynFunction.NONE, prep,
                      coreness=coreness)
    parsed = parse_fe_token(r.rgl_token())
    assert (parsed.fe_name, parsed.rgl_type, parsed.syn_function, parsed.preposition,
            parsed.coreness) == (fe, rgl, r.syn_function, prep, coreness)
    category = (fe, rgl.value, "", noncore)
    assert parse_fe_category(fe_key_token(category)) == category
    if syn or prep:
        with pytest.raises(ValueError, match="as a category"):
            parse_fe_category(r.rgl_token())


@given(codec_fe_st, native_type_st, syn_st, st.booleans())
def test_pattern_and_category_readers_reject_native_types(fe, typ, syn, noncore):
    assume(syn or not typ.endswith((".Subj", ".Obj")))
    token = fe_key_token((fe, typ, syn, noncore))
    with pytest.raises(ValueError, match="as a pattern"):
        parse_fe_token(token)
    with pytest.raises(ValueError, match="as a category"):
        parse_fe_category(token)


# ---------------------------------------------------------------------------
# Record types
# ---------------------------------------------------------------------------

def test_record_types_are_slotted_with_field_based_identity():
    r = FeRealization("Event", "NP.Obj", RglType.NP, SynFunction.OBJ)
    p = SentencePattern("Desiring", Voice.ACT, (r,), "want.v.1", "s1")
    for obj in (r, p, WordAnno("jag", "PN", 1)):
        assert not hasattr(obj, "__dict__")
    twin = FeRealization("Event", "NP.Obj", RglType.NP, SynFunction.OBJ)
    twin_p = SentencePattern("Desiring", Voice.ACT, (twin,), "want.v.1", "s1")
    assert (twin, twin_p) == (r, p)
    assert (hash(twin), hash(twin_p)) == (hash(r), hash(p))
    assert replace(r, preposition="for") != r
    assert replace(p, sentence_id="s2") != p


def test_demoted_subject_keys_and_tokens_follow_its_new_fields():
    subject = FeRealization(
        "Event", "NP.Ext", RglType.NP, SynFunction.SUBJ, coreness=Coreness.NONCORE
    )
    assert (subject.rgl_key, subject.rgl_token()) == (
        ("Event", "NP", "Subj", True), "Opt_Event_NP.Subj",
    )
    demoted = replace(
        subject, rgl_type=RglType.ADV, syn_function=SynFunction.NONE, preposition=None
    )
    assert (demoted.rgl_key, demoted.rgl_token()) == (("Event", "Adv", "", True), "Opt_Event_Adv")
    assert (demoted.native_key, demoted.native_token()) == (
        ("Event", "NP.Ext", "", True), "Opt_Event_NP.Ext",
    )
    pattern = SentencePattern("Desiring", Voice.ACT, (demoted,), "want.v.1", "s1")
    assert (pattern.rgl_fes, pattern.rgl_fe_set) == ("Opt_Event_Adv", (demoted.rgl_key,))


def test_untyped_fe_has_native_but_no_interlingual_key():
    r = FeRealization(
        "Event", "Sfin.Dep", rgl_type=None, skip_reason=SkipReason.UNCONSIDERED_PHRASE_TYPE
    )
    with pytest.raises(ValueError, match="no interlingual type"):
        r.rgl_key
    with pytest.raises(ValueError, match="no interlingual type"):
        r.rgl_token()
    pattern = SentencePattern("Desiring", Voice.ACT, (r,), "want.v.1", "s1")
    assert (pattern.native_fes, pattern.native_fe_set) == (
        "Event_Sfin.Dep", (("Event", "Sfin.Dep", "", False),),
    )


# ---------------------------------------------------------------------------
# The two normalize entry points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dialect", list(Dialect))
def test_normalize_corpus_agrees_with_normalize_sentences(dialect, data_dir, frame_index):
    sentences = parse_corpus(data_dir / f"{dialect.value}_mini.xml", dialect)
    rules = load_voice_rules(None)
    all_patterns, patterns, skips = pipeline.normalize_sentences(sentences, frame_index, rules)
    assert normalize_corpus(sentences, frame_index, rules) == (patterns, skips)
    unskipped, _ = normalize_corpus(sentences, frame_index, rules, skip_unconsidered=False)
    assert unskipped == all_patterns


# A sentence whose only FE has no interlingual type ("a-untyped", promoted to
# a skip after normalization) and one of a frame the index lacks
# ("b-unknown", skipped by normalization itself), after one that is kept.
_MERGE_ORDER_XML = """<corpus>
 <sentence id="c-kept" frame="Desiring" lu="vilja.vb.1">
  <element name="Experiencer"><w pos="PN" ref="1" dephead="2" deprel="SS">jag</w></element>
  <element name="LU"><w msd="VB.PRS.AKT" ref="2" deprel="ROOT">vill</w></element>
 </sentence>
 <sentence id="b-unknown" frame="Weather" lu="regna.vb.1">
  <element name="LU"><w msd="VB.PRS.AKT" ref="1" deprel="ROOT">regnar</w></element>
 </sentence>
 <sentence id="a-untyped" frame="Desiring" lu="vilja.vb.1">
  <element name="Experiencer"><w pos="KN" ref="1" dephead="2" deprel="CC">och</w></element>
  <element name="LU"><w msd="VB.PRS.AKT" ref="2" deprel="ROOT">vill</w></element>
 </sentence>
</corpus>""".encode("utf-8")


def test_promoted_skips_merge_with_sentence_skips_by_sentence_id(frame_index):
    sentences = parse_corpus(_MERGE_ORDER_XML, Dialect.SWEFN_DEP)
    rules = load_voice_rules(None)
    unskipped, unmerged = normalize_corpus(sentences, frame_index, rules, skip_unconsidered=False)
    assert [(sk.sentence_id, sk.reason) for sk in unmerged] == [
        ("b-unknown", SkipReason.UNKNOWN_FRAME),
    ]
    expected = [
        ("a-untyped", SkipReason.UNCONSIDERED_PHRASE_TYPE),
        ("b-unknown", SkipReason.UNKNOWN_FRAME),
    ]
    patterns, skips = normalize_corpus(sentences, frame_index, rules)
    assert [p.sentence_id for p in patterns] == ["c-kept"]
    assert [(sk.sentence_id, sk.reason) for sk in skips] == expected
    assert promote_unconsidered_skips(unskipped, unmerged) == (patterns, skips)
    _, kept, skips = pipeline.normalize_sentences(sentences, frame_index, rules)
    assert [p.sentence_id for p in kept] == ["c-kept"]
    assert [(sk.sentence_id, sk.reason) for sk in skips] == expected


# ---------------------------------------------------------------------------
# Shared realizations
# ---------------------------------------------------------------------------

def _bfn_pp_sentence(sid: str, frame: str, prep: str) -> str:
    # "They yearned <prep> a change.": the Event FE is a bare PP, whose
    # preposition comes from the tokens.
    a = 13 + len(prep) + 1
    return f"""<sentence ID="{sid}">
      <text>They yearned {prep} a change.</text>
      <annotationSet><layer name="BNC">
        <label start="0" end="3" name="PNP"/><label start="5" end="11" name="VVD"/>
        <label start="13" end="{a - 2}" name="PRP"/><label start="{a}" end="{a}" name="AT0"/>
        <label start="{a + 2}" end="{a + 7}" name="NN1"/>
      </layer></annotationSet>
      <annotationSet status="MANUAL" frameName="{frame}" luName="yearn.v" luID="1">
        <layer name="FE"><label start="0" end="3" name="Experiencer"/>
          <label start="13" end="{a + 7}" name="Event"/></layer>
        <layer name="GF"><label start="0" end="3" name="Ext"/>
          <label start="13" end="{a + 7}" name="Dep"/></layer>
        <layer name="PT"><label start="0" end="3" name="NP"/>
          <label start="13" end="{a + 7}" name="PP"/></layer>
        <layer name="Target"><label start="5" end="11" name="Target"/></layer>
      </annotationSet>
    </sentence>"""


def test_equal_annotations_share_one_realization(bfn_mini, swefn_mini, frame_index):
    for path, dialect in ((bfn_mini, Dialect.BFN_PHRASE), (swefn_mini, Dialect.SWEFN_DEP)):
        sentences = parse_corpus(path, dialect)
        first = [_normalized(s, frame_index) for s in sentences]
        again = [_normalized(s, frame_index) for s in sentences]
        assert first == again
        for p, q in zip(first, again):
            if isinstance(p, SentencePattern):
                assert all(r is t for r, t in zip(p.realizations, q.realizations))


def test_demoting_a_subject_leaves_the_shared_realization_a_subject(frame_index):
    # The second external argument of "two-subj" is demoted; "one-subj"
    # then annotates that FE the same way and must still get a subject.
    xml = b"""<corpus><sentence ID="two-subj">
      <text>Traders and the city want a change.</text>
      <annotationSet><layer name="BNC"><label start="20" end="23" name="VVB"/></layer></annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE"><label start="0" end="6" name="Experiencer"/>
          <label start="12" end="19" name="Event"/></layer>
        <layer name="GF"><label start="0" end="6" name="Ext"/>
          <label start="12" end="19" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="6" name="NP"/>
          <label start="12" end="19" name="NP"/></layer>
        <layer name="Target"><label start="20" end="23" name="Target"/></layer>
      </annotationSet>
    </sentence><sentence ID="one-subj">
      <text>The city wants a change.</text>
      <annotationSet><layer name="BNC"><label start="9" end="13" name="VVZ"/></layer></annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE"><label start="0" end="7" name="Event"/></layer>
        <layer name="GF"><label start="0" end="7" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="7" name="NP"/></layer>
        <layer name="Target"><label start="9" end="13" name="Target"/></layer>
      </annotationSet>
    </sentence></corpus>"""
    two, one = (_normalized(s, frame_index) for s in parse_corpus(xml, Dialect.BFN_PHRASE))
    assert _fes(two) == "Experiencer_NP.Subj Event_Adv"
    assert _fes(one) == "Event_NP.Subj"
    assert one.realizations[0].syn_function is SynFunction.SUBJ


def _two_subject_sentence(sentence_id: str) -> str:
    return f"""<sentence ID="{sentence_id}">
      <text>Traders and the city want a change.</text>
      <annotationSet><layer name="BNC"><label start="20" end="23" name="VVB"/></layer></annotationSet>
      <annotationSet status="MANUAL" frameName="Desiring" luName="want.v" luID="1">
        <layer name="FE"><label start="0" end="6" name="Experiencer"/>
          <label start="12" end="19" name="Event"/></layer>
        <layer name="GF"><label start="0" end="6" name="Ext"/>
          <label start="12" end="19" name="Ext"/></layer>
        <layer name="PT"><label start="0" end="6" name="NP"/>
          <label start="12" end="19" name="NP"/></layer>
        <layer name="Target"><label start="20" end="23" name="Target"/></layer>
      </annotationSet>
    </sentence>"""


def test_equal_demotions_share_one_realization_and_one_tuple(frame_index, caplog):
    # Both sentences demote the same extra external argument. The demoted
    # realization is one object, as any other annotation's is, so the two
    # patterns hold one realizations tuple; each sentence logs its demotion.
    xml = f"<corpus>{_two_subject_sentence('a')}{_two_subject_sentence('b')}</corpus>"
    with caplog.at_level("WARNING"):
        (a, b), _ = normalize_corpus(
            parse_corpus(xml.encode(), Dialect.BFN_PHRASE), frame_index, skip_unconsidered=False
        )
    assert _fes(a) == _fes(b) == "Experiencer_NP.Subj Event_Adv"
    assert a.realizations[1] is b.realizations[1]
    assert a.realizations is b.realizations
    assert [r.getMessage() for r in caplog.records] == [
        f"sentence {sid}: extra subject 'Event' demoted to Adv" for sid in ("a", "b")
    ]


def test_shared_realizations_keep_prepositions_and_coreness_apart():
    index = load_frame_index(
        "Wanting\tcore\tEvent,Experiencer\n"
        "Craving\tcore\tExperiencer\nCraving\tnoncore\tEvent\n"
    )
    xml = "<corpus>" + "".join([
        _bfn_pp_sentence("a", "Wanting", "for"),
        _bfn_pp_sentence("b", "Wanting", "after"),
        _bfn_pp_sentence("c", "Craving", "for"),
    ]) + "</corpus>"
    patterns = [_normalized(s, index) for s in parse_corpus(xml, Dialect.BFN_PHRASE)]
    assert [_fes(p) for p in patterns] == [
        "Experiencer_NP.Subj Event_Adv[for]",
        "Experiencer_NP.Subj Event_Adv[after]",
        "Experiencer_NP.Subj Opt_Event_Adv[for]",
    ]
    assert [p.realizations[1].native_type for p in patterns] == [
        "PP[for].Dep", "PP[after].Dep", "PP[for].Dep",
    ]


def test_realization_caches_hold_one_entry_per_distinct_annotation(
    bfn_mini, swefn_mini, frame_index
):
    # Both caches are bounded by the distinct annotation combinations; the
    # mini corpora demote no subject, so every cached realization is in a
    # pattern.
    normalize._bfn_tags.cache_clear()
    normalize._realization.cache_clear()
    bfn, _ = normalize_corpus(
        parse_corpus(bfn_mini, Dialect.BFN_PHRASE), frame_index, skip_unconsidered=False
    )
    swefn, _ = normalize_corpus(
        parse_corpus(swefn_mini, Dialect.SWEFN_DEP), frame_index, skip_unconsidered=False
    )

    def annotation(r: FeRealization) -> tuple:
        return (r.native_type, r.rgl_type, r.syn_function, r.preposition, r.skip_reason)

    bfn_reals = [r for p in bfn for r in p.realizations]
    all_reals = bfn_reals + [r for p in swefn for r in p.realizations]
    assert normalize._bfn_tags.cache_info().currsize == len({annotation(r) for r in bfn_reals})
    assert normalize._realization.cache_info().currsize == len(
        {(r.fe_name, r.coreness, *annotation(r)) for r in all_reals}
    )


# ---------------------------------------------------------------------------
# TSV reads
# ---------------------------------------------------------------------------

def _decoded_tokens(kind: str, data_dir, tmp_path) -> list:
    """The decoded FE tokens of one read of a TSV artifact of ``kind``, in
    file order: realizations of a patterns TSV, keys of the others."""
    if kind == "patterns":
        read = read_patterns_tsv(data_dir / "desiring_bfn_patterns.tsv")
        return [r for p in read for r in p.realizations]
    if kind == "valences":
        read = read_valences_tsv(data_dir / "desiring_bfn_valences.tsv")
        return [key for v in read for key in v.fes]
    path = tmp_path / "shared.tsv"
    if not path.exists():
        left = read_valences_tsv(data_dir / "desiring_bfn_valences_voiced.tsv")
        right = read_valences_tsv(data_dir / "desiring_swefn_valences_voiced.tsv")
        write_shared_tsv(
            intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY), path
        )
    return [
        key
        for sp in read_shared_tsv(path).patterns
        for variants in sp.syn_variants.values()
        for fes, _ in variants
        for key in fes
    ]


_TSV_KINDS = pytest.mark.parametrize("kind", ["patterns", "valences", "shared"])


@_TSV_KINDS
def test_equal_tokens_are_one_object_within_a_read(kind, data_dir, tmp_path):
    decoded = _decoded_tokens(kind, data_dir, tmp_path)
    first: dict = {}
    for obj in decoded:
        assert first.setdefault(obj, obj) is obj
    assert len(first) < len(decoded)  # the file repeats tokens, so sharing is exercised


@_TSV_KINDS
def test_two_tsv_reads_share_no_decoded_token(kind, data_dir, tmp_path):
    first = _decoded_tokens(kind, data_dir, tmp_path)
    second = _decoded_tokens(kind, data_dir, tmp_path)
    assert first == second
    assert {id(obj) for obj in first}.isdisjoint(id(obj) for obj in second)


def test_shared_realizations_of_a_read_stay_frozen(data_dir, tmp_path):
    decoded = _decoded_tokens("patterns", data_dir, tmp_path)
    shared = next(r for i, r in enumerate(decoded) if any(r is s for s in decoded[:i]))
    with pytest.raises(FrozenInstanceError):
        shared.fe_name = "Other"
    assert all(r.fe_name != "Other" for r in decoded)


_pattern_token_st = st.builds(
    lambda fe, rgl, syn, prep, noncore: FeRealization(
        fe, "", rgl, SynFunction(syn) if syn else SynFunction.NONE, prep,
        coreness=Coreness.NONCORE if noncore else Coreness.CORE,
    ).rgl_token(),
    codec_fe_st, st.sampled_from(list(RglType)), syn_st,
    st.one_of(st.none(), st.sampled_from(["for", "by", "på"])), st.booleans(),
)


@settings(max_examples=50)
@given(data=st.data())
def test_patterns_tsv_read_equals_a_per_token_decode(tmp_path_factory, data):
    # A few tokens repeated over the rows, so most decodes are cache hits.
    pool = data.draw(st.lists(_pattern_token_st, min_size=1, max_size=6), label="tokens")
    rows = data.draw(st.lists(st.tuples(
        st.sampled_from(["Desiring", "Motion"]), st.sampled_from(["Act", "Pass"]),
        st.lists(st.sampled_from(pool), max_size=4),
    ), min_size=1, max_size=12), label="rows")
    path = tmp_path_factory.getbasetemp() / "property.patterns.tsv"
    path.write_text("".join(
        f"{frame}\t{voice}\t{' '.join(tokens)}\tlu.v\ts{i}\n"
        for i, (frame, voice, tokens) in enumerate(rows)
    ), encoding="utf-8")
    assert read_patterns_tsv(path) == [
        SentencePattern(frame, Voice(voice), tuple(parse_fe_token(t) for t in tokens), "lu.v", f"s{i}")
        for i, (frame, voice, tokens) in enumerate(rows)
    ]
