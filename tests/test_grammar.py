import hashlib
import random
import tracemalloc

import pytest

from valgram.aggregate import Settings, aggregate_corpus, read_valences_tsv
from valgram.compare import MatchLevel, MatchMode, intersect
from valgram.grammar import (
    AbstractGrammar,
    GrammarError,
    choose_verb_arity,
    derive_fe_categories,
    derive_frame_functions,
    derive_grammar,
    derive_lu_module,
    emit_abstract_syntax,
    file_digest,
    render_fe_module,
    render_frame_module,
)
from valgram.ingest import Dialect, parse_corpus
from valgram.normalize import RglType, SynFunction, normalize_corpus, read_patterns_tsv
from helpers import vp


@pytest.fixture()
def desiring_shared(data_dir):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences_voiced.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences_voiced.tsv")
    return intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)


def test_fe_categories_for_desiring(desiring_shared):
    cats = derive_fe_categories(desiring_shared)
    assert [c.name for c in cats] == [
        "Event_VP", "Experiencer_NP", "Focal_participant_Adv", "Focal_participant_NP",
    ]
    assert {c.rgl_type for c in cats} == {RglType.NP, RglType.ADV, RglType.VP}
    assert not any(c.optional for c in cats)


def test_empty_shared_set_gives_empty_categories():
    empty = intersect([], [], MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    assert derive_fe_categories(empty) == []
    assert derive_frame_functions(empty) == []


@pytest.mark.parametrize("tokens,expected", [
    (["Experiencer_NP.Subj", "Event_VP"], "V2"),
    (["Experiencer_NP.Subj", "Focal_participant_Adv"], "V"),
    (["Donor_NP.Subj", "Recipient_NP.Obj", "Theme_NP.Obj"], "V3"),
    (["Event_NP.Subj"], "V"),
    (["Focal_participant_NP.Obj", "Event_VP"], "V3"),
])
def test_choose_verb_arity(tokens, expected):
    pattern = vp("Giving", "Act", tokens)
    assert choose_verb_arity(pattern.fes) == expected


def test_frame_functions_for_desiring(desiring_shared):
    functions = derive_frame_functions(desiring_shared)
    assert [fn.signature() for fn in functions] == [
        "fun Desiring_P1_Act : Experiencer_NP -> Focal_participant_NP -> V2 -> Clause ;",
        "fun Desiring_P1_Pass : Experiencer_NP -> Focal_participant_NP -> V2 -> Clause ;",
        "fun Desiring_P2 : Event_VP -> Experiencer_NP -> V2 -> Clause ;",
        "fun Desiring_P3 : Experiencer_NP -> Focal_participant_Adv -> V -> Clause ;",
    ]


def test_single_voice_pattern_has_no_voice_suffix():
    left = [vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"], count=2)]
    right = [vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"], count=1)]
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    (fn,) = derive_frame_functions(shared)
    assert fn.name == "Desiring_P1"
    assert fn.voice == "Act"


def test_exact_mode_admits_subsuming_pair_then_prunes_to_maximal():
    # Both sides attest the small and the large pattern; the exact
    # intersection holds both keys, but the final set keeps only the
    # maximal one, which the grammar covers via empty arguments.
    side = [
        vp("Desiring", "Act", ["Event_VP"], count=1),
        vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"], count=5),
    ]
    shared = intersect(side, side, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.EXACT)
    assert shared.intersection_total == 2
    functions = derive_frame_functions(shared)
    assert [fn.name for fn in functions] == ["Desiring_P1"]
    assert functions[0].args == ("Event_VP", "Experiencer_NP")


def test_pattern_numbers_follow_descending_combined_count():
    left = [
        vp("Motion", "Act", ["Theme_NP.Subj"], count=2),
        vp("Motion", "Act", ["Goal_Adv", "Theme_NP.Subj"], count=30),
    ]
    right = [
        vp("Motion", "Act", ["Theme_NP.Subj"], count=1),
        vp("Motion", "Act", ["Goal_Adv", "Theme_NP.Subj"], count=4),
    ]
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    functions = derive_frame_functions(shared)
    by_name = {fn.name: fn for fn in functions}
    assert set(by_name) == {"Motion_P1"}  # the singleton pattern is pruned away
    assert by_name["Motion_P1"].args == ("Goal_Adv", "Theme_NP")


def test_grammar_requires_syntactic_level():
    left = [vp("Desiring", "Act", ["Event_VP"])]
    shared = intersect(left, left, MatchLevel.SEMANTIC, MatchMode.FUZZY)
    with pytest.raises(GrammarError, match="semantic-syntactic"):
        derive_frame_functions(shared)


def test_lu_module_for_fixture_patterns(data_dir):
    patterns = read_patterns_tsv(data_dir / "desiring_bfn_patterns.tsv")
    functions = derive_lu_module(patterns, "bfn")
    assert [(fn.name, fn.verb_arity) for fn in functions] == [
        ("want_V2_Desiring", "V2"),
        ("yearn_V_Desiring", "V"),
    ]


def test_lu_module_swedish_names_kept_verbatim(data_dir):
    patterns = read_patterns_tsv(data_dir / "desiring_swefn_patterns.tsv")
    functions = derive_lu_module(patterns, "swefn")
    assert [fn.name for fn in functions] == ["vilja_V2_Desiring", "åtrå_V2_Desiring"]


def test_lu_arity_is_maximum_over_attested_patterns():
    from valgram.normalize import SentencePattern, Voice, parse_fe_token

    def pat(fes, sid):
        return SentencePattern(
            frame="Desiring",
            voice=Voice.ACT,
            realizations=tuple(parse_fe_token(t) for t in fes),
            lu_ref="want.v.6412",
            sentence_id=sid,
        )

    functions = derive_lu_module(
        [pat(["Experiencer_NP.Subj"], "a"),
         pat(["Experiencer_NP.Subj", "Event_NP.Obj"], "b")],
        "bfn",
    )
    assert [(fn.name, fn.verb_arity) for fn in functions] == [("want_V2_Desiring", "V2")]


def test_lu_arities_of_patterns_with_untyped_fes_match_a_count(
    bfn_mini, swefn_mini, frame_index
):
    # Under 0.0 the filtered patterns keep FEs without an interlingual type
    # (one on the SweFN side); such an FE has no syntactic function and adds
    # no complement.
    untyped = 0
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(
            parse_corpus(path, dialect), frame_index, skip_unconsidered=False
        )
        _, filtered, _ = aggregate_corpus(patterns, Settings.from_id("0.0"))
        untyped += sum(r.rgl_type is None for p in filtered for r in p.realizations)
        expected = {}
        for p in filtered:
            complements = sum(
                r.syn_function is SynFunction.OBJ or r.rgl_type is RglType.VP
                for r in p.realizations
            )
            key = (p.lu_ref.split(".")[0], p.frame)
            expected[key] = max(expected.get(key, 0), complements)
        got = {
            (fn.source_lemma, fn.frame): fn.verb_arity
            for fn in derive_lu_module(filtered, dialect.value)
        }
        assert got == {key: ("V", "V2", "V3")[min(n, 2)] for key, n in expected.items()}
    assert untyped


def test_same_lemma_in_two_frames_gives_two_functions():
    from valgram.normalize import SentencePattern, Voice, parse_fe_token

    def pat(frame, sid):
        return SentencePattern(
            frame=frame,
            voice=Voice.ACT,
            realizations=(parse_fe_token("Theme_NP.Subj"),),
            lu_ref="go.v.100",
            sentence_id=sid,
        )

    functions = derive_lu_module([pat("Motion", "a"), pat("Becoming", "b")], "bfn")
    assert [fn.name for fn in functions] == ["go_V_Becoming", "go_V_Motion"]


def test_transliteration_and_collision_detection():
    from valgram.normalize import SentencePattern, Voice, parse_fe_token

    def pat(lu, sid):
        return SentencePattern(
            frame="Desiring",
            voice=Voice.ACT,
            realizations=(parse_fe_token("Experiencer_NP.Subj"),),
            lu_ref=lu,
            sentence_id=sid,
        )

    functions = derive_lu_module([pat("feel like.v.7430", "a")], "bfn")
    assert functions[0].name == "feel_like_V_Desiring"
    assert "-- feel like" in functions[0].signature()

    with pytest.raises(GrammarError, match="collision"):
        derive_lu_module([pat("feel like.v.1", "a"), pat("feel_like.v.2", "b")], "bfn")


def test_lu_absent_when_only_skipped_sentences_attest_it():
    # patterns list is already post-filter; an LU with no surviving pattern
    # simply never reaches the module
    assert derive_lu_module([], "bfn") == []


def test_closed_world_categories(desiring_shared, data_dir):
    grammar = derive_grammar(
        desiring_shared,
        {"bfn": read_patterns_tsv(data_dir / "desiring_bfn_patterns.tsv"),
         "swefn": read_patterns_tsv(data_dir / "desiring_swefn_patterns.tsv")},
    )
    declared = {c.name for c in grammar.categories}
    for fn in grammar.frame_functions:
        assert set(fn.args) <= declared


def test_function_names_and_keys_unique(desiring_shared):
    functions = derive_frame_functions(desiring_shared)
    names = [fn.name for fn in functions]
    assert len(names) == len(set(names))
    keys = [(fn.frame, fn.args, fn.voice) for fn in functions]
    assert len(keys) == len(set(keys))


def test_arguments_alphabetical_verb_last_clause_result(desiring_shared):
    for fn in derive_frame_functions(desiring_shared):
        assert list(fn.args) == sorted(fn.args)
        sig = fn.signature()
        assert sig.endswith(f"{fn.verb_arity} -> Clause ;")


def test_emission_is_deterministic(tmp_path, desiring_shared, data_dir):
    lu = {"bfn": read_patterns_tsv(data_dir / "desiring_bfn_patterns.tsv"),
          "swefn": read_patterns_tsv(data_dir / "desiring_swefn_patterns.tsv")}
    grammar = derive_grammar(desiring_shared, lu, settings_desc="semsyn fuzzy")
    first = emit_abstract_syntax(grammar, tmp_path / "one")
    second = emit_abstract_syntax(grammar, tmp_path / "two")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()


def test_empty_grammar_emits_headers_only(tmp_path):
    grammar = AbstractGrammar(categories=[], frame_functions=[], lu_modules={})
    text = render_frame_module(grammar)
    assert all(line.startswith("--") for line in text.strip().splitlines())
    fe_text = render_fe_module(grammar)
    assert "cat Clause ;" in fe_text
    assert "cat Event_VP" not in fe_text


def test_optional_noncore_categories(tmp_path, data_dir):
    from valgram.grammar import noncore_categories, render_fe_module
    from valgram.normalize import SentencePattern, Voice, parse_fe_token

    patterns = [SentencePattern(
        frame="Desiring",
        voice=Voice.ACT,
        realizations=(
            parse_fe_token("Experiencer_NP.Subj"),
            parse_fe_token("Opt_Degree_Adv"),
        ),
        lu_ref="want.v.6412",
        sentence_id="x",
    )]
    cats = noncore_categories(patterns)
    assert [(c.name, c.optional) for c in cats] == [("Opt_Degree_Adv", True)]

    left = read_valences_tsv(data_dir / "desiring_bfn_valences_voiced.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences_voiced.tsv")
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    grammar = derive_grammar(shared, {"bfn": patterns}, extra_categories=cats)
    fe_text = render_fe_module(grammar)
    assert "cat Opt_Degree_Adv ;" in fe_text
    assert "cat Experiencer_NP ;" in fe_text


# ---------------------------------------------------------------------------
# Input digests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [0, 1000, 3 * 2**20 + 17], ids=["empty", "small", "chunks"])
def test_file_digest_is_the_sha256_of_the_contents(tmp_path, size):
    path = tmp_path / "input.bin"
    path.write_bytes(random.Random(size).randbytes(size))
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_file_digest_memory_is_bounded_by_one_chunk(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(bytes(8 * 2**20))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        file_digest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 2 * 2**20
