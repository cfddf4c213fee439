import csv
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgram import pipeline
from valgram.aggregate import (
    ALL_SETTINGS_IDS,
    Settings,
    aggregate_corpus,
    aggregate_lattice,
    ValencePattern,
    frame_summary,
    read_valences_tsv,
    write_valences_tsv,
)
from helpers import mk, valences_by_settings
from valgram.frames import Coreness
from valgram.ingest import Dialect, parse_corpus
from valgram.normalize import (
    FeRealization,
    RglType,
    SentencePattern,
    SkipReason,
    SynFunction,
    Voice,
    fe_key_token,
    normalize_corpus,
    parse_fe_key,
)

def keys(valences):
    return {(v.frame, v.voice.value, v.fes) for v in valences}


# ---------------------------------------------------------------------------
# Settings lattice
# ---------------------------------------------------------------------------

def test_settings_flag_assignments():
    s = Settings.from_id("2.B")
    assert s.generalize_types and s.skip_unconsidered
    assert s.dedupe_repeated_fes and s.drop_noncore
    assert not s.drop_singleton_valences
    s = Settings.from_id("0.0")
    assert not any([s.generalize_types, s.skip_unconsidered, s.dedupe_repeated_fes,
                    s.drop_noncore, s.drop_singleton_valences])
    s = Settings.from_id("3.A")
    assert s.drop_singleton_valences and s.dedupe_repeated_fes and not s.drop_noncore
    assert [sid for sid in ALL_SETTINGS_IDS] == [
        "0.0", "1.0", "1.A", "1.B", "2.0", "2.A", "2.B", "3.0", "3.A", "3.B",
    ]


def test_unknown_settings_id():
    with pytest.raises(ValueError, match="4.C"):
        Settings.from_id("4.C")


def test_inconsistent_flag_combination_rejected():
    with pytest.raises(ValueError):
        Settings("x", generalize_types=True, skip_unconsidered=False,
                 dedupe_repeated_fes=False, drop_noncore=False,
                 drop_singleton_valences=False)


# ---------------------------------------------------------------------------
# Settings filter: the kept patterns and drops of aggregate_corpus
# ---------------------------------------------------------------------------

def test_repeated_identical_fes_collapse():
    p = mk("Desiring", "Act", "Experiencer_NP.Subj Experiencer_NP.Subj Event_VP")
    kept, dropped = aggregate_corpus([p], Settings.from_id("2.A"))[1:]
    assert dropped == []
    assert [r.rgl_token() for r in kept[0].realizations] == [
        "Experiencer_NP.Subj", "Event_VP",
    ]


def test_repeated_fes_of_different_types_drop_example():
    p = mk("Motion", "Act", "Theme_NP.Subj Theme_Adv Goal_Adv")
    kept, dropped = aggregate_corpus([p], Settings.from_id("2.A"))[1:]
    assert kept == []
    assert dropped[0].reason == SkipReason.MIXED_REPEATED_FE_TYPES.value


def test_noncore_fes_removed_core_intact():
    p = mk("Desiring", "Act", "Experiencer_NP.Subj Opt_Degree_Adv Event_NP.Obj")
    kept, _ = aggregate_corpus([p], Settings.from_id("2.B"))[1:]
    assert [r.rgl_token() for r in kept[0].realizations] == [
        "Experiencer_NP.Subj", "Event_NP.Obj",
    ]


def test_example_left_empty_after_noncore_removal_is_dropped():
    p = mk("Desiring", "Act", "Opt_Degree_Adv")
    kept, dropped = aggregate_corpus([p], Settings.from_id("2.B"))[1:]
    assert kept == []
    assert dropped[0].reason == "EmptyAfterNonCoreRemoval"


def test_settings_filter_is_idempotent():
    patterns = [
        mk("Desiring", "Act", "Experiencer_NP.Subj Experiencer_NP.Subj Opt_Manner_Adv Event_VP"),
        mk("Desiring", "Pass", "Event_NP.Subj"),
    ]
    for sid in ("2.A", "2.B"):
        settings = Settings.from_id(sid)
        once, _ = aggregate_corpus(patterns, settings)[1:]
        twice, dropped = aggregate_corpus(once, settings)[1:]
        assert twice == once
        assert dropped == []


# ---------------------------------------------------------------------------
# Grouping: the reference block, which no setting filters
# ---------------------------------------------------------------------------

def desiring_active_block():
    patterns = []
    patterns += [mk("Desiring", "Act", "Experiencer_NP.Subj Event_VP") for _ in range(51)]
    patterns += [mk("Desiring", "Act", "Event_VP Experiencer_NP.Subj") for _ in range(2)]
    patterns += [mk("Desiring", "Act", "Experiencer_NP.Subj Event_NP.Obj") for _ in range(26)]
    patterns += [mk("Desiring", "Act", "Event_NP.Obj Experiencer_NP.Subj") for _ in range(12)]
    patterns += [mk("Desiring", "Act", "Experiencer_NP.Subj Event_Adv[for]") for _ in range(20)]
    patterns += [mk("Desiring", "Act", "Experiencer_NP.Subj Event_Adv[after]") for _ in range(3)]
    patterns += [mk("Desiring", "Act", "Event_VP")]
    return patterns


def test_reference_grouping_counts():
    valences, _, dropped = aggregate_corpus(desiring_active_block(), Settings.from_id("2.B"))
    assert dropped == []
    by_string = {v.fes_string(): v for v in valences}
    assert set(by_string) == {
        "Event_VP  Experiencer_NP.Subj",
        "Event_NP.Obj  Experiencer_NP.Subj",
        "Event_Adv  Experiencer_NP.Subj",
        "Event_VP",
    }
    assert by_string["Event_VP  Experiencer_NP.Subj"].count == 53
    assert by_string["Event_VP  Experiencer_NP.Subj"].sentence_variants == {
        "Experiencer_NP.Subj Event_VP": 51,
        "Event_VP Experiencer_NP.Subj": 2,
    }
    assert by_string["Event_NP.Obj  Experiencer_NP.Subj"].count == 38
    assert by_string["Event_NP.Obj  Experiencer_NP.Subj"].sentence_variants == {
        "Experiencer_NP.Subj Event_NP.Obj": 26,
        "Event_NP.Obj Experiencer_NP.Subj": 12,
    }
    assert by_string["Event_Adv  Experiencer_NP.Subj"].count == 23
    assert by_string["Event_VP"].count == 1


def test_prepositions_ignored_in_grouping_kept_in_variants():
    patterns = [
        mk("Desiring", "Act", "Experiencer_NP.Subj Event_Adv[for]"),
        mk("Desiring", "Act", "Experiencer_NP.Subj Event_Adv[after]"),
    ]
    (v,), _, dropped = aggregate_corpus(patterns, Settings.from_id("2.B"))
    assert dropped == []
    assert v.fes_string() == "Event_Adv  Experiencer_NP.Subj"
    assert sorted(v.sentence_variants) == [
        "Experiencer_NP.Subj Event_Adv[after]",
        "Experiencer_NP.Subj Event_Adv[for]",
    ]


def test_empty_input_empty_output():
    assert aggregate_corpus([], Settings.from_id("2.B")) == ([], [], [])


def test_grouping_is_order_independent():
    patterns = desiring_active_block()
    shuffled = patterns[:]
    random.Random(7).shuffle(shuffled)
    a, _, dropped_a = aggregate_corpus(patterns, Settings.from_id("2.B"))
    b, _, dropped_b = aggregate_corpus(shuffled, Settings.from_id("2.B"))
    assert dropped_a == dropped_b == []
    assert {(v.frame, v.voice, v.fes, v.count) for v in a} == {
        (v.frame, v.voice, v.fes, v.count) for v in b
    }
    assert {v.fes: v.sentence_variants for v in a} == {v.fes: v.sentence_variants for v in b}


def test_voices_never_merge():
    patterns = [
        mk("Desiring", "Act", "Experiencer_NP.Subj Event_NP.Obj"),
        mk("Desiring", "Pass", "Event_NP.Subj Experiencer_NP.Obj"),
    ]
    valences, _, dropped = aggregate_corpus(patterns, Settings.from_id("2.B"))
    assert dropped == []
    assert len(valences) == 2
    assert {v.voice for v in valences} == {Voice.ACT, Voice.PASS}


def test_singleton_valences_dropped_under_3x():
    patterns = desiring_active_block()
    with_singletons, _, dropped_2a = aggregate_corpus(patterns, Settings.from_id("2.A"))
    without, _, dropped_3a = aggregate_corpus(patterns, Settings.from_id("3.A"))
    assert dropped_2a == dropped_3a == []
    assert {v.fes_string() for v in with_singletons} - {v.fes_string() for v in without} == {
        "Event_VP"
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def test_mini_corpus_stats_under_2b(bfn_mini, frame_index):
    patterns, _ = normalize_corpus(parse_corpus(bfn_mini, Dialect.BFN_PHRASE), frame_index)
    rows, valences, _, _ = aggregate_lattice(patterns, Settings.from_id("2.B"))
    (row,) = [r for r in rows if r.settings_id == "2.B"]
    # Hand enumeration of the seven fixture lines: four active groups
    # ({Event_NP,Experiencer_NP}x3, {Event_Adv,Experiencer_NP},
    #  {Event_VP,Experiencer_NP}, {Event_VP}) plus one passive group.
    assert row.frames == 1
    assert row.valence_total == 5
    assert sum(1 for v in valences if v.voice is Voice.ACT) == 4
    assert row.sentence_total == 6
    assert row.examples_total == 7
    assert row.valence_per_frame == pytest.approx(5.0)
    assert row.sentences_per_valence == pytest.approx(6 / 5)
    assert row.examples_per_sentence == pytest.approx(7 / 6)


def test_empty_corpus_all_zero_row():
    rows, _, _, _ = aggregate_lattice([], Settings.from_id("2.B"))
    assert [row.settings_id for row in rows] == ALL_SETTINGS_IDS
    for row in rows:
        assert (row.frames, row.valence_total, row.sentence_total, row.examples_total) == (
            0, 0, 0, 0
        )
        assert row.valence_per_frame == 0.0


def test_stats_table_covers_all_settings(tmp_path, bfn_mini, frame_index):
    patterns, _ = normalize_corpus(
        parse_corpus(bfn_mini, Dialect.BFN_PHRASE), frame_index, skip_unconsidered=False
    )
    out = tmp_path / "stats.csv"
    pipeline.aggregate_patterns(patterns, Settings.from_id("2.B"), stats_out=out)
    with out.open(encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["settings"] for r in rows] == ALL_SETTINGS_IDS


def test_stats_out_aggregates_every_settings_id_in_one_pass(
    tmp_path, bfn_mini, frame_index, monkeypatch
):
    patterns, _ = normalize_corpus(
        parse_corpus(bfn_mini, Dialect.BFN_PHRASE), frame_index, skip_unconsidered=False
    )

    class Walked(list):
        passes = 0

        def __iter__(self):
            Walked.passes += 1
            return super().__iter__()

    calls = []
    monkeypatch.setattr(pipeline, "aggregate_corpus", lambda *a: calls.append(a))
    settings = Settings.from_id("3.B")
    valences, filtered = pipeline.aggregate_patterns(
        Walked(patterns), settings, stats_out=tmp_path / "stats.csv"
    )
    assert Walked.passes == 1 and calls == []
    assert (valences, filtered) == aggregate_corpus(patterns, settings)[:2]


def test_summary_layout():
    valences, _, dropped = aggregate_corpus(desiring_active_block(), Settings.from_id("2.B"))
    assert dropped == []
    text = frame_summary(valences, "Desiring", Voice.ACT)
    lines = text.splitlines()
    assert lines[0] == "Desiring Act"
    heads = [line for line in lines[1:] if not line.startswith("  ")]
    assert [h.split(" : ")[-1] for h in heads] == ["53", "38", "23", "1"]
    assert heads[0].startswith("Event_VP  Experiencer_NP.Subj")
    first_variants = lines[2:4]
    assert first_variants[0].strip().startswith("Experiencer_NP.Subj Event_VP")
    assert first_variants[0].strip().endswith("51")
    assert first_variants[1].strip().endswith("2")


def test_valences_tsv_round_trip(tmp_path):
    valences, _, dropped = aggregate_corpus(desiring_active_block(), Settings.from_id("2.B"))
    assert dropped == []
    path = tmp_path / "valences.tsv"
    write_valences_tsv(valences, path)
    loaded = read_valences_tsv(path)
    assert {(v.frame, v.voice, v.fes, v.count) for v in loaded} == {
        (v.frame, v.voice, v.fes, v.count) for v in valences
    }


# ---------------------------------------------------------------------------
# Lattice monotonicity properties
# ---------------------------------------------------------------------------

_FRAMES = {
    "Alpha": {"core": ["Agent", "Theme"], "noncore": ["Manner", "Time"]},
    "Beta": {"core": ["Item", "Goal"], "noncore": ["Place"]},
}

_NATIVE = {
    (RglType.NP, SynFunction.SUBJ): "NP.Ext",
    (RglType.NP, SynFunction.OBJ): "NP.Obj",
    (RglType.ADV, SynFunction.NONE): "AVP.Dep",
    (RglType.VP, SynFunction.NONE): "VPto.Dep",
    (None, SynFunction.NONE): "Sfin.Dep",
}


def _real(fe, rgl, syn, noncore):
    return FeRealization(
        fe_name=fe,
        native_type=_NATIVE[(rgl, syn)],
        rgl_type=rgl,
        syn_function=syn,
        coreness=Coreness.NONCORE if noncore else Coreness.CORE,
        skip_reason=SkipReason.UNCONSIDERED_PHRASE_TYPE if rgl is None else None,
    )


@st.composite
def synthetic_corpus(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    patterns = []
    for i in range(n):
        frame = draw(st.sampled_from(sorted(_FRAMES)))
        spec = _FRAMES[frame]
        fe_pool = [(fe, False) for fe in spec["core"]] + [(fe, True) for fe in spec["noncore"]]
        chosen = draw(
            st.lists(st.sampled_from(fe_pool), min_size=1, max_size=4, unique=True)
        )
        reals = []
        has_subj = False
        for fe, noncore in chosen:
            rgl = draw(st.sampled_from([RglType.NP, RglType.NP, RglType.ADV, RglType.VP, None]))
            if rgl is RglType.NP:
                syn = SynFunction.OBJ if has_subj else SynFunction.SUBJ
                has_subj = True
            else:
                syn = SynFunction.NONE
            reals.append(_real(fe, rgl, syn, noncore))
        # Repeats: either an exact copy of one realization, or a core FE
        # repeated with a different type (which the x.A settings must drop).
        if draw(st.booleans()) and reals:
            reals.append(draw(st.sampled_from(reals)))
        if draw(st.integers(0, 3)) == 0:
            core_reals = [r for r in reals if r.coreness is Coreness.CORE
                          and r.rgl_type is RglType.ADV]
            if core_reals:
                conflicting = _real(core_reals[0].fe_name, RglType.VP, SynFunction.NONE, False)
                reals.append(conflicting)
        patterns.append(SentencePattern(
            frame=frame,
            voice=draw(st.sampled_from([Voice.ACT, Voice.PASS])),
            realizations=tuple(reals),
            lu_ref="lu.v.1",
            sentence_id=f"h{i}",
        ))
    return patterns


@given(synthetic_corpus())
def test_lattice_monotonicity(patterns):
    # The x=3 filter chain is deliberately absent here: dropping non-core FEs
    # can merge two once-used groups into one reused group, so 3.B can exceed
    # 3.A on adversarial corpora. The guaranteed relations are checked on any
    # input; the full chain is pinned on the bundled corpora below.
    results = valences_by_settings(patterns)
    for x in ("1", "2"):
        assert len(results[f"{x}.B"]) <= len(results[f"{x}.A"]) <= len(results[f"{x}.0"])
    assert len(results["2.0"]) <= len(results["1.0"]) <= len(results["0.0"])
    for y in ("0", "A", "B"):
        assert keys(results[f"3.{y}"]) <= keys(results[f"2.{y}"])
        assert len(results[f"3.{y}"]) <= len(results[f"2.{y}"])
        frames3 = {v.frame for v in results[f"3.{y}"]}
        frames2 = {v.frame for v in results[f"2.{y}"]}
        assert frames3 <= frames2


def test_full_lattice_chain_on_bundled_corpora(bfn_mini, swefn_mini, frame_index):
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(
            parse_corpus(path, dialect), frame_index, skip_unconsidered=False
        )
        results = valences_by_settings(patterns)
        for x in ("1", "2", "3"):
            assert len(results[f"{x}.B"]) <= len(results[f"{x}.A"]) <= len(results[f"{x}.0"])


@given(synthetic_corpus())
def test_settings_filter_idempotent_property(patterns):
    for sid in ("1.A", "2.A", "2.B", "3.B"):
        settings = Settings.from_id(sid)
        once, _ = aggregate_corpus(patterns, settings)[1:]
        twice, dropped = aggregate_corpus(once, settings)[1:]
        assert twice == once and dropped == []


@given(synthetic_corpus(), st.randoms(use_true_random=False))
def test_grouping_order_independence_property(patterns, rng):
    settings = Settings.from_id("2.B")
    shuffled = patterns[:]
    rng.shuffle(shuffled)
    kept_a, _ = aggregate_corpus(patterns, settings)[1:]
    kept_b, _ = aggregate_corpus(shuffled, settings)[1:]
    a, _, dropped_a = aggregate_corpus(kept_a, settings)
    b, _, dropped_b = aggregate_corpus(kept_b, settings)
    assert dropped_a == dropped_b == []
    assert {(v.frame, v.voice, v.fes, v.count) for v in a} == {
        (v.frame, v.voice, v.fes, v.count) for v in b
    }


@given(synthetic_corpus())
def test_no_valence_group_mixes_voices(patterns):
    results = valences_by_settings(patterns)
    for valences in results.values():
        seen = {}
        for v in valences:
            key = (v.frame, tuple(v.fes))
            seen.setdefault(key, set()).add(v.voice)
        # same FE set may exist in both voices, but only as separate groups
        for v in valences:
            assert isinstance(v.voice, Voice)


def test_fe_key_token_rendering():
    assert fe_key_token(("Event", "NP", "Obj", False)) == "Event_NP.Obj"
    assert fe_key_token(("Degree", "Adv", "", True)) == "Opt_Degree_Adv"


@pytest.mark.parametrize("key", [
    ("Event", "NP", "Obj", False),
    ("Degree", "Adv", "", True),
    ("Focal_participant", "NP", "Subj", False),
    ("Event", "NP.Obj", "Obj", False),
    ("Event", "PP[for].Dep", "", False),
    ("Location_of_Event", "VPto.Dep", "", True),
    ("Experiencer", "PN.SS", "Subj", False),
    ("Event", "VB.INF.VG", "", False),
])
def test_parse_fe_key_inverts_fe_key_token(key):
    assert parse_fe_key(fe_key_token(key)) == key


@pytest.mark.parametrize("token", ["Event", "Event_", "_NP", "Event_NP.Subj.Obj_x"])
def test_parse_fe_key_rejects_malformed_tokens(token):
    with pytest.raises(ValueError, match="cannot parse FE token"):
        parse_fe_key(token)


def test_valences_tsv_rejects_key_that_reads_back_differently(tmp_path):
    # BFN AVP with GF Obj generalizes to Adv with no syntactic function, so
    # the native key has no syn while its token "Manner_AVP.Obj" reads back
    # as type AVP with syn Obj.
    r = FeRealization(
        fe_name="Manner", native_type="AVP.Obj", rgl_type=RglType.ADV,
        syn_function=SynFunction.NONE,
    )
    assert r.native_key == ("Manner", "AVP.Obj", "", False)
    v = ValencePattern(
        frame="Desiring", voice=Voice.ACT, fes=(r.native_key,), count=1,
        sentence_variants={},
    )
    with pytest.raises(ValueError, match=r"\('Manner', 'AVP.Obj', '', False\)"):
        write_valences_tsv([v], tmp_path / "valences.tsv")


@pytest.mark.parametrize("sid", ALL_SETTINGS_IDS)
def test_bundled_corpus_keys_round_trip(tmp_path, sid, bfn_mini, swefn_mini, frame_index):
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(
            parse_corpus(path, dialect), frame_index, skip_unconsidered=False
        )
        valences, _, _ = aggregate_corpus(patterns, Settings.from_id(sid))
        keys = {k for v in valences for k in v.fes}
        assert keys
        for k in keys:
            assert parse_fe_key(fe_key_token(k)) == k
        out = tmp_path / f"{path.stem}.valences.tsv"
        write_valences_tsv(valences, out)
        assert [(v.frame, v.voice, v.fes, v.count) for v in read_valences_tsv(out)] == [
            (v.frame, v.voice, v.fes, v.count) for v in valences
        ]
