import random
from dataclasses import replace

import pytest

from valgram.aggregate import Settings, aggregate_corpus, read_valences_tsv
from valgram.compare import MatchLevel, MatchMode, SharedPattern, SharedPatternSet, intersect
from valgram.coverage import coverage
from valgram.frames import Coreness
from valgram.ingest import Dialect, parse_corpus
from valgram.normalize import FeRealization, SkipReason, Voice, normalize_corpus
from helpers import EXAMPLE_TOKENS, mk, oracle_coverage, random_side, random_valences, vp


@pytest.fixture()
def desiring_final(data_dir):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences.tsv")
    return intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)


def test_covered_example(desiring_final):
    example = mk("Desiring", "Act", "Experiencer_NP.Subj Event_VP")
    report = coverage(desiring_final, [example])
    assert report.covered == 1 and report.in_shared_frames == 1 and report.total == 1


def test_uncovered_example(desiring_final):
    # The Event-as-object pattern exists only on the left side, so the final
    # set does not cover it.
    example = mk("Desiring", "Act", "Event_NP.Obj Experiencer_NP.Subj")
    report = coverage(desiring_final, [example])
    assert report.covered == 0 and report.in_shared_frames == 1


def test_example_outside_final_frames(desiring_final):
    example = mk("Motion", "Act", "Theme_NP.Subj")
    report = coverage(desiring_final, [example])
    assert report.covered == 0 and report.in_shared_frames == 0 and report.total == 1


def test_subsumption_covers_fewer_expressed_fes(desiring_final):
    example = mk("Desiring", "Act", "Event_VP")
    report = coverage(desiring_final, [example])
    assert report.covered == 1


def test_voice_must_match_at_syntactic_level(desiring_final):
    example = mk("Desiring", "Pass", "Experiencer_NP.Obj Event_VP")
    report = coverage(desiring_final, [example])
    assert report.covered == 0  # final fixture set is active-voice only


def _covered_by(example, level, fes):
    """Whether the one-pattern final set with FE set ``fes`` covers the example."""
    voice = None if level is MatchLevel.SEMANTIC else example.voice.value
    final = SharedPatternSet(
        level=level, mode=MatchMode.EXACT,
        patterns=[SharedPattern(example.frame, voice, frozenset(fes))],
        left_total=1, right_total=1, union_total=1, intersection_total=1,
        left_only=0, right_only=0,
    )
    report = coverage(final, [replace(example)])
    assert report.in_shared_frames == 1
    return report.covered == 1


def assert_reduced(example, level, expected):
    """The example's reduced set at the level is ``expected``: that set
    covers it, and the set minus any one token does not."""
    assert _covered_by(example, level, expected)
    for token in expected:
        assert not _covered_by(example, level, expected - {token})


def test_reduced_example_drops_noncore_order_preps():
    example = mk("Desiring", "Act", "Opt_Degree_Adv Event_Adv[for] Experiencer_NP.Subj")
    assert_reduced(example, MatchLevel.SEMANTIC_SYNTACTIC, {"Event_Adv", "Experiencer_NP"})
    assert_reduced(example, MatchLevel.SEMANTIC, {"Event", "Experiencer"})


def test_reduced_example_collapses_repeats():
    example = mk("Desiring", "Act", "Event_VP Event_VP Experiencer_NP.Subj")
    assert_reduced(example, MatchLevel.SEMANTIC_SYNTACTIC, {"Event_VP", "Experiencer_NP"})
    assert_reduced(example, MatchLevel.SEMANTIC, {"Event", "Experiencer"})


def test_untyped_core_fe_counts_at_the_semantic_level_only():
    # Settings that keep unconsidered examples (0.0) pass FEs without an
    # interlingual type on to coverage.
    untyped = FeRealization(
        "Event", "VPfin.Dep", None, skip_reason=SkipReason.UNCONSIDERED_PHRASE_TYPE
    )
    noncore = replace(untyped, fe_name="Degree", coreness=Coreness.NONCORE)
    typed = mk("Desiring", "Act", "Experiencer_NP.Subj")
    example = replace(typed, realizations=(untyped, noncore) + typed.realizations)
    assert_reduced(example, MatchLevel.SEMANTIC, {"Event", "Experiencer"})
    assert_reduced(example, MatchLevel.SEMANTIC_SYNTACTIC, {"Experiencer_NP"})


def test_replaced_example_is_reduced_again(desiring_final):
    example = mk("Desiring", "Act", "Experiencer_NP.Subj Event_VP")
    assert coverage(desiring_final, [example]).covered == 1
    moved = replace(
        example, realizations=mk("Desiring", "Act", "Event_NP.Obj Experiencer_NP.Subj").realizations
    )
    assert coverage(desiring_final, [moved]).covered == 0
    assert coverage(desiring_final, [replace(example, voice=Voice.PASS)]).covered == 0
    assert coverage(desiring_final, [example]).covered == 1


def test_cover_keys_do_not_leak_between_levels(bfn_mini, swefn_mini, frame_index):
    sides = [
        normalize_corpus(parse_corpus(path, dialect), frame_index)[0]
        for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini))
    ]
    left, right = (aggregate_corpus(p, Settings.from_id("2.B"))[0] for p in sides)
    examples = sides[0] + sides[1]
    for mode in MatchMode:
        finals = {level: intersect(left, right, level, mode) for level in MatchLevel}
        expected = {
            level: coverage(final, [replace(p) for p in examples])
            for level, final in finals.items()
        }
        assert all(report.covered for report in expected.values())
        for order in (list(MatchLevel), list(MatchLevel)[::-1]):
            reused = [replace(p) for p in examples]
            for level in order:
                assert coverage(finals[level], reused) == expected[level]


def test_coverage_matches_a_count_of_each_example():
    # One example list serves both levels and several shared sets, in both
    # orders. Keys repeat, within one example object and across equal ones,
    # and Giving examples lie outside every final set's frames.
    rng = random.Random(20261020)
    for _ in range(40):
        distinct = []
        for _ in range(rng.randint(1, 8)):
            frame, voice = rng.choice(["Desiring", "Motion", "Giving"]), rng.choice(["Act", "Pass"])
            tokens = rng.sample(EXAMPLE_TOKENS, rng.randint(1, 3))
            distinct += [mk(frame, voice, " ".join(tokens)), mk(frame, voice, " ".join(tokens[::-1]))]
        finals = [
            intersect(random_valences(rng), random_valences(rng), level, mode)
            for level in MatchLevel for mode in MatchMode for _ in range(2)
        ]
        for order in (finals, finals[::-1]):
            fresh = [replace(p) for p in distinct]
            reused = fresh + [rng.choice(fresh) for _ in range(2 * len(fresh))]
            for final in order:
                report = coverage(final, reused)
                assert (report.covered, report.in_shared_frames, report.total) == oracle_coverage(
                    final, reused
                )
                assert (report.level, report.mode) == (final.level.value, final.mode.value)


def test_self_coverage_is_total(bfn_mini, swefn_mini, frame_index):
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(parse_corpus(path, dialect), frame_index)
        settings = Settings.from_id("2.B")
        valences, filtered, _ = aggregate_corpus(patterns, settings)
        final = intersect(valences, valences, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
        report = coverage(final, filtered)
        assert report.covered == report.in_shared_frames == report.total
        assert report.pct_of_shared == 1.0


def test_coverage_monotone_in_mode_and_level():
    rng = random.Random(31)
    for _ in range(25):
        left = random_side(rng)
        right = random_side(rng)
        examples = [
            mk(p.frame, p.voice.value,
               " ".join(f"{fe}_{ty}" + (f".{syn}" if syn else "") for fe, ty, syn, _ in p.fes))
            for p in left
        ]
        reports = {}
        for level in MatchLevel:
            for mode in MatchMode:
                final = intersect(left, right, level, mode)
                reports[(level, mode)] = coverage(final, examples)
        for level in MatchLevel:
            assert (
                reports[(level, MatchMode.FUZZY)].covered
                >= reports[(level, MatchMode.EXACT)].covered
            )
        for mode in MatchMode:
            assert (
                reports[(MatchLevel.SEMANTIC, mode)].covered
                >= reports[(MatchLevel.SEMANTIC_SYNTACTIC, mode)].covered
            )


def test_counts_and_percentages_consistent(desiring_final):
    examples = [
        mk("Desiring", "Act", "Experiencer_NP.Subj Event_VP"),
        mk("Desiring", "Act", "Event_NP.Obj Experiencer_NP.Subj"),
        mk("Desiring", "Act", "Experiencer_NP.Subj Focal_participant_NP.Obj"),
        mk("Motion", "Act", "Theme_NP.Subj"),
    ]
    report = coverage(desiring_final, examples)
    assert report.covered <= report.in_shared_frames <= report.total
    assert report.covered == 2 and report.in_shared_frames == 3 and report.total == 4
    assert report.pct_of_shared == pytest.approx(2 / 3, abs=1e-3)
    assert report.pct_of_all == pytest.approx(2 / 4, abs=1e-3)
    assert report.frame_level_covered == 3
    assert report.frame_level_pct == pytest.approx(3 / 4, abs=1e-3)


def test_empty_examples():
    final = intersect(
        [vp("Desiring", "Act", ["Event_VP"])],
        [vp("Desiring", "Act", ["Event_VP"])],
        MatchLevel.SEMANTIC_SYNTACTIC,
        MatchMode.EXACT,
    )
    report = coverage(final, [])
    assert report.total == 0
    assert report.pct_of_all == 0.0
