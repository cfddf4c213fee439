import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valgram import _base, compare, coverage
from valgram.aggregate import ALL_SETTINGS_IDS, read_valences_tsv
from valgram.compare import (
    MatchLevel,
    MatchMode,
    frame_set_report,
    intersect,
    pattern_set_report,
    read_shared_tsv,
    write_shared_tsv,
)
from valgram.ingest import Dialect, parse_corpus
from valgram.normalize import normalize_corpus, promote_unconsidered_skips
from helpers import (
    oracle_coverage,
    oracle_fuzzy_intersection,
    oracle_intersection,
    random_example,
    random_side,
    random_valence,
    random_valences,
    valences_by_settings,
    vp,
)


def final_keys(shared):
    return {(sp.frame, sp.voice, sp.fes) for sp in shared.patterns}


# ---------------------------------------------------------------------------
# Subsumption
# ---------------------------------------------------------------------------

def subsumes(a, b, level):
    """True iff fuzzy intersect on one-pattern sides admits b through a."""
    shared = intersect([b], [a], level, MatchMode.FUZZY)
    return shared.left_total - shared.left_only == 1


def same_key(a, b, level):
    """True iff exact intersect on one-pattern sides admits the pair."""
    return intersect([a], [b], level, MatchMode.EXACT).intersection_total == 1


def test_subsumes_subset():
    a = vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"])
    b = vp("Desiring", "Act", ["Event_VP"])
    assert subsumes(a, b, MatchLevel.SEMANTIC_SYNTACTIC)
    assert not subsumes(b, a, MatchLevel.SEMANTIC_SYNTACTIC)


def test_subsumes_reflexive():
    a = vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"])
    assert subsumes(a, a, MatchLevel.SEMANTIC_SYNTACTIC)
    assert subsumes(a, a, MatchLevel.SEMANTIC)


def test_subsumes_frame_mismatch():
    a = vp("Desiring", "Act", ["Event_VP"])
    b = vp("Motion", "Act", ["Event_VP"])
    assert not subsumes(a, b, MatchLevel.SEMANTIC_SYNTACTIC)
    assert not subsumes(a, b, MatchLevel.SEMANTIC)


def test_subsumes_voice_matters_only_at_syntactic_level():
    a = vp("Desiring", "Act", ["Event_NP.Obj", "Experiencer_NP.Subj"])
    b = vp("Desiring", "Pass", ["Event_NP.Subj"])
    assert not subsumes(a, b, MatchLevel.SEMANTIC_SYNTACTIC)
    assert subsumes(a, b, MatchLevel.SEMANTIC)


def test_semantic_level_ignores_types_and_syn_functions():
    a = vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"])
    b = vp("Desiring", "Pass", ["Event_NP.Subj", "Experiencer_NP.Obj"])
    assert same_key(a, b, MatchLevel.SEMANTIC)
    assert not same_key(a, b, MatchLevel.SEMANTIC_SYNTACTIC)


def test_noncore_fes_keep_their_opt_prefix_at_both_levels():
    keys = vp("Desiring", "Act", ["Opt_Degree_Adv", "Experiencer_NP.Subj"]).fes
    assert MatchLevel.SEMANTIC.tokens(keys) == frozenset({"Opt_Degree", "Experiencer"})
    assert MatchLevel.SEMANTIC_SYNTACTIC.tokens(keys) == frozenset(
        {"Opt_Degree_Adv", "Experiencer_NP"}
    )
    for level in MatchLevel:
        assert not same_key(
            vp("Desiring", "Act", ["Opt_Degree_Adv"]), vp("Desiring", "Act", ["Degree_Adv"]), level
        )


_tokens = st.lists(
    st.sampled_from([
        "Event_VP", "Event_NP.Obj", "Event_Adv",
        "Experiencer_NP.Subj", "Focal_participant_NP.Obj", "Focal_participant_Adv",
        "Theme_NP.Obj", "Goal_Adv",
    ]),
    min_size=1, max_size=5, unique=True,
)
_pattern_st = st.builds(
    vp,
    st.sampled_from(["Desiring", "Motion"]),
    st.sampled_from(["Act", "Pass"]),
    _tokens,
)


@given(_pattern_st, _pattern_st, _pattern_st, st.sampled_from(list(MatchLevel)))
def test_subsumes_is_transitive(a, b, c, level):
    if subsumes(a, b, level) and subsumes(b, c, level):
        assert subsumes(a, c, level)


# ---------------------------------------------------------------------------
# Frame set report
# ---------------------------------------------------------------------------

def test_frame_report_disjoint():
    report = frame_set_report([vp("Desiring", "Act", ["Event_VP"])],
                              [vp("Motion", "Act", ["Goal_Adv"])])
    assert (report.intersection, report.union) == (0, 2)
    assert (report.left_only, report.right_only) == (1, 1)


def test_frame_report_identical():
    side = [vp("Desiring", "Act", ["Event_VP"]), vp("Motion", "Act", ["Goal_Adv"])]
    report = frame_set_report(side, side)
    assert report.left_only == 0 and report.right_only == 0
    assert report.intersection == report.left_total == 2
    assert report.intersection_pct == 1.0


def test_frame_report_arithmetic():
    left = [vp(f, "Act", ["Event_VP"]) for f in ("A", "B", "C")]
    right = [vp(f, "Act", ["Event_VP"]) for f in ("B", "C", "D", "E")]
    report = frame_set_report(left, right)
    assert report.left_total + report.right_total - report.intersection == report.union
    assert report.left_only_pct == pytest.approx(1 / 3)
    assert report.right_only_pct == pytest.approx(2 / 4)


# ---------------------------------------------------------------------------
# Intersection: the reference frame
# ---------------------------------------------------------------------------

def test_desiring_final_shared_set(data_dir):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences.tsv")
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    assert {tuple(sorted(sp.fes)) for sp in shared.patterns} == {
        ("Event_VP", "Experiencer_NP"),
        ("Experiencer_NP", "Focal_participant_Adv"),
        ("Experiencer_NP", "Focal_participant_NP"),
    }
    excluded = [
        frozenset({"Event_Adv", "Experiencer_NP", "Focal_participant_NP"}),
        frozenset({"Event_NP", "Experiencer_NP"}),
        frozenset({"Event_VP", "Experiencer_NP", "Focal_participant_NP"}),
    ]
    for fes in excluded:
        assert all(sp.fes != fes for sp in shared.patterns)


def test_identical_sides_exact_equals_fuzzy_admission():
    side = [
        vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"]),
        vp("Desiring", "Act", ["Event_VP"]),
        vp("Motion", "Act", ["Theme_NP.Obj"]),
    ]
    exact = intersect(side, side, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.EXACT)
    fuzzy = intersect(side, side, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    assert exact.intersection_total == fuzzy.intersection_total == 3
    # pruning keeps only the non-subsumed members
    assert final_keys(exact) == final_keys(fuzzy)
    assert {tuple(sorted(sp.fes)) for sp in fuzzy.patterns} == {
        ("Event_VP", "Experiencer_NP"),
        ("Theme_NP",),
    }


def test_single_pattern_identical_fixtures():
    side = [vp("Desiring", "Act", ["Event_VP"])]
    for mode in MatchMode:
        shared = intersect(side, side, MatchLevel.SEMANTIC_SYNTACTIC, mode)
        report = pattern_set_report(shared)
        assert report.final_patterns == 1
        assert report.final_frames == 1
        assert report.intersection_pct == 1.0


def test_patterns_outside_shared_frames_never_enter():
    left = [vp("Desiring", "Act", ["Event_VP"]), vp("Motion", "Act", ["Theme_NP.Obj"])]
    right = [vp("Desiring", "Act", ["Event_VP"])]
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    assert all(sp.frame == "Desiring" for sp in shared.patterns)
    assert shared.left_total == 1  # Motion patterns excluded before comparison


def test_provenance_records_sides_and_subsumers():
    left = [vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"], count=5)]
    right = [
        vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"], count=2),
        vp("Desiring", "Act", ["Event_VP"], count=1),
    ]
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    big = next(sp for sp in shared.patterns if len(sp.fes) == 2)
    assert big.sides == ("left", "right")
    assert big.left_count == 5 and big.right_count == 2
    # the small right-side pattern was admitted via the big left pattern, then pruned
    assert len(shared.patterns) == 1
    assert shared.intersection_total == 2


def test_provenance_pins_subsumers_variants_and_tsv_lines(tmp_path):
    left = [
        vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"], count=5),
        vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Obj"], count=1),
        vp("Motion", "Act", ["Theme_NP.Subj", "Goal_Adv"], count=2),
        vp("Motion", "Act", ["Theme_NP.Subj", "Path_Adv"], count=3),
    ]
    right = [
        vp("Desiring", "Act", ["Event_VP", "Experiencer_NP.Subj"], count=2),
        vp("Motion", "Act", ["Theme_NP.Subj"], count=4),
    ]
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    desiring, motion = shared.patterns
    assert (desiring.frame, desiring.voice, desiring.fes) == (
        "Desiring", "Act", frozenset({"Event_VP", "Experiencer_NP"})
    )
    assert desiring.sides == ("left", "right")
    assert (desiring.left_count, desiring.right_count) == (6, 2)
    assert desiring.subsumed_by == {}
    assert desiring.syn_variants["left"] == [
        ((("Event", "VP", "", False), ("Experiencer", "NP", "Obj", False)), 1),
        ((("Event", "VP", "", False), ("Experiencer", "NP", "Subj", False)), 5),
    ]
    assert (motion.frame, motion.voice, motion.fes) == ("Motion", "Act", frozenset({"Theme_NP"}))
    assert motion.sides == ("right",)
    assert (motion.left_count, motion.right_count) == (0, 4)
    assert motion.subsumed_by == {"right": ["Goal_Adv, Theme_NP", "Path_Adv, Theme_NP"]}
    assert shared.intersection_total == 2

    path = tmp_path / "shared.tsv"
    write_shared_tsv(shared, path)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "# level=semsyn mode=fuzzy",
        'Desiring\tAct\tEvent_VP,Experiencer_NP\t8\t{"sides": ["left", "right"], '
        '"subsumed_by": {}, "syn": {"left": [[["Event_VP", "Experiencer_NP.Obj"], 1], '
        '[["Event_VP", "Experiencer_NP.Subj"], 5]], '
        '"right": [[["Event_VP", "Experiencer_NP.Subj"], 2]]}}',
        'Motion\tAct\tTheme_NP\t4\t{"sides": ["right"], '
        '"subsumed_by": {"right": ["Goal_Adv, Theme_NP", "Path_Adv, Theme_NP"]}, '
        '"syn": {"right": [[["Theme_NP.Subj"], 4]]}}',
    ]

    exact = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.EXACT)
    assert [(sp.frame, sp.fes) for sp in exact.patterns] == [
        ("Desiring", frozenset({"Event_VP", "Experiencer_NP"}))
    ]
    assert exact.intersection_total == 1


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", list(MatchLevel))
def test_fuzzy_intersection_matches_brute_force(level):
    rng = random.Random(20140526)
    for _ in range(60):
        left = random_side(rng)
        right = random_side(rng)
        oracle_admitted, oracle_final = oracle_fuzzy_intersection(left, right, level)
        oracle_final_cmp = set()
        for frame, voice, fes in oracle_final:
            if level is MatchLevel.SEMANTIC:
                oracle_final_cmp.add((frame, None, frozenset(fes)))
            else:
                oracle_final_cmp.add((frame, voice, frozenset(fes)))

        # The second call finds every token set of these valences cached.
        for _ in range(2):
            shared = intersect(left, right, level, MatchMode.FUZZY)
            got_final = set()
            for sp in shared.patterns:
                if level is MatchLevel.SEMANTIC:
                    got_final.add((sp.frame, None, frozenset(sp.fes)))
                else:
                    got_final.add((
                        sp.frame, sp.voice,
                        frozenset(tuple(t.rsplit("_", 1)) for t in sp.fes),
                    ))
            assert got_final == oracle_final_cmp
            assert shared.intersection_total == len(oracle_admitted)


@pytest.mark.parametrize("mode", list(MatchMode))
@pytest.mark.parametrize("level", list(MatchLevel))
def test_intersection_fields_match_brute_force(level, mode):
    rng = random.Random(20261019)
    for _ in range(150):
        left, right = random_valences(rng), random_valences(rng)
        _assert_matches_oracle(intersect(left, right, level, mode), left, right, level, mode)


def _assert_matches_oracle(shared, left, right, level, mode):
    """Every field of the result, the provenance of each final member included."""
    want = oracle_intersection(left, right, level, mode)
    assert (shared.level, shared.mode) == (level, mode)
    assert [sp.sort_key() for sp in shared.patterns] == sorted(
        (frame, voice or "", tuple(sorted(fes))) for frame, voice, fes in want["members"]
    )
    for sp in shared.patterns:
        member = want["members"][sp.frame, sp.voice, sp.fes]
        assert sp.sides == member["sides"]
        assert sp.syn_variants == member["syn_variants"]
        assert sp.subsumed_by == member["subsumed_by"]
    for total in (
        "left_total", "right_total", "union_total", "intersection_total",
        "left_only", "right_only",
    ):
        assert getattr(shared, total) == want[total], total


_FRAMES = ("Desiring", "Motion", "Giving")
_STEPS = st.tuples(
    st.sampled_from(["intersect", "coverage", "append", "pop", "reorder", "copy", "recount"]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(list(MatchLevel)),
    st.sampled_from(list(MatchMode)),
)


@settings(max_examples=150)
@given(st.randoms(use_true_random=False), st.lists(_STEPS, min_size=1, max_size=30))
def test_reuse_across_calls_is_invisible(rng, steps):
    # intersect and coverage reuse what an earlier call derived from the same
    # list. Between calls the lists change in place: items are appended
    # (fresh ones, or one already in the list), popped, reordered, replaced
    # by equal copies, or a valence's count changes. Every result must still
    # be the oracles'.
    valences = [random_valences(rng, _FRAMES) for _ in range(3)]
    examples = [[random_example(rng) for _ in range(rng.randint(0, 12))] for _ in range(2)]
    for op, i, j, level, mode in steps:
        if op in ("intersect", "coverage"):
            left, right = valences[i % 3], valences[j % 3]
            shared = intersect(left, right, level, mode)
            _assert_matches_oracle(shared, left, right, level, mode)
            if op == "coverage":
                side = examples[j % 2]
                report = coverage.coverage(shared, side)
                assert (report.covered, report.in_shared_frames, report.total) == oracle_coverage(
                    shared, side
                )
            continue
        items = (valences + examples)[i]
        if op == "append":
            fresh = random_valence(rng, _FRAMES) if i < 3 else random_example(rng)
            items.append(rng.choice(items) if items and rng.random() < 0.3 else fresh)
        elif op == "reorder":
            rng.shuffle(items)
        elif items:
            k = rng.randrange(len(items))
            if op == "pop":
                items.pop(k)
            elif op == "recount" and i < 3:
                items[k].count += 1
            else:
                items[k] = replace(items[k])


def test_a_settings_sweep_projects_and_counts_each_list_once_per_run_of_calls(
    monkeypatch, bfn_mini, swefn_mini, frame_index
):
    # The sweep's loop order: each left list meets the ten right lists in a
    # row, at both levels and in both modes, and coverage alternates the two
    # sides' examples. A list is projected again only when it was not one of
    # the last two lists at the level: 2 + 9 times per left list and level.
    _base.clear()
    calls = {"_project": 0, "_example_counts": 0}
    for module, name in ((compare, "_project"), (coverage, "_example_counts")):
        def counted(*args, _derive=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _derive(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    examples, valences = [], []
    for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini)):
        patterns, _ = normalize_corpus(parse_corpus(path, dialect), frame_index, skip_unconsidered=False)
        examples.append(promote_unconsidered_skips(patterns)[0])
        valences.append(valences_by_settings(patterns))
    for left in ALL_SETTINGS_IDS:
        for right in ALL_SETTINGS_IDS:
            for level in MatchLevel:
                for mode in MatchMode:
                    shared = intersect(valences[0][left], valences[1][right], level, mode)
                    for side in examples:
                        coverage.coverage(shared, side)
    assert calls == {"_project": 10 * (2 + 9) * 2, "_example_counts": 2 * 2}


def test_token_cache_does_not_leak_between_levels(data_dir):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences_voiced.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences_voiced.tsv")
    combos = [(level, mode) for level in MatchLevel for mode in MatchMode]
    expected = {}
    for level, mode in combos:
        compare._level_tokens.cache_clear()
        expected[level, mode] = intersect(
            [replace(v) for v in left], [replace(v) for v in right], level, mode
        )
    assert expected[MatchLevel.SEMANTIC, MatchMode.FUZZY].patterns != expected[
        MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY
    ].patterns
    for order in (combos, combos[::-1]):
        compare._level_tokens.cache_clear()
        for level, mode in order:
            assert intersect(left, right, level, mode) == expected[level, mode]


def test_key_caches_hold_one_entry_per_distinct_fe_key_set(bfn_mini, swefn_mini, frame_index):
    compare._level_tokens.cache_clear()
    valences = [
        valences_by_settings(normalize_corpus(
            parse_corpus(path, dialect), frame_index, skip_unconsidered=False
        )[0])
        for dialect, path in ((Dialect.BFN_PHRASE, bfn_mini), (Dialect.SWEFN_DEP, swefn_mini))
    ]
    for left in ALL_SETTINGS_IDS:
        for right in ALL_SETTINGS_IDS:
            for level in MatchLevel:
                for mode in MatchMode:
                    intersect(valences[0][left], valences[1][right], level, mode)
    every = [v for side in valences for vs in side.values() for v in vs]
    fe_sets = {v.fes for v in every}
    assert compare._level_tokens.cache_info().currsize <= 2 * len(fe_sets)
    # The ten settings ids share one copy of each FE-key set.
    assert len({id(v.fes) for v in every}) == len(fe_sets) < len(every)


@pytest.mark.parametrize("level", list(MatchLevel))
def test_exact_subset_of_fuzzy_admitted(level):
    rng = random.Random(99)
    for _ in range(40):
        left = random_side(rng)
        right = random_side(rng)
        exact = intersect(left, right, level, MatchMode.EXACT)
        fuzzy = intersect(left, right, level, MatchMode.FUZZY)
        assert exact.intersection_total <= fuzzy.intersection_total


def test_final_set_has_no_subsumed_pair():
    rng = random.Random(7)
    for _ in range(40):
        left = random_side(rng)
        right = random_side(rng)
        for level in MatchLevel:
            for mode in MatchMode:
                shared = intersect(left, right, level, mode)
                keys = [(sp.frame, sp.voice, sp.fes) for sp in shared.patterns]
                for a in keys:
                    for b in keys:
                        if a != b:
                            assert not (a[:2] == b[:2] and b[2] <= a[2])


def test_semantic_final_frames_superset_of_syntactic():
    rng = random.Random(13)
    for _ in range(40):
        left = random_side(rng)
        right = random_side(rng)
        for mode in MatchMode:
            sem = intersect(left, right, MatchLevel.SEMANTIC, mode)
            syn = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, mode)
            assert sem.final_frames() >= syn.final_frames()


# ---------------------------------------------------------------------------
# Serialization and reports
# ---------------------------------------------------------------------------

def test_shared_tsv_round_trip(tmp_path, data_dir):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences_voiced.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences_voiced.tsv")
    shared = intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    path = tmp_path / "shared.tsv"
    write_shared_tsv(shared, path)
    loaded = read_shared_tsv(path)
    assert loaded.level is shared.level and loaded.mode is shared.mode
    assert final_keys(loaded) == final_keys(shared)
    for got, want in zip(
        sorted(loaded.patterns, key=lambda s: s.sort_key()),
        sorted(shared.patterns, key=lambda s: s.sort_key()),
    ):
        assert got.sides == want.sides
        assert got.syn_variants == want.syn_variants
        assert got.combined_count == want.combined_count


@pytest.mark.parametrize("header", [None, "", "# level=syn mode=fuzzy"])
def test_shared_tsv_without_its_header_is_refused(tmp_path, data_dir, header):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences.tsv")
    path = tmp_path / "shared.tsv"
    write_shared_tsv(intersect(left, right, MatchLevel.SEMANTIC, MatchMode.FUZZY), path)
    assert read_shared_tsv(path).level is MatchLevel.SEMANTIC
    rows = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert rows
    path.write_text("".join(([] if header is None else [header + "\n"]) + rows), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: expected a header")):
        read_shared_tsv(path)


def test_pattern_report_percentage_arithmetic(data_dir):
    left = read_valences_tsv(data_dir / "desiring_bfn_valences.tsv")
    right = read_valences_tsv(data_dir / "desiring_swefn_valences.tsv")
    exact = pattern_set_report(
        intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.EXACT)
    )
    # in exact mode the intersection is a plain key intersection
    assert exact.union == exact.left_total + exact.right_total - exact.intersection
    fuzzy = pattern_set_report(
        intersect(left, right, MatchLevel.SEMANTIC_SYNTACTIC, MatchMode.FUZZY)
    )
    # admitted-from-each-side counts overlap exactly on the exact-match keys
    admitted_left = fuzzy.left_total - fuzzy.left_only
    admitted_right = fuzzy.right_total - fuzzy.right_only
    assert fuzzy.intersection == admitted_left + admitted_right - exact.intersection
    for report in (exact, fuzzy):
        assert 0 <= report.intersection <= report.union
        assert report.intersection_pct == pytest.approx(report.intersection / report.union)
        assert report.left_only_pct == pytest.approx(report.left_only / report.left_total)
        assert report.right_only_pct == pytest.approx(report.right_only / report.right_total)
