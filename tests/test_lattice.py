"""The one-pass settings lattice against an oracle written from the settings
definitions alone: for each id, filter the examples by its switches, then
group what is left. The oracle never calls the aggregation code."""

import csv
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from valgram import pipeline
from valgram.aggregate import (
    ALL_SETTINGS_IDS,
    Settings,
    aggregate_corpus,
    aggregate_lattice,
)
from valgram.compare import MatchLevel, MatchMode, intersect
from valgram.coverage import coverage
from valgram.frames import Coreness
from valgram.grammar import derive_lu_module
from valgram.ingest import Dialect, parse_corpus
from valgram.normalize import (
    FeRealization,
    RglType,
    SentencePattern,
    Skip,
    SkipReason,
    SynFunction,
    Voice,
    normalize_corpus,
    write_patterns_tsv,
)
from helpers import oracle_coverage


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def _key(r, generalize):
    syn = "" if r.syn_function is SynFunction.NONE else r.syn_function.value
    typ = r.rgl_type.value if generalize else r.native_type
    return (r.fe_name, typ, syn, r.coreness is Coreness.NONCORE)


def _token(r, generalize):
    return r.rgl_token() if generalize else r.native_token()


def oracle(patterns, settings):
    """(valences, kept patterns, drops, stats cells) of one settings id.

    Valences are (frame, voice, FE keys, count, sentence variants, LU refs)
    tuples sorted by (frame, voice, FE keys)."""
    generalize = settings.generalize_types
    unconsidered, other_drops, kept = [], [], []
    for p in patterns:
        untyped = [r for r in p.realizations if r.rgl_type is None]
        if settings.skip_unconsidered and untyped:
            first = untyped[0]
            unconsidered.append(Skip(
                p.sentence_id,
                first.skip_reason or SkipReason.UNCONSIDERED_PHRASE_TYPE,
                f"{first.fe_name}:{first.native_type}",
            ))
            continue
        reals = list(p.realizations)
        if settings.drop_noncore:
            reals = [r for r in reals if r.coreness is not Coreness.NONCORE]
            if not reals:
                other_drops.append(Skip(p.sentence_id, SkipReason.EMPTY_AFTER_NONCORE_REMOVAL))
                continue
        if settings.dedupe_repeated_fes:
            names = [r.fe_name for r in reals]
            mixed = sorted({
                name for name in names
                if len({_key(r, generalize)[1] for r in reals if r.fe_name == name}) > 1
            })
            if mixed:
                other_drops.append(
                    Skip(p.sentence_id, SkipReason.MIXED_REPEATED_FE_TYPES, ",".join(mixed))
                )
                continue
            reals = [r for i, r in enumerate(reals) if r.fe_name not in names[:i]]
        kept.append(SentencePattern(p.frame, p.voice, tuple(reals), p.lu_ref, p.sentence_id))

    groups = {}
    for p in kept:
        key = (p.frame, p.voice.value, tuple(sorted({_key(r, generalize) for r in p.realizations})))
        count, variants = groups.setdefault(key, [0, Counter()])
        groups[key][0] = count + 1
        variants[" ".join(_token(r, generalize) for r in p.realizations)] += 1
    if settings.drop_singleton_valences:
        groups = {key: group for key, group in groups.items() if group[0] > 1}
        kept = [
            p for p in kept
            if (p.frame, p.voice.value,
                tuple(sorted({_key(r, generalize) for r in p.realizations}))) in groups
        ]
    valences = [
        (frame, voice, fes, count, dict(variants))
        for (frame, voice, fes), (count, variants) in sorted(groups.items())
    ]
    return valences, kept, unconsidered + other_drops, _stats_cells(settings.id, valences)


def _stats_cells(settings_id, valences):
    frames = len({v[0] for v in valences})
    n_valences = len(valences)
    sentences = sum(len(v[4]) for v in valences)
    examples = sum(v[3] for v in valences)
    return [
        settings_id,
        str(frames),
        str(n_valences),
        f"{n_valences / frames if frames else 0.0:.1f}",
        str(sentences),
        f"{sentences / n_valences if n_valences else 0.0:.1f}",
        str(examples),
        f"{examples / sentences if sentences else 0.0:.1f}",
    ]


def _row_cells(r):
    """A statistics row as the cells of its CSV line."""
    return [
        r.settings_id,
        str(r.frames),
        str(r.valence_total),
        f"{r.valence_per_frame:.1f}",
        str(r.sentence_total),
        f"{r.sentences_per_valence:.1f}",
        str(r.examples_total),
        f"{r.examples_per_sentence:.1f}",
    ]


def _plain(valences):
    return [
        (v.frame, v.voice.value, v.fes, v.count, v.sentence_variants)
        for v in valences
    ]


def check_against_oracle(patterns):
    """Every settings id through aggregate_corpus, aggregate_lattice and
    both branches of pipeline.aggregate_patterns, against the oracle."""
    expected = {sid: oracle(patterns, Settings.from_id(sid)) for sid in ALL_SETTINGS_IDS}
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = Path(tmp) / "stats.csv"
        for sid in ALL_SETTINGS_IDS:
            settings = Settings.from_id(sid)
            valences, kept, drops, _ = expected[sid]

            got_valences, got_kept, got_drops = aggregate_corpus(patterns, settings)
            assert (_plain(got_valences), got_kept, got_drops) == (valences, kept, drops), sid

            rows, got_valences, got_kept, got_drops = aggregate_lattice(patterns, settings)
            assert (_plain(got_valences), got_kept, got_drops) == (valences, kept, drops), sid
            assert [_row_cells(r) for r in rows] == [
                expected[s][3] for s in ALL_SETTINGS_IDS
            ], sid

            for stats_out in (None, stats_path):
                got_valences, got_kept = pipeline.aggregate_patterns(
                    patterns, settings, stats_out=stats_out
                )
                assert (_plain(got_valences), got_kept) == (valences, kept), (sid, stats_out)
            with stats_path.open(encoding="utf-8", newline="") as f:
                rows = list(csv.reader(f))[1:]
            assert rows == [expected[s][3] for s in ALL_SETTINGS_IDS], sid


# ---------------------------------------------------------------------------
# Bundled corpora
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dialect", list(Dialect))
def test_lattice_matches_oracle_on_bundled_corpora(dialect, data_dir, frame_index):
    patterns, _ = normalize_corpus(
        parse_corpus(data_dir / f"{dialect.value}_mini.xml", dialect), frame_index,
        skip_unconsidered=False,
    )
    check_against_oracle(patterns)


# ---------------------------------------------------------------------------
# Generated pattern lists
# ---------------------------------------------------------------------------

# (interlingual type, syntactic function) -> native tags that map onto it.
_NATIVE = {
    (RglType.NP, SynFunction.SUBJ): ["NP.Ext", "NN.SS"],
    (RglType.NP, SynFunction.OBJ): ["NP.Obj", "PP[of].Obj"],
    (RglType.NP, SynFunction.NONE): ["NP.Dep"],
    (RglType.ADV, SynFunction.NONE): ["AVP.Dep", "PP[for].Dep", "AB.AA"],
    (RglType.VP, SynFunction.NONE): ["VPto.Dep"],
    (None, SynFunction.NONE): ["Sfin.Dep", "VPing.Dep"],
}
_FE_NAMES = ["Agent", "Theme", "Goal", "Manner"]


def _realization(fe, rgl, syn, native, noncore, prep=None, reason=None):
    return FeRealization(
        fe, native, rgl, syn, prep if rgl is RglType.ADV else None,
        coreness=Coreness.NONCORE if noncore else Coreness.CORE,
        skip_reason=reason if rgl is None else None,
    )


@st.composite
def realizations(draw, noncore=None, typed=True):
    fe = draw(st.sampled_from(_FE_NAMES))
    rgl, syn = draw(st.sampled_from([k for k in _NATIVE if (k[0] is not None) == typed]))
    return _realization(
        fe, rgl, syn,
        draw(st.sampled_from(_NATIVE[(rgl, syn)])),
        draw(st.booleans()) if noncore is None else noncore,
        prep=draw(st.sampled_from([None, "for", "to"])),
        reason=draw(st.sampled_from([None, SkipReason.UNCONSIDERED_PHRASE_TYPE,
                                     SkipReason.SUBCLAUSE])),
    )


# The kinds of example the lattice treats differently.
KINDS = [
    "plain", "repeat_same_type", "repeat_mixed_types", "repeat_other_syn",
    "repeat_other_native_tags", "all_noncore", "unconsidered", "empty",
]


@st.composite
def example_of_kind(draw, kind, index):
    reals = draw(st.lists(realizations(), min_size=1, max_size=3))
    if kind == "repeat_same_type":
        reals.append(draw(st.sampled_from(reals)))
    elif kind == "repeat_mixed_types":
        r = reals[0]
        other = RglType.VP if r.rgl_type is not RglType.VP else RglType.ADV
        reals.append(_realization(r.fe_name, other, SynFunction.NONE,
                                  _NATIVE[(other, SynFunction.NONE)][0],
                                  r.coreness is Coreness.NONCORE))
    elif kind == "repeat_other_syn":
        fe = reals[0].fe_name
        reals.append(_realization(fe, RglType.NP, SynFunction.SUBJ, "NP.Ext", False))
        reals.append(_realization(fe, RglType.NP, SynFunction.OBJ, "NP.Obj", False))
    elif kind == "repeat_other_native_tags":
        # One interlingual type, two native tag combinations: mixed at
        # native granularity only.
        fe = reals[0].fe_name
        reals.append(_realization(fe, RglType.ADV, SynFunction.NONE, "AVP.Dep", False))
        reals.append(_realization(fe, RglType.ADV, SynFunction.NONE, "PP[for].Dep", False, "for"))
    elif kind == "all_noncore":
        reals = draw(st.lists(realizations(noncore=True), min_size=1, max_size=3))
    elif kind == "unconsidered":
        reals.insert(draw(st.integers(0, len(reals))), draw(realizations(typed=False)))
    elif kind == "empty":
        reals = []
    draw(st.randoms(use_true_random=False)).shuffle(reals)
    return SentencePattern(
        frame=draw(st.sampled_from(["Alpha", "Beta"])),
        voice=draw(st.sampled_from([Voice.ACT, Voice.PASS])),
        realizations=tuple(reals),
        lu_ref=draw(st.sampled_from(["a.v.1", "b.v.2", "c.v.3"])),
        sentence_id=f"h{index:03d}",
    )


@st.composite
def pattern_lists(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=0, max_size=25))
    patterns = [draw(example_of_kind(kind, i)) for i, kind in enumerate(kinds)]
    # Copies make valences used more than once, which 3.x keeps.
    return patterns + draw(st.lists(st.sampled_from(patterns), max_size=10)) if patterns else []


def every_kind():
    """One fixed list holding each kind of example, most of them twice."""
    r = _realization
    agent = r("Agent", RglType.NP, SynFunction.SUBJ, "NP.Ext", False)
    theme = r("Theme", RglType.NP, SynFunction.OBJ, "NP.Obj", False)
    manner = r("Manner", RglType.ADV, SynFunction.NONE, "AVP.Dep", True)
    goal_pp = r("Goal", RglType.ADV, SynFunction.NONE, "PP[for].Dep", False, "for")
    goal_avp = r("Goal", RglType.ADV, SynFunction.NONE, "AVP.Dep", False)
    goal_vp = r("Goal", RglType.VP, SynFunction.NONE, "VPto.Dep", False)
    agent_obj = r("Agent", RglType.NP, SynFunction.OBJ, "NP.Obj", False)
    clause = r("Theme", None, SynFunction.NONE, "Sfin.Dep", False, reason=SkipReason.SUBCLAUSE)
    bodies = [
        (agent, theme), (agent, manner, theme), (agent, theme, agent),
        (agent, goal_pp, goal_vp), (agent, agent_obj), (agent, goal_pp, goal_avp),
        (manner,), (agent, clause), (),
    ]
    once = SentencePattern("Alpha", Voice.ACT, (agent, goal_vp), "lu.v.1", "k99")
    return [
        SentencePattern("Alpha", voice, body, f"lu.v.{i % 2}", f"k{i:02d}{voice.value}")
        for i, body in enumerate(bodies + bodies[:-2])
        for voice in (Voice.ACT, Voice.PASS)
    ] + [once]


@given(pattern_lists())
@example(every_kind())
def test_lattice_matches_oracle_on_generated_patterns(patterns):
    check_against_oracle(patterns)


def test_every_kind_covers_each_drop_and_each_variant():
    # The fixed example above reaches every drop reason under some id, and
    # under 1.A it is mixed where 2.A is not (native tags differ).
    patterns = every_kind()
    reasons = {
        sid: Counter(drop.reason for drop in oracle(patterns, Settings.from_id(sid))[2])
        for sid in ALL_SETTINGS_IDS
    }
    assert reasons["2.B"].keys() == {
        SkipReason.SUBCLAUSE, SkipReason.EMPTY_AFTER_NONCORE_REMOVAL,
        SkipReason.MIXED_REPEATED_FE_TYPES,
    }
    assert reasons["1.A"][SkipReason.MIXED_REPEATED_FE_TYPES] > reasons["2.A"][
        SkipReason.MIXED_REPEATED_FE_TYPES
    ]
    assert len(oracle(patterns, Settings.from_id("3.B"))[0]) < len(
        oracle(patterns, Settings.from_id("2.B"))[0]
    )


# ---------------------------------------------------------------------------
# Shared and copied realizations tuples
# ---------------------------------------------------------------------------

@st.composite
def shared_tuple_lists(draw):
    """Drawn pattern lists in which equal realizations tuples are different
    objects, some of equal but different realizations, and one tuple object
    is shared by examples of other frames, voices, sentence ids and LUs."""
    patterns = draw(pattern_lists())
    if not patterns:
        return patterns
    copies = {
        "same": lambda reals: reals,
        "tuple": lambda reals: tuple([*reals]),
        "realizations": lambda reals: tuple(replace(r) for r in reals),
    }
    out = [
        replace(p, realizations=copies[draw(st.sampled_from(list(copies)))](p.realizations))
        for p in patterns
    ]
    others = draw(st.lists(st.tuples(
        st.sampled_from(out), st.sampled_from(["Alpha", "Beta"]),
        st.sampled_from([Voice.ACT, Voice.PASS]), st.sampled_from(["a.v.1", "b.v.2", "d.v.4"]),
    ), max_size=10))
    out += [
        SentencePattern(frame, voice, p.realizations, lu_ref, f"s{i:03d}")
        for i, (p, frame, voice, lu_ref) in enumerate(others)
    ]
    return draw(st.permutations(out))


def _patterns_tsv(patterns, native):
    return "".join(
        f"{p.frame}\t{p.voice.value}\t{' '.join(_token(r, not native) for r in p.realizations)}"
        f"\t{p.lu_ref}\t{p.sentence_id}\n"
        for p in patterns
    )


_ARITIES = ["V", "V2", "V3"]


def _lu_functions(patterns):
    """(name, arity, frame) of each LU, from a count of each example's
    complements: typed FEs that are objects or VPs."""
    best = {}
    for p in patterns:
        complements = sum(
            1 for r in p.realizations if r.rgl_type is not None
            and (r.rgl_type is RglType.VP or r.syn_function is SynFunction.OBJ)
        )
        arity = _ARITIES[min(complements, 2)]
        key = (p.lu_ref.split(".")[0], p.frame)
        best[key] = max(best.get(key, arity), arity, key=_ARITIES.index)
    return sorted((f"{lemma}_{arity}_{frame}", arity, frame) for (lemma, frame), arity in best.items())


@given(shared_tuple_lists())
def test_shared_and_copied_tuples_give_the_per_example_results(patterns):
    # Sharing a tuple is only a speed-up: every result is the one computed
    # from each example on its own.
    check_against_oracle(patterns)
    typed = [p for p in patterns if all(r.rgl_type is not None for r in p.realizations)]
    # (patterns, the same patterns built per example, native types)
    cases = [(patterns, patterns, True), (typed, typed, False)]
    for sid in ALL_SETTINGS_IDS:
        settings = Settings.from_id(sid)
        cases.append((
            aggregate_corpus(patterns, settings)[1], oracle(patterns, settings)[1],
            not settings.skip_unconsidered,
        ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "patterns.tsv"
        for got, expected, native in cases:
            write_patterns_tsv(got, path, native=native)
            assert path.read_text(encoding="utf-8") == _patterns_tsv(expected, native)
            assert [
                (f.name, f.verb_arity, f.frame) for f in derive_lu_module(got, "x")
            ] == _lu_functions(expected)

    left = aggregate_corpus(patterns, Settings.from_id("2.B"))[0]
    right = aggregate_corpus(patterns[::2], Settings.from_id("2.A"))[0]
    finals = [intersect(left, right, level, mode) for level in MatchLevel for mode in MatchMode]
    for order in (finals, finals[::-1]):
        examples = [replace(p) for p in patterns]
        for final in order:
            report = coverage(final, examples)
            assert (report.covered, report.in_shared_frames, report.total) == oracle_coverage(
                final, examples
            )
