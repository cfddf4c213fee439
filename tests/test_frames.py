import pytest
from hypothesis import given
from hypothesis import strategies as st

from valgram.frames import (
    Coreness,
    FrameDef,
    FrameIndexError,
    load_frame_index,
)

DESIRING_CORE = {"Event", "Experiencer", "Focal_participant", "Location_of_Event"}
DESIRING_NONCORE = {
    "Cause", "Degree", "Duration", "Manner", "Place", "Purpose_of_Event",
    "Reason", "Role_of_focal_participant", "Time", "Time_of_Event",
}


def test_load_desiring_rows(frame_index):
    fdef = frame_index.defs["Desiring"]
    assert fdef.core_fes == frozenset(DESIRING_CORE)
    assert fdef.noncore_fes == frozenset(DESIRING_NONCORE)


def test_empty_file_gives_empty_index():
    index = load_frame_index(b"")
    assert index.defs == {}


def test_duplicate_core_rows_union():
    index = load_frame_index(
        "Desiring\tcore\tEvent,Experiencer\n"
        "Desiring\tcore\tExperiencer,Focal_participant\n"
    )
    assert index.defs["Desiring"].core_fes == frozenset(
        {"Event", "Experiencer", "Focal_participant"}
    )


def test_core_noncore_clash_is_load_error():
    with pytest.raises(FrameIndexError, match="Desiring"):
        load_frame_index("Desiring\tcore\tEvent\nDesiring\tnoncore\tEvent\n")


def test_coreness_values(frame_index):
    assert frame_index.coreness("Desiring", "Event") is Coreness.CORE
    assert frame_index.coreness("Desiring", "Degree") is Coreness.NONCORE


def test_coreness_unknown_fe_and_frame(frame_index):
    with pytest.raises(FrameIndexError) as excinfo:
        frame_index.coreness("Desiring", "Weather")
    assert "Weather" in str(excinfo.value) and "Desiring" in str(excinfo.value)
    with pytest.raises(FrameIndexError, match="Nonexistent"):
        frame_index.coreness("Nonexistent", "Event")


def test_same_fe_name_may_differ_across_frames():
    index = load_frame_index(
        "Desiring\tnoncore\tDegree\nControl\tcore\tDegree\n"
    )
    assert index.coreness("Desiring", "Degree") is Coreness.NONCORE
    assert index.coreness("Control", "Degree") is Coreness.CORE


def test_merged_precedence():
    merged = load_frame_index(
        "Desiring\tcore\tEvent\nMotion\tcore\tTheme\n", "Desiring\tcore\tEvent,Experiencer\n"
    )
    assert merged.defs["Desiring"].core_fes == frozenset({"Event", "Experiencer"})
    assert merged.defs["Motion"].core_fes == frozenset({"Theme"})


def test_later_sources_replace_earlier_frames_whole(tmp_path):
    base, overlay = tmp_path / "base.tsv", tmp_path / "overlay.tsv"
    base.write_text("Desiring\tcore\tEvent\nDesiring\tnoncore\tDegree\n", encoding="utf-8")
    overlay.write_text("Desiring\tcore\tExperiencer\n", encoding="utf-8")
    index = load_frame_index(base, b"Motion\tcore\tTheme\n", overlay)
    assert index.defs == {
        "Desiring": FrameDef("Desiring", frozenset({"Experiencer"}), frozenset()),
        "Motion": FrameDef("Motion", frozenset({"Theme"}), frozenset()),
    }


@pytest.mark.parametrize("text,message", [
    ("Desiring\tcore\n", ":1: expected 3 tab-separated fields, got 2"),
    ("# c\nDesiring\tcore\tA.b\n", ":2: FE tokens cannot carry the FE names ['A.b']"),
    ("Desiring\tkernel\tEvent\n", ":1: unknown coreness kind 'kernel'"),
    ("Desiring\tcore\tEvent\nDesiring\tnoncore\tEvent\n",
     ": frame 'Desiring' lists ['Event'] as both core and non-core"),
], ids=["fields", "fe-name", "kind", "clash"])
def test_errors_in_a_file_start_with_its_path(tmp_path, text, message):
    path = tmp_path / "index.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FrameIndexError) as excinfo:
        load_frame_index(b"Motion\tcore\tTheme\n", path)
    assert str(excinfo.value) == f"{path}{message}"


@pytest.mark.parametrize("name", ["Exp.erien[cer", "Opt_x", "A]b", "Exp erien"])
def test_fe_name_the_token_format_cannot_carry_is_a_load_error(name):
    with pytest.raises(FrameIndexError, match="^line 2: ") as excinfo:
        load_frame_index(f"Desiring\tcore\tEvent\nDesiring\tnoncore\tDegree,{name}\n")
    assert repr(name) in str(excinfo.value)


fe_names = st.text(
    alphabet=st.sampled_from("ABCDEFGHabcdefgh_"), min_size=1, max_size=8
).filter(lambda s: not s.startswith("_"))


@given(
    st.dictionaries(
        st.sampled_from(["FrameA", "FrameB", "FrameC"]),
        st.tuples(st.sets(fe_names, max_size=4), st.sets(fe_names, max_size=4)),
        max_size=3,
    )
)
def test_load_emit_identity_on_canonical_files(frame_defs):
    lines = []
    for frame in sorted(frame_defs):
        core, noncore = frame_defs[frame]
        noncore = noncore - core  # keep the fixture consistent
        if core:
            lines.append(f"{frame}\tcore\t{','.join(sorted(core))}")
        if noncore:
            lines.append(f"{frame}\tnoncore\t{','.join(sorted(noncore))}")
    canonical = "\n".join(lines) + ("\n" if lines else "")
    drawn = {
        frame: FrameDef(frame, frozenset(core), frozenset(noncore - core))
        for frame, (core, noncore) in frame_defs.items()
        if core or noncore - core
    }
    assert load_frame_index(canonical).defs == drawn


def test_coreness_is_context_free(frame_index):
    # Same answer no matter how often or in which order we ask.
    answers = [frame_index.coreness("Desiring", "Manner") for _ in range(3)]
    assert answers == [Coreness.NONCORE] * 3
