"""A corpus side parsed in two processes: the same records, skip warnings,
JSON-lines bytes and errors as the parse in one process, and no process
left behind."""

import random
import signal
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import check_corrupted_sentence, load_corpus_generator, sub_records
from valgram import ingest
from valgram.ingest import (
    CorpusParseError, Dialect, FeSpan, TokenSpan, WordAnno, parse_corpus,
)
from valgram.pipeline import ingest_corpora

BFN = Dialect.BFN_PHRASE


def force_two_processes(mp: pytest.MonkeyPatch) -> SimpleNamespace:
    """Take the two-process path at any size and CPU count, and record each
    child process started and each file that ``parse_corpora`` parses whole
    in this process."""
    seen = SimpleNamespace(children=[], whole=[])

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.children.append(self)

    def parse_pieces(pieces, dialect, parse_pieces=ingest._parse_pieces):
        # parse_corpora parses every file whole itself only when the side is
        # not parsed in two processes, or after they failed.
        if sys._getframe(1).f_code is ingest.parse_corpora.__code__:
            seen.whole.extend(path for path, *_ in pieces)
        return parse_pieces(pieces, dialect)

    mp.setattr(subprocess, "Popen", RecordedPopen)
    mp.setattr(ingest, "_two_processes_pay", lambda size: True)
    mp.setattr(ingest, "_parse_pieces", parse_pieces)
    return seen


@pytest.fixture
def forced(monkeypatch):
    return force_two_processes(monkeypatch)


def _warnings(caplog):
    return [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


def _assert_same_as_one_process(
    tmp_path, caplog, seen, paths, dialect, *, split=True, child_failure=None
):
    """The records, JSON-lines bytes and skip warnings are those of the parse
    in one process. ``split``: the two-process parse ran to its end, rather
    than fall back to parsing every file whole. ``child_failure``: why the
    child failed, logged once before the warnings of the one-process parse."""
    caplog.clear()
    with pytest.MonkeyPatch.context() as mp, caplog.at_level("WARNING"):
        mp.setattr(ingest, "_two_processes_pay", lambda size: False)
        serial = ingest_corpora(paths, dialect, tmp_path / "one.jsonl")
    serial_warnings = _warnings(caplog)
    caplog.clear()
    seen.whole.clear()
    seen.children.clear()
    with caplog.at_level("WARNING"):
        records = ingest_corpora(paths, dialect, tmp_path / "two.jsonl")
    assert records == serial
    assert (tmp_path / "two.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
    failed = [] if child_failure is None else [(
        "valgram.ingest", "WARNING",
        f"the second {ingest._DIALECT_PARSERS[dialect][1]} parse process failed "
        f"({child_failure}); parsing the side in one process",
    )]
    assert _warnings(caplog) == failed + serial_warnings
    assert all(child.returncode is not None for child in seen.children)
    if split:
        assert seen.whole == []
        assert [child.returncode for child in seen.children] == [0]
    else:
        assert seen.whole == sorted(paths)
    return records, serial_warnings


def _sentence(sid: str, *, bad: bool = False, lu: str = "want.v") -> str:
    # A bad record's FE offsets overlap no text: it is skipped and logged.
    return (
        f'<sentence ID="{sid}"><text>They want it.</text>\n'
        f'<annotationSet status="MANUAL" frameName="Desiring" luName="{lu}" luID="1">\n'
        f'<layer name="FE"><label start="0" end="{30 if bad else 3}" name="Experiencer"/></layer>\n'
        '<layer name="GF"><label start="0" end="3" name="Ext"/></layer>\n'
        '<layer name="PT"><label start="0" end="3" name="NP"/></layer>\n'
        '<layer name="Target"><label start="5" end="8" name="Target"/></layer>\n'
        "</annotationSet></sentence>\n"
    )


def _corpus(sentences, head="<corpus>\n", tail="</corpus>\n") -> str:
    return head + "".join(sentences) + tail


@pytest.mark.parametrize("dialect", list(Dialect))
def test_mini_corpus_in_two_processes_matches_one(tmp_path, caplog, forced, data_dir, dialect):
    path = data_dir / f"{dialect.value}_mini.xml"
    first, second = ingest._two_parts([path])
    # One document, cut in two after a sentence.
    assert [piece[0] for piece in first + second] == [path, path]
    cut = second[0][2]
    assert first[0][3] == cut and path.read_bytes()[:cut].endswith(b"</sentence>")
    records, _ = _assert_same_as_one_process(tmp_path, caplog, forced, [path], dialect)
    assert records == sorted(parse_corpus(path, dialect), key=lambda s: s.sentence_id)


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad=st.lists(st.booleans(), min_size=2, max_size=14))
def test_skip_warnings_keep_their_order_in_two_processes(tmp_path_factory, caplog, bad):
    # The skipped records fall in either piece; their warnings still come in
    # document order, once each.
    tmp = tmp_path_factory.mktemp("skips")
    path = tmp / "corpus.xml"
    path.write_text(_corpus(_sentence(f"s{i:02d}", bad=b) for i, b in enumerate(bad)))
    with pytest.MonkeyPatch.context() as mp:
        records, warnings = _assert_same_as_one_process(
            tmp, caplog, force_two_processes(mp), [path], BFN
        )
    assert [s.sentence_id for s in records] == [f"s{i:02d}" for i, b in enumerate(bad) if not b]
    assert [message for _, _, message in warnings] == [
        f"skipping BFN record: sentence 's{i:02d}': "
        "FE 'Experiencer' offsets 0..30 overlap no text (length 13)"
        for i, b in enumerate(bad) if b
    ] + ([f"no BFN record in 1 file(s) ({path}): {len(bad)} skipped"] if all(bad) else [])


def test_side_of_several_files_is_cut_in_the_file_at_the_middle(tmp_path, caplog, forced):
    paths = [tmp_path / f"{name}.xml" for name in "abc"]
    sizes = (2, 8, 2)
    for n, (path, size) in enumerate(zip(paths, sizes)):
        path.write_text(_corpus(_sentence(f"{n}-{i}", bad=i == 5) for i in range(size)))
    first, second = ingest._two_parts(paths)
    assert [piece[0] for piece in first] == paths[:2]
    assert [piece[0] for piece in second] == paths[1:]
    _assert_same_as_one_process(tmp_path, caplog, forced, paths, BFN)


@pytest.mark.parametrize("dialect", list(Dialect))
@pytest.mark.parametrize("split", [False, True], ids=["one-process", "two-processes"])
def test_a_side_of_many_files_holds_each_record_once_per_process(
    tmp_path, monkeypatch, dialect, split
):
    # 200 files that repeat one set of annotations, shaped as a release's LU
    # files (sentences under a subCorpus), so the parts are whole files.
    gen = load_corpus_generator()
    build = gen.build_bfn_corpus if dialect is BFN else gen.build_swefn_corpus
    xml = build(20, gen.build_frames(10, random.Random(3)), seed=4)
    xml = xml.replace("<corpus>", "<corpus><subCorpus>", 1).replace(
        "</corpus>", "</subCorpus></corpus>"
    )
    paths = [tmp_path / f"{n:03d}.xml" for n in range(200)]
    for path in paths:
        path.write_text(xml, encoding="utf-8")
    if split:
        seen = force_two_processes(monkeypatch)
        whole = [(path, *ingest._WHOLE) for path in paths]
        assert ingest._two_parts(paths) == (whole[:100], whole[100:])
    else:
        monkeypatch.setattr(ingest, "_two_processes_pay", lambda size: False)
    records = ingest_corpora(paths, dialect)
    per_file = len(records) // len(paths)
    assert per_file and len(records) == per_file * len(paths)
    parts = [records]
    if split:
        assert seen.whole == [] and [child.returncode for child in seen.children] == [0]
        parts = [records[:100 * per_file], records[100 * per_file:]]
    for part in parts:
        one: dict = {}
        for record in sub_records(part):
            assert one.setdefault(record, record) is record
        assert {type(record) for record in one} == {TokenSpan, WordAnno, FeSpan}


def _long_named_side(tmp_path):
    """1,500 small corpus files with 200-character names: the paths of the
    second part alone pass the 128 KiB that Linux allows one argument, and
    the pickled job outgrows a pipe's 64 KiB buffer."""
    paths = [tmp_path / f"{n:04d}{'x' * 196}" for n in range(1_500)]
    for n, path in enumerate(paths):
        path.write_text(_corpus(_sentence(f"{n}-{i}", bad=n % 7 == i) for i in range(2)))
    _, second = ingest._two_parts(paths)
    assert len(paths[0].name) == 200
    assert sum(len(str(piece[0])) for piece in second) > 128 * 1024
    return paths


def test_a_job_longer_than_one_argument_reaches_the_child(tmp_path, caplog, forced):
    _assert_same_as_one_process(tmp_path, caplog, forced, _long_named_side(tmp_path), BFN)


def test_a_child_that_ends_before_reading_its_job_falls_back(tmp_path, caplog, forced, monkeypatch):
    # The write of the job meets a pipe that no process reads.
    monkeypatch.setattr(ingest, "_CHILD", "pass")
    paths = _long_named_side(tmp_path)
    _assert_same_as_one_process(
        tmp_path, caplog, forced, paths, BFN, split=False, child_failure="exit code 0"
    )
    assert [child.returncode for child in forced.children] == [0]


def test_files_that_cannot_be_cut_are_split_whole(tmp_path, caplog, forced):
    # Sentences under <subCorpus>: no file is cut, each part is whole files.
    paths = [tmp_path / f"{name}.xml" for name in "abcd"]
    for n, path in enumerate(paths):
        path.write_text(_corpus(
            [_sentence(f"{n}-{i}", bad=i == 1) for i in range(3)],
            head="<lexUnit><subCorpus>\n", tail="</subCorpus></lexUnit>\n",
        ))
    whole = [(path, 0, 0, None, b"") for path in paths]
    assert ingest._two_parts(paths) == (whole[:2], whole[2:])
    _assert_same_as_one_process(tmp_path, caplog, forced, paths, BFN)


def test_prolog_doctype_and_namespaces_reach_the_second_piece(tmp_path, caplog, forced):
    # The second piece needs the entity declared in the DOCTYPE and the
    # namespace declared on the root; it reads the header again, which
    # holds no sentence.
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n<!-- a comment <sentence> -->\n'
        '<!DOCTYPE corpus [<!ENTITY lu "want.v">]>\n'
        '<fn:corpus xmlns:fn="urn:example:fn" fn:release="1.7" note="a > b">\n'
        "<header><fn:frame name='Desiring'/></header>\n"
    )
    path = tmp_path / "corpus.xml"
    path.write_text(_corpus(
        [_sentence(f"s{i}", lu="&lu;") + "<fn:meta n='1'/>\n" for i in range(6)],
        head=head, tail="</fn:corpus>\n",
    ))
    first, second = ingest._two_parts([path])
    assert first[0][4] == b"</fn:corpus>"
    assert path.read_bytes()[second[0][1]:].startswith(b'<sentence ID="s0">')
    records, _ = _assert_same_as_one_process(tmp_path, caplog, forced, [path], BFN)
    assert {s.lu_ref for s in records} == {"want.v.1"} and len(records) == 6


def test_a_token_longer_than_a_read_reaches_every_parse(tmp_path, forced):
    # Expat 2.6 and later hold back a token longer than the input fed so
    # far, and may report it only when the parser is closed. The sentence
    # holding it ends the document, and so the second piece.
    lu = "want" * 25_000
    assert len(lu) > ingest._CHUNK
    path = tmp_path / "corpus.xml"
    path.write_text(_corpus([*(_sentence(f"s{i:03d}") for i in range(300)), _sentence("long", lu=lu)]))
    records = parse_corpus(path, BFN)
    assert [s.sentence_id for s in records[-2:]] == ["s299", "long"]
    assert records[-1].lu_ref == f"{lu}.1"
    assert parse_corpus(path.read_bytes(), BFN) == records
    first, second = ingest._two_parts([path])
    assert second[0][2] < path.read_bytes().index(b'"long"')
    parsed, _ = ingest._parse_in_two_processes(first, second, BFN)
    assert [record for _, piece in parsed for record in piece] == records
    assert [child.returncode for child in forced.children] == [0]


def test_sentences_under_a_subcorpus_fall_back(tmp_path, caplog, forced):
    path = tmp_path / "corpus.xml"
    path.write_text(_corpus(
        [_sentence(f"s{i}") for i in range(6)], head="<corpus><subCorpus>\n",
        tail="</subCorpus></corpus>\n",
    ))
    assert ingest._two_parts([path]) is None
    _assert_same_as_one_process(tmp_path, caplog, forced, [path], BFN, split=False)
    assert forced.children == []


def test_a_cut_inside_a_subcorpus_falls_back(tmp_path, caplog, forced):
    # The first sentence is a child of the root, the cut lands in a later
    # <subCorpus>: the first piece is malformed, and the whole document is
    # parsed in this process.
    path = tmp_path / "corpus.xml"
    path.write_text(_corpus(
        [_sentence("s0"), "<subCorpus>\n", *(_sentence(f"s{i}") for i in range(1, 8)),
         "</subCorpus>\n"]
    ))
    assert ingest._two_parts([path]) is not None
    _assert_same_as_one_process(tmp_path, caplog, forced, [path], BFN, split=False)
    assert len(forced.children) == 1


def test_a_child_that_cannot_start_falls_back(tmp_path, caplog, forced, monkeypatch, data_dir):
    def cannot_start(*args, **kwargs):
        raise OSError(7, "Argument list too long")

    monkeypatch.setattr(subprocess, "Popen", cannot_start)
    path = data_dir / "bfn_mini.xml"
    _assert_same_as_one_process(
        tmp_path, caplog, forced, [path], BFN, split=False,
        child_failure="cannot start: [Errno 7] Argument list too long",
    )
    assert forced.children == []


def _malformed(tmp_path, where: str):
    """A corpus file made malformed in its first part, its second part, or
    right at the cut, and the byte offset that expat reports for the fault."""
    sentences = [_sentence(f"s{i}") for i in range(10)]
    path = tmp_path / "corpus.xml"
    path.write_text(_corpus(sentences))
    data = path.read_bytes()
    if where == "cut":
        at = ingest._two_parts([path])[1][0][2]
        data = data[:at] + b"<&" + data[at:]
    else:
        at = data.index(b"</text>", data.index(b'"s1"' if where == "first" else b'"s8"'))
        data = data[:at] + b"</txet>" + data[at + len(b"</text>"):]
    path.write_bytes(data)
    if where == "cut":
        assert ingest._two_parts([path])[1][0][2] == at
    # Expat points at the "&", or at the name in the mismatched end tag.
    return path, at + (1 if where == "cut" else 2)


@pytest.mark.parametrize("where", ["first", "second", "cut"])
def test_malformed_xml_gives_the_one_process_error(tmp_path, forced, where):
    path, offset = _malformed(tmp_path, where)
    with pytest.raises(CorpusParseError) as serial:
        parse_corpus(path, BFN)
    with pytest.raises(CorpusParseError) as split:
        ingest_corpora([path], BFN)
    assert str(split.value) == str(serial.value)
    assert str(split.value).startswith(f"malformed XML at byte {offset} ")
    assert forced.whole == [path]
    assert len(forced.children) == 1 and forced.children[0].returncode is not None


def _no_resource_tracker() -> bool:
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    return tracker is None or tracker._resource_tracker._pid is None


# A child that would outlive the test unless it is ended, and one that
# writes a whole pickle of no records and then exits with an error.
_SLEEPER = "import time; time.sleep(60)"
_FAILS_AFTER_WRITING = "import pickle, sys; pickle.dump(([], []), sys.stdout.buffer); sys.exit(3)"


@pytest.mark.parametrize("case,returncode", [
    ("success", 0),
    ("malformed-first-part", -signal.SIGKILL),
    ("malformed-second-part", 1),
    ("child-fails", 3),
    ("interrupt", -signal.SIGKILL),
])
def test_no_process_outlives_the_ingest(tmp_path, monkeypatch, forced, data_dir, case, returncode):
    path = data_dir / "bfn_mini.xml"
    if case.startswith("malformed"):
        path, _ = _malformed(tmp_path, case.split("-")[1])
        if case == "malformed-first-part":
            monkeypatch.setattr(ingest, "_CHILD", _SLEEPER)
        with pytest.raises(CorpusParseError):
            ingest_corpora([path], BFN)
    elif case == "interrupt":
        def interrupted(pieces, dialect):
            raise KeyboardInterrupt

        monkeypatch.setattr(ingest, "_CHILD", _SLEEPER)
        monkeypatch.setattr(ingest, "_parse_pieces", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ingest_corpora([path], BFN)
    else:
        if case == "child-fails":
            monkeypatch.setattr(ingest, "_CHILD", _FAILS_AFTER_WRITING)
        assert ingest_corpora([path], BFN) == sorted(
            parse_corpus(path, BFN), key=lambda s: s.sentence_id
        )
        assert forced.whole == ([path] if case == "child-fails" else [])
    assert [child.returncode for child in forced.children] == [returncode]
    assert _no_resource_tracker()


def test_two_processes_pay_only_from_the_threshold_and_with_a_second_cpu(monkeypatch):
    threshold = ingest._TWO_PROCESS_MIN_BYTES
    monkeypatch.setattr(ingest.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert ingest._two_processes_pay(threshold)
    assert not ingest._two_processes_pay(threshold - 1)
    monkeypatch.setattr(ingest.os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert not ingest._two_processes_pay(100 * threshold)


@pytest.mark.parametrize("dialect", list(Dialect))
@settings(max_examples=30)
@given(data=st.data())
def test_corrupted_sentence_leaves_the_others_intact_in_two_processes(
    tmp_path_factory, data_dir, dialect, data
):
    path = tmp_path_factory.getbasetemp() / f"corrupted-{dialect.value}.xml"

    def parse_in_two_processes(document: bytes):
        path.write_bytes(document)
        with pytest.MonkeyPatch.context() as mp:
            seen = force_two_processes(mp)
            parsed = ingest._parse_in_two_processes(*ingest._two_parts([path]), dialect)
        assert [child.returncode is not None for child in seen.children] == [True]
        if parsed is None:
            # Only a malformed document falls back, and it fails as a whole.
            parse_corpus(path, dialect)
            pytest.fail("a well-formed document fell back to one process")
        return [record for _, records in parsed[0] for record in records]

    check_corrupted_sentence(data_dir, dialect, data, parse_in_two_processes)
