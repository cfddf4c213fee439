"""Shared builders and the brute-force intersection and coverage oracles
used across tests."""

import importlib.util
import itertools
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import strategies as st

from valgram.aggregate import ALL_SETTINGS_IDS, Settings, ValencePattern, aggregate_corpus
from valgram.compare import MatchLevel, MatchMode
from valgram.frames import Coreness
from valgram.ingest import CorpusParseError, parse_corpus
from valgram.normalize import SentencePattern, Voice, parse_fe_key, parse_fe_token

_counter = itertools.count()

REPO = Path(__file__).resolve().parents[1]


def load_script(name):
    """The ``scripts/<name>.py`` module."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_corpus_generator():
    """The ``scripts/make_synthetic_corpus.py`` module."""
    return load_script("make_synthetic_corpus")


def sub_records(sentences):
    """Every span, word and FE annotation the sentences hold, repeats included."""
    for s in sentences:
        yield s.target
        words = list(s.tokens)
        for fe in s.fe_spans:
            yield fe
            words.extend(fe.words or ())
            if fe.span is not None:
                yield fe.span
        for w in words:
            yield w
            if w.span is not None:
                yield w.span


def mk(frame, voice, fes, lu="want.v.6412", sid=None):
    """Sentence pattern from a space-separated FE token string."""
    reals = tuple(parse_fe_token(tok) for tok in fes.split())
    return SentencePattern(
        frame=frame,
        voice=Voice(voice),
        realizations=reals,
        lu_ref=lu,
        sentence_id=sid or f"s{next(_counter):05d}",
    )


def vp(frame, voice, tokens, count=1):
    """Valence pattern from a list of FE tokens."""
    return ValencePattern(
        frame=frame,
        voice=Voice(voice),
        fes=tuple(sorted(parse_fe_key(token) for token in tokens)),
        count=count,
        sentence_variants={" ".join(tokens): count},
    )


def valences_by_settings(patterns):
    """Each settings id's valence patterns for one corpus's patterns."""
    return {
        sid: aggregate_corpus(patterns, Settings.from_id(sid))[0] for sid in ALL_SETTINGS_IDS
    }


def random_side(rng, max_patterns=8, max_fes=5):
    """One corpus side of random valence patterns for oracle comparisons."""
    fe_pool = [
        ("Event", "VP"), ("Event", "NP"), ("Event", "Adv"),
        ("Experiencer", "NP"), ("Focal_participant", "NP"), ("Focal_participant", "Adv"),
        ("Theme", "NP"), ("Goal", "Adv"), ("Source", "Adv"),
    ]
    side = []
    for _ in range(rng.randint(1, max_patterns)):
        frame = rng.choice(["Desiring", "Motion", "Giving"])
        voice = rng.choice(["Act", "Pass"])
        n = rng.randint(1, max_fes)
        chosen = rng.sample(fe_pool, min(n, len(fe_pool)))
        tokens = []
        has_subj = False
        for fe, ty in chosen:
            if ty == "NP":
                syn = ".Subj" if not has_subj else ".Obj"
                has_subj = True
            else:
                syn = ""
            tokens.append(f"{fe}_{ty}{syn}")
        side.append(vp(frame, voice, tokens, count=rng.randint(1, 9)))
    return side


def _oracle_subsumes(a, b, level):
    # Independent restatement: same frame, same voice when syntactic types
    # are compared, and b's FE set contained in a's.
    if a.frame != b.frame:
        return False
    if level is MatchLevel.SEMANTIC_SYNTACTIC and a.voice != b.voice:
        return False
    if level is MatchLevel.SEMANTIC:
        a_fes = {fe for fe, _, _, _ in a.fes}
        b_fes = {fe for fe, _, _, _ in b.fes}
    else:
        a_fes = {(fe, ty) for fe, ty, _, _ in a.fes}
        b_fes = {(fe, ty) for fe, ty, _, _ in b.fes}
    return b_fes.issubset(a_fes)


def _oracle_key(p, level):
    if level is MatchLevel.SEMANTIC:
        return (p.frame, None, frozenset(fe for fe, _, _, _ in p.fes))
    return (p.frame, p.voice.value, frozenset((fe, ty) for fe, ty, _, _ in p.fes))


def oracle_fuzzy_intersection(left, right, level):
    """Brute-force shared set: admit every pattern some other-side pattern
    subsumes, then drop members subsumed inside the admitted set."""
    shared_frames = {p.frame for p in left} & {p.frame for p in right}
    lefts = [p for p in left if p.frame in shared_frames]
    rights = [p for p in right if p.frame in shared_frames]
    admitted = set()
    for p in lefts:
        if any(_oracle_subsumes(q, p, level) for q in rights):
            admitted.add(_oracle_key(p, level))
    for p in rights:
        if any(_oracle_subsumes(q, p, level) for q in lefts):
            admitted.add(_oracle_key(p, level))

    def key_subsumed(k, by):
        return k[0] == by[0] and k[1] == by[1] and k[2] < by[2]

    final = {k for k in admitted if not any(key_subsumed(k, other) for other in admitted)}
    return admitted, final


# Valence FE tokens for the provenance oracle: FEs that repeat with another
# type, noncore FEs, and NP types that take a syntactic function.
_ORACLE_TOKENS = [
    "Event_VP", "Event_NP", "Experiencer_NP", "Theme_NP", "Opt_Degree_Adv", "Opt_Time_NP",
]


def random_valence(rng, frames=("Desiring", "Motion"), max_fes=3):
    """One random valence pattern whose key repeats at both levels: NP tokens
    draw a syntactic function, and voices collapse at the semantic level."""
    tokens = [
        tok + rng.choice(["", ".Subj", ".Obj"]) if tok.endswith("_NP") else tok
        for tok in rng.sample(_ORACLE_TOKENS, rng.randint(1, max_fes))
    ]
    return vp(rng.choice(frames), rng.choice(["Act", "Pass"]), tokens, rng.randint(1, 9))


def random_valences(rng, frames=("Desiring", "Motion"), max_patterns=16, max_fes=3):
    """One side of random valence patterns whose keys repeat at both levels."""
    return [random_valence(rng, frames, max_fes) for _ in range(rng.randint(0, max_patterns))]


# Example FE tokens whose keys repeat: word orders, prepositions, syntactic
# functions and non-core FEs drop out of the reduced set.
EXAMPLE_TOKENS = [
    "Event_VP", "Event_NP.Obj", "Event_Adv[for]", "Experiencer_NP.Subj", "Experiencer_NP.Obj",
    "Theme_NP.Obj", "Opt_Degree_Adv", "Opt_Time_NP.Obj",
]


def random_example(rng, frames=("Desiring", "Motion", "Giving")):
    """One random sentence pattern of one to three FEs."""
    tokens = rng.sample(EXAMPLE_TOKENS, rng.randint(1, 3))
    return mk(rng.choice(frames), rng.choice(["Act", "Pass"]), " ".join(tokens))


def _oracle_tokens(fes, level):
    # Independent restatement of a key's FE set: [Opt_]FE, or [Opt_]FE_type.
    if level is MatchLevel.SEMANTIC:
        return frozenset(("Opt_" if noncore else "") + fe for fe, _, _, noncore in fes)
    return frozenset(f"{'Opt_' if noncore else ''}{fe}_{ty}" for fe, ty, _, noncore in fes)


def oracle_intersection(left, right, level, mode):
    """Brute-force shared set with every field intersect fills: the final
    members by (frame, voice, FE set), each with its sides, its variants
    (summed counts per full FE-key set, sorted) and its strict other-side
    subsumers (in the order the other side first has them), and the totals."""
    semantic = level is MatchLevel.SEMANTIC
    exact = mode is MatchMode.EXACT
    shared_frames = {p.frame for p in left} & {p.frame for p in right}
    sides = {
        "left": [p for p in left if p.frame in shared_frames],
        "right": [p for p in right if p.frame in shared_frames],
    }

    def key(p):
        return (p.frame, None if semantic else p.voice.value, _oracle_tokens(p.fes, level))

    def strictly_within(k, by):
        return k[:2] == by[:2] and k[2] < by[2]

    keys = {side: list(dict.fromkeys(map(key, ps))) for side, ps in sides.items()}
    admitted_from = {}
    for side, other in (("left", "right"), ("right", "left")):
        admitted_from[side] = [
            k for k in keys[side]
            if k in keys[other] or (not exact and any(strictly_within(k, o) for o in keys[other]))
        ]
    admitted = set(admitted_from["left"]) | set(admitted_from["right"])
    members = {}
    for k in admitted:
        if any(strictly_within(k, o) for o in admitted):
            continue
        syn_variants, subsumed_by = {}, {}
        for side, other in (("left", "right"), ("right", "left")):
            if k not in admitted_from[side]:
                continue
            counts = {}
            for p in sides[side]:
                if key(p) == k:
                    counts[p.fes] = counts.get(p.fes, 0) + p.count
            syn_variants[side] = sorted(counts.items())
            strict = [", ".join(sorted(o[2])) for o in keys[other] if strictly_within(k, o)]
            if strict and not exact:
                subsumed_by[side] = strict
        members[k] = {
            "sides": tuple(sorted(syn_variants)),
            "syn_variants": syn_variants,
            "subsumed_by": subsumed_by,
        }
    return {
        "members": members,
        "left_total": len(keys["left"]),
        "right_total": len(keys["right"]),
        "union_total": len(set(keys["left"]) | set(keys["right"])),
        "intersection_total": len(admitted),
        "left_only": len(keys["left"]) - len(admitted_from["left"]),
        "right_only": len(keys["right"]) - len(admitted_from["right"]),
    }


def oracle_coverage(final, examples):
    """(covered, in shared frames, total), counted one example at a time
    from its realizations; no cover-key slot is read."""
    semantic = final.level is MatchLevel.SEMANTIC
    frames = {sp.frame for sp in final.patterns}
    covered = in_shared = 0
    for p in examples:
        if p.frame not in frames:
            continue
        in_shared += 1
        core = [r for r in p.realizations if r.coreness is not Coreness.NONCORE]
        if semantic:
            voice, reduced = None, {r.fe_name for r in core}
        else:
            voice = p.voice.value
            reduced = {f"{r.fe_name}_{r.rgl_type.value}" for r in core if r.rgl_type is not None}
        if any(
            sp.frame == p.frame and sp.voice == voice and reduced <= sp.fes
            for sp in final.patterns
        ):
            covered += 1
    return covered, in_shared, len(examples)


def _document(sentences: list[ET.Element]) -> bytes:
    root = ET.Element("corpus")
    root.extend(sentences)
    return ET.tostring(root)


_ATTRIBUTE_VALUES = st.one_of(
    st.integers(-3, 60).map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
)


def check_corrupted_sentence(data_dir, dialect, data, parse):
    """One attribute value of one sentence of the mini corpus is replaced,
    or one element of it dropped. The document then either fails as a whole
    or parses, and every untouched sentence yields exactly its records from
    before. ``parse`` takes the document's bytes."""
    fixture = data_dir / f"{dialect.value}_mini.xml"
    sentences = list(ET.parse(fixture).getroot())
    per_sentence = [parse_corpus(_document([s]), dialect) for s in sentences]
    assert [r for records in per_sentence for r in records] == parse_corpus(fixture, dialect)

    i = data.draw(st.integers(0, len(sentences) - 1), label="sentence")
    target = sentences[i]
    parent = {child: elem for elem in target.iter() for child in elem}
    elem = data.draw(st.sampled_from(list(target.iter())), label="element")
    if elem is target or (elem.attrib and data.draw(st.booleans(), label="mutate")):
        attr = data.draw(st.sampled_from(sorted(elem.attrib)), label="attribute")
        elem.set(attr, data.draw(_ATTRIBUTE_VALUES, label="value"))
    else:
        parent[elem].remove(elem)

    try:
        parsed = parse(_document(sentences))
    except CorpusParseError:
        return
    before = [r for records in per_sentence[:i] for r in records]
    after = [r for records in per_sentence[i + 1:] for r in records]
    assert len(parsed) >= len(before) + len(after)
    assert parsed[:len(before)] == before
    assert parsed[len(parsed) - len(after):] == after
