"""Shared builders and the brute-force intersection oracle used across tests."""

import importlib.util
import itertools
from pathlib import Path

from valgram.aggregate import ALL_SETTINGS_IDS, Settings, ValencePattern, aggregate_corpus
from valgram.compare import MatchLevel
from valgram.normalize import SentencePattern, Voice, parse_fe_key, parse_fe_token

_counter = itertools.count()

REPO = Path(__file__).resolve().parents[1]


def load_corpus_generator():
    """The ``scripts/make_synthetic_corpus.py`` module."""
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_corpus", REPO / "scripts" / "make_synthetic_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
