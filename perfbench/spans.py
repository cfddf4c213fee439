"""Span recording around the public functions of each valgram module, and
the per-layer metrics computed from the recorded spans.

The recorder runs inside the measured process. It replaces each public
function of a module at every place the ``valgram`` package binds it (the
defining module and every ``from .x import f`` in another module), so a
call into a layer is timed from outside the layer and no file under
``src/`` changes. Spans stay in memory and are written out when the run
ends. The analysis half runs in the benchmark's own process.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from pathlib import Path

LAYERS = (
    "ingest", "frames", "normalize", "aggregate", "compare",
    "grammar", "coverage", "pipeline", "cli",
)

# Per-item helpers run once per sentence, token, pattern or pattern pair,
# up to millions of times in a run. They are left unwrapped, so their time
# counts as self time of the stage function that calls them; wrapping them
# would cost more than they do.
PER_ITEM_HELPERS = frozenset({
    "ingest.sentence_to_dict", "ingest.sentence_from_dict",
    "normalize.detect_voice", "normalize.generalize_bfn_fe",
    "normalize.generalize_swefn_fe", "normalize.normalize_sentence",
    "normalize.extract_sentence_pattern", "normalize.parse_fe_token",
    "aggregate.fe_key_token", "aggregate.stats_row", "aggregate.frame_summary",
    "compare.pattern_key", "compare.subsumes_key", "compare.subsumes",
    "coverage.reduce_example",
    "grammar.choose_verb_arity",
})

# Layers whose spans also record the process high-water mark on return.
RSS_LAYERS = frozenset({"ingest", "pipeline"})


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _path_size(path) -> int:
    return Path(path).stat().st_size


# Counts taken at the layer boundary, from a call's arguments and result.
COUNTERS = {
    "ingest.parse_corpus": lambda a, k, r: {
        "path": str(_arg(a, k, 0, "source")), "records": len(r),
    },
    "ingest.write_sentences_jsonl": lambda a, k, r: {
        "bytes": _path_size(_arg(a, k, 1, "path")),
    },
    "normalize.normalize_corpus": lambda a, k, r: {
        "sentences": len(_arg(a, k, 0, "sentences")), "patterns": len(r[0]),
    },
    "aggregate.aggregate_corpus": lambda a, k, r: {
        "patterns": len(_arg(a, k, 0, "patterns")), "kept": len(r[1]), "settings": 1,
    },
    "aggregate.compute_all_settings": lambda a, k, r: {"settings": len(r)},
    "compare.intersect": lambda a, k, r: {
        "admitted": r.intersection_total, "final": len(r.patterns),
    },
    "coverage.coverage": lambda a, k, r: {"covered": r.covered, "examples": r.total},
}


class SpanRecorder:
    """Spans as ``[name, layer, start, end, parent, pass, counts]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_index = 0

    def wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        want_rss = layer in RSS_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            if want_rss:
                counts["rss_mib"] = maxrss_mib()
            span[6] = counts
            return result

        return traced

    def write(self, path: Path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "pass", "counts")
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap the public functions of every loaded valgram module; returns
    the wrapped names."""
    modules = {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("valgram.") and name.split(".", 1)[1] in LAYERS
    }
    wrappers = {}
    names = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in PER_ITEM_HELPERS
            ):
                wrappers[obj] = recorder.wrap(obj, name, layer)
                names.append(name)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return sorted(names)


# ---------------------------------------------------------------------------
# Analysis (benchmark process)
# ---------------------------------------------------------------------------

PER_LAYER_METRICS = [
    ("ingest.self_s", "s"), ("ingest.us_per_sentence", "us"),
    ("ingest.records_kept_ratio", "ratio"), ("ingest.write_s", "s"),
    ("ingest.write_bytes", "bytes"), ("ingest.read_s", "s"), ("ingest.rss_hwm_mib", "MiB"),
    ("normalize.self_s", "s"), ("normalize.us_per_sentence", "us"),
    ("normalize.patterns_ratio", "ratio"), ("normalize.write_s", "s"), ("normalize.read_s", "s"),
    ("aggregate.self_s", "s"), ("aggregate.ms_per_settings", "ms"),
    ("aggregate.kept_ratio", "ratio"), ("aggregate.write_s", "s"), ("aggregate.read_s", "s"),
    ("compare.self_s", "s"), ("compare.ms_per_intersect", "ms"),
    ("compare.final_ratio", "ratio"), ("compare.write_s", "s"), ("compare.read_s", "s"),
    ("coverage.self_s", "s"), ("coverage.us_per_example", "us"),
    ("coverage.covered_ratio", "ratio"),
    ("grammar.self_s", "s"), ("frames.self_s", "s"),
    ("pipeline.self_s", "s"), ("pipeline.rss_hwm_mib", "MiB"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
]

_WRITERS = {
    "ingest": ("write_sentences_jsonl",),
    "normalize": ("write_patterns_tsv", "write_skips_tsv"),
    "aggregate": ("write_valences_tsv", "write_stats_csv", "write_frame_summaries"),
    "compare": ("write_shared_tsv", "write_pattern_report_csv", "write_frame_report_csv"),
}
_READERS = {
    "ingest": ("read_sentences_jsonl",),
    "normalize": ("read_patterns_tsv",),
    "aggregate": ("read_valences_tsv",),
    "compare": ("read_shared_tsv",),
}


def read_spans(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[dict], sentences_by_path: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one pass; ``spans`` are that pass's spans with
    ``parent`` indexing into the same list."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] >= 0:
            child[s["parent"]] += d
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            d - c for s, d, c in zip(spans, dur, child) if s["layer"] == layer
        )

    def total(*names: str) -> float:
        return sum(d for s, d in zip(spans, dur) if s["name"] in names)

    def count(name: str, key: str) -> float:
        return sum(s["counts"][key] for s in spans if s["name"] == name and s["counts"])

    for layer, fns in _WRITERS.items():
        m[f"{layer}.write_s"] = total(*(f"{layer}.{fn}" for fn in fns))
    for layer, fns in _READERS.items():
        m[f"{layer}.read_s"] = total(*(f"{layer}.{fn}" for fn in fns))

    parses = [s for s in spans if s["name"] == "ingest.parse_corpus" and s["counts"]]
    read = sum(sentences_by_path.get(s["counts"]["path"], 0) for s in parses)
    m["ingest.us_per_sentence"] = _ratio(total("ingest.parse_corpus") * 1e6, read)
    m["ingest.records_kept_ratio"] = _ratio(count("ingest.parse_corpus", "records"), read)
    m["ingest.write_bytes"] = count("ingest.write_sentences_jsonl", "bytes")

    m["normalize.us_per_sentence"] = _ratio(
        total("normalize.normalize_corpus") * 1e6, count("normalize.normalize_corpus", "sentences")
    )
    m["normalize.patterns_ratio"] = _ratio(
        count("normalize.normalize_corpus", "patterns"),
        count("normalize.normalize_corpus", "sentences"),
    )

    # Settings aggregated by the outermost aggregation call only:
    # compute_all_settings calls aggregate_corpus once per settings id.
    agg_names = ("aggregate.aggregate_corpus", "aggregate.compute_all_settings")
    outer = [
        (s, d) for s, d in zip(spans, dur)
        if s["name"] in agg_names
        and not (s["parent"] >= 0 and spans[s["parent"]]["name"] in agg_names)
    ]
    m["aggregate.ms_per_settings"] = _ratio(
        sum(d for _, d in outer) * 1e3, sum(s["counts"]["settings"] for s, _ in outer if s["counts"])
    )
    m["aggregate.kept_ratio"] = _ratio(
        count("aggregate.aggregate_corpus", "kept"), count("aggregate.aggregate_corpus", "patterns")
    )

    n_intersect = sum(1 for s in spans if s["name"] == "compare.intersect")
    m["compare.ms_per_intersect"] = _ratio(total("compare.intersect") * 1e3, n_intersect)
    m["compare.final_ratio"] = _ratio(
        count("compare.intersect", "final"), count("compare.intersect", "admitted")
    )
    m["coverage.us_per_example"] = _ratio(
        total("coverage.coverage") * 1e6, count("coverage.coverage", "examples")
    )
    m["coverage.covered_ratio"] = _ratio(
        count("coverage.coverage", "covered"), count("coverage.coverage", "examples")
    )
    for layer in RSS_LAYERS:
        m[f"{layer}.rss_hwm_mib"] = max(
            (s["counts"]["rss_mib"] for s in spans if s["layer"] == layer and s["counts"]),
            default=0.0,
        )
    return m


def split_passes(spans: list[dict]) -> list[list[dict]]:
    """Spans grouped by pass, with parents re-indexed within each group."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s["pass"], []).append(i)
    out = []
    for _, idx in sorted(groups.items()):
        local = {g: j for j, g in enumerate(idx)}
        out.append([
            {**spans[g], "parent": local.get(spans[g]["parent"], -1)} for g in idx
        ])
    return out
