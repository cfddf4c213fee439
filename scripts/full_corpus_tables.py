#!/usr/bin/env python3
"""Run the whole pipeline on user-supplied full corpora and print the
statistics, comparison and coverage tables in a readable layout.

Intended for licensed full-size corpora that cannot be bundled with the
repository. Voice detection and the subclause test are heuristic and
configurable (see --voice-rules), so pattern counts on real data depend on
those rules; the skip files written next to the tables say exactly what was
excluded and why.

It takes the arguments of ``valgram run`` (see ``valgram run --help``) and
passes them through to it.

Example:

    python scripts/full_corpus_tables.py \
        --left corpora/bfn/*.xml --left-dialect bfn \
        --right corpora/swefn/*.xml --right-dialect swefn \
        --frames frames.tsv --out-dir tables/
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from valgram.cli import build_parser, main as valgram_main  # noqa: E402


def _print_csv(path: Path, title: str) -> None:
    print(f"\n== {title} ({path.name})")
    with path.open() as f:
        for row in csv.reader(f):
            print("  " + "  ".join(f"{cell:>10}" for cell in row))


def main() -> int:
    # The arguments are those of ``valgram run``, passed through unchanged.
    run_args = ["run", *sys.argv[1:]]
    args = build_parser().parse_args(run_args)
    status = valgram_main(run_args)
    if status != 0:
        return status

    out = Path(args.out_dir)
    _print_csv(out / f"{args.left_name}.stats.csv", f"extraction statistics: {args.left_name}")
    _print_csv(out / f"{args.right_name}.stats.csv", f"extraction statistics: {args.right_name}")
    _print_csv(out / "frame-report.csv", "frame set comparison")
    _print_csv(out / "pattern-report.csv", "valence pattern comparison")
    _print_csv(out / "coverage.csv", "example coverage by the final shared sets")
    skip_counts = []
    for name in (args.left_name, args.right_name):
        with (out / f"{name}.skips.tsv").open() as f:
            n = sum(1 for _ in f)
        skip_counts.append(f"{name}: {n} skipped examples ({name}.skips.tsv)")
    print("\nSkips are heuristic-dependent; review before comparing counts:")
    for line in skip_counts:
        print("  " + line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
