#!/usr/bin/env python3
"""Split a corpus XML document into about N documents of the same shape.

A corpus release such as BFN's is many files, and ``valgram run`` reads a
side of many files as it reads one. This script gives one file that shape,
so that the two can be compared:

    python scripts/split_corpus.py bfn.xml bfn-split 2000
    valgram run --left bfn-split/*.xml ...

The document's ``<sentence>`` elements must be children of its root. They
are dealt out in order into N documents (fewer when there are fewer
sentences), cut at sentence boundaries. Each document keeps the bytes
before the first sentence (prolog, DOCTYPE, the root start tag with its
namespaces, and any header) and those from the root end tag on. The files
are named ``<stem>-<k>.xml`` with ``k`` zero-padded, so their sorted order
is the document order. Standard library only.
"""

from __future__ import annotations

import argparse
import sys
import xml.parsers.expat
from pathlib import Path


def sentence_offsets(data: bytes) -> tuple[list[int], int]:
    """The byte offset of each ``<sentence>`` start tag that is a child of
    the root, and the byte offset of the root end tag."""
    parser = xml.parsers.expat.ParserCreate()
    starts: list[int] = []
    depth = 0
    root_end = len(data)

    def start(name: str, attrs: dict) -> None:
        nonlocal depth
        # A prefixed name (fn:sentence) is matched by its local part.
        if depth == 1 and name.rpartition(":")[2] == "sentence":
            starts.append(parser.CurrentByteIndex)
        depth += 1

    def end(name: str) -> None:
        nonlocal depth, root_end
        depth -= 1
        if depth == 0:
            root_end = parser.CurrentByteIndex

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.Parse(data, True)
    return starts, root_end


def split(data: bytes, n: int) -> list[bytes]:
    """``data`` as ``n`` documents, or as one per sentence if it has fewer."""
    starts, root_end = sentence_offsets(data)
    if not starts:
        raise ValueError("the document has no <sentence> that is a child of its root")
    n = min(n, len(starts))
    head, tail = data[:starts[0]], data[root_end:]
    cuts = [starts[k * len(starts) // n] for k in range(n)] + [root_end]
    return [head + data[lo:hi] + tail for lo, hi in zip(cuts, cuts[1:])]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("source", type=Path, metavar="IN.xml")
    ap.add_argument("out_dir", type=Path, metavar="OUT_DIR")
    ap.add_argument("n", type=int, metavar="N", help="the number of documents to write")
    args = ap.parse_args()
    if args.n < 1:
        ap.error("N must be at least 1")
    try:
        documents = split(args.source.read_bytes(), args.n)
    except (OSError, ValueError, xml.parsers.expat.ExpatError) as exc:
        print(f"{args.source}: {exc}", file=sys.stderr)
        return 1
    args.out_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(len(documents) - 1))
    for k, document in enumerate(documents):
        (args.out_dir / f"{args.source.stem}-{k:0{width}d}.xml").write_bytes(document)
    print(f"{args.out_dir}: {len(documents)} documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
