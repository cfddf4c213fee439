"""Workload definitions and seeded input generation.

Inputs are built with the generators in ``scripts/make_synthetic_corpus.py``
in the benchmark's own process, never in the process that is measured. One
``--seed`` fixes the frame index and both corpora of a workload.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    n_bfn: int
    n_swefn: int
    n_frames: int

    @property
    def sentences(self) -> int:
        return self.n_bfn + self.n_swefn


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference_run", 68_500, 3_700, 550),
        Workload("settings_sweep", 4_000, 1_850, 275),
        Workload("stage_chain", 17_000, 3_700, 550),
    )
}


def _load_generator(root: Path):
    path = root / "scripts" / "make_synthetic_corpus.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generate(root: Path, workload: Workload, seed: int, out_dir: Path) -> dict[str, str]:
    """Write frames.tsv, bfn.xml and swefn.xml for ``workload`` at ``seed``."""
    gen = _load_generator(root)
    rng = random.Random(f"{workload.name}:{seed}")
    frames_seed, bfn_seed, swefn_seed = (rng.randrange(2**31) for _ in range(3))
    frames = gen.build_frames(workload.n_frames, random.Random(frames_seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "frames": out_dir / "frames.tsv",
        "bfn": out_dir / "bfn.xml",
        "swefn": out_dir / "swefn.xml",
    }
    paths["frames"].write_text(gen.frames_tsv(frames), encoding="utf-8")
    paths["bfn"].write_text(
        gen.build_bfn_corpus(workload.n_bfn, frames, seed=bfn_seed), encoding="utf-8"
    )
    paths["swefn"].write_text(
        gen.build_swefn_corpus(workload.n_swefn, frames, seed=swefn_seed), encoding="utf-8"
    )
    return {name: str(path) for name, path in paths.items()}
