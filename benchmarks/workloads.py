"""Seeded job lists for the four benchmark workloads.

A job is the argv of one `kacmax` invocation.  Job cost grows steeply with
n, k and ell (a factor of about 1.6 per step of n at k = 6), so a seed that
drew every parameter freely would swing a pass's time several-fold.  Each
workload is therefore a fixed list of slots, and a slot pins the job's size:
- heavy `max-weights`/`count` jobs have a fixed (n, k); the seed draws s,
  the output format of `count` and the order;
- `multiplicity` jobs draw (ell, k) from a window on the work figure
  shapes(ell, k) * ell, which tracks the time of both count_T and
  count_avoiding to about 10% (shapes = partitions of ell into <= k parts);
- light jobs, where interpreter start-up dominates, draw every parameter.
"""

from __future__ import annotations

import random
from functools import lru_cache

WORKLOADS = ("weights", "multiplicity", "crystal", "grid")


@lru_cache(maxsize=None)
def shape_count(ell: int, k: int, cap: int | None = None) -> int:
    """Partitions of ell with at most k parts, each at most `cap`."""
    if ell == 0:
        return 1
    if k == 0:
        return 0
    top = ell if cap is None else min(cap, ell)
    return sum(shape_count(ell - first, k - 1, first) for first in range(1, top + 1))


def _work(ell: int, k: int) -> int:
    return shape_count(ell, k) * ell


def _grid_work(ell_max: int, k_max: int) -> int:
    return sum(_work(e, k) for e in range(1, ell_max + 1) for k in range(2, k_max + 1))


def _pick(rng: random.Random, cells, size, lo: int, hi: int):
    fits = [c for c in cells if lo <= size(*c) <= hi]
    if not fits:
        raise ValueError(f"no cell with size in [{lo}, {hi}]")
    return rng.choice(fits)


def _fmt(rng: random.Random) -> list[str]:
    return rng.choice(([], ["--format", "json"]))


# Every cell runs twice, once with s = 0 and once with a seeded s in 1..n-1.
# Heavy cells run `max-weights` once as TSV and once as JSON (the JSON one
# sets the peak RSS, so a seed must not decide whether it runs); the
# `count` cells take a seeded format, and the light ones a seeded n.
_MAX_WEIGHT_CELLS = ((18, 6), (20, 6), (14, 7))
_COUNT_CELLS = ((17, 6),)


def _weights(rng: random.Random) -> list[list[str]]:
    jobs = []

    def pair(cmd, n, k, formats):
        s_values = [0, rng.randrange(1, n)]
        rng.shuffle(s_values)
        for s, fmt in zip(s_values, formats):
            jobs.append([cmd, "--n", str(n), "--k", str(k), "--s", str(s)] + fmt)

    for n, k in _MAX_WEIGHT_CELLS:
        pair("max-weights", n, k, ([], ["--format", "json"]))
    light = [(rng.randint(14, 20), k) for k in (4, 5, 5)]
    for n, k in list(_COUNT_CELLS) + light:
        pair("count", n, k, (_fmt(rng), _fmt(rng)))
    return jobs


# work windows, each run once per oracle; ell in 28..42, k in 5..8
_MULT_WINDOWS = (
    (40000, 50000), (85000, 92000), (140000, 152000),
    (220000, 260000), (330000, 340000),
)


def _multiplicity(rng: random.Random) -> list[list[str]]:
    cells = [(ell, k) for ell in range(28, 43) for k in range(5, 9)]
    jobs = []
    for lo, hi in _MULT_WINDOWS:
        for oracle in ("paths", "patterns"):
            ell, k = _pick(rng, cells, _work, lo, hi)
            jobs.append(
                ["multiplicity", "--ell", str(ell), "--k", str(k), "--oracle", oracle] + _fmt(rng)
            )
    # one grid that fans out over the process pool
    grids = [(e, k) for e in range(24, 31) for k in range(5, 9)]
    ell_max, k_max = _pick(rng, grids, _grid_work, 590000, 640000)
    jobs.append(
        ["verify", "--conjecture", "multiplicity", "--ell-max", str(ell_max), "--k-max", str(k_max)]
        + _fmt(rng)
    )
    return jobs


def _crystal(rng: random.Random) -> list[list[str]]:
    # the crystal search at ell = 6 costs 0.4 to 1.8 s per k, so those
    # cells are fixed; the seed picks two ell = 5 cells, the formats, the order
    cells = [(6, 2), (6, 4), (5, rng.randint(2, 4)), (5, rng.randint(2, 4))]
    jobs = [
        ["multiplicity", "--ell", str(ell), "--k", str(k), "--check-all"] + _fmt(rng)
        for ell, k in cells
    ]
    jobs.append(["table", "--oracle", "crystal", "--ell-max", "6", "--k-max", "4"] + _fmt(rng))
    return jobs


def _grid(rng: random.Random) -> list[list[str]]:
    jobs = []
    for _ in range(6):
        jobs.append(
            ["table", "--oracle", rng.choice(("paths", "patterns")),
             "--ell-max", str(rng.randint(6, 12)), "--k-max", str(rng.randint(3, 9))]
            + _fmt(rng)
        )
        jobs.append(
            ["verify", "--conjecture", "count",
             "--n-max", str(rng.randint(6, 12)), "--k-max", str(rng.randint(2, 5))]
            + _fmt(rng)
        )
        jobs.append(
            ["verify", "--conjecture", "multiplicity",
             "--ell-max", str(rng.randint(6, 12)), "--k-max", str(rng.randint(3, 8))]
            + _fmt(rng)
        )
        n = rng.randint(4, 10)
        jobs.append(
            ["max-weights", "--n", str(n), "--k", str(rng.randint(2, 4)),
             "--s", str(rng.randrange(n)), "--format", "json"]
        )
        jobs.append(
            ["multiplicity", "--ell", str(rng.randint(1, 4)), "--k", str(rng.randint(2, 4)),
             "--check-all"]
            + _fmt(rng)
        )
    return jobs


_BUILDERS = {
    "weights": _weights,
    "multiplicity": _multiplicity,
    "crystal": _crystal,
    "grid": _grid,
}


def job_list(workload: str, seed: int) -> list[list[str]]:
    """The jobs of one pass of `workload`, in run order, for `seed`."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def uses_pool(argv: list[str]) -> bool:
    """True for the grid commands that spread their cells over the CLI's
    worker processes (`verify --conjecture count` runs sequentially)."""
    return argv[0] == "table" or argv[:3] == ["verify", "--conjecture", "multiplicity"]
