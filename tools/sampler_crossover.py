"""Time the two regimes of rabench's inverse-CDF search against each other.

Usage (from the root of a checkout)::

    python3 tools/sampler_crossover.py [--repeat 7] [--out BENCH_sampler.json]

For each CDF size (8 to 1024 entries) and draw count (100 to 1M uniforms)
it times ``rabench.generative._search`` forced into each regime, int8
passes and sorted search, by setting its bounds ``_PASS_CELLS`` and
``_PASS_DRAWS``, and a direct ``np.searchsorted(cum, u, side="right")`` for
reference. Every timing is the best of ``--repeat`` runs of a call loop of
at least ~10 ms, given as seconds per call. The passes are not timed on CDFs of more than 128
entries, whose counts overflow int8. Each method's cells are checked
against the direct search's. The JSON record, with the host and library
versions, goes to ``--out``; a table goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rabench import generative  # noqa: E402

CELLS = (8, 16, 32, 64, 65, 96, 128, 256, 1024)
DRAWS = (100, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 100_000, 1_000_000)
#: The int8 pass counts hold the entries below the last of at most 128.
MAX_PASS_CELLS = 128
#: Each timed run repeats its call until the loop lasts about this long.
RUN_S = 0.01


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def regime(pass_cells: int, pass_draws: int):
    """``_search`` with its bounds set to these for the call."""
    def search(cum, u):
        saved = generative._PASS_CELLS, generative._PASS_DRAWS
        generative._PASS_CELLS, generative._PASS_DRAWS = pass_cells, pass_draws
        try:
            return generative._search(cum, u)
        finally:
            generative._PASS_CELLS, generative._PASS_DRAWS = saved
    return search


METHODS = {
    "passes": regime(MAX_PASS_CELLS, 0),
    "sorted": regime(0, 0),
    "direct": lambda cum, u: np.searchsorted(cum, u, side="right"),
}


def best_call_s(fn, repeat: int) -> float:
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < RUN_S and number < 1 << 20:
        number *= 2
    return min(timer.repeat(repeat, number)) / number


def measure(repeat: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for cells in CELLS:
        cum = generative._cdf(rng.random(cells) / cells)
        for draws in DRAWS:
            u = rng.uniform(size=draws)
            want = METHODS["direct"](cum, u)
            row = {"cells": cells, "draws": draws}
            for name, search in METHODS.items():
                if name == "passes" and cells > MAX_PASS_CELLS:
                    row[f"{name}_s"] = None
                    continue
                if not np.array_equal(search(cum, u), want):
                    raise AssertionError(f"{name} differs at {cells} cells, {draws} draws")
                row[f"{name}_s"] = best_call_s(lambda: search(cum, u), repeat)
            timed = {name: row[f"{name}_s"] for name in ("passes", "sorted")
                     if row[f"{name}_s"] is not None}
            row["faster"] = min(timed, key=timed.get)
            rows.append(row)
            print(f"{cells:5d} cells {draws:8d} draws  " + "  ".join(
                f"{name} {row[f'{name}_s'] * 1e3:9.4f} ms" if row[f"{name}_s"] is not None
                else f"{name} {'-':>9s}   " for name in METHODS), flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7,
                        help="timed runs per method, of which the best counts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(ROOT / "BENCH_sampler.json"))
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rows = measure(args.repeat, args.seed)
    # where the passes beat the sorted search: the largest CDF per draw count,
    # and per CDF size the fewest draws from which they win at every count
    largest_cells = {str(draws): max((r["cells"] for r in rows if r["draws"] == draws
                                      and r["faster"] == "passes"), default=None)
                     for draws in DRAWS}
    fewest_draws = {}
    for cells in CELLS:
        wins = [r["faster"] == "passes" for r in rows if r["cells"] == cells]
        losses = [i for i, won in enumerate(wins) if not won]
        start = losses[-1] + 1 if losses else 0
        fewest_draws[str(cells)] = DRAWS[start] if start < len(DRAWS) else None
    record = {
        "script": "tools/sampler_crossover.py",
        "unit": "s per call, best of repeat",
        "repeat": args.repeat,
        "seed": args.seed,
        "pass_cells": generative._PASS_CELLS,
        "pass_draws": generative._PASS_DRAWS,
        "largest_cells_faster_by_passes": largest_cells,
        "fewest_draws_faster_by_passes": fewest_draws,
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                 "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("largest CDF size faster by passes, per draw count:", largest_cells)
    print("fewest draws faster by passes, per CDF size:", fewest_draws)
    return 0


if __name__ == "__main__":
    sys.exit(main())
