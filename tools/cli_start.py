"""Time fresh rabench processes with OpenBLAS's default thread count and
with one thread.

Usage (from the root of a checkout)::

    python3 tools/cli_start.py [--rounds 11] [--out BENCH_cli_start.json]

OpenBLAS starts its worker threads when numpy (and again when scipy, which
carries its own copy) is imported. This script times, in fresh processes,
``import numpy``, ``import numpy, scipy.special`` and each CLI command
(``pre``, ``simulate``, ``post``) on the inputs of both ``perfbench``
workloads: weather-decision (a noisy agent on weather's CI strategy, 100k
trials) and transit-1000 (1000 generated arrival distributions written by
``perfbench/run.py``'s ``write_transit_dists``, a rational agent, 20k
trials). Each is run under the caller's environment and under
``OPENBLAS_NUM_THREADS=1``, side by side in every round, the first side
alternating, after one untimed warm-up round. It reports each time's
median and quartiles over ``--rounds`` rounds, and the sha256 of every
output under both settings; it exits 1 if any output differs between the
settings or between rounds. The JSON record, with the host and library
versions, goes to ``--out``; a table goes to standard output. Inputs and
outputs are written to a temporary folder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from sampler_crossover import cpu_model

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The settings compared: a name, and what it changes in the environment.
SETTINGS = {"caller": {}, "one_thread": {"OPENBLAS_NUM_THREADS": "1"}}
#: Variables that set OpenBLAS's thread count, recorded as the caller has them.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SEED = 1


def write_transit_dists(path: Path) -> None:
    """The transit-1000 workload's arrival distributions, by the benchmark's
    own writer (``perfbench`` goes on the path for its imports)."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(SRC)]
    import run

    from rabench.cases import bundled_demo_trials_path
    run.write_transit_dists(path, 1000, SEED, bundled_demo_trials_path())


def commands(work: Path, setting: str) -> dict[str, tuple[list[str], Path | None]]:
    """Each timed command's argv and output file, by name; outputs are
    named after the setting, so each setting's ``post`` reads its own
    ``simulate`` file."""
    py = [sys.executable]
    cli = [*py, "-m", "rabench.cli"]
    cmds: dict[str, tuple[list[str], Path | None]] = {
        "import numpy": ([*py, "-c", "import numpy"], None),
        "import numpy, scipy.special": ([*py, "-c", "import numpy, scipy.special"],
                                        None),
    }
    workloads = {
        "weather": (["--case", "weather"],
                    ["--strategy", "CI", "--agent", "noisy:k=0.8", "--n", "100000"]),
        "transit-1000": (["--case", "fernandes2018", "--scenario", "2",
                          "--trial-dists", str(work / "trial_dists.csv")],
                         ["--strategy", "full", "--agent", "rational",
                          "--n", "20000"]),
    }
    for name, (design, agent) in workloads.items():
        trials = work / f"{name}-{setting}.csv"
        pre, post = work / f"{name}-{setting}-pre.json", work / f"{name}-{setting}-post.json"
        cmds[f"{name} pre"] = ([*cli, "pre", *design, "--out", str(pre)], pre)
        cmds[f"{name} simulate"] = ([*cli, "simulate", *design, *agent,
                                     "--task", "decision", "--seed", str(SEED),
                                     "--out", str(trials)], trials)
        cmds[f"{name} post"] = ([*cli, "post", *design, "--trials", str(trials),
                                 "--out", str(post)], post)
    return cmds


def run_once(argv: list[str], env: dict, work: Path) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli_start.json")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")

    base_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    envs = {name: dict(base_env, **change) for name, change in SETTINGS.items()}
    with tempfile.TemporaryDirectory(prefix="cli_start-") as tmp:
        work = Path(tmp)
        write_transit_dists(work / "trial_dists.csv")
        cmds = {s: commands(work, s) for s in SETTINGS}
        times = {name: {s: [] for s in SETTINGS} for name in cmds["caller"]}
        hashes = {name: {s: set() for s in SETTINGS} for name in times}
        for round_ in range(args.rounds + 1):  # round 0 warms up, untimed
            order = list(SETTINGS)[::1 if round_ % 2 else -1]
            for name in times:
                for setting in order:
                    cmd, output = cmds[setting][name]
                    elapsed = run_once(cmd, envs[setting], work)
                    if round_:
                        times[name][setting].append(elapsed)
                    if output is not None:
                        digest = hashlib.sha256(output.read_bytes()).hexdigest()
                        hashes[name][setting].add(digest)

    import numpy
    import scipy

    record = {
        "tool": "tools/cli_start.py",
        "rounds": args.rounds,
        "host": {"cpu": cpu_model(), "cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version()},
        "libraries": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "caller_thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "settings": SETTINGS,
        "commands": {},
    }
    mismatched = []
    print("| command | caller's environment | `OPENBLAS_NUM_THREADS=1` |\n|---|---|---|")
    for name, by_setting in times.items():
        entry = {s: summary(t) for s, t in by_setting.items()}
        if hashes[name]["caller"]:
            entry["sha256"] = {s: sorted(h) for s, h in hashes[name].items()}
            seen = set().union(*hashes[name].values())
            if len(seen) != 1:
                mismatched.append(name)
        record["commands"][name] = entry
        cells = [f"{entry[s]['median_s']:.3f} s [{entry[s]['q1_s']:.3f}, "
                 f"{entry[s]['q3_s']:.3f}]" for s in SETTINGS]
        print(f"| `{name}` | {cells[0]} | {cells[1]} |")
    record["outputs_match"] = not mismatched
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if mismatched:
        print(f"outputs differ between settings or rounds: {', '.join(mismatched)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
