"""rabench benchmark: one workload per run, as a closed loop.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload weather-decision --seed 1 --seconds 54 --trace 0

A single driver process runs one child at a time. With ``--trace 0`` it
times, for ``--seconds``, whole CLI commands (``pre``, ``simulate``,
``post``) and warm in-process library calls, with no tracing, and prints
the end-to-end metrics. A speed probe runs between operations, and each
time is reported at the probe's reference speed (see ``speed_probe``).
With ``--trace 1`` it runs the same CLI commands once untraced and once
under ``traced_cli.py`` per pass, and prints per-layer self times and
counts. Every output is checked; the last line of standard output is the
JSON result, and a fuller record (machine fingerprint, input hashes,
samples, checks) is written under ``perfbench/results/``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from traced_cli import LAYERS, RESULT_COUNTS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Rounds of every operation per untraced run, however short ``--seconds``;
#: ``setup_s`` is the median of at least this many fresh set-ups.
MIN_ROUNDS = 2
#: A library round repeats its call until it has run this long.
LIB_ROUND_S = 0.5
#: Library calls shorter than this run twice per cycle.
SHORT_CALL_S = 1.0
#: Library calls shorter than this are timed in a burst after every operation.
BURST_CALL_S = 0.05
#: A burst repeats its call until it has run this long.
BURST_S = 0.1
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 100.0
#: Arrival-distribution columns of the transit case's trial file.
DIST_COLUMNS = ("mu", "sigma", "nu", "tau")
#: Loop length of the host speed probe (about 0.2 s on a 2-vCPU Xeon).
PROBE_ITERATIONS = 2_500_000
#: Probe time that defines the reference speed: every end-to-end time is
#: scaled to the host running the probe in this many seconds.
PROBE_REF_S = 0.2
#: Probes run and discarded before the first timed operation.
PROBE_WARMUP = 3
#: Both workloads simulate the decision task.
TASK = "decision"


@dataclass(frozen=True)
class Workload:
    """One set of inputs. ``agent`` is (kind, log-odds noise or None)."""

    case: str
    strategy: str
    agent: tuple[str, float | None]
    n_trials: int
    transit_dists: int = 0  # generated arrival distributions (transit only)


WORKLOADS = {
    "weather-decision": Workload("weather", "CI", ("noisy", 0.8), 100_000),
    "transit-1000": Workload("fernandes2018", "full", ("rational", None),
                             20_000, transit_dists=1000),
}

END_TO_END_UNITS = {
    "setup_s": "s", "pre_s": "s", "simulate_s": "s", "post_s": "s",
    "lib_pre_s": "s", "lib_simulate_tps": "1/s", "lib_post_tps": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics read from span keys: metric -> (span key, statistic).
SPAN_METRICS = {
    "cases.build_case_s": ("cases.build_case", "total"),
    "cases.text_partition_s": ("cases.quantile_text_partition", "total"),
    "generative.discretize_s": ("generative.discretize", "total"),
    "generative.discretize_calls": ("generative.discretize", "calls"),
    "generative.boxcox_quantile_calls": ("generative.BoxCoxTDist.quantile",
                                         "calls"),
    "rational.report_s": ("rational.rational_report", "total"),
    "rational.visualization_optimal_s": ("rational.visualization_optimal",
                                         "total"),
    "payment.incentive_table_self_s": ("payment.incentive_table", "self"),
    "model.expected_scores_calls": ("model.expected_scores_all", "calls"),
    "model.expected_scores_s": ("model.expected_scores_all", "total"),
    "model.optimal_action_calls": ("model.optimal_action", "calls"),
    "model.optimal_action_indices_s": ("model.optimal_action_indices", "total"),
    "agents.simulate_self_s": ("agents.simulate", "self"),
    "behavioral.csv_write_s": ("behavioral.write_trials_csv", "total"),
    "behavioral.csv_read_s": ("behavioral.read_trials_csv", "total"),
    "behavioral.ingest_s": ("behavioral.ingest", "total"),
    "behavioral.behavioral_score_s": ("behavioral.behavioral_score", "total"),
    "behavioral.calibrate_s": ("behavioral.calibrate", "total"),
    "behavioral.loss_report_self_s": ("behavioral.loss_report", "self"),
}


def speed_probe() -> float:
    """Seconds the host takes for a fixed pure-Python loop.

    The shared host's speed changes by up to a factor of two over seconds
    to minutes, for wall and CPU time alike. Every timed operation runs between two probes,
    and its time is scaled by ``PROBE_REF_S`` over their mean, which takes
    the drift out of the time while keeping any change in the program's own
    cost.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def write_transit_dists(path: Path, n: int, seed: int, demo: Path) -> None:
    """``n`` arrival distributions, each column uniform within the bundled
    demo file's own min/max, drawn from ``seed``."""
    with open(demo, newline="", encoding="utf-8") as fh:
        demo_rows = list(csv.DictReader(fh))
    rng = np.random.default_rng(seed)
    columns = []
    for col in DIST_COLUMNS:
        values = [float(row[col]) for row in demo_rows]
        columns.append(rng.uniform(min(values), max(values), size=n))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("trial_id",) + DIST_COLUMNS)
        for i, row in enumerate(np.column_stack(columns)):
            writer.writerow([f"g{i:04d}"] + [repr(float(v)) for v in row])


def import_times(stderr: str) -> dict[str, float]:
    """Seconds per package from ``python -X importtime -c 'import rabench'``:
    the cumulative time of ``rabench`` and the summed self times of every
    module of scipy, numpy and rabench."""
    self_us: dict[str, int] = defaultdict(int)
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        own, cumulative, name = int(fields[0]), int(fields[1]), fields[2].strip()
        self_us[name.split(".")[0]] += own
        if name == "rabench":
            total_us = cumulative
    return {"import.total_s": total_us / 1e6,
            "import.scipy_s": self_us["scipy"] / 1e6,
            "import.numpy_s": self_us["numpy"] / 1e6,
            "import.rabench_self_s": self_us["rabench"] / 1e6}


def span_profile(spans: list) -> dict[str, dict[str, float]]:
    """Per span key: calls, total (inclusive) seconds and self seconds, where
    a span's self time is its duration minus its child spans' durations."""
    children = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    profile: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for sid, _, key, start, end in spans:
        entry = profile[key]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - children[sid]
    return profile


@dataclass(frozen=True)
class Child:
    """A finished child process: clock readings, peak RSS, and whether it
    exited with code 0."""

    start: float
    end: float
    rss_mb: float
    ok: bool

    @property
    def wall(self) -> float:
        return self.end - self.start


class Bench:
    """One workload run: its inputs, its children, its checks and samples."""

    def __init__(self, name: str, seed: int, work: Path):
        import rabench

        self.rb = rabench
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.attempted = 0
        self.failed = 0
        self.check_log: list[dict] = []
        #: per operation: seconds at the reference speed, and as measured
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.probe = PROBE_REF_S  # the latest speed probe
        self.bursts: list[str] = []  # library calls timed after every operation
        self.rss_mb: dict[str, list[float]] = defaultdict(list)
        self.inputs: dict[str, str] = {}
        self.csv_sha: str | None = None

        self.design_args = ["--case", self.wl.case]
        self.build_kwargs: dict = {}
        if self.wl.transit_dists:
            dists = work / "trial_dists.csv"
            write_transit_dists(dists, self.wl.transit_dists, seed,
                                rabench.cases.bundled_demo_trials_path())
            self.inputs[dists.name] = sha256(dists)
            self.design_args += ["--scenario", "2", "--trial-dists", str(dists)]
            self.build_kwargs = {"scenario": 2, "trial_dists": str(dists)}
        self.case = rabench.build_case(self.wl.case, **self.build_kwargs)
        self.design = self.case.design
        self.strategy = self.wl.strategy
        kind, noise = self.wl.agent
        if kind == "noisy":
            self.agent_text = f"noisy:k={noise}"
            self.agent = rabench.AgentSpec.noisy_belief(noise, TASK)
        else:
            self.agent_text = kind
            self.agent = rabench.AgentSpec.rational(TASK)

        # references for the checks, set by the warm-up's library rounds
        self.pre_ref: dict | None = None
        self.post_ref: dict | None = None

    # -- bookkeeping ----------------------------------------------------

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.check_log.append({"check": what, "problems": problems[:5]})
        for problem in problems[:5]:
            print(f"check failed: {what}: {problem}", file=sys.stderr)
        return not problems

    def child(self, argv: list[str], label: str) -> Child:
        """Run one child to completion; its exit code counts as a check."""
        out = self.work / f"{label}.log"
        with open(out, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=log, env=self.env,
                                    cwd=self.work)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        problems = []
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: "
                        + out.read_text(errors="replace")[-2000:]]
        ok = self.check(f"{label} exit code", problems)
        return Child(start, end, usage.ru_maxrss / 1024.0, ok)

    def cli_argv(self, command: str, traced: bool) -> list[str]:
        out = self.work / {"pre": "pre.json", "simulate": "cli.csv",
                           "post": "post.json"}[command]
        extra = {
            "pre": [],
            "simulate": ["--strategy", self.strategy, "--agent", self.agent_text,
                         "--task", TASK, "--n", str(self.wl.n_trials),
                         "--seed", str(self.seed)],
            "post": ["--trials", str(self.work / "cli.csv")],
        }[command]
        head = ([sys.executable, str(BENCH_DIR / "traced_cli.py"),
                 str(self.work / f"{command}.spans.json")] if traced
                else [sys.executable, "-m", "rabench.cli"])
        return head + [command, *self.design_args, *extra, "--out", str(out)]

    # -- output checks --------------------------------------------------

    def pre_problems(self, payload: dict) -> list[str]:
        if not self.wl.transit_dists:
            return checks.pins(payload, self.case.expected)
        if self.pre_ref is None:
            return ["no library result to compare with"]
        return (checks.rational_ordering(payload)
                + checks.agrees(payload, self.pre_ref))

    def post_problems(self, values: dict) -> list[str]:
        if self.post_ref is None:
            return ["no reference scores to compare with"]
        rel = checks.AGREE_REL if self.wl.transit_dists else checks.RECOMPUTE_REL
        return checks.post_agrees(values, self.post_ref, rel)

    def csv_problems(self, path: Path) -> list[str]:
        digest = sha256(path)
        if self.csv_sha is None:
            self.csv_sha = digest
            self.inputs["trials.csv (simulated)"] = digest
        if digest != self.csv_sha:
            return [f"{path.name} sha256 {digest[:12]} differs from "
                    f"{self.csv_sha[:12]} for the same seed"]
        return []

    def check_cli_output(self, command: str) -> None:
        if command == "pre":
            payload = json.loads((self.work / "pre.json").read_text())
            self.check("cli pre", self.pre_problems(payload))
        elif command == "simulate":
            self.check("cli simulate csv", self.csv_problems(self.work / "cli.csv"))
        else:
            payload = json.loads((self.work / "post.json").read_text())
            values = payload["strategies"].get(self.strategy, {})
            self.check("cli post", self.post_problems(values))

    # -- operations -----------------------------------------------------

    def cli(self, command: str, traced: bool = False) -> Child:
        label = f"{'traced-' if traced else ''}{command}"
        child = self.child(self.cli_argv(command, traced), label)
        if child.ok:
            try:
                self.check_cli_output(command)
            except (OSError, ValueError, KeyError, TypeError) as err:
                self.check(f"{label} output", [f"unreadable: {err!r}"])
        if not traced:
            self.rss_mb[command].append(child.rss_mb)
        return child

    def setup_once(self) -> float | None:
        kwargs = "".join(f", {k}={v!r}" for k, v in self.build_kwargs.items())
        code = f"import rabench; rabench.build_case({self.wl.case!r}{kwargs})"
        child = self.child([sys.executable, "-c", code], "setup")
        return child.wall if child.ok else None

    def paced(self, key: str, op):
        """``op``, a burst of each call in ``bursts``, then a speed probe.
        The seconds ``op`` and each burst return go to ``raw`` and, scaled to
        the reference speed by the probes on either side, to ``samples``. An
        op that returns None ran nothing that counts, and is followed by
        neither bursts nor a probe."""
        def run():
            seconds = op()
            if seconds is None:
                return
            timed = [(key, seconds)] + [
                (m, self.lib_round(m, duration=BURST_S)) for m in self.bursts]
            after = speed_probe()
            scale = 2 * PROBE_REF_S / (self.probe + after)
            for name, raw in timed:
                if raw is not None:
                    self.raw[name].append(raw)
                    self.samples[name].append(raw * scale)
            self.probe = after
        return run

    def lib_pre_call(self) -> tuple[float, dict]:
        start = time.perf_counter()
        report = self.rb.rational_report(self.design)
        table = self.rb.incentive_table(self.design)
        elapsed = time.perf_counter() - start
        return elapsed, checks.pre_payload(report, table)

    def lib_simulate_call(self) -> tuple[float, None]:
        path = self.work / "lib.csv"
        start = time.perf_counter()
        records = self.rb.simulate(self.design, self.strategy, self.agent,
                                   self.wl.n_trials, seed=self.seed)
        self.rb.write_trials_csv(records, path)
        elapsed = time.perf_counter() - start
        self.check("lib simulate csv", self.csv_problems(path))
        return elapsed, None

    def lib_post_call(self) -> tuple[float, dict]:
        start = time.perf_counter()
        records = self.rb.read_trials_csv(self.work / "lib.csv")
        report = self.rb.loss_report(self.design, self.strategy, records)
        elapsed = time.perf_counter() - start
        return elapsed, {"behavioral": report.behavioral,
                         "calibrated": report.calibrated,
                         "belief_loss": report.belief_loss,
                         "optimization_loss": report.optimization_loss,
                         "n_trials": report.n_trials}

    def lib_round(self, metric: str, short_only: bool = False,
                  duration: float = LIB_ROUND_S) -> float | None:
        """Repeat one library call for at least ``duration`` seconds; check
        the last result, and return the median call time, or None on
        failure. With ``short_only``, return None at once if the previous
        round's calls took ``SHORT_CALL_S`` or longer."""
        rounds = self.raw[metric]
        if short_only and rounds and rounds[-1] >= SHORT_CALL_S:
            return None
        call = {"lib_pre": self.lib_pre_call, "lib_simulate": self.lib_simulate_call,
                "lib_post": self.lib_post_call}[metric]
        calls = []
        start = time.perf_counter()
        while True:
            self.attempted += 1
            try:
                elapsed, value = call()
            except Exception:
                self.failed += 1
                traceback.print_exc()
                return None
            calls.append(elapsed)
            if time.perf_counter() - start >= duration:
                break
        if metric == "lib_pre":
            self.pre_ref = self.pre_ref or value
            self.check("lib pre", self.pre_problems(value))
        elif metric == "lib_post":
            if self.post_ref is None:
                self.post_ref = value if self.wl.transit_dists else \
                    checks.matrix_scores(self.work / "lib.csv", self.design)
            self.check("lib post", self.post_problems(value))
        return statistics.median(calls)

    # -- runs -----------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Untraced closed loop: the end-to-end metrics."""
        def cli_op(command):
            def op():
                child = self.cli(command)
                return child.wall if child.ok else None
            return op

        # A short call's median steadies over more moments of the run than
        # a long one's. Calls under BURST_CALL_S, far shorter than the host's
        # speed changes, are timed in a burst after every operation; other
        # library calls get a round per cycle, and a second one if under
        # SHORT_CALL_S. The CLI commands, whose samples are fewest and
        # noisiest, come first, so a cycle cut short by the deadline drops
        # the other operations.
        call_s = self.warm_up()
        metrics = ("lib_pre", "lib_simulate", "lib_post")
        self.bursts = [m for m in metrics
                       if call_s[m] is not None and call_s[m] < BURST_CALL_S]
        rounds = [m for m in metrics if m not in self.bursts]
        library = [(m, functools.partial(self.lib_round, m)) for m in rounds]
        again = [(m, functools.partial(self.lib_round, m, short_only=True))
                 for m in rounds]
        ops = [("pre", cli_op("pre")), ("simulate", cli_op("simulate")),
               ("post", cli_op("post")), *library, ("setup", self.setup_once),
               *again]
        closed_loop([self.paced(key, op) for key, op in ops], seconds, MIN_ROUNDS)

        def median(key):
            return statistics.median(self.samples[key]) if self.samples[key] else None

        def rate(key):
            seconds = median(key)
            return self.wl.n_trials / seconds if seconds else None

        rss = [statistics.median(v) for v in self.rss_mb.values()]
        values = {
            "setup_s": median("setup"),
            "pre_s": median("pre"),
            "simulate_s": median("simulate"),
            "post_s": median("post"),
            "lib_pre_s": median("lib_pre"),
            "lib_simulate_tps": rate("lib_simulate"),
            "lib_post_tps": rate("lib_post"),
            "peak_rss_mb": max(rss) if rss else None,
        }
        return {m: (v, END_TO_END_UNITS[m]) for m, v in values.items()}

    def traced_pass(self) -> dict[str, float]:
        """Import times, then each CLI command untraced and traced."""
        self.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rabench"],
            env=self.env, cwd=self.work, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            self.failed += 1
        metrics = import_times(proc.stderr)

        walls = {"untraced": 0.0, "traced": 0.0}
        layer_self = defaultdict(float)
        profiles = {}
        counts: dict[str, int] = defaultdict(int)
        start_exit = unaccounted = 0.0
        for command in ("pre", "simulate", "post"):
            walls["untraced"] += self.cli(command).wall
            child = self.cli(command, traced=True)
            walls["traced"] += child.wall
            if not child.ok:
                continue
            trace = json.loads((self.work / f"{command}.spans.json").read_text())
            profile = span_profile(trace["spans"])
            profiles[command] = profile
            for key, entry in profile.items():
                layer_self[key.split(".")[0]] += entry["self"]
            for key, value in trace["counts"].items():
                counts[key] += value
            outside = (trace["started"] - child.start) + (child.end - trace["finished"])
            start_exit += outside
            accounted = outside + trace["import_s"] + sum(
                entry["self"] for entry in profile.values())
            unaccounted = max(unaccounted, 1.0 - accounted / child.wall)

        merged: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for profile in profiles.values():
            for key, entry in profile.items():
                for stat, value in entry.items():
                    merged[key][stat] += value
        for metric, (key, stat) in SPAN_METRICS.items():
            metrics[metric] = merged[key][stat]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
        for name, _ in RESULT_COUNTS.values():
            metrics[name] = counts[name]
        for command, metric in (("pre", "rational.report_calls"),
                                ("post", "rational.report_calls_post")):
            entry = profiles.get(command, {}).get("rational.rational_report")
            metrics[metric] = entry["calls"] if entry else 0
        metrics["behavioral.csv_bytes"] = (self.work / "cli.csv").stat().st_size
        metrics["cli.out_bytes"] = sum(
            (self.work / f).stat().st_size for f in ("pre.json", "post.json"))
        metrics["interpreter.start_exit_s"] = start_exit
        metrics["trace.overhead_ratio"] = walls["traced"] / walls["untraced"]
        metrics["trace.unaccounted_share"] = unaccounted
        return metrics

    def warm_up(self) -> dict[str, float | None]:
        """One untimed round of each library call, which also sets the
        references the output checks need, then the first speed probes.
        Returns the median call time of each round."""
        call_s = {m: self.lib_round(m) for m in ("lib_pre", "lib_simulate", "lib_post")}
        for _ in range(PROBE_WARMUP):
            self.probe = speed_probe()
        return call_s

    def run_traced(self, seconds: float) -> dict:
        """Traced passes for ``seconds``: the per-layer metrics (medians)."""
        self.warm_up()
        passes: list[dict[str, float]] = []
        closed_loop([lambda: passes.append(self.traced_pass())], seconds, 1)
        units = {}
        for metric in passes[0]:
            if metric.endswith("_s"):
                units[metric] = "s"
            elif metric.endswith("_bytes"):
                units[metric] = "bytes"
            elif metric.startswith("trace."):
                units[metric] = "ratio"
            else:
                units[metric] = "count"
        return {m: (statistics.median(p[m] for p in passes), units[m])
                for m in passes[0]}


def closed_loop(ops: list, seconds: float, min_rounds: int) -> None:
    """Run ``ops`` round-robin, each after the previous one completes, until
    ``seconds`` have passed. Every op runs at least ``min_rounds`` times;
    after that an op is skipped when its last duration would carry it past
    the deadline."""
    deadline = time.perf_counter() + seconds
    last = [0.0] * len(ops)
    rounds = 0
    while True:
        ran = False
        for i, op in enumerate(ops):
            now = time.perf_counter()
            if rounds >= min_rounds and now + last[i] > deadline:
                continue
            op()
            last[i] = time.perf_counter() - now
            ran = True
        rounds += 1
        if not ran:
            return


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rabench" / "__init__.py").is_file():
        print(f"error: no rabench sources at {SRC / 'rabench'}; run from the "
              "root of a rabench checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            metrics = bench.run_traced(args.seconds)
        else:
            metrics = bench.run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m for m, (v, _) in metrics.items() if v is None]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "fingerprint": fingerprint(args.seed),
        "inputs_sha256": bench.inputs,
        "samples": dict(bench.samples),
        "raw_samples": dict(bench.raw),
        "peak_rss_mb_per_command": dict(bench.rss_mb),
        "checks": bench.check_log,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}); "
          f"fingerprint {json.dumps(record['fingerprint'])}")
    print(f"inputs sha256 {json.dumps(bench.inputs)}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<36} {value!s:>22} {unit}")
    print("samples per operation: " + ", ".join(
        f"{op} {len(v)}" for op, v in bench.samples.items()))
    print(f"record: {out.relative_to(ROOT)}")
    if missing:
        print(f"error: no successful sample for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
