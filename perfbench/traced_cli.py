"""Run one ``rabench`` CLI command with every layer's public functions traced.

Usage::

    python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Each public function of the layer modules is replaced, at every module
binding in the package, by a wrapper that records a span (id, parent id,
``layer.function``, start, end), so calls between modules such as
``cli`` -> ``behavioral`` -> ``rational`` are caught as well as calls within
one module. Spans stay in memory and are written to SPANS_JSON when the
command ends, with the time spent importing the package, a few counts
taken from the results of traced calls, and the clock readings at which the
script started and finished (``perf_counter`` reads the system-wide
monotonic clock, so the parent can tell interpreter start-up and exit
apart). The program's own files are not changed. The exit code is the
command's.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

#: The package modules on the benchmark's workloads; ``config_io`` and
#: ``errors`` are not on any workload's path.
LAYERS = ("cli", "cases", "generative", "rational", "payment", "model",
          "agents", "behavioral")

#: Public methods traced besides the module-level functions.
METHODS = (("generative", "BoxCoxTDist", "quantile"),)

#: Counts read from the result of a traced call: span key -> (count, reader).
RESULT_COUNTS = {
    "agents.simulate": ("agents.trials", len),
    "behavioral.ingest": (
        "behavioral.observed_rows",
        lambda joint: int((joint.counts.sum(axis=1) > 0).sum()),
    ),
    "behavioral.loss_report": ("behavioral.post_warnings",
                               lambda report: len(report.warnings)),
}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, key: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = RESULT_COUNTS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, key, start, end)
            if counter is not None:
                name, read = counter
                counts[name] = counts.get(name, 0) + read(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace each layer's public functions at every binding in the package."""
    modules = [m for name, m in sys.modules.items()
               if name == "rabench" or name.startswith("rabench.")]
    bindings: dict[int, list] = {}
    for module in modules:
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                bindings.setdefault(id(value), []).append((module, attr))
    for layer in LAYERS:
        module = sys.modules[f"rabench.{layer}"]
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for owner, name in bindings[id(fn)]:
                setattr(owner, name, traced)
    for layer, cls_name, method in METHODS:
        cls = getattr(sys.modules[f"rabench.{layer}"], cls_name)
        fn = vars(cls)[method]
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", fn))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import rabench
    import rabench.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    install(tracer)
    code = rabench.cli.main(cli_args)
    finished = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"started": STARTED, "finished": finished,
                   "import_s": import_s, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
