"""Output checks for the benchmark: each function returns a list of problems,
empty when the output is correct.

The checks read the program's outputs (the ``--out`` JSON and trial CSV) and
compare them with the case pins, with an independent recomputation, or with
the in-process library results. They never look at timings.
"""

from __future__ import annotations

import csv

import numpy as np

#: Relative tolerance for scores recomputed from the trial CSV's counts.
RECOMPUTE_REL = 1e-9
#: Relative tolerance between the CLI's JSON and the in-process library.
AGREE_REL = 1e-12

#: Pins that no field of the ``pre`` JSON carries (the hire threshold is a
#: property of the score matrix, not of the rational analysis).
PINS_OUTSIDE_PRE = frozenset({"decision_threshold"})

_INCENTIVE_PINS = ("payment_baseline", "payment_optimal", "incentive",
                   "incentive_ratio")


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def pre_payload(report, table) -> dict:
    """The fields of ``rabench pre --out`` that the checks read, built from
    an in-process ``rational_report`` and ``incentive_table``."""
    return {
        "baseline": report.baseline,
        "benchmark": report.benchmark,
        "value_of_information": report.value_of_information,
        "prior": list(report.prior.probabilities),
        "strategies": {
            name: {"visualization_optimal": s.visualization_optimal,
                   "information_loss": s.information_loss}
            for name, s in report.strategies.items()
        },
        "incentives": {
            row.strategy: {"payment_baseline": row.payment_baseline,
                           "payment_optimal": row.payment_optimal,
                           "incentive": row.incentive,
                           "incentive_ratio": row.incentive_ratio}
            for row in table.rows
        },
    }


def _pinned_outputs(key: str, payload: dict) -> list[float] | None:
    """Every ``pre`` output a pin constrains, or None if none does."""
    strategies = payload["strategies"]
    name, _, strategy = key.partition(":")
    if name in ("baseline", "value_of_information"):
        return [payload[name]]
    if name in ("visualization_optimal", "information_loss"):
        chosen = [strategy] if strategy else list(strategies)
        return [strategies[s][name] for s in chosen]
    if name == "prior_positive":
        return [payload["prior"][1]]
    if name == "prior_win":
        return [payload["prior"][1] + payload["prior"][3]]
    if name in _INCENTIVE_PINS:
        return [payload["incentives"]["benchmark"][name]]
    return None


def pins(payload: dict, expected: dict) -> list[str]:
    """Pre-analysis outputs against the case's pins at their tolerances.

    Reference-only pins are skipped (they need unpublished inputs); so are
    pins on quantities the ``pre`` output does not carry.
    """
    problems = []
    for key, pin in expected.items():
        if pin.provenance == "reference-only" or key in PINS_OUTSIDE_PRE:
            continue
        values = _pinned_outputs(key, payload)
        if values is None:
            problems.append(f"pin {key!r} matches no pre output")
            continue
        for value in values:
            if value is None or not abs(value - pin.value) <= pin.tol:
                problems.append(f"pin {key}: got {value}, want {pin.value} "
                                f"+/- {pin.tol}")
    return problems


def _numbers(tree, prefix: str = ""):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _numbers(value, f"{prefix}{key}.")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _numbers(value, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), tree


def agrees(payload: dict, reference: dict) -> list[str]:
    """Every number in ``reference`` is present in ``payload`` and equal to
    within ``AGREE_REL``."""
    got = dict(_numbers(payload))
    problems = []
    for path, want in _numbers(reference):
        have = got.get(path)
        if want is None or have is None:
            if want is not have:
                problems.append(f"{path}: got {have}, want {want}")
        elif not close(have, want, AGREE_REL):
            problems.append(f"{path}: got {have!r}, want {want!r}")
    return problems


def rational_ordering(payload: dict) -> list[str]:
    """baseline <= every visualization optimal <= benchmark."""
    base, bench = payload["baseline"], payload["benchmark"]
    slack = 1e-12 * max(abs(base), abs(bench), 1.0)
    return [
        f"strategy {name}: optimal {s['visualization_optimal']} outside "
        f"[{base}, {bench}]"
        for name, s in payload["strategies"].items()
        if not base - slack <= s["visualization_optimal"] <= bench + slack
    ]


def matrix_scores(csv_path, design) -> dict[str, float]:
    """Behavioral and calibrated scores of a matrix-rule design, recomputed
    with plain numpy from the trial CSV's (action, state) counts, without
    the package's ingest or scoring code."""
    scores = np.asarray(design.rule.scores, dtype=float)
    state_index = {s: i for i, s in enumerate(design.states.ids)}
    action_index = {a: i for i, a in enumerate(design.actions.ids)}
    rows, cols = [], []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _, _, _, state, kind, response in reader:
            if kind != "action":
                raise ValueError(f"trial CSV has a {kind!r} response; "
                                 "only actions are scored here")
            cols.append(state_index[state])
            rows.append(action_index[response])
    counts = np.zeros((len(design.actions), len(state_index)))
    np.add.at(counts, (np.array(rows), np.array(cols)), 1.0)
    n = counts.sum()
    behavioral = float((counts * scores).sum() / n)

    totals = counts.sum(axis=1)
    seen = totals > 0
    conditionals = counts[seen] / totals[seen, None]
    best = (conditionals @ scores.T).max(axis=1)
    calibrated = float((totals[seen] / n) @ best)
    return {"behavioral": behavioral, "calibrated": calibrated}


def post_agrees(values: dict, reference: dict, rel: float) -> list[str]:
    """Post-analysis values against reference values at relative ``rel``."""
    return [
        f"{key}: got {values.get(key)!r}, want {want!r}"
        for key, want in reference.items()
        if values.get(key) is None or not close(values[key], want, rel)
    ]
