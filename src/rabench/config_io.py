"""JSON design configs: a versioned, diffable serialization of experiment
designs.

Exports are canonical (explicit joint tables); the loader additionally
accepts generative-model specs in place of tables. Loading collects every
violation it can find before failing, so a bad config produces one complete
report instead of a cascade.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigError, InvalidModelError
from .generative import (
    GaussianThresholdDGM,
    TwoTeamDGM,
    kale_joint,
    two_team_report_map,
    weather_joint,
)
from .model import (
    ActionSpace,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    ReportMap,
    ScoringRule,
    StateSpace,
    TransitRule,
    binary_report_map,
    joint_violations,
    rule_violations,
)
from .payment import AffineConversion, FlooredAffineConversion

SCHEMA_VERSION = 1

T = TypeVar("T")


def _report_map_by_name(name: str, n_states: int) -> ReportMap:
    if name == "binary":
        return binary_report_map(n_states)
    if name == "pos-to-win":
        return two_team_report_map()
    raise ConfigError(f"unknown report map {name!r}")


def design_to_config(design: ExperimentDesign) -> dict:
    """Canonical JSON-ready form of a design (explicit tables throughout)."""
    states: dict = {"ids": list(design.states.ids)}
    if design.states.labels:
        states["labels"] = list(design.states.labels)
    if design.states.values is not None:
        states["values"] = list(design.states.values)

    actions: dict = {"kind": design.actions.kind, "ids": list(design.actions.ids)}
    if design.actions.values is not None:
        actions["values"] = list(design.actions.values)

    rule = design.rule
    if isinstance(rule, MatrixRule):
        rule_cfg: dict = {"kind": "matrix", "scores": rule.scores.tolist()}
    else:
        rule_cfg = {
            "kind": "transit",
            "activity_rate": rule.activity_rate,
            "waiting_rate": rule.waiting_rate,
            "destination_rate": rule.destination_rate,
            "max_destination_minutes": rule.max_destination_minutes,
            "second_bus_offset": rule.second_bus_offset,
        }

    strategies = {
        name: {"signals": list(s.signals), "joint": s.joint.tolist()}
        for name, s in design.strategies.items()
    }

    conversion = None
    if design.conversion is not None:
        c = design.conversion
        if isinstance(c, AffineConversion):
            conversion = {"kind": "affine", "base": c.base, "rate": c.rate}
        elif isinstance(c, FlooredAffineConversion):
            conversion = {"kind": "floored-affine", "base": c.base,
                          "rate": c.rate, "floor": c.floor}
        else:
            raise ConfigError(f"cannot serialize conversion {type(c).__name__}")

    return {
        "schema_version": SCHEMA_VERSION,
        "name": design.name,
        "states": states,
        "actions": actions,
        "rule": rule_cfg,
        "strategies": strategies,
        "conversion": conversion,
        "trials_per_experiment": design.trials_per_experiment,
        "initial_score": design.initial_score,
        "report_map": design.report_map.name if design.report_map else None,
    }


def save_design_config(design: ExperimentDesign, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(design_to_config(design), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_actions(cfg: dict) -> ActionSpace:
    kind = cfg.get("kind", "finite")
    if "ids" in cfg:
        return ActionSpace(
            ids=tuple(cfg["ids"]),
            kind=kind,
            values=tuple(cfg["values"]) if cfg.get("values") is not None else None,
        )
    if kind == "grid":
        return ActionSpace.integer_grid(cfg["low"], cfg["high"],
                                        cfg.get("step", 1))
    raise ConfigError("action space needs ids, or a grid low/high")


def _load_strategy(cfg: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """A strategy's (signals, joint), not yet checked."""
    if "dgm" in cfg:
        dgm_cfg = dict(cfg["dgm"])
        dgm_kind = dgm_cfg.pop("kind", None)
        if dgm_kind == "gaussian-threshold":
            sigmas = dgm_cfg.pop("sigmas")
            structure = weather_joint(GaussianThresholdDGM.uniform_sigmas(
                mean=dgm_cfg["mean"], sigmas=sigmas,
                threshold=dgm_cfg.get("threshold", 0.0),
                direction=dgm_cfg.get("direction", "below"),
            ))
        elif dgm_kind == "two-team":
            levels = dgm_cfg.get("pos_levels")
            structure = kale_joint(TwoTeamDGM(pos_levels=tuple(levels))
                                   if levels else TwoTeamDGM())
        else:
            raise InvalidModelError(f"unknown dgm kind {dgm_kind!r}")
        return structure.signals, structure.joint
    if "signals" not in cfg or "joint" not in cfg:
        raise InvalidModelError("needs signals and joint (or a dgm)")
    return (tuple(str(v) for v in cfg["signals"]),
            np.array(cfg["joint"], dtype=float))


def _load_rule(cfg: dict) -> ScoringRule:
    kind = cfg.get("kind")
    if kind == "matrix":
        return MatrixRule(np.array(cfg["scores"], dtype=float))
    if kind == "transit":
        return TransitRule(
            activity_rate=cfg["activity_rate"],
            waiting_rate=cfg["waiting_rate"],
            destination_rate=cfg["destination_rate"],
            max_destination_minutes=cfg["max_destination_minutes"],
            second_bus_offset=cfg.get("second_bus_offset", 30.0),
        )
    raise InvalidModelError(f"unknown rule kind {kind!r}")


def _load_conversion(cfg: dict | None):
    if cfg is None:
        return None
    kind = cfg.get("kind")
    if kind == "affine":
        return AffineConversion(base=cfg["base"], rate=cfg["rate"])
    if kind == "floored-affine":
        return FlooredAffineConversion(base=cfg["base"], rate=cfg["rate"],
                                       floor=cfg["floor"])
    raise ConfigError(f"unknown conversion kind {kind!r}")


def _section(name: str, load: Callable[[], T]) -> T:
    """``load()``, with a fault in the config's data raised as a
    ``ConfigError`` that names the section."""
    try:
        return load()
    except (AttributeError, KeyError, TypeError, ValueError, InvalidModelError) as err:
        raise ConfigError(f"{name}: {err}") from None


def design_from_config(cfg: dict) -> ExperimentDesign:
    """Build a design from a parsed config, reporting every violation found."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    for field in ("states", "actions", "rule", "strategies"):
        if field not in cfg:
            raise ConfigError(f"config is missing the {field!r} section")

    states = _section("states", lambda: StateSpace(
        ids=tuple(cfg["states"]["ids"]),
        labels=tuple(cfg["states"].get("labels", ())),
        values=tuple(cfg["states"]["values"])
        if cfg["states"].get("values") is not None else None,
    ))
    actions = _section("actions", lambda: _load_actions(cfg["actions"]))
    rule = _section("rule", lambda: _load_rule(cfg["rule"]))
    if not isinstance(cfg["strategies"], dict):
        raise ConfigError("strategies: must be an object of named strategies")
    strategies = {
        name: _section(f"strategy {name!r}", lambda: _load_strategy(s_cfg))
        for name, s_cfg in cfg["strategies"].items()
    }

    violations = [
        f"strategy {name!r}: {p}"
        for name, (signals, joint) in strategies.items()
        for p in joint_violations(signals, joint, states)
    ] + [f"rule: {p}" for p in rule_violations(states, actions, rule)]
    if violations:
        raise ConfigError("; ".join(violations))

    strategies = {name: InformationStructure(signals=signals, joint=joint)
                  for name, (signals, joint) in strategies.items()}
    report_map = None
    if cfg.get("report_map"):
        report_map = _report_map_by_name(cfg["report_map"], len(states))
    try:
        return ExperimentDesign(
            states=states,
            actions=actions,
            rule=rule,
            strategies=strategies,
            conversion=_section("conversion",
                                lambda: _load_conversion(cfg.get("conversion"))),
            trials_per_experiment=cfg.get("trials_per_experiment", 1),
            initial_score=cfg.get("initial_score", 0.0),
            report_map=report_map,
            name=str(cfg.get("name", "design")),
        )
    except InvalidModelError as err:
        raise ConfigError(str(err)) from None


def load_design_config(path: str | Path) -> ExperimentDesign:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except ValueError as err:  # not JSON, or an integer too long for int()
        raise ConfigError(f"config cannot be read as JSON: {err}") from None
    return design_from_config(cfg)
