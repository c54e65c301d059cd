import pytest

from rabench.cases import build_fernandes, build_kale, build_weather
from rabench.config_io import (
    design_from_config,
    design_to_config,
    load_design_config,
    save_design_config,
)
from rabench.errors import ConfigError
from rabench.rational import rational_report


def reports_equal(a, b, tol=1e-9):
    assert abs(a.baseline - b.baseline) <= tol
    assert abs(a.benchmark - b.benchmark) <= tol
    assert abs(a.value_of_information - b.value_of_information) <= tol
    assert set(a.strategies) == set(b.strategies)
    for name in a.strategies:
        sa, sb = a.strategies[name], b.strategies[name]
        assert abs(sa.visualization_optimal - sb.visualization_optimal) <= tol
        if sa.information_loss is None:
            assert sb.information_loss is None
        else:
            assert abs(sa.information_loss - sb.information_loss) <= tol


class TestRoundTrip:
    @pytest.mark.parametrize("builder", [build_weather, build_kale,
                                         lambda: build_fernandes(scenario=1)])
    def test_export_reload_recompute(self, builder, tmp_path):
        case = builder()
        path = tmp_path / "design.json"
        save_design_config(case.design, path)
        reloaded = load_design_config(path)
        reports_equal(rational_report(case.design), rational_report(reloaded))

    def test_export_is_deterministic(self, tmp_path):
        case = build_weather()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_design_config(case.design, p1)
        save_design_config(case.design, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_map_survives(self, tmp_path):
        case = build_kale()
        path = tmp_path / "kale.json"
        save_design_config(case.design, path)
        reloaded = load_design_config(path)
        assert reloaded.report_map is not None
        assert reloaded.report_map.name == "pos-to-win"
        assert reloaded.trials_per_experiment == 32
        assert reloaded.initial_score == 108.0


class TestLoading:
    def test_dgm_strategy_spec(self):
        cfg = {
            "schema_version": 1,
            "name": "forecast",
            "states": {"ids": ["clear", "freeze"]},
            "actions": {"kind": "finite", "ids": ["no-salt", "salt"]},
            "rule": {"kind": "matrix", "scores": [[0, -100], [-10, 0]]},
            "strategies": {
                "spread": {"dgm": {"kind": "gaussian-threshold", "mean": 5.0,
                                   "sigmas": [2, 3, 4, 5]}},
            },
        }
        design = design_from_config(cfg)
        prior = design.strategies["spread"].state_marginal()
        assert prior[1] == pytest.approx(0.0796, abs=1e-4)

    def test_grid_action_spec(self):
        cfg = {
            "schema_version": 1,
            "states": {"ids": ["0", "1"], "values": [0.0, 1.0]},
            "actions": {"kind": "grid", "low": 0, "high": 3},
            "rule": {"kind": "matrix",
                     "scores": [[0, 0], [1, 1], [2, 2], [3, 3]]},
            "strategies": {"s": {"signals": ["v"], "joint": [[0.5, 0.5]]}},
        }
        design = design_from_config(cfg)
        assert design.actions.ids == ("0", "1", "2", "3")

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ConfigError):
            design_from_config({"schema_version": 99})

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigError):
            design_from_config({"schema_version": 1, "states": {"ids": ["a"]}})

    def test_bad_mass_collects_violations(self):
        cfg = {
            "schema_version": 1,
            "states": {"ids": ["a", "b"]},
            "actions": {"kind": "finite", "ids": ["x", "y"]},
            "rule": {"kind": "matrix", "scores": [[0, 0], [0, 0], [0, 0]]},
            "strategies": {"s": {"signals": ["v"], "joint": [[0.5, 0.4]]}},
        }
        with pytest.raises(ConfigError) as err:
            design_from_config(cfg)
        message = str(err.value)
        assert "mass" in message       # joint does not sum to 1
        assert "actions" in message    # 3-action matrix over 2-action space

    def test_rule_fault_is_reported_once(self):
        cfg = {
            "schema_version": 1,
            "states": {"ids": ["a", "b"]},
            "actions": {"kind": "finite", "ids": ["x", "y"]},
            "rule": {"kind": "matrix", "scores": [[0, 0], [0, 0], [0, 0]]},
            "strategies": {"s": {"signals": ["v"], "joint": [[0.5, 0.4]]},
                           "t": {"signals": ["v"], "joint": [[0.5, 0.5]]}},
        }
        with pytest.raises(ConfigError) as err:
            design_from_config(cfg)
        assert str(err.value) == (
            "strategy 's': joint mass is 0.9, not 1 within tolerance; "
            "rule: dimension: score matrix has 3 actions but the space has 2"
        )

    def test_every_violation_is_reported_at_once(self):
        cfg = {
            "schema_version": 1,
            "states": {"ids": ["a", "b"]},
            "actions": {"kind": "finite", "ids": ["x", "y"]},
            "rule": {"kind": "matrix", "scores": [[0, 0], [0, 0], [0, 0]]},
            "strategies": {"s": {"signals": ["v"], "joint": [[0.5, 0.4]]},
                           "t": {"signals": ["v", "w"],
                                 "joint": [[0.9, 0.1], [0.0, 0.0]]}},
        }
        with pytest.raises(ConfigError) as err:
            design_from_config(cfg)
        assert str(err.value) == (
            "strategy 's': joint mass is 0.9, not 1 within tolerance; "
            "strategy 't': every signal row needs positive total mass; "
            "rule: dimension: score matrix has 3 actions but the space has 2"
        )

    def test_binary_report_map_needs_two_states(self):
        cfg = {
            "schema_version": 1,
            "states": {"ids": ["a", "b", "c"]},
            "actions": {"kind": "finite", "ids": ["x", "y"]},
            "rule": {"kind": "matrix", "scores": [[0, 1, 0], [1, 0, 0]]},
            "strategies": {"s": {"signals": ["v"], "joint": [[0.3, 0.3, 0.4]]}},
            "report_map": "binary",
        }
        with pytest.raises(ConfigError, match=(
                "^report_map: the default report map needs a binary state space$")):
            design_from_config(cfg)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_design_config(path)

    def test_actions_bin_width_key_is_ignored(self):
        cfg = design_to_config(build_weather().design)
        cfg["actions"]["bin_width"] = 0.02
        assert design_to_config(design_from_config(cfg)) == \
            design_to_config(build_weather().design)

    @pytest.mark.parametrize("section, key, value", [
        ("states", "labels", ["no ice", "ice"]), ("actions", "kind", "finite"),
        ("actions", "kind", "grid"), ("actions", "kind", "report")])
    def test_keys_no_field_holds_load_to_an_equal_design(self, section, key, value):
        # configs exported with state labels or an action kind load as before
        cfg = design_to_config(build_weather().design)
        cfg[section][key] = value
        assert design_to_config(design_from_config(cfg)) == \
            design_to_config(build_weather().design)

    def test_unknown_action_kind(self):
        cfg = design_to_config(build_weather().design)
        cfg["actions"]["kind"] = "continuous"
        with pytest.raises(ConfigError,
                           match="^actions: unknown action space kind 'continuous'$"):
            design_from_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_design_config(tmp_path / "absent.json")

    def test_unknown_conversion_kind(self):
        cfg = design_to_config(build_weather().design)
        cfg["conversion"] = {"kind": "quadratic", "base": 0, "rate": 1}
        with pytest.raises(ConfigError):
            design_from_config(cfg)

    def test_shifted_affine_is_an_unknown_conversion_kind(self):
        # a shift is an affine conversion with base - rate * shift
        cfg = design_to_config(build_weather().design)
        cfg["conversion"] = {"kind": "shifted-affine", "base": 10.0, "rate": 0.01,
                             "shift": 50.0}
        with pytest.raises(ConfigError,
                           match="^unknown conversion kind 'shifted-affine'$"):
            design_from_config(cfg)

    @pytest.mark.parametrize("trials", [32.9, 32.0, True, "32", 0, None])
    def test_trials_per_experiment_must_be_a_positive_integer(self, trials):
        cfg = design_to_config(build_kale().design)
        cfg["trials_per_experiment"] = trials
        with pytest.raises(ConfigError, match=(
                f"^trials_per_experiment must be a positive integer, not {trials!r}$")):
            design_from_config(cfg)
