"""Unit tests for declarative scenario specs and fleet generators."""

from __future__ import annotations

import json

import pytest

from repro.baselines import (
    ImpatientController,
    LookaheadController,
    MyopicPriceThreshold,
    OfflineOptimal,
)
from repro.core.smartdpss import SmartDPSS
from repro.exceptions import ConfigurationError
from repro.fleet.spec import (
    ScenarioSpec,
    grid_specs,
    product_specs,
    sample_specs,
)
from repro.fleet.stream import ArrayTraceStream, StreamingPaperTraces

pytestmark = pytest.mark.fleet


def small_template() -> ScenarioSpec:
    return ScenarioSpec(
        system={"preset": "paper", "days": 1,
                "fine_slots_per_coarse": 6},
        controller={"kind": "smartdpss"},
        trace={"kind": "stream"})


class TestScenarioSpec:
    def test_json_round_trip(self):
        spec = ScenarioSpec(
            seed=5, value=1.5, name="v=1.5/seed=5",
            system={"preset": "paper", "days": 2},
            controller={"kind": "smartdpss", "v": 1.5},
            trace={"kind": "stream", "solar": {"capacity_mw": 3.0}})
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ScenarioSpec.from_dict({"seedx": 1})

    def test_build_system_paper_preset(self):
        system = small_template().build_system()
        assert system.horizon_slots == 24
        assert system.fine_slots_per_coarse == 6

    def test_build_system_raw_preset(self):
        spec = ScenarioSpec(system={"preset": "raw",
                                    "fine_slots_per_coarse": 2,
                                    "num_coarse_slots": 3})
        assert spec.build_system().horizon_slots == 6

    def test_build_controller_kinds(self):
        spec = small_template()
        assert isinstance(spec.build_controller(), SmartDPSS)
        for kind, cls in (("impatient", ImpatientController),
                          ("myopic", MyopicPriceThreshold)):
            data = spec.to_dict()
            data["controller"] = {"kind": kind}
            assert isinstance(
                ScenarioSpec.from_dict(data).build_controller(), cls)

    def test_oracle_controllers_need_traces(self):
        data = small_template().to_dict()
        data["controller"] = {"kind": "offline"}
        data["trace"] = {"kind": "paper"}
        spec = ScenarioSpec.from_dict(data)
        with pytest.raises(ConfigurationError, match="oracle"):
            spec.build_controller()
        traces = spec.build_traces()
        assert isinstance(spec.build_controller(traces), OfflineOptimal)
        data["controller"] = {"kind": "lookahead"}
        spec = ScenarioSpec.from_dict(data)
        assert isinstance(spec.build_controller(traces),
                          LookaheadController)

    def test_open_stream_kinds(self):
        spec = small_template()
        assert isinstance(spec.open_stream(), StreamingPaperTraces)
        data = spec.to_dict()
        data["trace"] = {"kind": "paper"}
        assert isinstance(ScenarioSpec.from_dict(data).open_stream(),
                          ArrayTraceStream)
        data["trace"] = {"kind": "nope"}
        with pytest.raises(ConfigurationError, match="trace kind"):
            ScenarioSpec.from_dict(data).open_stream()

    def test_unknown_trace_option_rejected(self):
        data = small_template().to_dict()
        data["trace"] = {"kind": "stream", "wibble": 3}
        with pytest.raises(ConfigurationError, match="trace options"):
            ScenarioSpec.from_dict(data).open_stream()

    def test_group_key_separates_shapes_and_controllers(self):
        base = small_template()
        data = base.to_dict()
        data["system"] = {"preset": "paper", "days": 1,
                          "fine_slots_per_coarse": 12}
        other_shape = ScenarioSpec.from_dict(data)
        data = base.to_dict()
        data["controller"] = {"kind": "impatient"}
        other_kind = ScenarioSpec.from_dict(data)
        data = base.to_dict()
        data["trace"] = {"kind": "paper"}
        other_trace = ScenarioSpec.from_dict(data)
        keys = {base.group_key(), other_shape.group_key(),
                other_kind.group_key(), other_trace.group_key()}
        assert len(keys) == 4

    def test_trace_seed_defaults_to_spec_seed(self):
        data = small_template().to_dict()
        data["seed"] = 9
        spec = ScenarioSpec.from_dict(data)
        assert spec.trace_seed == 9
        data["trace"] = {"kind": "stream", "seed": 4}
        assert ScenarioSpec.from_dict(data).trace_seed == 4


class TestGenerators:
    def test_grid_counts_and_values(self):
        specs = grid_specs(small_template(), "controller.v",
                           [0.1, 1.0], seeds=(0, 1, 2))
        assert len(specs) == 6
        assert [s.value for s in specs] == [0.1] * 3 + [1.0] * 3
        assert specs[0].controller["v"] == 0.1
        assert specs[0].seed == 0 and specs[2].seed == 2

    def test_product_crosses_axes(self):
        specs = product_specs(
            small_template(),
            {"controller.v": [0.1, 1.0],
             "trace.solar.capacity_mw": [2.0, 4.0]},
            seeds=(0,))
        assert len(specs) == 4
        assert specs[0].value == {"controller.v": 0.1,
                                  "trace.solar.capacity_mw": 2.0}
        assert specs[0].trace["solar"] == {"capacity_mw": 2.0}

    def test_nested_axis_path(self):
        specs = grid_specs(small_template(),
                           "trace.price.mean_price", [40.0])
        assert specs[0].trace["price"] == {"mean_price": 40.0}

    def test_bad_axis_path_rejected(self):
        with pytest.raises(ConfigurationError, match="axis path"):
            grid_specs(small_template(), "nonsense.v", [1.0])
        with pytest.raises(ConfigurationError, match="axis path"):
            grid_specs(small_template(), "controller", [1.0])

    def test_sample_is_deterministic_and_in_bounds(self):
        space = {"controller.v": (0.05, 5.0),
                 "trace.solar.capacity_mw": [2.0, 4.0]}
        first = sample_specs(small_template(), space, 50, seed=3)
        again = sample_specs(small_template(), space, 50, seed=3)
        assert [s.to_dict() for s in first] == [s.to_dict()
                                                for s in again]
        other = sample_specs(small_template(), space, 50, seed=4)
        assert [s.to_dict() for s in first] != [s.to_dict()
                                                for s in other]
        for spec in first:
            assert 0.05 <= spec.controller["v"] <= 5.0
            assert spec.trace["solar"]["capacity_mw"] in (2.0, 4.0)
        # per-scenario trace seeds make the fleet realization-diverse,
        # and they derive from the root seed so two fleets sampled
        # with different roots are independent realizations too
        assert len({s.seed for s in first}) == 50
        assert {s.seed for s in first}.isdisjoint(
            {s.seed for s in other})

    def test_sample_specs_are_json_safe(self):
        specs = sample_specs(small_template(),
                             {"controller.v": (0.1, 2.0)}, 3, seed=0)
        for spec in specs:
            json.dumps(spec.to_dict())

    def test_generated_specs_build(self):
        specs = sample_specs(
            small_template(),
            {"controller.v": (0.05, 5.0),
             "trace.price.mean_price": (35.0, 65.0)}, 4, seed=1)
        for spec in specs:
            system = spec.build_system()
            controller = spec.build_controller()
            assert controller.config.v == spec.controller["v"]
            assert spec.open_stream(system).n_slots \
                == system.horizon_slots
