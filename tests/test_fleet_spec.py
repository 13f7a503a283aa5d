"""Unit tests for declarative scenario specs and fleet generators."""

from __future__ import annotations

import json

import numpy as np
import pytest

from oracles.engine import metrics_from_result
from repro.baselines import (
    ImpatientController,
    LookaheadController,
    MyopicPriceThreshold,
    OfflineOptimal,
    PaperP2Offline,
)
from repro.config.presets import paper_system_config
from repro.core.smartdpss import SmartDPSS
from repro.exceptions import ConfigurationError
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import (
    ScenarioSpec,
    grid_specs,
    product_specs,
    sample_specs,
)
from repro.fleet.stream import ArrayTraceStream, StreamingPaperTraces
from repro.sim.engine import Simulator
from repro.traces.library import make_paper_traces
from repro.traces.scaling import (
    expand_system,
    rescale_renewable_penetration,
    reshape_demand_variation,
)

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
        payload = json.dumps(spec.to_dict(), sort_keys=True)
        assert ScenarioSpec.from_dict(json.loads(payload)) == spec

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

    @pytest.mark.parametrize("kind", ["stream", "paper"])
    def test_trace_key_is_what_generation_reads(self, kind):
        """Battery, cycle-budget and ``T`` variants are trace twins;
        the seed, model overrides, ``p_grid``, reshapes and ``β``
        split the key."""
        def spec(seed=3, trace=None, **system):
            return ScenarioSpec(
                seed=seed,
                system={"preset": "paper", "days": 2, **system},
                trace={"kind": kind, **(trace or {})})

        base = spec()
        twins = [spec(battery_minutes=30.0), spec(cycle_budget=3),
                 spec(fine_slots_per_coarse=6)]
        for twin in twins:
            assert twin.trace_key() == base.trace_key(), twin.system
        assert_same_traces(twins[0].build_traces(), base.build_traces())
        others = [spec(seed=4), spec(trace={"seed": 5}),
                  spec(trace={"solar": {"capacity_mw": 3.0}}),
                  spec(trace={"price": {"mean_price": 40.0}}),
                  spec(peak_demand_mw=3.0)]
        if kind == "paper":
            others += [spec(trace={"renewable_penetration": 0.2}),
                       spec(trace={"demand_variation": 0.5}),
                       spec(expansion=2.0)]
        keys = {base.trace_key(), *(other.trace_key() for other in others)}
        assert len(keys) == len(others) + 1

    def test_trace_key_hashes_list_valued_overrides(self):
        """A JSON list override keys (and builds) like its tuple."""
        def key(attenuation):
            return ScenarioSpec(
                system={"preset": "paper", "days": 1},
                trace={"kind": "stream",
                       "solar": {"cloud_attenuation": attenuation}}
            ).trace_key()

        assert hash(key([1.0, 0.5, 0.1])) == hash(key((1.0, 0.5, 0.1)))
        assert key([1.0, 0.5, 0.1]) == key((1.0, 0.5, 0.1))

    def test_trace_seed_defaults_to_spec_seed(self):
        data = small_template().to_dict()
        data["seed"] = 9
        spec = ScenarioSpec.from_dict(data)
        assert spec.trace_seed == 9
        data["trace"] = {"kind": "stream", "seed": 4}
        assert ScenarioSpec.from_dict(data).trace_seed == 4


TRACE_FIELDS = ("demand_ds", "demand_dt", "renewable", "price_rt",
                "price_lt_hourly")


def paper_spec(days=2, seed=3, controller=None, trace=None, **system):
    return ScenarioSpec(
        seed=seed, system={"preset": "paper", "days": days, **system},
        controller=controller or {"kind": "smartdpss"},
        trace={"kind": "paper", **(trace or {})})


def assert_same_traces(actual, expected):
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(actual, name),
                              getattr(expected, name)), name


class TestFigureVocabulary:
    """The spec options the paper figures need: Fig. 8's trace
    reshapes, Fig. 10's expansion and the ablations' P2 oracle."""

    @pytest.mark.parametrize("key, reshape, value", [
        ("renewable_penetration", rescale_renewable_penetration, 0.0),
        ("renewable_penetration", rescale_renewable_penetration, 0.6),
        ("demand_variation", reshape_demand_variation, 0.5),
        ("demand_variation", reshape_demand_variation, 1.0),
        ("demand_variation", reshape_demand_variation, 2.0),
    ])
    def test_reshape_equals_in_memory_transform(self, key, reshape,
                                                value):
        system = paper_system_config(days=2)
        expected = reshape(make_paper_traces(system, seed=3), value)
        assert_same_traces(
            paper_spec(trace={key: value}).build_traces(), expected)

    def test_identity_variation_still_reshapes(self):
        """``demand_variation: 1.0`` is applied, not skipped: the
        stretch about the mean changes bits of ``demand_dt``."""
        raw = make_paper_traces(paper_system_config(days=2), seed=3)
        reshaped = paper_spec(
            trace={"demand_variation": 1.0}).build_traces()
        assert not np.array_equal(raw.demand_dt, reshaped.demand_dt)

    @pytest.mark.parametrize("beta", [1.0, 2.5, 10.0])
    def test_expansion_scales_system_and_traces(self, beta):
        base = paper_system_config(days=2)
        spec = paper_spec(expansion=beta)
        system = spec.build_system()
        assert system == base.replace(
            p_grid=base.p_grid * beta, s_max=base.s_max * beta,
            d_dt_max=base.d_dt_max * beta,
            s_dt_max=base.s_dt_max * beta)
        # Generated on the unexpanded system, then expanded.
        expected = expand_system(make_paper_traces(base, seed=3), beta)
        assert_same_traces(spec.build_traces(system), expected)

    def test_reshapes_enter_the_trace_key(self):
        keys = {paper_spec(trace=trace, **system).trace_key()
                for trace, system in (
                    ({}, {}), ({"renewable_penetration": 0.2}, {}),
                    ({"demand_variation": 0.2}, {}),
                    ({}, {"expansion": 2.0}))}
        assert len(keys) == 4

    @pytest.mark.parametrize("trace, system", [
        ({"kind": "stream", "renewable_penetration": 0.5}, {}),
        ({"kind": "stream", "demand_variation": 1.0}, {}),
        ({"kind": "stream"}, {"expansion": 2.0}),
        ({"kind": "paper", "renewable_penetration": -0.1}, {}),
        ({"kind": "paper", "demand_variation": -1.0}, {}),
        ({"kind": "paper", "demand_variation": "wide"}, {}),
        ({"kind": "paper"}, {"expansion": 0.5}),
        ({"kind": "paper"}, {"expansion": -2.0}),
        ({"kind": "paper"}, {"expansion": float("nan")}),
    ])
    def test_bad_options_rejected_when_built(self, trace, system):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(system={"preset": "paper", "days": 1, **system},
                         trace=trace)
        data = {"system": {"preset": "paper", "days": 1, **system},
                "trace": trace}
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_p2_offline_runs_as_oracle_shard(self):
        spec = paper_spec(days=1, controller={"kind": "p2_offline"},
                          fine_slots_per_coarse=6)
        with pytest.raises(ConfigurationError, match="oracle"):
            spec.build_controller()
        system = spec.build_system()
        traces = spec.build_traces(system)
        assert isinstance(spec.build_controller(traces), PaperP2Offline)
        (record,) = FleetRunner([spec], fail_fast=True).run()
        scalar = Simulator(system, PaperP2Offline(traces), traces).run()
        assert record["metrics"] == metrics_from_result(
            scalar, seed=spec.seed).as_dict()

    def test_existing_spec_keeps_dict_and_hash(self):
        """Specs without the new keys serialize and hash as before."""
        spec = ScenarioSpec(
            seed=5, value=1.5, name="v=1.5/seed=5",
            system={"preset": "paper", "days": 2},
            controller={"kind": "smartdpss", "v": 1.5},
            trace={"kind": "paper", "solar": {"capacity_mw": 3.0}})
        assert json.dumps(spec.to_dict(), sort_keys=True) == (
            '{"controller": {"kind": "smartdpss", "v": 1.5}, "name": '
            '"v=1.5/seed=5", "seed": 5, "system": {"days": 2, "preset": '
            '"paper"}, "trace": {"kind": "paper", "solar": '
            '{"capacity_mw": 3.0}}, "value": 1.5}')
        assert spec.spec_hash() == ("b95c6b48aa4610ce2b9a27b053a22710"
                                    "fd3c4c989e06a526c357925b1a3737db")


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
