"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is everything needed to reproduce one
simulation — system parameters, controller configuration, a trace
*recipe* and a seed — as plain JSON-able data.  Fleets of specs are
what the :class:`~repro.fleet.runner.FleetRunner` ships to worker
processes (a few hundred bytes each, instead of megabytes of pickled
trace arrays) and what the result store records next to every metric
row, so any fleet row can be re-run exactly.

Spec layout
-----------
``system``
    Either ``{"preset": "paper", **kwargs}`` (forwarded to
    :func:`~repro.config.presets.paper_system_config`) or raw
    :class:`~repro.config.system.SystemConfig` field overrides.  An
    optional ``expansion`` ``β >= 1`` (Fig. 10) scales ``p_grid``,
    ``s_max``, ``d_dt_max`` and ``s_dt_max`` by ``β`` while the battery
    stays fixed; the traces are generated on the *unexpanded* system
    (peak clipping reads ``p_grid``, arrivals ``d_dt_max``) and then
    scaled by :func:`~repro.traces.scaling.expand_system`.
``controller``
    ``{"kind": <kind>, **options}`` with kinds ``smartdpss``,
    ``impatient``, ``myopic``, ``lookahead``, ``offline``,
    ``p2_offline``.  Options for ``smartdpss`` are
    :class:`~repro.config.control.SmartDPSSConfig` fields.
    ``lookahead`` / ``offline`` / ``p2_offline`` are oracle policies
    that need the whole horizon up front: their shards materialize it
    once per distinct trace realization and stream over views of it.
    ``offline`` options mirror
    :class:`~repro.baselines.offline.OfflineOptimal` — notably
    ``deadline_slots`` is ``int >= 1`` or ``None`` (unconstrained),
    validated loudly at controller construction.  ``p2_offline`` is
    the paper's per-window P2 construction
    (:class:`~repro.baselines.lookahead.PaperP2Offline`).
``trace``
    ``{"kind": "stream" | "paper", **options}``.  ``stream`` builds a
    :class:`~repro.fleet.stream.StreamingPaperTraces`, which the trace
    kernels generate window by window (the memory-bounded path);
    ``paper`` materializes
    :func:`~repro.traces.library.make_paper_traces` (the exact trace
    family of the repo's figures) behind an
    :class:`~repro.fleet.stream.ArrayTraceStream`.  Optional
    ``demand`` / ``solar`` / ``price`` sub-dicts override the component
    model fields; an explicit ``seed`` overrides the spec seed.
    ``paper`` recipes also take the Fig. 8 reshapes
    ``renewable_penetration`` (``>= 0``, share of demand) and
    ``demand_variation`` (``>= 0``, std scale), each applied with its
    :mod:`repro.traces.scaling` transform whenever the key is present,
    in that order and before any ``expansion``.  Both need
    whole-horizon statistics, so a ``stream`` recipe carrying either
    (or a system ``expansion``) is rejected when the spec is built.
    Generation reads only the recipe, the horizon, the peak-clip
    ``p_grid``, the three component models (which take ``d_dt_max``,
    ``slot_hours`` and ``p_max`` from the system), the trace seed, the
    reshapes and ``β``; :meth:`ScenarioSpec.trace_key` is exactly that
    tuple.  Specs with equal keys are *trace twins* and share one
    realization within a fleet shard, so battery sizes and cycle
    budgets over one horizon and seed build their traces once (``T``
    variants share the key too, but batch in separate groups).
``observation``
    Optional: ``{"kind": <model>, **params}`` describing what the
    controller *observes* (physics always runs on the truth) — see
    :mod:`repro.fleet.observe` for the model registry (``uniform``,
    ``dropout``, ``stuck``, ``bias_drift``, ``delay``).  An explicit
    ``seed`` overrides the spec seed for the noise substreams, so seed
    replicas draw independent noise by default.  ``None`` (omitted
    from the serialized form, keeping every pre-existing spec hash
    stable) means noise-free observation.

Generators
----------
:func:`grid_specs`, :func:`product_specs` and :func:`sample_specs`
expand a template spec along dotted axis paths
(``"controller.v"``, ``"trace.solar.capacity_mw"``, ``"system.days"``)
into scenario-diverse fleets far beyond the paper's figures — crossed
with seed replicas for the aggregation layer to average back out.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from repro.config.control import SmartDPSSConfig
from repro.config.presets import paper_system_config
from repro.config.system import SystemConfig
from repro.core.interfaces import Controller
from repro.core.smartdpss import SmartDPSS
from repro.exceptions import ConfigurationError
from repro.fleet.stream import (
    ArrayTraceStream,
    StreamingPaperTraces,
    TraceStream,
)
from repro.rng import DEFAULT_SEED, make_rng, substream_seed
from repro.traces.base import TraceSet
from repro.traces.demand import DemandModel
from repro.traces.library import make_paper_traces
from repro.traces.prices import PriceModel
from repro.traces.scaling import (
    clip_demand_peaks,
    expand_system,
    rescale_renewable_penetration,
    reshape_demand_variation,
)
from repro.traces.solar import SolarModel

#: Controller kinds buildable from a spec.
CONTROLLER_KINDS = ("smartdpss", "impatient", "myopic", "lookahead",
                    "offline", "p2_offline")

#: Oracle kinds: built from the materialized horizon they plan over.
ORACLE_CONTROLLERS = ("lookahead", "offline", "p2_offline")

#: Trace recipe kinds.
TRACE_KINDS = ("stream", "paper")

#: ``paper``-recipe reshapes, applied in this order after generation.
TRACE_RESHAPES = {
    "renewable_penetration": rescale_renewable_penetration,
    "demand_variation": reshape_demand_variation,
}

#: Trace-model override sections: the model and the fields the system
#: sets on it (which a spec cannot override).
_TRACE_MODELS = {
    "demand": (DemandModel, ("d_dt_max", "slot_hours")),
    "solar": (SolarModel, ("slot_hours",)),
    "price": (PriceModel, ("price_cap", "slot_hours")),
}


def spec_content_hash(data: Mapping[str, object]) -> str:
    """Content hash of a serialized spec (any ``to_dict`` form).

    SHA-256 over the canonical (sorted-keys) JSON, so the hash is
    stable across dict ordering, processes and sessions.  This is the
    resumption key: a :class:`~repro.fleet.store.ResultStore` record
    carrying the same hash proves the exact scenario (system,
    controller, trace recipe *and* seed) already ran.
    """
    payload = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _build_system(preset: str, options: Mapping[str, object]
                  ) -> SystemConfig:
    options = dict(options)
    beta = options.pop("expansion", None)
    if preset == "paper":
        system = paper_system_config(**options)
    else:
        system = SystemConfig(**options)
    if beta is None:
        return system
    return system.replace(
        p_grid=system.p_grid * beta,
        s_max=system.s_max * beta,
        d_dt_max=system.d_dt_max * beta,
        s_dt_max=system.s_dt_max * beta,
    )


def _system_from(options: Mapping[str, object]) -> SystemConfig:
    """The system a spec's ``system`` mapping describes."""
    options = dict(options)
    preset = options.pop("preset", "paper")
    if preset not in ("paper", "raw"):
        raise ConfigurationError(
            f"unknown system preset {preset!r} (use 'paper' or 'raw')")
    try:
        return _cached_system(preset, tuple(sorted(options.items())))
    except TypeError:
        # Unhashable option values: build uncached.
        return _build_system(preset, options)


def _check_reshapes(system: Mapping[str, object],
                    trace: Mapping[str, object]) -> None:
    """Reject trace reshapes and expansions that cannot apply.

    ``stream`` recipes generate chunk by chunk, while the reshapes need
    whole-horizon statistics; values must be numbers ``>= 0`` (and the
    expansion ``β >= 1``).
    """
    options = {key: trace[key] for key in TRACE_RESHAPES if key in trace}
    if "expansion" in system:
        options["expansion"] = system["expansion"]
    if not options:
        return
    if str(trace.get("kind", "stream")) == "stream":
        raise ConfigurationError(
            f"{sorted(options)} need a 'paper' trace recipe: a 'stream' "
            f"recipe has no whole-horizon statistics to reshape")
    for key, value in options.items():
        low = 1.0 if key == "expansion" else 0.0
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not value >= low:
            raise ConfigurationError(
                f"{key} must be a number >= {low:g}, got {value!r}")


@lru_cache(maxsize=1024)
def _cached_system(preset: str, items: tuple) -> SystemConfig:
    """Shared frozen :class:`SystemConfig` per distinct spec options.

    Fleet sweeps build the *same* system for thousands of scenarios
    (planning calls ``group_key`` per spec, workers rebuild per spec);
    ``SystemConfig`` is frozen, so one instance can safely serve them
    all.
    """
    return _build_system(preset, dict(items))


def _build_models(demand: Mapping, solar: Mapping, price: Mapping,
                  d_dt_max: float, slot_hours: float, p_max: float):
    return (DemandModel(d_dt_max=d_dt_max, slot_hours=slot_hours,
                        **demand),
            SolarModel(slot_hours=slot_hours, **solar),
            PriceModel(price_cap=p_max, slot_hours=slot_hours,
                       **price))


def _model_items(overrides: Mapping[str, object]) -> tuple:
    """Sorted ``(field, value)`` override pairs, JSON lists as tuples
    (the models' tuple fields), so the models built from them hash."""
    return tuple(sorted(
        (key, tuple(value) if isinstance(value, list) else value)
        for key, value in overrides.items()))


@lru_cache(maxsize=1024)
def _cached_models(demand: tuple, solar: tuple, price: tuple,
                   d_dt_max: float, slot_hours: float, p_max: float):
    """Shared frozen trace models per distinct override set (the
    models are frozen dataclasses, so sweeps that only vary seeds or
    controller knobs reuse one triple)."""
    return _build_models(dict(demand), dict(solar), dict(price),
                         d_dt_max, slot_hours, p_max)


@lru_cache(maxsize=1024)
def _cached_smartdpss_config(items: tuple) -> SmartDPSSConfig:
    """Shared frozen controller config per distinct option set."""
    return SmartDPSSConfig(**dict(items))


def _smartdpss_config(options: Mapping[str, object]) -> SmartDPSSConfig:
    try:
        return _cached_smartdpss_config(tuple(sorted(options.items())))
    except TypeError:
        return SmartDPSSConfig(**options)


def _controller_class(kind: str) -> type:
    """The class a controller kind builds (baselines import lazily)."""
    if kind == "smartdpss":
        return SmartDPSS
    if kind == "impatient":
        from repro.baselines.impatient import ImpatientController

        return ImpatientController
    if kind == "myopic":
        from repro.baselines.myopic import MyopicPriceThreshold

        return MyopicPriceThreshold
    if kind == "lookahead":
        from repro.baselines.lookahead import LookaheadController

        return LookaheadController
    if kind == "offline":
        from repro.baselines.offline import OfflineOptimal

        return OfflineOptimal
    if kind == "p2_offline":
        from repro.baselines.lookahead import PaperP2Offline

        return PaperP2Offline
    raise ConfigurationError(
        f"unknown controller kind {kind!r}; expected one of "
        f"{CONTROLLER_KINDS}")


def _reject_unknown(what: str, names, allowed) -> None:
    unknown = sorted(set(names) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} {unknown}; expected some of "
            f"{sorted(allowed)}")


def _check_names(spec: "ScenarioSpec") -> None:
    """Reject a spec's unknown kinds and option names (see
    :func:`check_spec_options`)."""
    system = spec.system
    preset = system.get("preset", "paper")
    if preset == "paper":
        allowed = set(inspect.signature(paper_system_config).parameters)
    elif preset == "raw":
        allowed = {f.name for f in fields(SystemConfig)}
    else:
        raise ConfigurationError(
            f"unknown system preset {preset!r} (use 'paper' or 'raw')")
    _reject_unknown(f"{preset!r} system keys", system,
                    allowed | {"preset", "expansion"})

    kind = spec.controller_kind
    if kind == "smartdpss":
        allowed = {f.name for f in fields(SmartDPSSConfig)}
    else:  # the constructor's keywords; oracles get the traces
        allowed = set(inspect.signature(_controller_class(kind)).parameters)
        allowed.discard("traces")
    _reject_unknown(f"{kind!r} controller options", spec.controller,
                    allowed | {"kind"})

    trace = spec.trace
    if spec.trace_kind not in TRACE_KINDS:
        raise ConfigurationError(
            f"unknown trace kind {spec.trace_kind!r}; expected one of "
            f"{TRACE_KINDS}")
    _reject_unknown("trace options", trace,
                    {"kind", "seed", *_TRACE_MODELS, *TRACE_RESHAPES})
    for section, (model, from_system) in _TRACE_MODELS.items():
        overrides = trace.get(section, {})
        if not isinstance(overrides, Mapping):
            raise ConfigurationError(
                f"trace.{section} must be a mapping of {model.__name__} "
                f"fields, got {overrides!r}")
        _reject_unknown(f"trace.{section} fields", overrides,
                        {f.name for f in fields(model)} - set(from_system))

    if spec.observation is not None:
        from repro.fleet.observe import observation_from_mapping

        observation_from_mapping(spec.observation, default_seed=0)


def _name_key(spec: "ScenarioSpec") -> tuple:
    """Everything :func:`_check_names` reads but option values.

    One flat tuple (cheap to build and hash for 10⁴ specs): the kinds
    and option names of each section, with ``None`` between sections
    (names are strings).
    """
    system, trace = spec.system, spec.trace
    key = (str(system.get("preset", "paper")), *system, None,
           spec.controller_kind, *spec.controller, None,
           spec.trace_kind, *trace)
    for section in _TRACE_MODELS:
        if section in trace:
            overrides = trace[section]
            key += (None, section, *(overrides if isinstance(
                overrides, Mapping) else (type(overrides),)))
    observation = spec.observation
    if observation is not None:
        key += (None, "observation", str(observation.get("kind")),
                *observation)
    return key


def check_spec_options(specs: Sequence["ScenarioSpec"]) -> None:
    """Reject unknown kinds and option names before a fleet runs.

    Checks, per spec: the system preset and keys
    (:func:`~repro.config.presets.paper_system_config`'s parameters or
    :class:`~repro.config.system.SystemConfig`'s fields, plus
    ``preset`` and ``expansion``); the controller kind and options
    (:class:`~repro.config.control.SmartDPSSConfig`'s fields, or the
    baseline constructor's keyword parameters); the trace kind, keys
    and the ``demand`` / ``solar`` / ``price`` model fields the system
    does not set; and the observation kind and parameters (through
    :func:`~repro.fleet.observe.observation_from_mapping`).  Specs with
    the same kinds and names are checked once.  A failure raises one
    :class:`ConfigurationError` naming the spec position and the
    option — where a worker would otherwise fail every shard holding
    the spec, and the runner retry, bisect and quarantine each one.

    Value errors that only a constructor can see (a negative ``v``, a
    ``days`` that ``T`` does not divide, a bad ``deadline_slots``) are
    not checked here: they still raise where the spec is built.
    """
    checked: set[tuple] = set()
    for position, spec in enumerate(specs):
        key = _name_key(spec)
        if key in checked:
            continue
        try:
            _check_names(spec)
        except ConfigurationError as error:
            raise ConfigurationError(
                f"spec {position} ({spec.name!r}): {error}") from None
        checked.add(key)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: system + controller + traces + seed."""

    seed: int = DEFAULT_SEED
    value: object = None
    name: str = ""
    system: Mapping[str, object] = field(default_factory=dict)
    controller: Mapping[str, object] = field(
        default_factory=lambda: {"kind": "smartdpss"})
    trace: Mapping[str, object] = field(
        default_factory=lambda: {"kind": "stream"})
    observation: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        _check_reshapes(self.system, self.trace)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def controller_kind(self) -> str:
        return str(self.controller.get("kind", "smartdpss"))

    @property
    def trace_kind(self) -> str:
        return str(self.trace.get("kind", "stream"))

    @property
    def trace_seed(self) -> int:
        return int(self.trace.get("seed", self.seed))

    def spec_hash(self) -> str:
        """Content hash identifying this exact scenario (see
        :func:`spec_content_hash`).

        Computed once per instance: specs are immutable by contract,
        and fleet-scale callers (the resumption index, run manifests)
        hash whole 10⁴-spec fleets — rehashing per call would cost
        ~2 % of a sweep's wall-clock.
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            cached = spec_content_hash(self.to_dict())
            object.__setattr__(self, "_spec_hash", cached)
        return cached

    def group_key(self) -> tuple:
        """Batch-compatibility key (see ``StreamingBatchSimulator``'s
        shape rule).

        Specs sharing a key advance in one vectorized batch: same
        two-timescale shape, the same controller family (SmartDPSS
        additionally needs one P5 objective mode per batch) and the
        same trace recipe kind.
        """
        system = self.build_system()
        shape = (system.fine_slots_per_coarse, system.num_coarse_slots,
                 system.slot_hours)
        kind = self.controller_kind
        mode = None
        if kind == "smartdpss":
            mode = str(self.controller.get("objective_mode", "derived"))
        return (*shape, kind, mode, self.trace_kind)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    def build_system(self) -> SystemConfig:
        return _system_from(self.system)

    def _model_overrides(self, system: SystemConfig):
        options = dict(self.trace)
        options.pop("kind", None)
        options.pop("seed", None)
        for key in TRACE_RESHAPES:
            options.pop(key, None)
        demand = options.pop("demand", {})
        solar = options.pop("solar", {})
        price = options.pop("price", {})
        if options:
            raise ConfigurationError(
                f"unknown trace options {sorted(options)}")
        try:
            return _cached_models(
                _model_items(demand), _model_items(solar),
                _model_items(price),
                system.d_dt_max, system.slot_hours, system.p_max)
        except TypeError:
            # Unhashable override values: build uncached.
            return _build_models(demand, solar, price, system.d_dt_max,
                                 system.slot_hours, system.p_max)

    def trace_key(self, system: SystemConfig | None = None) -> tuple:
        """Everything trace generation reads, as one hashable tuple.

        ``(kind, slots, clip, demand, solar, price, seed, reshapes,
        expansion)``: the recipe kind, the horizon in fine slots, the
        peak-clip grid cap (``None`` when ``p_grid`` is 0), the three
        component models of :meth:`_model_overrides`, the trace seed,
        the ``paper`` reshapes as ``(key, value)`` pairs in the order
        they apply, and the expansion ``β`` (or ``None``).  With an
        expansion the other inputs come from the unexpanded system,
        which is what the traces are generated on.

        :meth:`open_stream` builds from exactly this tuple, so the key
        cannot drift from generation: specs with equal keys — *trace
        twins*, e.g. a ``controller.v`` sweep over one seed, or
        battery sizes, cycle budgets and ``T`` over one horizon — get
        bit-identical traces.  The controller, the observation, the
        name, the value and every system field generation does not
        read are not part of the key.
        """
        system = system or self.build_system()
        kind = self.trace_kind
        if kind not in TRACE_KINDS:
            raise ConfigurationError(
                f"unknown trace kind {kind!r}; expected one of "
                f"{TRACE_KINDS}")
        beta = self.system.get("expansion")
        if beta is not None:
            system = _system_from({key: value for key, value
                                   in self.system.items()
                                   if key != "expansion"})
        reshapes = tuple((key, self.trace[key])
                         for key in TRACE_RESHAPES if key in self.trace)
        return (kind, system.horizon_slots,
                system.p_grid if system.p_grid > 0 else None,
                *self._model_overrides(system), self.trace_seed,
                reshapes, beta)

    def open_stream(self, system: SystemConfig | None = None,
                    bases: dict[tuple, TraceSet] | None = None
                    ) -> TraceStream:
        """Build the trace source this spec describes (from
        :meth:`trace_key`).

        A ``paper`` recipe generates and peak-clips a base realization,
        then applies its reshapes and expansion.  ``bases`` (optional)
        keeps those bases by their generation inputs — the key without
        the reshapes and ``β`` — across calls, so specs that differ
        only in reshapes or ``β`` (Fig. 8's penetration and variation
        values, Fig. 10's expansions) generate each base once.  The
        transforms return new trace sets, so a shared base never
        changes.
        """
        key = self.trace_key(system)
        (kind, slots, clip, demand_model, solar_model, price_model, seed,
         reshapes, beta) = key
        if kind == "stream":
            return StreamingPaperTraces(
                n_slots=slots, seed=seed, demand_model=demand_model,
                solar_model=solar_model, price_model=price_model,
                clip_p_grid=clip)
        base_key = key[:-2]
        traces = None if bases is None else bases.get(base_key)
        if traces is None:
            traces = make_paper_traces(
                seed=seed, n_slots=slots, demand_model=demand_model,
                solar_model=solar_model, price_model=price_model,
                clip_peaks=False)
            if clip is not None:
                traces = clip_demand_peaks(traces, clip)
            if bases is not None:
                bases[base_key] = traces
        for name, value in reshapes:
            traces = TRACE_RESHAPES[name](traces, value)
        if beta is not None:
            traces = expand_system(traces, beta)
        return ArrayTraceStream(traces)

    def build_traces(self, system: SystemConfig | None = None) -> TraceSet:
        """Materialize the full trace horizon.

        The per-spec reference for the horizons a fleet shard builds
        (the runner materializes once per :meth:`trace_key`).  Kept
        although no production path calls it: perfbench
        (``perfbench/layers.py``) looks it up in the class
        ``__dict__`` when it is imported, to time materialization, so
        deleting it breaks the benchmark.
        """
        return self.open_stream(system).materialize()

    def build_controller(self, traces: TraceSet | None = None
                         ) -> Controller:
        """Instantiate the controller (oracles receive ``traces``)."""
        options = dict(self.controller)
        kind = str(options.pop("kind", "smartdpss"))
        if kind in ORACLE_CONTROLLERS and traces is None:
            raise ConfigurationError(
                f"{kind!r} is an oracle controller and needs the "
                f"materialized traces")
        controller = _controller_class(kind)
        if kind == "smartdpss":
            return controller(_smartdpss_config(options))
        if kind in ORACLE_CONTROLLERS:
            return controller(traces, **options)
        return controller(**options)

    def build_observation(self, system: SystemConfig | None = None):
        """The :class:`~repro.fleet.observe.ObservationSpec` this spec
        describes, or ``None`` for noise-free observation.

        The market price cap binds from the system (observed prices
        stay legal controller inputs); the noise seed defaults to the
        spec seed.
        """
        if self.observation is None:
            return None
        from repro.fleet.observe import observation_from_mapping

        system = system or self.build_system()
        return observation_from_mapping(self.observation,
                                        default_seed=self.seed,
                                        price_cap=system.p_max)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "value": self.value,
            "name": self.name,
            "system": dict(self.system),
            "controller": dict(self.controller),
            "trace": dict(self.trace),
        }
        # Omitted when unset so every pre-observation spec keeps its
        # content hash (the resumption key) bit for bit.
        if self.observation is not None:
            out["observation"] = dict(self.observation)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        known = {"seed", "value", "name", "system", "controller",
                 "trace", "observation"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioSpec fields {sorted(unknown)}")
        observation = data.get("observation")
        return cls(
            seed=int(data.get("seed", DEFAULT_SEED)),
            value=data.get("value"),
            name=str(data.get("name", "")),
            system=dict(data.get("system", {})),
            controller=dict(data.get("controller",
                                     {"kind": "smartdpss"})),
            trace=dict(data.get("trace", {"kind": "stream"})),
            observation=(None if observation is None
                         else dict(observation)),
        )


# ----------------------------------------------------------------------
# Fleet generators
# ----------------------------------------------------------------------


def _with_path(spec: ScenarioSpec, path: str, value) -> ScenarioSpec:
    """Functionally set a dotted path on a spec's nested dicts."""
    head, _, rest = path.partition(".")
    if head not in ("system", "controller", "trace", "observation"):
        raise ConfigurationError(
            f"axis path must start with system/controller/trace/"
            f"observation, got {path!r}")
    if not rest:
        raise ConfigurationError(
            f"axis path {path!r} needs a field after {head!r}")
    nested = dict(getattr(spec, head) or {})
    keys = rest.split(".")
    cursor = nested
    for key in keys[:-1]:
        cursor[key] = dict(cursor.get(key, {}))
        cursor = cursor[key]
    cursor[keys[-1]] = value
    data = spec.to_dict()
    data[head] = nested
    return ScenarioSpec.from_dict(data)


def _describe(values: Mapping[str, object]) -> str:
    return ",".join(f"{path.rsplit('.', 1)[-1]}={value}"
                    for path, value in values.items())


def _expand(template: ScenarioSpec,
            assignment: Mapping[str, object],
            seed: int) -> ScenarioSpec:
    spec = template
    for path, value in assignment.items():
        spec = _with_path(spec, path, value)
    if len(assignment) == 1:
        value = next(iter(assignment.values()))
    else:
        value = dict(assignment)
    data = spec.to_dict()
    data["seed"] = seed
    data["value"] = value
    data["name"] = f"{_describe(assignment)}/seed={seed}"
    return ScenarioSpec.from_dict(data)


def grid_specs(template: ScenarioSpec, axis: str,
               values: Sequence[object],
               seeds: Sequence[int] = (0,)) -> list[ScenarioSpec]:
    """One-axis sweep × seed replicas (``len(values) · len(seeds)``)."""
    return product_specs(template, {axis: values}, seeds)


def product_specs(template: ScenarioSpec,
                  axes: Mapping[str, Sequence[object]],
                  seeds: Sequence[int] = (0,)) -> list[ScenarioSpec]:
    """Cartesian product over axis values × seed replicas.

    Iteration order is deterministic: axes in the given order (the
    last axis varying fastest), then seeds innermost, so each value's
    seed replicas are adjacent.
    """
    if not axes:
        raise ConfigurationError("need at least one axis")
    if not seeds:
        raise ConfigurationError("need at least one seed")
    paths = list(axes)
    specs = []
    for combo in itertools.product(*(axes[path] for path in paths)):
        assignment = dict(zip(paths, combo))
        for seed in seeds:
            specs.append(_expand(template, assignment, seed))
    return specs


def sample_specs(template: ScenarioSpec,
                 space: Mapping[str, object],
                 n_scenarios: int,
                 seed: int = 0) -> list[ScenarioSpec]:
    """Random fleet: ``n_scenarios`` draws from an axis space.

    ``space`` maps dotted paths to either ``(low, high)`` tuples
    (uniform floats; log-uniform when both bounds are positive and the
    ratio exceeds 20×) or explicit value lists (uniform choice).  Each
    scenario also gets its own trace seed, so the fleet is
    scenario-diverse in both parameters and realizations while staying
    fully reproducible from ``seed``.
    """
    if n_scenarios < 1:
        raise ConfigurationError(
            f"need n_scenarios >= 1, got {n_scenarios}")
    rng = make_rng(seed, "fleet:sample")
    specs = []
    for index in range(n_scenarios):
        assignment: dict[str, object] = {}
        for path, axis in space.items():
            if isinstance(axis, tuple) and len(axis) == 2 \
                    and all(isinstance(v, (int, float)) for v in axis):
                low, high = float(axis[0]), float(axis[1])
                if low > high:
                    raise ConfigurationError(
                        f"{path}: low {low} > high {high}")
                if low > 0 and high / low > 20.0:
                    draw = float(np.exp(rng.uniform(np.log(low),
                                                    np.log(high))))
                else:
                    draw = float(rng.uniform(low, high))
                assignment[path] = draw
            else:
                values = list(axis)
                assignment[path] = values[int(rng.integers(len(values)))]
        # Scenario (trace) seeds derive from the root seed too, so two
        # fleets sampled with different roots are independent in their
        # realizations, not just their parameters.
        scenario_seed = substream_seed(seed, f"fleet:scenario[{index}]")
        spec = _expand(template, assignment, seed=scenario_seed)
        data = spec.to_dict()
        data["name"] = f"sample[{index}]"
        data["value"] = {path.rsplit(".", 1)[-1]: value
                        for path, value in assignment.items()}
        specs.append(ScenarioSpec.from_dict(data))
    return specs
