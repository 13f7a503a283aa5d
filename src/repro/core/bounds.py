"""Analytical constants of the paper's performance theory.

Implements every constant appearing in Theorem 1 (drift-plus-penalty
bound), Corollary 1 (loosened bound under the current-statistics
approximation), Theorem 2 (queue/battery/delay/cost bounds), Theorem 3
(robustness) and Corollary 2 (scalability):

    H1   = Sdtmax² + ½(Ddtmax² + Bcmax²ηc² + Bdmax²ηd² + ε²)
    H2   = H1 + T(T−1)Bcmax²ηc² + T(T−1)ε²
    H3   = H2 + T·θmax(2Sdtmax + Ddtmax + Bcmax·ηc + Bdmax·ηd + ε)
    Vmax = T(Bmax − Bmin − Bdmax·ηd − Bcmax·ηc − Ddtmax − ε)/Pmax
    Qmax = V·Pmax/T + Ddtmax      Ymax = V·Pmax/T + ε
    Umax = V·Pmax/T + Ddtmax + ε
    λmax = ⌈(2V·Pmax/T + Ddtmax + ε)/ε⌉
    cost gap ≤ H2/V   (H3/V with estimation error)

Two variants are provided because the paper's Algorithm 1 and its
Theorem 2 disagree on a factor of ``T``: P4/P5 compare queue sums
against ``V·plt`` (no ``1/T``), while the theorem's bounds carry
``V·Pmax/T``.  ``BoundVariant.PAPER`` reports the printed formulas;
``BoundVariant.IMPLEMENTATION`` replaces ``Pmax/T → Pmax`` so the
bounds match the algorithm as actually specified (and as implemented
here) — the property-based tests check the implementation variant
against simulations.

Prices here are *normalized* controller units (see
``SmartDPSSConfig``-driven normalization in :mod:`repro.core.smartdpss`);
pass the normalized price cap for consistent magnitudes.

:func:`compute_bounds` is array-capable: ``v`` / ``epsilon`` /
``price_cap`` / ``theta_max`` may each be a ``(B,)`` array, and
``system`` may be a :class:`SystemArrays` bundle stacking ``B``
physical systems.  Every constant is then evaluated elementwise with
the exact arithmetic of the scalar call — the batch planning stage
(:meth:`repro.core.smartdpss_vec.VecSmartDPSS.prepare_plan_batch`)
relies on this to select paper-mode shift points for a whole batch in
one pass, bit-identical to ``B`` scalar calls, before it stacks the P4
inputs straight from the same arrays
(:meth:`repro.core.p4.StackedWindows.stack`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config.system import SystemConfig
from repro.exceptions import ConfigurationError


class BoundVariant(str, enum.Enum):
    """Which reading of the theorem constants to report."""

    PAPER = "paper"                    # V·Pmax/T thresholds, as printed
    IMPLEMENTATION = "implementation"  # V·Pmax thresholds, as coded


@dataclass(frozen=True)
class SystemArrays:
    """Array-valued stand-in for :class:`SystemConfig` field access.

    Carries exactly the physical fields :func:`compute_bounds` reads,
    each as a ``(B,)`` array (or scalar), so one call evaluates the
    theorem constants for ``B`` systems at once.  Build with
    :meth:`stack`.
    """

    fine_slots_per_coarse: object
    s_dt_max: object
    d_dt_max: object
    b_max: object
    b_min: object
    b_charge_max: object
    b_discharge_max: object
    eta_c: object
    eta_d: object

    @classmethod
    def stack(cls, systems: Sequence[SystemConfig]) -> "SystemArrays":
        """Stack the bound-relevant fields of many systems."""

        def pull(name: str) -> np.ndarray:
            return np.array([float(getattr(s, name)) for s in systems])

        return cls(
            fine_slots_per_coarse=pull("fine_slots_per_coarse"),
            s_dt_max=pull("s_dt_max"),
            d_dt_max=pull("d_dt_max"),
            b_max=pull("b_max"),
            b_min=pull("b_min"),
            b_charge_max=pull("b_charge_max"),
            b_discharge_max=pull("b_discharge_max"),
            eta_c=pull("eta_c"),
            eta_d=pull("eta_d"),
        )


@dataclass(frozen=True)
class TheoreticalBounds:
    """All constants from Theorems 1-3 for one configuration.

    With array inputs every field is a ``(B,)`` array (``lambda_max``
    integer-valued) and :attr:`theory_applies` reports whether the
    precondition can hold for *every* scenario in the batch.
    """

    h1: float
    h2: float
    h3: float
    v_max: float
    q_max: float
    y_max: float
    u_max: float
    lambda_max: int
    cost_gap: float
    variant: BoundVariant

    @property
    def theory_applies(self) -> bool:
        """Whether the Theorem 2 precondition ``0 < V ≤ Vmax`` can hold.

        The paper's own evaluation battery violates it (the safety
        margins exceed ``Bmax``); experiments then rely on the
        engine's physical clamps instead of the Lyapunov battery
        argument.  For array-valued bounds this is True only when the
        precondition can hold for every scenario.
        """
        return bool(np.all(np.asarray(self.v_max) > 0))


def compute_bounds(system: SystemConfig | SystemArrays,
                   v,
                   epsilon,
                   price_cap,
                   theta_max=0.0,
                   variant: BoundVariant = BoundVariant.IMPLEMENTATION,
                   ) -> TheoreticalBounds:
    """Evaluate every theorem constant for one configuration.

    Parameters
    ----------
    system:
        Physical system (battery caps, demand caps, ``T``), or a
        :class:`SystemArrays` bundle of ``B`` systems.
    v / epsilon:
        Controller parameters (scalars or ``(B,)`` arrays).
    price_cap:
        ``Pmax`` in the controller's (normalized) price units.
    theta_max:
        Queue-estimation error bound of Theorem 3 (0 → ``H3 = H2``).
    variant:
        Paper-literal or implementation-consistent (see module doc).

    Scalar and array calls share every arithmetic expression, so the
    array form is elementwise bit-identical to per-scenario scalar
    calls (the batch planning stage depends on this for ``u_max``).
    """
    if np.any(np.asarray(v) <= 0):
        raise ConfigurationError(f"V must be > 0, got {v}")
    if np.any(np.asarray(epsilon) <= 0):
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    if np.any(np.asarray(price_cap) <= 0):
        raise ConfigurationError(f"price cap must be > 0, got {price_cap}")
    if np.any(np.asarray(theta_max) < 0):
        raise ConfigurationError(f"theta_max must be >= 0, got {theta_max}")

    t_slots = system.fine_slots_per_coarse
    charge_sq = (system.b_charge_max * system.eta_c) ** 2
    discharge_sq = (system.b_discharge_max * system.eta_d) ** 2

    h1 = (system.s_dt_max ** 2
          + 0.5 * (system.d_dt_max ** 2 + charge_sq + discharge_sq
                   + epsilon ** 2))
    h2 = (h1 + t_slots * (t_slots - 1) * charge_sq
          + t_slots * (t_slots - 1) * epsilon ** 2)
    h3 = h2 + t_slots * theta_max * (
        2.0 * system.s_dt_max + system.d_dt_max
        + system.b_charge_max * system.eta_c
        + system.b_discharge_max * system.eta_d + epsilon)

    v_max = t_slots * (system.b_max - system.b_min
                       - system.b_discharge_max * system.eta_d
                       - system.b_charge_max * system.eta_c
                       - system.d_dt_max - epsilon) / price_cap

    if variant is BoundVariant.PAPER:
        threshold = v * price_cap / t_slots
        q_growth = system.d_dt_max
        y_growth = epsilon
    else:
        # The algorithm as specified compares Q + Y against V·plt (no
        # 1/T), and its Lyapunov weights are frozen for a whole coarse
        # window, during which the queues can grow unchecked — hence
        # the T-scaled growth terms.
        threshold = v * price_cap
        q_growth = t_slots * system.d_dt_max
        y_growth = t_slots * epsilon
    q_max = threshold + q_growth
    y_max = threshold + y_growth
    u_max = threshold + q_growth + y_growth
    lambda_raw = (2.0 * threshold + q_growth + y_growth) / epsilon
    if isinstance(lambda_raw, np.ndarray):
        lambda_max = np.ceil(lambda_raw).astype(np.int64)
    else:
        lambda_max = math.ceil(lambda_raw)
    if isinstance(theta_max, np.ndarray):
        cost_gap = np.where(theta_max > 0, h3, h2) / v
    else:
        cost_gap = (h3 if theta_max > 0 else h2) / v

    return TheoreticalBounds(h1=h1, h2=h2, h3=h3, v_max=v_max,
                             q_max=q_max, y_max=y_max, u_max=u_max,
                             lambda_max=lambda_max, cost_gap=cost_gap,
                             variant=variant)


def scaled_bounds(bounds: TheoreticalBounds, beta: float,
                  alpha: float, theta_max: float,
                  system: SystemConfig,
                  epsilon: float) -> dict[str, float]:
    """Corollary 2: constants under ``β``-fold system expansion.

    ``H1(β) = β·H1``, ``H2(β) = β·H2`` and
    ``H3(β) = β·H2 + T·β^α·θmax·(2Sdtmax + Ddtmax + Bcmax·ηc +
    Bdmax·ηd + ε)``, with ``α ∈ [1/2, 1]`` the workload-similarity /
    renewable-correlation exponent.
    """
    if beta < 1:
        raise ConfigurationError(f"beta must be >= 1, got {beta}")
    if not 0.5 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [1/2, 1], got {alpha}")
    t_slots = system.fine_slots_per_coarse
    robustness_term = t_slots * (beta ** alpha) * theta_max * (
        2.0 * system.s_dt_max + system.d_dt_max
        + system.b_charge_max * system.eta_c
        + system.b_discharge_max * system.eta_d + epsilon)
    return {
        "h1": beta * bounds.h1,
        "h2": beta * bounds.h2,
        "h3": beta * bounds.h2 + robustness_term,
    }
