"""GRAPE: gradient ascent pulse engineering on piecewise-constant controls.

The optimizer matches the paper's setup (Sec IV-D): BFGS-family quasi-Newton
steps (we default to L-BFGS-B so amplitude bounds are honoured), a target
infidelity of 1e-4, and a wall-clock budget per solve. The solve stops the
moment the target is reached — iteration counts are the paper's primary cost
metric (Sec VI-G), so early termination must be exact, not left to the
optimizer's own tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import optimize

from repro.qoc.fidelity import infidelity_and_gradient
from repro.qoc.hamiltonian import ControlModel
from repro.qoc.pulse import Pulse
from repro.utils.config import RunConfig
from repro.utils.rng import derive_rng


@dataclass
class GrapeResult:
    """Outcome of one GRAPE solve."""

    converged: bool
    infidelity: float
    iterations: int  # optimizer iterations until convergence (or give-up)
    function_evals: int
    pulse: Pulse
    n_steps: int
    duration: float  # ns
    wall_time: float  # seconds
    message: str = ""

    @property
    def fidelity(self) -> float:
        return 1.0 - self.infidelity


class _Budget(Exception):
    """Internal signal: target reached or budget exhausted."""


class _Tracker:
    """Closure state: best point seen, evaluation/iteration counters."""

    def __init__(self, target_infidelity: float, deadline: float):
        self.target = target_infidelity
        self.deadline = deadline
        self.best_cost = float("inf")
        self.best_x: Optional[np.ndarray] = None
        self.n_evals = 0
        self.n_iterations = 0

    def record(self, cost: float, x: np.ndarray) -> None:
        self.n_evals += 1
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_x = x.copy()
        if cost <= self.target:
            raise _Budget("target reached")
        if time.monotonic() > self.deadline:
            raise _Budget("time budget exhausted")

    def on_iteration(self, _xk: np.ndarray) -> None:
        self.n_iterations += 1


def run_grape(
    target: np.ndarray,
    model: ControlModel,
    n_steps: int,
    config: RunConfig = RunConfig(),
    initial_pulse: Optional[Pulse] = None,
    rng: Optional[np.random.Generator] = None,
) -> GrapeResult:
    """Solve for a pulse approximating ``target`` in ``n_steps`` slices.

    ``initial_pulse`` enables AccQOC's warm start: the cached pulse of a
    similar group is resampled to ``n_steps`` and used as the starting point;
    otherwise a small random cold start is drawn from ``rng``.
    """
    _check_shape(target.shape, model, n_steps)
    x0 = _start_point(model, n_steps, config, initial_pulse, rng)
    dt = model.physics.dt
    return _solve(
        lambda amps: infidelity_and_gradient(amps, model, target, dt),
        x0, model, n_steps, config, time.monotonic(),
    )


def _check_shape(target_shape, model: ControlModel, n_steps: int) -> None:
    if target_shape != (model.dim, model.dim):
        raise ValueError(
            f"target shape {target_shape} does not match model dim {model.dim}"
        )
    if n_steps < 1:
        raise ValueError("n_steps must be positive")


def _bounds_vec(model: ControlModel, n_steps: int) -> np.ndarray:
    return np.repeat(model.bounds()[None, :], n_steps, axis=0).ravel()


def _start_point(
    model: ControlModel,
    n_steps: int,
    config: RunConfig,
    initial_pulse: Optional[Pulse],
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Flat optimizer start: the resampled, clipped warm pulse, else a
    small cold-start draw from ``rng`` (default: the config seed)."""
    bounds_vec = _bounds_vec(model, n_steps)
    if initial_pulse is not None:
        x0 = initial_pulse.resampled(n_steps).amplitudes.ravel()
        return np.clip(x0, -bounds_vec, bounds_vec)
    rng = rng or derive_rng("grape-cold-start", config.seed)
    return (
        config.cold_start_noise
        * bounds_vec
        * rng.uniform(-1.0, 1.0, size=n_steps * model.n_controls)
    )


def _solve(
    evaluate: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    model: ControlModel,
    n_steps: int,
    config: RunConfig,
    start: float,
) -> GrapeResult:
    """Optimize from ``x0`` with ``evaluate(amps) -> (cost, grad)`` as the
    kernel; stop exactly on the target or ``start + time_budget_s``."""
    n_controls = model.n_controls
    tracker = _Tracker(config.target_infidelity, start + config.time_budget_s)

    def objective(x: np.ndarray):
        cost, grad = evaluate(x.reshape(n_steps, n_controls))
        tracker.record(cost, x)
        return cost, grad.ravel()

    if config.optimizer == "BFGS":
        # Unbounded BFGS as in the paper; amplitudes are clipped after.
        bounds = None
        options = {"maxiter": config.max_iterations, "gtol": 1e-12}
    else:
        bounds_vec = _bounds_vec(model, n_steps)
        bounds = list(zip(-bounds_vec, bounds_vec))
        options = {"maxiter": config.max_iterations, "ftol": 1e-16,
                   "gtol": 1e-12}
    try:
        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method=config.optimizer,
            bounds=bounds,
            callback=tracker.on_iteration,
            options=options,
        )
        message = str(result.message)
    except _Budget as stop:
        message = str(stop)

    wall = time.monotonic() - start
    best_x = tracker.best_x if tracker.best_x is not None else x0
    amps = np.clip(
        best_x.reshape(n_steps, n_controls),
        -model.bounds()[None, :],
        model.bounds()[None, :],
    )
    pulse = Pulse(
        amplitudes=amps,
        dt=model.physics.dt,
        control_labels=model.labels,
        n_qubits=model.n_qubits,
        infidelity=tracker.best_cost,
    )
    return GrapeResult(
        converged=tracker.best_cost <= config.target_infidelity,
        infidelity=tracker.best_cost,
        iterations=max(tracker.n_iterations, 1),
        function_evals=tracker.n_evals,
        pulse=pulse,
        n_steps=n_steps,
        duration=n_steps * model.physics.dt,
        wall_time=wall,
        message=message,
    )
