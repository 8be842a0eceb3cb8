"""Damped driven pendulum with slow drift: the synthetic diagnostics oracle.

Integrates  theta'' + gamma*theta' + omega0^2 sin(theta) = A cos(omega_drive t)
with classical RK4, then superimposes the drift (theta + alpha*t,
theta_dot + beta*t) on the output trajectory. The drift models a gradual
departure from the bounded oscillatory regime; it is not fed back into the
dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t = {time:.6g}")
        self.time = time


@dataclass(frozen=True)
class PendulumConfig:
    gamma: float = 0.2
    omega0: float = 1.0
    amplitude: float = 0.8
    omega_drive: float = 1.2
    drift_alpha: float = 0.005
    drift_beta: float = 0.002
    dt: float = 0.01
    t_end: float = 100.0
    theta0: float = 0.5
    theta_dot0: float = 0.0

    def __post_init__(self):
        not_finite = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if not_finite:
            raise ValueError(f"{', '.join(not_finite)} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.dt:
            raise ValueError("t_end must exceed dt")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


@dataclass(frozen=True)
class Trajectory:
    """Struct-of-arrays trajectory: t, theta, theta_dot, all length n."""

    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def simulate(config: PendulumConfig) -> Trajectory:
    """Integrate the configured pendulum; returns floor(t_end/dt)+1 points.

    Raises DivergenceError if the state leaves the representable range.
    """
    c = config
    # small guard absorbs FP noise in t_end/dt so step counts are stable
    n_steps = int(math.floor(c.t_end / c.dt + 1e-9))
    t = np.arange(n_steps + 1) * c.dt
    theta = np.empty(n_steps + 1)
    theta_dot = np.empty(n_steps + 1)

    def accel(x: float, v: float, tt: float) -> float:
        return c.amplitude * math.cos(c.omega_drive * tt) - c.gamma * v - c.omega0**2 * math.sin(x)

    x, v = c.theta0, c.theta_dot0
    theta[0], theta_dot[0] = x, v
    dt = c.dt
    for i in range(1, n_steps + 1):
        tt = (i - 1) * dt
        try:
            k1x = v
            k1v = accel(x, v, tt)
            k2x = v + 0.5 * dt * k1v
            k2v = accel(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v, tt + 0.5 * dt)
            k3x = v + 0.5 * dt * k2v
            k3v = accel(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v, tt + 0.5 * dt)
            k4x = v + dt * k3v
            k4v = accel(x + dt * k3x, v + dt * k3v, tt + dt)
            x += dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
            v += dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
        except (OverflowError, ValueError):
            # float overflow raises before inf appears; sin/cos of an
            # infinite intermediate raises a domain error
            raise DivergenceError(i * dt) from None
        if not (math.isfinite(x) and math.isfinite(v)):
            raise DivergenceError(i * dt)
        theta[i], theta_dot[i] = x, v

    # drift superimposed on the output, not fed back into the dynamics
    return Trajectory(t=t, theta=theta + c.drift_alpha * t, theta_dot=theta_dot + c.drift_beta * t)


def phase_slice(traj: Trajectory, start_index: int, end_index: int) -> np.ndarray:
    """(theta, theta_dot) pairs for the index window [start, end), as [m x 2]."""
    if not 0 <= start_index < end_index <= len(traj):
        raise IndexError(
            f"window [{start_index}, {end_index}) out of range for length {len(traj)}"
        )
    return np.column_stack([traj.theta[start_index:end_index], traj.theta_dot[start_index:end_index]])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    from .dataio import atomic_write_text

    lines = ["t,theta,theta_dot"]
    for i in range(len(traj)):
        lines.append(f"{float(traj.t[i])!r},{float(traj.theta[i])!r},{float(traj.theta_dot[i])!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
