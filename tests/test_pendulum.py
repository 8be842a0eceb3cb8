import math

import numpy as np
import pytest

from tdcae import pendulum


def conservative(dt=0.001, t_end=100.0, theta0=0.01):
    return pendulum.PendulumConfig(gamma=0.0, amplitude=0.0, drift_alpha=0.0,
                                   drift_beta=0.0, dt=dt, t_end=t_end, theta0=theta0)


def undrifted(**kw):
    return pendulum.PendulumConfig(drift_alpha=0.0, drift_beta=0.0, **kw)


# --- config validation ---------------------------------------------------------

def test_config_rejects_bad_dt():
    with pytest.raises(ValueError):
        pendulum.PendulumConfig(dt=0.0)
    with pytest.raises(ValueError):
        pendulum.PendulumConfig(dt=-0.1)


def test_config_rejects_t_end_not_above_dt():
    with pytest.raises(ValueError):
        pendulum.PendulumConfig(dt=1.0, t_end=1.0)


def test_config_rejects_negative_damping():
    with pytest.raises(ValueError):
        pendulum.PendulumConfig(gamma=-0.1)


# --- step count ------------------------------------------------------------------

def test_sample_count_is_floor_plus_one():
    traj = pendulum.simulate(pendulum.PendulumConfig(dt=0.01, t_end=10.0))
    assert len(traj) == 1001  # floor(10/0.01) + 1 despite FP division noise
    traj = pendulum.simulate(pendulum.PendulumConfig(dt=0.3, t_end=1.0))
    assert len(traj) == 4


# --- physics ----------------------------------------------------------------------

def test_small_angle_matches_harmonic_solution():
    cfg = conservative(dt=0.001, t_end=10.0, theta0=0.01)
    traj = pendulum.simulate(cfg)
    expected = 0.01 * np.cos(cfg.omega0 * traj.t)
    assert np.max(np.abs(traj.theta - expected)) < 1e-6


def mechanical_energy(traj, omega0):
    """Mechanical energy 0.5*theta_dot^2 + omega0^2*(1 - cos theta) per sample."""
    return 0.5 * traj.theta_dot**2 + omega0**2 * (1.0 - np.cos(traj.theta))


def test_energy_conserved_in_conservative_limit():
    traj = pendulum.simulate(conservative())
    energy = mechanical_energy(traj, omega0=1.0)
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6


def test_damped_free_motion_decays():
    cfg = undrifted(gamma=0.2, amplitude=0.0, dt=0.01, t_end=250.0, theta0=0.5)
    traj = pendulum.simulate(cfg)
    assert abs(traj.theta[-1]) < 0.01 * 0.5


def test_rk4_endpoint_error_is_fourth_order():
    def endpoint(dt):
        return pendulum.simulate(conservative(dt=dt, t_end=10.0, theta0=0.5)).theta[-1]

    reference = endpoint(0.01 / 8)
    ratio = abs(endpoint(0.02) - reference) / abs(endpoint(0.01) - reference)
    assert 14.0 <= ratio <= 18.0


def test_driven_undrifted_velocity_envelope_is_flat():
    traj = pendulum.simulate(undrifted(dt=0.01, t_end=200.0))
    mask = traj.t >= 50.0
    t, v = traj.t[mask], np.abs(traj.theta_dot[mask])
    # envelope via block maxima over 5 s windows
    blocks = len(t) // 500
    tb = np.array([t[i * 500:(i + 1) * 500].mean() for i in range(blocks)])
    vb = np.array([v[i * 500:(i + 1) * 500].max() for i in range(blocks)])
    slope = np.polyfit(tb, vb, 1)[0]
    assert abs(slope) < 1e-4


def test_drift_is_superimposed_exactly():
    base = pendulum.simulate(undrifted(dt=0.01, t_end=20.0))
    drifted = pendulum.simulate(pendulum.PendulumConfig(dt=0.01, t_end=20.0))
    assert np.allclose(drifted.theta - base.theta, 0.005 * base.t, atol=1e-12)
    assert np.allclose(drifted.theta_dot - base.theta_dot, 0.002 * base.t, atol=1e-12)


def test_drifted_trajectory_escapes_initial_box():
    traj = pendulum.simulate(pendulum.PendulumConfig(t_end=250.0))
    early = traj.t <= 20.0
    lo_t, hi_t = traj.theta[early].min(), traj.theta[early].max()
    lo_d, hi_d = traj.theta_dot[early].min(), traj.theta_dot[early].max()
    outside = ((traj.theta < lo_t) | (traj.theta > hi_t)
               | (traj.theta_dot < lo_d) | (traj.theta_dot > hi_d))
    assert outside.any()


def test_drift_window_radii_increase():
    traj = pendulum.simulate(pendulum.PendulumConfig(t_end=200.0))
    radii = []
    for start in range(40, 200, 20):
        mask = (traj.t >= start) & (traj.t < start + 20)
        radii.append(np.max(np.hypot(traj.theta[mask], traj.theta_dot[mask])))
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_divergence_raises_with_failure_time():
    cfg = pendulum.PendulumConfig(gamma=1e8, dt=1.0, t_end=1000.0, theta_dot0=1.0)
    with pytest.raises(pendulum.DivergenceError) as exc:
        pendulum.simulate(cfg)
    assert exc.value.time > 0


# --- slicing and output -------------------------------------------------------------

def test_phase_slice_windows():
    traj = pendulum.simulate(pendulum.PendulumConfig(dt=0.01, t_end=15.0))
    assert pendulum.phase_slice(traj, 0, 1).shape == (1, 2)
    assert pendulum.phase_slice(traj, 100, 1000).shape == (900, 2)


def test_phase_slice_rejects_bad_windows():
    traj = pendulum.simulate(pendulum.PendulumConfig(dt=0.1, t_end=2.0))
    for start, end in ((-1, 5), (5, 5), (5, 3), (0, len(traj) + 1)):
        with pytest.raises(IndexError):
            pendulum.phase_slice(traj, start, end)


def test_trajectory_csv_is_exact(tmp_path):
    traj = pendulum.simulate(pendulum.PendulumConfig(dt=0.1, t_end=2.0))
    path = tmp_path / "traj.csv"
    pendulum.write_trajectory_csv(traj, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,theta,theta_dot"
    assert len(rows) == len(traj) + 1
    t, theta, theta_dot = (float(v) for v in rows[3].split(","))
    assert (t, theta, theta_dot) == (traj.t[2], traj.theta[2], traj.theta_dot[2])
