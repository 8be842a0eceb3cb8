#!/usr/bin/env python
"""Pendulum experiment: simulate with and without drift, report box counting.

Writes pendulum.ini ([pendulum] t_end) under --out, and the trajectory CSVs
and box-counting fits that `tdcae simulate` writes from it for both
variants. Then prints how long the drifted run stays inside the phase-space
bounding box of its first 20 seconds.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from tdcae import cli


def escape_time(t, theta, theta_dot, t_window: float) -> float:
    """First time the trajectory leaves its initial t_window bounding box."""
    mask = t <= t_window
    outside = ((theta < theta[mask].min()) | (theta > theta[mask].max())
               | (theta_dot < theta_dot[mask].min()) | (theta_dot > theta_dot[mask].max()))
    return float(t[np.argmax(outside)]) if outside.any() else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/pendulum")
    parser.add_argument("--t-end", type=float, default=300.0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "pendulum.ini"
    config.write_text(f"[pendulum]\nt_end = {args.t_end!r}\n")
    for tag, extra in (("drift", []), ("no_drift", ["--no-drift"])):
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out / tag)] + extra)
        if rc != 0:
            return rc

    t, theta, theta_dot = np.loadtxt(out / "drift" / "trajectory.csv", delimiter=",",
                                     skiprows=1, unpack=True)
    t_escape = escape_time(t, theta, theta_dot, 20.0)
    print(f"drifted trajectory escapes its first-20s bounding box at t = {t_escape:.1f} s")

    fit = json.loads((out / "drift" / "box_counting.json").read_text())
    print(f"phase-slice box-counting slope {fit['slope']:.3f} (residual {fit['fit_residual']:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
