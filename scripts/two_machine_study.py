#!/usr/bin/env python3
"""Two-machine case study: deviation surfaces over the feedback gains,
zero-risk gain windows, and the delay-induced floor.

Writes plot-ready CSVs into an output directory (default ./out_two_machine):

    sync_sweep.csv      sigma over (mu, kappa) for the zero-delay loop with
                        measurement noise 0.3
    delayed_sweep.csv   sigma over (mu, kappa) for tau = 0.1 with perfect
                        measurements
    risk_window.csv     frequency-only risk against the pi/3 unsafe set
    floor.csv           deviation floor and risk regime per delay
"""

import argparse
import csv
import math
import os

import numpy as np

from wacrisk.errors import InfeasibleError
from wacrisk.network import GainSpec, GeneratorParams, NetworkModel, build_laplacian
from wacrisk.risk import SystemicSet, risk_value
from wacrisk.stats import NoiseParams, pair_deviations
from wacrisk.synthesis import deviation_floor, risk_floor

MODEL = NetworkModel(
    generators=tuple(GeneratorParams(2.0, 0.15, e) for e in (1.2, 2.0)),
    equilibrium_theta=np.zeros(2),
    laplacian=[[0.792, -0.792], [-0.792, 0.792]],
)
SET_A = SystemicSet(zeta=math.pi / 3.0, c=1.5, eps=0.1)


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def sync_sweep(spectrum, d, out):
    noise = NoiseParams(0.7, 0.3)
    rows = []
    for mu in np.linspace(0.0, 2.0, 41):
        for kappa in np.linspace(0.0, 3.0, 61):
            try:
                stats = pair_deviations(spectrum, GainSpec.uniform(mu, kappa), d, 0.0, noise, MODEL.inertia)
                sigma = float(stats.sigma[0])
            except InfeasibleError:
                continue
            rows.append((f"{mu:.4f}", f"{kappa:.4f}", f"{sigma:.6f}", f"{risk_value(sigma, SET_A):.6g}"))
    write_rows(os.path.join(out, "sync_sweep.csv"), ["mu", "kappa", "sigma", "risk"], rows)


def delayed_sweep(spectrum, d, out, tau=0.1):
    rows = []
    for mu in np.linspace(-1.0, 30.0, 32):
        for kappa in np.linspace(0.0, 30.0, 31):
            try:
                stats = pair_deviations(
                    spectrum, GainSpec.uniform(mu, kappa), d, tau, NoiseParams(0.7), MODEL.inertia
                )
                sigma = float(stats.sigma[0])
            except InfeasibleError:
                continue
            rows.append((f"{mu:.4f}", f"{kappa:.4f}", f"{sigma:.6f}"))
    write_rows(os.path.join(out, "delayed_sweep.csv"), ["mu", "kappa", "sigma"], rows)


def risk_window(spectrum, d, out):
    noise = NoiseParams(0.7, 0.3)
    rows = []
    for kappa in np.linspace(0.05, 4.0, 160):
        stats = pair_deviations(spectrum, GainSpec.uniform(0.0, kappa), d, 0.0, noise, MODEL.inertia)
        sigma = float(stats.sigma[0])
        rows.append((f"{kappa:.4f}", f"{sigma:.6f}", f"{risk_value(sigma, SET_A):.6g}"))
    write_rows(os.path.join(out, "risk_window.csv"), ["kappa", "sigma", "risk"], rows)


def floor_by_delay(spectrum, d, out):
    rows = []
    for tau in (0.02, 0.05, 0.1, 0.2, 0.4):
        floor = deviation_floor(spectrum, d, tau, 0.7, MODEL.inertia)
        report = risk_floor(floor, SET_A)
        rows.append((f"{tau:.2f}", f"{floor:.6f}", report.regime, f"{report.risk_floor:.6g}"))
    write_rows(os.path.join(out, "floor.csv"), ["tau", "sigma_star", "regime", "risk_floor"], rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out_two_machine")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    spectrum = build_laplacian(MODEL)
    d = MODEL.damping_ratio
    sync_sweep(spectrum, d, args.out)
    delayed_sweep(spectrum, d, args.out)
    risk_window(spectrum, d, args.out)
    floor_by_delay(spectrum, d, args.out)


if __name__ == "__main__":
    main()
