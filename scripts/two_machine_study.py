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

from wacrisk.network import build_laplacian, load_network
from wacrisk.risk import SystemicSet, risk_value
from wacrisk.stats import NoiseParams, mode_weight, pair_sigma
from wacrisk.synthesis import deviation_floor, risk_floor

MODEL = load_network(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "data", "two_machine.json"))
SET_A = SystemicSet(zeta=math.pi / 3.0, c=1.5, eps=0.1)


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def gain_sweep(spectrum, d, mus, kappas, tau, noise):
    """(mu, kappa, sigma) of every uniform gain pair on the mu-outer grid that has a stationary law.

    One ``mode_weight`` call weighs the whole grid and one ``pair_sigma`` call
    gives the deviations of its finite rows, as ``synthesis.tradeoff_scan`` does.
    """
    mus, kappas = (grid.ravel() for grid in np.meshgrid(mus, kappas, indexing="ij"))
    weights = mode_weight(spectrum.eigenvalues[1:], mus[:, None], kappas[:, None], d, tau, noise, MODEL.inertia)
    finite = np.isfinite(weights).all(axis=1)
    sigma = pair_sigma(spectrum.eigenvectors, np.pad(weights[finite], ((0, 0), (1, 0))))[:, 0]
    return mus[finite], kappas[finite], sigma


def sync_sweep(spectrum, d, out):
    noise = NoiseParams(0.7, 0.3)
    mus, kappas, sigma = gain_sweep(spectrum, d, np.linspace(0.0, 2.0, 41), np.linspace(0.0, 3.0, 61), 0.0, noise)
    rows = [
        (f"{mu:.4f}", f"{kappa:.4f}", f"{s:.6f}", f"{risk:.6g}")
        for mu, kappa, s, risk in zip(mus, kappas, sigma, risk_value(sigma, SET_A))
    ]
    write_rows(os.path.join(out, "sync_sweep.csv"), ["mu", "kappa", "sigma", "risk"], rows)


def delayed_sweep(spectrum, d, out, tau=0.1):
    noise = NoiseParams(0.7)
    mus, kappas, sigma = gain_sweep(spectrum, d, np.linspace(-1.0, 30.0, 32), np.linspace(0.0, 30.0, 31), tau, noise)
    rows = [(f"{mu:.4f}", f"{kappa:.4f}", f"{s:.6f}") for mu, kappa, s in zip(mus, kappas, sigma)]
    write_rows(os.path.join(out, "delayed_sweep.csv"), ["mu", "kappa", "sigma"], rows)


def risk_window(spectrum, d, out):
    _, kappas, sigma = gain_sweep(spectrum, d, np.zeros(1), np.linspace(0.05, 4.0, 160), 0.0, NoiseParams(0.7, 0.3))
    rows = [
        (f"{kappa:.4f}", f"{s:.6f}", f"{risk:.6g}") for kappa, s, risk in zip(kappas, sigma, risk_value(sigma, SET_A))
    ]
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
    for study in (sync_sweep, delayed_sweep, risk_window, floor_by_delay):
        study(spectrum, MODEL.damping_ratio, args.out)


if __name__ == "__main__":
    main()
