#!/usr/bin/env python3
"""Record the trade-off references that the scan-two_machine check compares against.

    python3 perfbench/make_reference.py

For each grid the scan workload uses, this runs the library's
``tradeoff_scan`` on the two-machine inputs at ``rel_tol`` 1e-6, a thousand
times tighter than the CLI's 1e-3, and writes the rows in the CLI's CSV
format to ``perfbench/reference/tradeoff_<grid>.csv``.  Re-record only when
the inputs of the workload change, never to make a failing check pass.
"""

import math

from run import BENCH, import_workloads

REFERENCE_REL_TOL = 1e-6


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.12g}"


def main() -> None:
    workloads = import_workloads()
    from wacrisk import network, risk, stats, synthesis

    p = workloads.SCAN
    model = network.load_network(str(workloads.DATA / "two_machine.json"))
    spectrum = network.build_laplacian(model)
    for grid in sorted(set(workloads.SCAN_GRIDS.values())):
        nx, ny = (int(v) for v in grid.split("x"))
        scan = synthesis.tradeoff_scan(
            spectrum, model.damping_ratio, p["tau"], stats.NoiseParams(p["eta"], p["eta_meas"]), model.inertia,
            risk.SystemicSet(zeta=p["zeta"], c=1.5, eps=0.1), gain_box=(0.02, 2.0, 0.02, 2.0), grid=(nx, ny),
            rel_tol=REFERENCE_REL_TOL,
        )
        lines = ["mu,kappa,min_risk,xi_k,xi_m,product"]
        lines += [",".join(_fmt(float(v)) for v in row) for row in scan.rows]
        path = BENCH / "reference" / f"tradeoff_{grid}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(scan.rows)} rows)")


if __name__ == "__main__":
    main()
