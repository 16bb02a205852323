"""Command-line entry point.

Subcommands: stability, spectral, stats, risk, synth, tradeoff, simulate,
nu.  Outputs are plot-ready CSV (header row, '.' decimal, literal "inf"
for infinite risk) or JSON for matrices; every file written is accompanied
by a ``<file>.manifest.json`` recording the tool version, timestamp and
the exact arguments, and ``wacrisk --from-manifest <manifest>`` replays a
recorded run byte-identically (same seed included).

Exit codes: 0 success, 2 validation error (malformed input, bad flags),
3 infeasible request (e.g. statistics of an unstable loop).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import os
import sys
import tempfile

from . import __version__
from .errors import InfeasibleError, ValidationError
from .network import GainSpec, build_laplacian, load_network, resolve_gains
from .risk import SystemicSet, acceptance_quantile, risk_profile, risk_value
from .simulate import SimConfig, simulate
from .spectral import evaluate
from .stability import ScaledParams, network_verdict
from .stats import NoiseParams, pair_deviations
from .synthesis import synthesize, tradeoff_scan


def _fmt(value) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.12g}"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wacrisk-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, header: list[str], rows, argv: list[str]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    _write_atomic(path, text)
    _write_manifest(path, argv)


def _write_manifest(out_path: str, argv: list[str]) -> None:
    manifest = {
        "tool": "wacrisk",
        "version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "argv": argv,
        "output": os.path.basename(out_path),
    }
    _write_atomic(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _gains_from_args(args, n: int) -> GainSpec:
    if getattr(args, "gains", None):
        with open(args.gains, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        mode = doc.get("mode", "eigen")
        if mode == "eigen":
            return GainSpec.eigen(doc["mu"], doc["kappa"])
        if mode == "uniform":
            return GainSpec.uniform(doc["mu"], doc["kappa"])
        if mode == "consensus":
            return GainSpec.consensus(doc["mu"], doc["kappa"])
        if mode == "dense":
            return GainSpec.dense(doc["M"], doc["K"])
        raise ValidationError(f"unknown gain mode {mode!r} in {args.gains}")
    mu = getattr(args, "mu", 0.0) or 0.0
    kappa = getattr(args, "kappa", 0.0) or 0.0
    if args.gain_mode == "consensus":
        return GainSpec.consensus(mu, kappa)
    return GainSpec.uniform(mu, kappa)


def _systemic_set(args) -> SystemicSet:
    if args.zeta is None and args.zeta_deg is None:
        raise ValidationError("a systemic set needs --zeta (radians) or --zeta-deg")
    zeta = args.zeta if args.zeta is not None else math.radians(args.zeta_deg)
    return SystemicSet(zeta=zeta, c=args.c, eps=args.eps)


def _add_network_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--network", required=required, help="network JSON document")
    p.add_argument("--mu", type=float, default=0.0, help="scalar phase gain")
    p.add_argument("--kappa", type=float, default=0.0, help="scalar frequency gain")
    p.add_argument(
        "--gain-mode",
        choices=("uniform", "consensus"),
        default="uniform",
        help="scalar gains act per non-consensus mode (uniform) or as multiples of the Laplacian",
    )
    p.add_argument("--gains", help="JSON gain file (eigen lists, consensus scalars, or dense matrices)")


def _add_systemic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--zeta", type=float, default=None, help="hard incoherence limit (radians)")
    p.add_argument("--zeta-deg", type=float, default=None, help="hard incoherence limit (degrees)")
    p.add_argument("--c", type=float, default=1.5, help="safe-margin divisor (> 1)")
    p.add_argument("--eps", type=float, default=0.1, help="risk acceptance level in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wacrisk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wacrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="per-mode delay-stability verdicts")
    _add_network_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("spectral", help="evaluate the mode spectral integral")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--k1", type=float, default=0.0)
    p.add_argument("--k2", type=float, default=0.0)

    p = sub.add_parser("stats", help="stationary pair deviations")
    _add_network_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--etap", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--modes-out", help="per-mode weight CSV")

    p = sub.add_parser("risk", help="value-at-risk of every pair")
    _add_network_args(p, required=False)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--etap", type=float, default=0.0)
    p.add_argument("--from-stats", help="reuse a stats CSV instead of recomputing")
    _add_systemic_args(p)
    p.add_argument("--out")

    p = sub.add_parser("synth", help="per-mode optimal gains")
    _add_network_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--etap", type=float, default=0.0)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--kappa-max", type=float, default=4.0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--out")
    p.add_argument("--matrices-out", help="assembled gain matrices as JSON")

    p = sub.add_parser("tradeoff", help="risk x connectivity scan over consensus gains")
    _add_network_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--etap", type=float, default=0.0)
    _add_systemic_args(p)
    p.add_argument("--mu-min", type=float, default=0.02)
    p.add_argument("--mu-max", type=float, default=2.0)
    p.add_argument("--kappa-min", type=float, default=0.02)
    p.add_argument("--kappa-max", type=float, default=2.0)
    p.add_argument("--grid", default="50x50", help="scan resolution, e.g. 50x50")
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="Euler-Maruyama ensemble statistics")
    _add_network_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--etap", type=float, default=0.0)
    p.add_argument("--h", type=float, default=0.005, help="integration step request")
    p.add_argument("--T", type=float, default=200.0, help="horizon")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burnin", type=float, default=0.5)
    p.add_argument("--out")

    p = sub.add_parser("nu", help="two-sided Gaussian acceptance quantile")
    p.add_argument("--eps", type=float, required=True)

    return parser


def _cmd_stability(args, argv) -> int:
    model = load_network(args.network)
    spectrum = build_laplacian(model)
    gains = _gains_from_args(args, spectrum.n)
    verdict = network_verdict(spectrum, gains, model.damping_ratio, args.tau)
    rows = []
    for idx, (sp, v) in enumerate(zip(verdict.params, verdict.verdicts)):
        rows.append(
            (
                idx + 1,
                float(verdict.gains.lambdas[idx]),
                float(verdict.gains.mu[idx]),
                float(verdict.gains.kappa[idx]),
                sp.s1,
                sp.s2,
                sp.k1,
                sp.k2,
                v.region,
                str(v.stable).lower(),
            )
        )
    _emit(
        args.out,
        ["mode_index", "lambda", "mu", "kappa", "s1", "s2", "k1", "k2", "region", "stable"],
        rows,
        argv,
    )
    return 0


def _cmd_spectral(args) -> int:
    sp = ScaledParams(s1=args.s1, s2=args.s2, k1=args.k1, k2=args.k2)
    result = evaluate(sp)
    print(_fmt(result.value))
    return 0


def _stats_for_args(args, model, spectrum):
    """Pair statistics for the parsed arguments, with the resolved gains."""
    resolved = resolve_gains(_gains_from_args(args, spectrum.n), spectrum)
    noise = NoiseParams(eta=args.eta, eta_meas=args.etap)
    stats = pair_deviations(spectrum, resolved, model.damping_ratio, args.tau, noise, model.inertia)
    return stats, resolved


def _cmd_stats(args, argv) -> int:
    model = load_network(args.network)
    spectrum = build_laplacian(model)
    stats, resolved = _stats_for_args(args, model, spectrum)
    _emit(
        args.out,
        ["i", "j", "sigma"],
        [(i, j, float(s)) for (i, j), s in zip(stats.pairs, stats.sigma)],
        argv,
    )
    if args.modes_out:
        rows = [
            (l + 1, float(resolved.lambdas[l]), float(resolved.mu[l]), float(resolved.kappa[l]), float(w))
            for l, w in enumerate(stats.mode_weights)
        ]
        _emit(args.modes_out, ["l", "lambda", "mu", "kappa", "frak_f"], rows, argv)
    return 0


def _cmd_risk(args, argv) -> int:
    sset = _systemic_set(args)
    if args.from_stats:
        rows = []
        with open(args.from_stats, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[:3] != ["i", "j", "sigma"]:
                raise ValidationError(f"{args.from_stats} is not a stats CSV")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                fields = line.strip().split(",")
                try:
                    i, j, sigma = int(fields[0]), int(fields[1]), float(fields[2])
                except (IndexError, ValueError) as exc:
                    raise ValidationError(
                        f"{args.from_stats} line {lineno}: expected i,j,sigma, got {line.strip()!r}"
                    ) from exc
                rows.append((i, j, sigma, risk_value(sigma, sset)))
        _emit(args.out, ["i", "j", "sigma", "risk"], rows, argv)
        return 0
    if not args.network:
        raise ValidationError("risk needs --network (or --from-stats)")
    model = load_network(args.network)
    spectrum = build_laplacian(model)
    stats, _ = _stats_for_args(args, model, spectrum)
    profile = risk_profile(stats, sset)
    rows = [
        (i, j, float(s), float(r))
        for (i, j), s, r in zip(stats.pairs, stats.sigma, profile.values)
    ]
    _emit(args.out, ["i", "j", "sigma", "risk"], rows, argv)
    return 0


def _cmd_synth(args, argv) -> int:
    model = load_network(args.network)
    spectrum = build_laplacian(model)
    noise = NoiseParams(eta=args.eta, eta_meas=args.etap)
    result = synthesize(
        spectrum,
        model.damping_ratio,
        args.tau,
        noise,
        model.inertia,
        gain_box=(0.0, args.mu_max, 0.0, args.kappa_max),
        grid_step=args.grid_step,
    )
    rows = [
        (l + 1, float(result.lambdas[l]), float(result.mu[l]), float(result.kappa[l]), float(result.weights[l]))
        for l in range(len(result.lambdas))
    ]
    _emit(args.out, ["l", "lambda", "mu", "kappa", "frak_f"], rows, argv)
    if args.matrices_out:
        doc = {"M": result.M.tolist(), "K": result.K.tolist()}
        _write_atomic(args.matrices_out, json.dumps(doc, indent=2) + "\n")
        _write_manifest(args.matrices_out, argv)
    return 0


def _cmd_tradeoff(args, argv) -> int:
    model = load_network(args.network)
    spectrum = build_laplacian(model)
    noise = NoiseParams(eta=args.eta, eta_meas=args.etap)
    sset = _systemic_set(args)
    try:
        nx, ny = (int(v) for v in args.grid.lower().split("x"))
    except ValueError as exc:
        raise ValidationError(f"bad --grid {args.grid!r}; expected e.g. 50x50") from exc
    scan = tradeoff_scan(
        spectrum,
        model.damping_ratio,
        args.tau,
        noise,
        model.inertia,
        sset,
        gain_box=(args.mu_min, args.mu_max, args.kappa_min, args.kappa_max),
        grid=(nx, ny),
    )
    rows = [tuple(float(v) for v in row) for row in scan.rows]
    _emit(args.out, ["mu", "kappa", "min_risk", "xi_k", "xi_m", "product"], rows, argv)
    print(f"omega_hat {_fmt(scan.omega_hat)}")
    return 0


def _cmd_simulate(args, argv) -> int:
    model = load_network(args.network)
    spectrum = build_laplacian(model)
    gains = _gains_from_args(args, spectrum.n)
    noise = NoiseParams(eta=args.eta, eta_meas=args.etap)
    config = SimConfig(
        step=args.h, horizon=args.T, trajectories=args.paths, burn_in=args.burnin, seed=args.seed
    )
    stats = simulate(model, gains, args.tau, noise, config)
    rows = [
        (i, j, float(math.sqrt(max(v, 0.0))))
        for (i, j), v in zip(stats.pairs, stats.pair_variance)
    ]
    _emit(args.out, ["i", "j", "sigma"], rows, argv)
    return 0


def run(argv: list[str]) -> int:
    if argv and argv[0] == "--from-manifest":
        if len(argv) < 2:
            raise ValidationError("--from-manifest needs a manifest path")
        with open(argv[1], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        argv = list(doc["argv"]) + argv[2:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stability":
        return _cmd_stability(args, argv)
    if args.command == "spectral":
        return _cmd_spectral(args)
    if args.command == "stats":
        return _cmd_stats(args, argv)
    if args.command == "risk":
        return _cmd_risk(args, argv)
    if args.command == "synth":
        return _cmd_synth(args, argv)
    if args.command == "tradeoff":
        return _cmd_tradeoff(args, argv)
    if args.command == "simulate":
        return _cmd_simulate(args, argv)
    if args.command == "nu":
        print(f"{acceptance_quantile(args.eps):.5f}")
        return 0
    raise ValidationError(f"unknown command {args.command!r}")


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        sys.exit(3)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(code)


if __name__ == "__main__":
    main()
