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
import functools
import json
import math
import os
import sys
import tempfile

from . import __version__
from .errors import InfeasibleError, ValidationError
from .network import GainSpec, _read_json_object, build_laplacian, load_network, resolve_gains
from .risk import SystemicSet, acceptance_quantile, risk_profile, risk_value
from .simulate import SimConfig, simulate
from .spectral import evaluate
from .stability import REGIONS, ScaledParams, network_verdict
from .stats import NoiseParams, pair_deviations
from .synthesis import synthesize, tradeoff_scan


def _fmt(value) -> str:
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
    """Write a CSV of ``rows`` under ``header``: floats (NumPy's included) as
    ``_fmt`` writes them, anything else as ``str``.  Each row is one ``%``
    operation with a format kept per sequence of value types."""
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join("%.12g" if issubclass(kind, float) else "%s" for kind in kinds)
        lines.append(fmt % tuple(row))
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


def _given(args, *dests) -> list[str]:
    """The flags among ``dests`` (all defaulting to None) that the command line set."""
    return ["--" + dest.replace("_", "-") for dest in dests if getattr(args, dest) is not None]


def _gains_from_args(args) -> GainSpec:
    """Gains from ``--gains`` or the scalar flags; each gain mode names its GainSpec constructor."""
    if args.gains is None:
        mode = args.gain_mode or "uniform"
        return getattr(GainSpec, mode)(*(0.0 if v is None else v for v in (args.mu, args.kappa)))
    conflicts = _given(args, "mu", "kappa", "gain_mode")
    if conflicts:
        raise ValidationError(f"--gains cannot be combined with {', '.join(conflicts)}")
    doc = _read_json_object(args.gains, "gain file")
    mode = doc.get("mode", "eigen")
    if mode not in ("eigen", "uniform", "consensus", "dense"):
        raise ValidationError(f"unknown gain mode {mode!r} in {args.gains}")
    fields = ("M", "K") if mode == "dense" else ("mu", "kappa")
    try:
        return getattr(GainSpec, mode)(*(doc[field] for field in fields))
    except KeyError as exc:
        raise ValidationError(f"gain file {args.gains} (mode {mode!r}) lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed gain file {args.gains}: {exc}") from exc


def _systemic_set(args) -> SystemicSet:
    if args.zeta is None and args.zeta_deg is None:
        raise ValidationError("a systemic set needs --zeta (radians) or --zeta-deg")
    zeta = args.zeta if args.zeta is not None else math.radians(args.zeta_deg)
    return SystemicSet(zeta=zeta, c=args.c, eps=args.eps)


def _add_network_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--network", required=required, help="network JSON document")
    p.add_argument("--tau", type=float, required=required, help="delay")
    p.add_argument("--out", help="output CSV (stdout when omitted)")


def _add_gain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, help="scalar phase gain (default 0)")
    p.add_argument("--kappa", type=float, help="scalar frequency gain (default 0)")
    p.add_argument(
        "--gain-mode",
        choices=("uniform", "consensus"),
        help="scalar gains act per non-consensus mode (uniform, the default) or as multiples of the Laplacian",
    )
    p.add_argument("--gains", help="JSON gain file (eigen lists, consensus scalars, or dense matrices)")


def _add_noise_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--eta", type=float, required=required, help="load noise")
    p.add_argument("--etap", type=float, help="phase and frequency measurement noise (default 0)")


def _add_systemic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--zeta", type=float, default=None, help="hard incoherence limit (radians)")
    p.add_argument("--zeta-deg", type=float, default=None, help="hard incoherence limit (degrees)")
    p.add_argument("--c", type=float, default=1.5, help="safe-margin divisor (> 1)")
    p.add_argument("--eps", type=float, default=0.1, help="risk acceptance level in (0, 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wacrisk`` argument parser, built once per process: parsing
    keeps its state in the namespace it returns, never in the parser."""
    parser = argparse.ArgumentParser(prog="wacrisk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wacrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="per-mode delay-stability verdicts")
    p.set_defaults(func=_cmd_stability)
    _add_network_args(p)
    _add_gain_args(p)

    p = sub.add_parser("spectral", help="evaluate the mode spectral integral")
    p.set_defaults(func=_cmd_spectral)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--k1", type=float, default=0.0)
    p.add_argument("--k2", type=float, default=0.0)

    p = sub.add_parser("stats", help="stationary pair deviations")
    p.set_defaults(func=_cmd_stats)
    _add_network_args(p)
    _add_gain_args(p)
    _add_noise_args(p)
    p.add_argument("--modes-out", help="per-mode weight CSV")

    p = sub.add_parser("risk", help="value-at-risk of every pair")
    p.set_defaults(func=_cmd_risk)
    _add_network_args(p, required=False)
    _add_gain_args(p)
    _add_noise_args(p, required=False)
    p.add_argument("--from-stats", help="reuse a stats CSV instead of recomputing")
    _add_systemic_args(p)

    p = sub.add_parser("synth", help="per-mode optimal gains")
    p.set_defaults(func=_cmd_synth)
    _add_network_args(p)
    _add_noise_args(p)
    p.add_argument("--mu-max", type=float, default=1.0)
    p.add_argument("--kappa-max", type=float, default=4.0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--matrices-out", help="assembled gain matrices as JSON (readable by --gains)")

    p = sub.add_parser("tradeoff", help="risk x connectivity scan over consensus gains")
    p.set_defaults(func=_cmd_tradeoff)
    _add_network_args(p)
    _add_noise_args(p)
    _add_systemic_args(p)
    p.add_argument("--mu-min", type=float, default=0.02)
    p.add_argument("--mu-max", type=float, default=2.0)
    p.add_argument("--kappa-min", type=float, default=0.02)
    p.add_argument("--kappa-max", type=float, default=2.0)
    p.add_argument("--grid", default="50x50", help="scan resolution, e.g. 50x50")

    p = sub.add_parser("simulate", help="Euler-Maruyama ensemble statistics")
    p.set_defaults(func=_cmd_simulate)
    _add_network_args(p)
    _add_gain_args(p)
    _add_noise_args(p)
    p.add_argument("--h", type=float, default=0.005, help="integration step request")
    p.add_argument("--T", type=float, default=200.0, help="horizon")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burnin", type=float, default=0.5)

    p = sub.add_parser("nu", help="two-sided Gaussian acceptance quantile")
    p.set_defaults(func=_cmd_nu)
    p.add_argument("--eps", type=float, required=True)

    # a flag a subcommand lacks (synth --mu) must not pass for a longer one it has (--mu-max)
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def _load(args):
    """The network model named by ``--network`` and its Laplacian spectrum."""
    model = load_network(args.network)
    return model, build_laplacian(model)


def _noise(args) -> NoiseParams:
    eta, etap = (0.0 if v is None else v for v in (args.eta, args.etap))
    return NoiseParams(eta=eta, eta_meas=etap)


_MODE_HEADER = ["l", "lambda", "mu", "kappa", "frak_f"]


def _mode_rows(lambdas, mu, kappa, *columns) -> list[tuple]:
    """One ``l, lambda, mu, kappa`` row per mode (l from 1), followed by its entry of each column."""
    return [(l + 1, *(float(v) for v in values)) for l, values in enumerate(zip(lambdas, mu, kappa, *columns))]


def _pair_rows(pairs, *columns) -> list[tuple]:
    """One ``i, j`` row per machine pair, followed by that pair's entry of each column."""
    return [(i, j, *(float(v) for v in values)) for (i, j), *values in zip(pairs, *columns)]


def _cmd_stability(args, argv) -> int:
    model, spectrum = _load(args)
    verdict = network_verdict(spectrum, _gains_from_args(args), model.damping_ratio, args.tau)
    g, v = verdict.gains, verdict.verdicts
    modes = _mode_rows(g.lambdas, g.mu, g.kappa, verdict.s1, verdict.s2, verdict.k1, verdict.k2)
    columns = (a.tolist() for a in (v.region, v.stable, v.margin, v.boundary, verdict.tau_lo, verdict.tau_hi))
    rows = [
        (*mode, REGIONS[region], str(stable).lower(), margin, str(boundary).lower(), lo, hi)
        for mode, region, stable, margin, boundary, lo, hi in zip(modes, *columns)
    ]
    header = ["mode_index", "lambda", "mu", "kappa", "s1", "s2", "k1", "k2", "region", "stable"]
    _emit(args.out, header + ["margin", "boundary", "tau_lo", "tau_hi"], rows, argv)
    return 0


def _cmd_spectral(args, argv) -> int:
    sp = ScaledParams(s1=args.s1, s2=args.s2, k1=args.k1, k2=args.k2)
    print(_fmt(evaluate(sp).value))
    return 0


def _cmd_nu(args, argv) -> int:
    print(f"{acceptance_quantile(args.eps):.5f}")
    return 0


def _stats_for_args(args):
    """Pair statistics for the parsed arguments, with the resolved gains."""
    model, spectrum = _load(args)
    resolved = resolve_gains(_gains_from_args(args), spectrum)
    tau = 0.0 if args.tau is None else args.tau
    stats = pair_deviations(spectrum, resolved, model.damping_ratio, tau, _noise(args), model.inertia)
    return stats, resolved


def _cmd_stats(args, argv) -> int:
    stats, resolved = _stats_for_args(args)
    _emit(args.out, ["i", "j", "sigma"], _pair_rows(stats.pairs, stats.sigma), argv)
    if args.modes_out:
        rows = _mode_rows(resolved.lambdas, resolved.mu, resolved.kappa, stats.mode_weights)
        _emit(args.modes_out, _MODE_HEADER, rows, argv)
    return 0


def _cmd_risk(args, argv) -> int:
    sset = _systemic_set(args)
    if args.from_stats:
        conflicts = _given(args, "network", "gains", "mu", "kappa", "gain_mode", "tau", "eta", "etap")
        if conflicts:
            raise ValidationError(f"--from-stats cannot be combined with {', '.join(conflicts)}")
        pairs, sigmas = [], []
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
                    if not sigma >= 0:
                        raise ValueError(sigma)
                except (IndexError, ValueError) as exc:
                    raise ValidationError(
                        f"{args.from_stats} line {lineno}: expected i,j,sigma with sigma >= 0,"
                        f" got {line.strip()!r}"
                    ) from exc
                pairs.append((i, j))
                sigmas.append(sigma)
        rows = _pair_rows(pairs, sigmas, risk_value(sigmas, sset))
    elif not args.network:
        raise ValidationError("risk needs --network (or --from-stats)")
    else:
        stats, _ = _stats_for_args(args)
        rows = _pair_rows(stats.pairs, stats.sigma, risk_profile(stats, sset).values)
    _emit(args.out, ["i", "j", "sigma", "risk"], rows, argv)
    return 0


def _cmd_synth(args, argv) -> int:
    model, spectrum = _load(args)
    result = synthesize(
        spectrum,
        model.damping_ratio,
        args.tau,
        _noise(args),
        model.inertia,
        gain_box=(0.0, args.mu_max, 0.0, args.kappa_max),
        grid_step=args.grid_step,
    )
    _emit(args.out, _MODE_HEADER, _mode_rows(result.lambdas, result.mu, result.kappa, result.weights), argv)
    if args.matrices_out:
        doc = {"mode": "dense", "M": result.M.tolist(), "K": result.K.tolist()}
        _write_atomic(args.matrices_out, json.dumps(doc, indent=2) + "\n")
        _write_manifest(args.matrices_out, argv)
    verdict = network_verdict(spectrum, result.gain_spec(), model.damping_ratio, args.tau)
    print(f"critical_delay {_fmt(float(verdict.tau_hi.min()))}")
    return 0


def _cmd_tradeoff(args, argv) -> int:
    model, spectrum = _load(args)
    sset = _systemic_set(args)
    try:
        nx, ny = (int(v) for v in args.grid.lower().split("x"))
    except ValueError as exc:
        raise ValidationError(f"bad --grid {args.grid!r}; expected e.g. 50x50") from exc
    scan = tradeoff_scan(
        spectrum,
        model.damping_ratio,
        args.tau,
        _noise(args),
        model.inertia,
        sset,
        gain_box=(args.mu_min, args.mu_max, args.kappa_min, args.kappa_max),
        grid=(nx, ny),
    )
    _emit(args.out, ["mu", "kappa", "min_risk", "xi_k", "xi_m", "product"], scan.rows.tolist(), argv)
    print(f"omega_hat {_fmt(scan.omega_hat)}")
    return 0


def _cmd_simulate(args, argv) -> int:
    model = load_network(args.network)
    config = SimConfig(
        step=args.h, horizon=args.T, trajectories=args.paths, burn_in=args.burnin, seed=args.seed
    )
    stats = simulate(model, _gains_from_args(args), args.tau, _noise(args), config)
    sigma = [math.sqrt(max(v, 0.0)) for v in stats.pair_variance]
    _emit(args.out, ["i", "j", "sigma"], _pair_rows(stats.pairs, sigma), argv)
    return 0


def run(argv: list[str]) -> int:
    if argv and argv[0] == "--from-manifest":
        if len(argv) < 2:
            raise ValidationError("--from-manifest needs a manifest path")
        recorded = _read_json_object(argv[1], "manifest").get("argv")
        if not isinstance(recorded, list) or not all(isinstance(a, str) for a in recorded):
            raise ValidationError(f"manifest {argv[1]} field 'argv' must be a list of strings")
        argv = recorded + argv[2:]
    args = build_parser().parse_args(argv)
    return args.func(args, argv)


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        sys.exit(3)
    except (ValidationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(code)


if __name__ == "__main__":
    main()
