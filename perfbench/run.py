#!/usr/bin/env python3
"""wacrisk benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|toy]

Run from the root of a source checkout: ``wacrisk`` is imported from
``src/`` next to this directory and nowhere else.  The run

1. times set-up in fresh interpreters: importing ``wacrisk`` and building the
   workload's inputs from the seed (``setup_s``, median of several);
2. repeats the workload's job until ``--seconds`` have passed, checking every
   job's outputs against their oracle outside the timed region;
3. prints a report, a provenance line, and as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``); ``failed_frac`` is printed in the report and
carried by ``failed``/``attempted``.  With ``--trace 1`` jobs alternate
between untraced and traced, and the metrics are the per-layer ones from the
traced jobs plus the tracing overhead; the spans are written to
``.bench_out/trace-<workload>.json``.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
sources or data files are missing or set-up fails (nothing is printed on
stdout then).
"""

import os

# pin native thread pools before numpy is loaded, here and in the set-up
# probes, which inherit the environment; the package's own thread option is
# left at its default
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("WACRISK_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
from speed import SpeedSampler, scaled  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("synth-ieee39", "scan-two_machine", "simulate-line3", "oracle-sweep")
DATA_FILES = ("two_machine.json", "line3.json")
SETUP_PROBES = {"full": 5, "toy": 1}
# a run holds at least this many jobs even when one job outlasts --seconds;
# a traced run at least two, one untraced and one traced
MIN_JOBS = {"full": 3, "toy": 1}
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: smoke-test sizes")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def check_sources() -> None:
    if not (SRC / "wacrisk" / "__init__.py").is_file():
        raise BenchError(f"no wacrisk sources under {SRC}")
    for name in DATA_FILES:
        if not (ROOT / "data" / name).is_file():
            raise BenchError(f"missing data file data/{name}")


def import_workloads():
    """Import the workloads module against the checkout's own ``src/wacrisk``."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import wacrisk

    if Path(wacrisk.__file__).resolve().parent != (SRC / "wacrisk").resolve():
        raise BenchError(f"wacrisk imported from {wacrisk.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_setup(args) -> None:
    with SpeedSampler("python") as speed:
        start = time.perf_counter()
        workloads = import_workloads()
        workloads.WORKLOADS[args.workload].setup(args.seed, args.size, OUT / "probe")
        elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "speed": speed.speed()}))


def measure_setup(args) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, one subprocess at a time, each as a
    (seconds, speed) sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe exceeded {PROBE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["speed"]))
    return samples


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wacrisk").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, jobs: int, traced_jobs: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "traced_jobs": traced_jobs,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS + ("WACRISK_THREADS",)},
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def run_jobs(args, workload, inputs, ref, tracer):
    """Repeat the job for ``args.seconds``; with a tracer, every second job is traced.

    Returns the untraced job samples, the traced ones keyed by job number,
    each as (wall seconds, speed), and the check rows.
    """
    plain, traced = [], {}
    outputs, checks = [], []
    start = time.perf_counter()
    index = 0
    while True:
        is_traced = tracer is not None and index % 2 == 1
        if is_traced:
            tracer.job = index
            tracer.install()
        out = None
        with SpeedSampler() as speed:
            t0 = time.perf_counter()
            try:
                out = workload.job(inputs, index)
            except Exception:  # a raising job is a failed check, and the run goes on
                failure = traceback.format_exc()
            finally:
                elapsed = time.perf_counter() - t0
                if is_traced:
                    tracer.uninstall()
                    tracer.job = None
        sample = (elapsed, speed.speed())
        if out is None:
            print(failure, file=sys.stderr)
            checks.append((index, "job raised", False, failure.strip().splitlines()[-1]))
        else:
            if is_traced:
                traced[index] = sample
            else:
                plain.append(sample)
            outputs.append(out)
            checks.extend((index, *row) for row in _guarded(workload.check, inputs, ref, out))
        index += 1
        min_jobs = max(MIN_JOBS[args.size], 2 if tracer is not None else 1)
        if time.perf_counter() - start >= args.seconds and index >= min_jobs:
            break
    checks.extend((None, *row) for row in _guarded(workload.finish, inputs, ref, outputs))
    return plain, traced, checks


def unscaled(samples) -> float:
    return statistics.median(t for t, _ in samples) if samples else 0.0


def _guarded(check, *args) -> list:
    try:
        return check(*args)
    except Exception:  # a check that cannot run counts as failed
        failure = traceback.format_exc()
        print(failure, file=sys.stderr)
        return [("check raised", False, failure.strip().splitlines()[-1])]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    try:
        check_sources()
        setup = measure_setup(args)
        workloads = import_workloads()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.setup(args.seed, args.size, workdir)
        ref = workload.reference(inputs)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, checks = run_jobs(args, workload, inputs, ref, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [row for row in checks if not row[2]]
    for job, name, _, detail in failed:
        print(f"FAILED check (job {job}): {name}: {detail}", file=sys.stderr)
    jobs = len(plain) + len(traced)
    prov = provenance(args, jobs, len(traced))
    setup_s, wall_s = scaled(setup), scaled(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"wacrisk benchmark  workload={args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print(f"  setup_s      {setup_s:10.4f} s    median of {len(setup)} fresh interpreters "
          f"({unscaled(setup):.4f} s unscaled)")
    print(f"  wall_s       {wall_s:10.4f} s    median of {len(plain)} untraced jobs of {jobs} "
          f"({unscaled(plain):.4f} s unscaled)")
    print(f"  peak_rss_mb  {peak_rss_mb:10.2f} MB")
    print(f"  failed_frac  {len(failed) / max(len(checks), 1):10.4f}      {len(failed)} of {len(checks)} checks failed")
    print("provenance " + json.dumps(prov, sort_keys=True))

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead = scaled(traced.values()) / wall_s - 1.0 if traced and wall_s > 0 else 0.0
        metrics = tracing.per_layer(tracer, {job: t for job, (t, _) in traced.items()}, overhead)
        absent = sorted(name for name, m in metrics.items() if m.get("absent"))
        print(f"  traced jobs  {len(traced)}; overhead {overhead:+.1%}; span coverage "
              f"{metrics['trace.span_coverage']['value']:.3f}; absent: {', '.join(absent) or 'none'}")
        trace_path = OUT / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps({"provenance": prov, "metrics": metrics,
                                          "job_samples": traced, "spans": tracer.spans}))
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
