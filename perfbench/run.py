"""Benchmark of relaycontracts: one workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from `src/`.  With
`--trace 0` the run times closed-loop operations for S seconds, checks
every output, sets up the library in fresh processes to time set-up, and
prints the end-to-end metrics.  With `--trace 1` it times the same
operations untraced for S/2 seconds, replays them with every public
function of the library wrapped in spans, and prints the per-layer
metrics.  The last stdout line is one JSON object (correct, attempted,
failed, metrics); the lines above it name each metric with its unit, and
the full result with its environment manifest goes to --out
(perfbench/out/ by default).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"
REFERENCE_FILE = HERE / "reference_digests.json"
CONTRACT_FILE = ROOT / "BENCHMARK.json"  # names and units of the reported metrics
SETUP_SAMPLES = 5  # fresh processes timed per run; setup_s is their median
SETUP_TIMEOUT_S = 60
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PROBE_LOOPS = 300
# The probe's fastest time on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4; its median there was 1.9x this): adjusted
# times read as that host's times when unloaded.
PROBE_REFERENCE_NS = 1_100_000


def import_library():
    """Import relaycontracts from this checkout's src/, never from elsewhere.

    BLAS and OpenMP pools are pinned to one thread first; set-up probe
    processes inherit the pinning through the environment.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "relaycontracts"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no library source at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import relaycontracts

    if Path(relaycontracts.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: relaycontracts imported from {relaycontracts.__file__}, not {package}")
    return relaycontracts


def sample_setup(workload: str, seed: int, out: Path) -> None:
    """Child process: time importing the library plus one warm-up operation,
    adjusted for the host's speed like the op times (probed just after, as
    the probe needs numpy loaded)."""
    t0 = time.perf_counter_ns()
    import_library()
    import workloads

    w = workloads.WORKLOADS[workload]
    op = w.warmup_op(seed)
    workdir = _workdir(out, workload, "probe")
    t_prep = time.perf_counter_ns()
    w.prepare(op, workdir)
    t_exec = time.perf_counter_ns()
    w.execute(op, workdir)
    wall = time.perf_counter_ns() - t0 - (t_exec - t_prep)
    speed = PROBE_REFERENCE_NS / ((contention_probe() + contention_probe()) / 2)
    print(json.dumps({"setup_s": wall * speed / 1e9, "raw_setup_s": wall / 1e9}))


def measure_setup(workload: str, seed: int, out: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
                "--workload", workload, "--seed", str(seed), "--out", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _workdir(out: Path, workload: str, tag: str) -> Path:
    path = out / f"work-{workload}-{tag}"
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class OpRecord:
    index: int
    wall_ns: int
    units: int
    digest: str
    error: str | None = None
    probe_ns: float = 0.0  # mean of the contention probes just before and after

    @property
    def adjusted_ns(self) -> float:
        """Wall time rescaled from the host's speed around this op to the
        reference speed of the probe."""
        return self.wall_ns * PROBE_REFERENCE_NS / self.probe_ns


def contention_probe() -> int:
    """Wall ns of a fixed loop of small-array numpy calls.

    The host's speed for one thread swings by up to 2x, in bursts of
    seconds and drifts of minutes, as other tenants load its CPUs.  The
    library's time goes mostly to small-array numpy calls, so a loop of
    such calls slows down by the same factor.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64)
    b = a[::-1]
    t0 = time.perf_counter_ns()
    for _ in range(PROBE_LOOPS):
        np.where(np.cumsum(np.maximum(a, b)) > 1.0, a, b)
    return time.perf_counter_ns() - t0


def run_ops(w, seed: int, workdir: Path, *, seconds: float = 0.0, count: int | None = None,
            tracer=None, check: bool = True) -> list[OpRecord]:
    """Closed loop, one caller: each op starts when the previous one returned.

    Without `count`, runs until `seconds` of op wall time are spent, stopping
    only at a pass boundary and never before the checked ops are done.
    """
    from workloads import CheckFailed, digest

    records: list[OpRecord] = []
    spent = 0
    index = 0
    before = contention_probe()
    while True:
        if count is not None:
            if index >= count:
                break
        elif spent >= seconds * 1e9 and index >= w.checked_ops and index % w.pass_size == 0:
            break
        op = w.op(seed, index)
        w.prepare(op, workdir)
        output, error = "", None
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter_ns()
        try:
            output = w.execute(op, workdir)
        except Exception:  # an op that raises counts as failed; the run goes on
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_op()
        after = contention_probe()
        if error is None and check:
            try:
                w.check(op, output)
            except CheckFailed as exc:
                error = f"check failed: {exc}"
        records.append(OpRecord(index, wall, op.units, digest(output), error, (before + after) / 2))
        before = after
        spent += wall
        index += 1
    return records


def check_reference(workload: str, seed: int, records: list[OpRecord]) -> str:
    """Compare per-op output digests with those recorded for the reference seed."""
    from workloads import REFERENCE_SEED

    if seed != REFERENCE_SEED:
        return f"skipped: seed {seed} is not the reference seed {REFERENCE_SEED}"
    reference = json.loads(REFERENCE_FILE.read_text())["workloads"][workload]
    mismatched = 0
    for rec, expected in zip(records, reference):
        if rec.error is None and rec.digest != expected:
            rec.error = f"output digest {rec.digest} != reference {expected}"
            mismatched += 1
    checked = min(len(records), len(reference))
    return f"{'failed' if mismatched else 'passed'}: {checked - mismatched}/{checked} op outputs match"


def manifest(args) -> dict:
    import numpy as np

    sources = sorted((SRC / "relaycontracts").glob("*.py"))
    src_hash = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)).hexdigest()
    return {
        "git_commit": _git_commit(),
        "source_sha256": src_hash,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git checkout."""
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
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(records: list[OpRecord], setup: list[float]) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics from contention-adjusted op times, and the raw ones.

    Raw wall times of the same code spread by 10-25% between runs on a
    shared host; dividing each op's time by the probe's time around it
    cancels most of the host's swing (see README.md).
    """
    adjusted = _timing(records, [r.adjusted_ns for r in records])
    raw = _timing(records, [r.wall_ns for r in records])
    raw["host_slowdown"] = statistics.median(r.probe_ns for r in records) / PROBE_REFERENCE_NS
    adjusted["setup_s"] = statistics.median(setup)
    adjusted["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return adjusted, raw


def _timing(records: list[OpRecord], times_ns: list[float]) -> dict[str, float]:
    per_unit_ms = [t / 1e6 / r.units for r, t in zip(records, times_ns)]
    return {
        "instances_per_s": sum(r.units for r in records) / (sum(times_ns) / 1e9),
        "instance_ms_p50": statistics.median(per_unit_ms),
        "instance_ms_p95": statistics.quantiles(per_unit_ms, n=20, method="inclusive")[18],
    }


def report_lines(labels: tuple[str, str, str], metrics: dict, raw: dict) -> list[str]:
    """The metrics under the names users know them by, one per line with its unit."""
    keys = ("instances_per_s", "instance_ms_p50", "instance_ms_p95")
    lines = [f"  {label:<16} {metrics[key]:<10.6g} {unit:<4} (raw wall time: {raw[key]:.6g})"
             for label, key, unit in zip(labels, keys, ("1/s", "ms", "ms"))]
    lines += [f"  {'setup_s':<16} {metrics['setup_s']:<10.6g} s",
              f"  {'peak_rss_mib':<16} {metrics['peak_rss_mib']:<10.6g} MiB",
              f"  host slowdown, median probe over its reference time: {raw['host_slowdown']:.3f}x"]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for results, spans and work files")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_sample:
        sample_setup(args.workload, args.seed, args.out)
        return 0

    import_library()
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    workdir = _workdir(args.out, args.workload, "main")

    warm = w.warmup_op(args.seed)
    w.prepare(warm, workdir)
    w.check(warm, w.execute(warm, workdir))

    contract = json.loads(CONTRACT_FILE.read_text())
    units = {m["name"]: m["unit"] for m in contract["end_to_end" if args.trace == 0 else "per_layer"]}
    result: dict = {"manifest": manifest(args)}
    if args.trace == 0:
        records = run_ops(w, args.seed, workdir, seconds=args.seconds)
        result["reference_check"] = check_reference(args.workload, args.seed, records)
        setup = measure_setup(args.workload, args.seed, args.out)
        metrics, raw = end_to_end(records, setup)
        result["setup_s_samples"] = setup
        result["raw_wall"] = raw
        result["op_samples"] = [[r.units, r.wall_ns, r.probe_ns] for r in records]
        attempted_records = records
    else:
        records = run_ops(w, args.seed, workdir, seconds=args.seconds / 2)
        result["reference_check"] = check_reference(args.workload, args.seed, records)
        tracer = layertrace.Tracer()
        with tracer:
            traced = run_ops(w, args.seed, workdir, count=len(records), tracer=tracer, check=False)
        for plain, rec in zip(records, traced):
            if rec.error is None and rec.digest != plain.digest:
                rec.error = f"traced output digest {rec.digest} != untraced {plain.digest}"
        metrics, self_s = layertrace.layer_metrics(
            tracer, [r.units for r in traced], w.checked_ops, sum(r.wall_ns for r in traced)
        )
        traced_ns = sum(r.adjusted_ns for r in traced)
        metrics["tracing_overhead_pct"] = 100.0 * (traced_ns / sum(r.adjusted_ns for r in records) - 1.0)
        result["self_s_by_layer"] = self_s
        result["spans"] = len(tracer.names)
        tracer.dump(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        attempted_records = records + traced

    failures = [r for r in attempted_records if r.error is not None]
    result["ops"] = len(records)
    result["failures"] = [{"op": r.index, "error": r.error} for r in failures[:10]]
    summary = {
        "correct": not failures,
        "attempted": len(attempted_records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result.update(summary)
    (args.out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  manifest: {json.dumps(result['manifest'])}")
    print(f"  reference outputs: {result['reference_check']}")
    for failure in result["failures"]:
        print(f"  FAILED op {failure['op']}: {failure['error'].strip().splitlines()[-1]}")
    if args.trace == 0:
        print("\n".join(report_lines(w.labels, metrics, raw)))
    else:
        for name, unit in units.items():
            print(f"  {name:<36} {metrics[name]:.6g} {unit}")
        print(f"  self time by layer (s): {json.dumps({k: round(v, 4) for k, v in self_s.items()})}")
    attempted = len(attempted_records)
    print(f"  {'error_rate':<16} {len(failures) / attempted:<10.6g} ({len(failures)} failed / {attempted} attempted)")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
