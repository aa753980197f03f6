"""Stage times of the reference cell against the ROADMAP baseline table.

    python3 perfbench/reference_cell.py

Traces `run_experiment` on the reference cell (M=10 relays, N=16
subcarriers, K=10 types, budget 16, resolution 1000) and prints ms per
round for each stage beside the baseline, flagging stages outside the
table's +-20% done-bar.  Times are raw traced wall times: they include
the tracing overhead and the host's load, whose slowdown is printed.
"""

from __future__ import annotations

import statistics
import sys

import run

OPS = 20  # run_experiment calls of 20 rounds each
SEED = 1

# ROADMAP.md "Baseline" table: ms per round at the reference cell.
BASELINE_MS = {
    "grid + second-best menu": 0.33,
    "best response": 0.08,
    "ESW split": 1.30,
    "ASW split": 1.44,
    "NSW split": 1.42,
    "SSCPA": 0.36,
    "overall_heuristic total": 4.60,
    "best-SNR greedy": 0.23,
    "relaxed_upper_bound": 1.72,
    "whole round": 7.4,
}
DONE_BAR = 0.20


def stage_ms(metrics: dict[str, float]) -> dict[str, float]:
    return {
        "grid + second-best menu": metrics["distributions.grid_ms"] + metrics["contracts.menu_ms"],
        "best response": metrics["simulate.best_response_ms"],
        "ESW split": metrics["selection.esw_ms"],
        "ASW split": metrics["selection.asw_ms"],
        "NSW split": metrics["selection.nsw_ms"],
        "SSCPA": metrics["selection.sscpa_ms"],
        "overall_heuristic total": metrics["selection.overall_ms"],
        "best-SNR greedy": metrics["selection.best_snr_ms"],
        "relaxed_upper_bound": metrics["selection.relaxed_ms"],
        "whole round": metrics["simulate.round_ms"],
    }


def main() -> int:
    run.import_library()
    import layertrace
    import workloads

    cell = workloads.SweepWorkload(
        [dict(quant=10, subcarriers=16, relays=10, budget=16.0, resolution=1000)],
        trials=20,
        checked_passes=OPS,
    )
    workdir = run._workdir(run.DEFAULT_OUT, "reference_cell", "main")
    cell.execute(cell.warmup_op(SEED), workdir)
    tracer = layertrace.Tracer()
    with tracer:
        records = run.run_ops(cell, SEED, workdir, count=OPS, tracer=tracer)
    metrics, _ = layertrace.layer_metrics(
        tracer, [r.units for r in records], OPS, sum(r.wall_ns for r in records)
    )
    slowdown = statistics.median(r.probe_ns for r in records) / run.PROBE_REFERENCE_NS

    print(f"reference cell, {OPS * cell.trials} traced rounds, ms per round (raw wall time;")
    print(f"host slowdown during the run {slowdown:.2f}x, tracing overhead included)")
    print(f"  {'stage':<26} {'baseline':>8} {'now':>8} {'ratio':>6}")
    outside = []
    for stage, now in stage_ms(metrics).items():
        base = BASELINE_MS[stage]
        flag = "" if abs(now / base - 1.0) <= DONE_BAR else "  outside +-20%"
        if flag:
            outside.append(stage)
        print(f"  {stage:<26} {base:8.2f} {now:8.3f} {now / base:6.2f}{flag}")
    print(f"  sampling (not in the table): {metrics['distributions.sample_ms']:.3f} ms")
    print(f"stages outside the done-bar: {', '.join(outside) or 'none'}")
    failed = [r for r in records if r.error is not None]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
