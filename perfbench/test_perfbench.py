"""Tests of the benchmark itself: seeded inputs, trace transparency, metric coverage.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run

run.import_library()

import layertrace  # noqa: E402
import workloads  # noqa: E402
from relaycontracts import cli, selection, simulate  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def generated_bytes(name: str, seed: int, tmp_path: Path) -> bytes:
    """Everything the library would be handed for the first ops of a workload."""
    w = workloads.WORKLOADS[name]
    parts = []
    for index in range(2 * w.pass_size + 2):
        op = w.op(seed, index)
        if op.config is not None:
            parts.append(repr(op.config))
        else:
            w.prepare(op, tmp_path)
            parts.append((tmp_path / "offers.csv").read_text() + repr(op.budget))
    return "\n".join(parts).encode()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = generated_bytes(name, 7, tmp_path)
    assert generated_bytes(name, 7, tmp_path) == first
    assert generated_bytes(name, 8, tmp_path) != first


def test_trace_leaves_simulate_round_unchanged():
    config = simulate.ExperimentConfig(relays=10, budget=16.0, trials=1)
    plain = [simulate.simulate_round(config, np.random.default_rng(s)) for s in range(3)]
    original = simulate.overall_heuristic
    with layertrace.Tracer() as tracer:
        traced = [simulate.simulate_round(config, np.random.default_rng(s)) for s in range(3)]
        assert simulate.overall_heuristic is not original
    assert simulate.overall_heuristic is original
    assert traced == plain
    # Spans follow the call path through each caller's own module attribute.
    parents = {name: tracer.names[p] for name, p in zip(tracer.names, tracer.parents) if p >= 0}
    assert parents["selection.overall_heuristic"] == "simulate.simulate_round"
    assert parents["selection.knapsack_01"] == "selection.weighted_split_selection"
    assert parents["distributions.TypeDistribution.cdf"] == "distributions.type_probabilities"


def test_trace_leaves_cli_select_unchanged(tmp_path):
    w = workloads.WORKLOADS["select_stream"]
    outputs = []
    for tracer in (None, layertrace.Tracer()):
        op = w.op(3, 0)
        w.prepare(op, tmp_path)
        if tracer is None:
            outputs.append(w.execute(op, tmp_path))
        else:
            with tracer:
                outputs.append(w.execute(op, tmp_path))
    assert outputs[0] == outputs[1]
    assert tracer.names[0] == "cli.main"
    assert not hasattr(cli.main, "__wrapped__")  # uninstalled again


def test_select_check_rejects_a_wrong_total(tmp_path):
    w = workloads.WORKLOADS["select_stream"]
    op = w.op(3, 1)
    w.prepare(op, tmp_path)
    output = w.execute(op, tmp_path)
    w.check(op, output)
    header, first, *rest = output.splitlines()
    fields = first.split(",")
    fields[4] = repr(op.budget * 2)
    with pytest.raises(workloads.CheckFailed):
        w.check(op, "\n".join([header, ",".join(fields), *rest]) + "\n")


def test_knapsack_work_counts_cells_and_slack():
    # Budget 5 units; usable weights 2 + 1 reach only 3, so 2 of 6 columns are slack.
    cells, nbytes, slack = layertrace.knapsack_work(
        np.array([10.0, 6.0, 0.0]), np.array([2.0, 1.0, 0.0]), 5.0, 1
    )
    assert (cells, slack) == (2 * 6, 2 * 2)
    assert nbytes == 2 * 6 + 33 * 6
    assert selection.knapsack_01(np.array([10.0, 6.0, 0.0]), np.array([2.0, 1.0, 0.0]), 5.0, 1) == [0, 1]


# Layers each workload runs; a per-layer metric of a layer that runs must be nonzero.
RUNS = {
    "paper_sweep": ("distributions.", "contracts.", "simulate.", "selection.knapsack_dp_cells", "selection.esw"),
    "fine_quant": ("distributions.", "contracts.", "simulate.", "selection.relaxed_ms", "selection.sscpa"),
    "select_stream": ("selection.parse", "selection.emit", "cli.", "selection.knapsack_dp_cells", "selection.esw"),
}


def run_bench(capsys, tmp_path, name: str, trace: int) -> dict:
    argv = ["--workload", name, "--seed", "5", "--seconds", "0.01", "--trace", str(trace), "--out", str(tmp_path)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, capsys, tmp_path):
    result = run_bench(capsys, tmp_path, name, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, value in result["metrics"].items():
        if metric.startswith(RUNS[name]):
            assert value["value"] > 0, metric
    assert result["metrics"]["trace_coverage_pct"]["value"] >= 90.0


def test_untraced_run_reports_every_end_to_end_metric(capsys, tmp_path):
    result = run_bench(capsys, tmp_path, "fine_quant", trace=0)
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= workloads.WORKLOADS["fine_quant"].checked_ops
