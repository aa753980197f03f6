"""Paired benchmark runs of a parent git ref against the working tree.

    python3 bench/compare.py --parent REF --tag NAME [--pairs 10] [--seed 201]
                             [--seconds S] [--workloads a,b]

Extracts REF's committed files into a temporary directory, then, for each
workload of BENCHMARK.json, runs the benchmark command with `--trace 0` on
the parent and on the working tree, `--pairs` times each.  Pair i uses seed
`--seed + i` on both sides, and the side that runs first alternates from
pair to pair.  Writes BENCH_<tag>.json at the repository root: for each
workload and end-to-end metric, both sides' runs, medians and quartiles,
the change/parent ratio of the medians, the pairs the change won, and two
verdicts from the benchmark's own rules:

- `gain`: the change won at least 9 in 10 pairs (ties count for neither
  side) and its median is better than the parent's by more than the
  parent's interquartile range;
- `regression`: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json.

It also records the failed-op counts and one manifest per side and
workload, and prints one summary row per workload and metric on stderr.
The benchmark itself is not modified.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST_PREFIX = "manifest: "


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(ref: str, into: Path) -> str:
    """Write the files `ref` commits into `into`; return its commit hash."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, out: Path) -> dict:
    """One untraced benchmark run; returns its summary JSON plus manifest."""
    # The command is `python3 perfbench/run.py`: run it under this interpreter.
    argv = [sys.executable, *CONTRACT["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith(MANIFEST_PREFIX):
            summary["manifest"] = json.loads(line.strip()[len(MANIFEST_PREFIX):])
    return summary


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare_metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    improvement = sign * (after["median"] - before["median"])
    worse_limit = before["median"] * (1.0 - sign * spec["bound"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": before,
        "change": after,
        "ratio": after["median"] / before["median"] if before["median"] else None,
        "change_wins": wins,
        "ties": ties,
        "gain": wins >= 0.9 * len(parent) and improvement > before["q3"] - before["q1"],
        "regression": sign * (after["median"] - worse_limit) < 0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=201, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)

    names = [w["name"] for w in CONTRACT["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seeds = [args.seed + i for i in range(args.pairs)]
    report = {
        "tag": args.tag,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "change": {
            "commit": git("rev-parse", "HEAD").decode().strip(),
            "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        report["parent"] = {"ref": args.parent, "commit": extract(args.parent, parent_tree)}
        sides = {"parent": parent_tree, "change": ROOT}
        for name in names:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(sides[side], name, seed, args.seconds, Path(tmp) / "out" / side)
                    runs[side].append(result)
                    value = result["metrics"]["instances_per_s"]["value"]
                    print(f"{name} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          f"instances_per_s {value:.4g}, failed {result['failed']}", file=sys.stderr)
            report["workloads"][name] = {
                "metrics": {
                    spec["name"]: compare_metric(
                        spec,
                        [r["metrics"][spec["name"]]["value"] for r in runs["parent"]],
                        [r["metrics"][spec["name"]]["value"] for r in runs["change"]],
                    )
                    for spec in CONTRACT["end_to_end"]
                },
                "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
                "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
                "manifests": {side: runs[side][0].get("manifest") for side in runs},
            }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    for name, workload in report["workloads"].items():
        for metric, row in workload["metrics"].items():
            print(summary_row(name, metric, row, args.pairs), file=sys.stderr)
    return 0


def summary_row(workload: str, metric: str, row: dict, pairs: int) -> str:
    """One line: both medians, their ratio, pairs won, the parent's IQR and both verdicts."""
    parent = row["parent"]
    ratio = "n/a" if row["ratio"] is None else f"x{row['ratio']:.3f}"
    return (
        f"{workload} {metric} ({row['better']} is better): parent {parent['median']:.4g} "
        f"change {row['change']['median']:.4g} {ratio} of parent, change won {row['change_wins']}/{pairs}, "
        f"parent IQR {parent['q3'] - parent['q1']:.3g}, gain {row['gain']}, regression {row['regression']}"
    )


if __name__ == "__main__":
    sys.exit(main())
