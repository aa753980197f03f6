"""Byte-for-byte comparison of CLI outputs between a parent git ref and the working tree.

    python3 bench/same_bytes.py --parent REF [--trials N]

Extracts REF's committed files the way bench/compare.py does, runs one list
of `relaycontracts` commands on the parent and on the working tree, and
compares every output file byte for byte:

- `simulate` on the configurations of acceptance criterion 7 (the relay x
  budget sweep, also at resolutions 1 and 10, whose coarse money units give
  many zero-unit prices and exact ties; quant 3, 5 and 20; complete
  information; first-best menus) and on the benchmark's fine-grid cell
  (quant 1000, 32 subcarriers, 3 relays, budget 1) with its second-best
  and its first-best menu, seed 12345, at `--trials` per cell (default
  TRIALS; criterion 7 runs 1000);
- `simulate` and `contracts` on a `--config` file whose empirical marginal
  makes the screening menu pool (POOLED), at quant 10, 20, 100 and 1000
  (whose best responses collapse the pooled runs of equal pairs);
- `simulate` on a `--config` file of JSON scalars (SCALARS), and
  `contracts` with one relay count and one budget, which it ignores;
- `select` on CSVS generated offers files (relays 1-32, subcarriers
  1-64, declined and free offers, integer prices with exact ties), each at
  several budgets and two resolutions, and at budget 0;
- `select` on the EDGE_OFFERS files at one or two budgets each: ASW and
  NSW weights that overflow, so those splits drop out; all-free offers,
  whose zero ASW and NSW weight sums give NaN caps; offers on which a
  later split has the highest plan bound, so the splits run out of rank
  order; splits that tie on bound and capacity; a split that stops
  after the knapsack it solves first, by estimated bound drop; a later
  split that takes an earlier one's knapsack subset, its cap between the
  subset's units and the earlier cap, where that subset settles a tie; a
  later cap above the earlier one, so that knapsack is solved again; a
  two-offer knapsack, whose DP is its first row and one last comparison;
  SSCPA above every split's plan bound, so no split runs, and equal to
  them; SSCPA tied with the empty splits at capacity 0.0, where the
  caps stage's cheapest-offer proof holds or just fails, so ESW's empty
  selection wins; valid offers that only the full offer checks pass; 64
  subcarriers on a budget that buys two offers, so almost every subset
  is empty; a column whose declined offers lie between free ones; budgets
  that land on, or just below, the cheapest price; a cheapest price
  whose money units less the rounding snap equal every cap; and an
  earlier split's exact knapsack term at a wider cap that stops a later
  split before its first knapsack, or only ties its fractional term;
- `contracts` and `table3` at their defaults.

Prints each output's sha256 on both sides and exits 1 if any output
differs or any command exits nonzero on either side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from compare import ROOT, extract

# Runs every command in-process under one interpreter per side.
RUNNER = """
import json, sys
from relaycontracts.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""

TRIALS = 40  # default simulate trials per cell
CSVS = 24  # generated offers files
SEED = 2024  # seed of the offers files

SIMULATE = {
    "sweep": ["--relays", "2,6,10,14,18", "--budget", "8,16,24"],
    "sweep_res1": ["--relays", "2,6,10,14,18", "--budget", "8,16,24", "--resolution", "1"],
    "sweep_res10": ["--relays", "2,6,10,14,18", "--budget", "8,16,24", "--resolution", "10"],
    "quant3": ["--relays", "10", "--budget", "16", "--quant", "3"],
    "quant5": ["--relays", "10", "--budget", "16", "--quant", "5"],
    "quant20": ["--relays", "10", "--budget", "16", "--quant", "20"],
    "complete": ["--relays", "10", "--budget", "8,24", "--information", "complete"],
    "firstbest": ["--relays", "10", "--budget", "8,24", "--menu", "first_best"],
    "fine_quant": ["--quant", "1000", "--subcarriers", "32", "--relays", "3", "--budget", "1"],
    "fine_quant_firstbest": [
        "--quant", "1000", "--subcarriers", "32", "--relays", "3", "--budget", "1", "--menu", "first_best"
    ],
}
# A marginal with almost no mass on [100, 200]: its pointwise maximizers
# decrease there, so the screening menu pools at every quant below.
POOLED = {"dist": {"kind": "empirical", "cdf_points": [[50, 0], [100, 0.49], [200, 0.5], [300, 1]]}}
POOLED_QUANTS = (10, 20, 100, 1000)
# One sweep cell given as JSON scalars rather than lists.
SCALARS = {"relays": 10, "budget": 16, "quant": 5}
# Offers lines of the split plan's edge rows, and the budgets each runs at.
EDGE_OFFERS = {
    "overflow": (["0,0,1e300,1e-8", "0,1,1e300,1e-8"], ("1.5e-08", "1")),
    "free": (["0,0,3.0,0", "1,0,2.0,0", "0,1,1e-17,0"], ("0", "1")),
    # ASW has the highest bound and runs first; all three splits reach one
    # capacity, and ESW, whose subsets differ, keeps the tie.
    "asw_first": (["0,0,10,2", "0,1,20,1.5", "1,1,20,0.5"], ("2", "3")),
    # NSW has the highest bound at budget 3.5.
    "nsw_first": (["0,0,20,0.5", "0,1,15,1", "1,0,10,2", "1,1,15,1", "2,1,15,0.5"], ("3.5", "2")),
    # ESW and NSW have equal bounds and capacities, ASW a higher bound and
    # the same capacity with other subsets.
    "tie": (["0,0,15,1.5", "0,1,20,1.5", "1,1,20,1"], ("2",)),
    # ESW stops after one knapsack, its largest estimated bound drop, at 2.5.
    "drop_order": (["0,0,20,1", "0,1,20,1", "1,0,10,1", "1,1,20,0.5"], ("2.5", "1.5")),
    # NSW solves subcarrier 0 at 2018 units and takes relay 0 of the tied
    # relays 0 and 1 (2000 units); ESW's cap there is 2000, so it takes that
    # subset.  ESW's 2000 on subcarrier 1 is above NSW's 1981: solved again.
    "reuse_inside": (["0,0,15,2", "0,1,10,1.5", "1,0,15,2", "1,1,5,1.5", "2,0,5,1.5", "2,1,10,1"], ("4",)),
    # ASW's 1800 on subcarrier 0 is above ESW's 1500, so ASW solves it again;
    # NSW's caps equal ASW's, and it takes both of ASW's subsets.
    "reuse_above": (["0,0,15,1", "0,1,5,0.5", "1,0,15,1", "1,1,10,1"], ("3",)),
    # One subcarrier: the three splits share ESW's two-offer knapsack.
    "two_offers": (["0,0,10,1", "1,0,10,0.5"], ("1",)),
    # At budget 2 no share reaches the 1.2 offer, which SSCPA buys: every
    # plan bound, log2(32) with the margin, is below SSCPA's log2(32) + 1,
    # so no split runs.  At budget 1 SSCPA cannot buy it, and the splits run.
    "cheap_below": (["0,0,31,0.5", "0,1,1,1.2"], ("2", "1")),
    # The same, with an SNR on the 1.2 offer at which SSCPA's capacity equals
    # every plan bound: the splits run and lose.
    "cheap_equal": (["0,0,31,0.5", "0,1,4.158883126770264e-09,1.2"], ("2",)),
    # Valid offers that the fused check cannot pass, so the full checks
    # build them: twice the largest SNR, 1e308, times the relay count
    # overflows, though no SNR sum does; and 1e300 over the smallest price,
    # 1e-10, overflows, though each offer's own ratio is finite.
    "checked_sum": (["0,0,1e308,1", "0,1,5,0.5", "1,1,3,0.25"], ("1", "2")),
    "checked_ratio": (["0,0,1e300,1", "1,0,1,1e-10", "0,1,5,0.5"], ("1", "2")),
    # Two relays on 64 subcarriers, relay 1 declining every third; prices
    # from 1.0 up, so budget 2.5 buys two offers and 0.5 none.
    "sparse_64": (
        [f"0,{n},{10 + n % 7},{1 + n / 64!r}" for n in range(64)]
        + [f"1,{n},{20 - n % 5},{1.5 + n / 128!r}" for n in range(64) if n % 3],
        ("2.5", "0.5"),
    ),
    # Relays 1 and 3 decline on subcarrier 0 between the free relays 0, 2
    # and 4; all five share efficiency 0 there, so they sit in relay order.
    "declined_between_free": (
        ["0,0,5,0", "1,0,0,0", "2,0,3,0", "3,0,0,0", "4,0,2,0", "0,1,10,1", "2,1,4,0.5", "3,1,0,0"],
        ("0", "1"),
    ),
    # The cheapest price is 0.25: budget 0.75 leaves exactly 0.25 after the
    # 0.5 offer, which SSCPA and the greedy then buy; 0.25 buys it alone,
    # and one float below it buys nothing.
    "lands_on_cheapest": (["0,0,4,0.5", "0,1,3,0.25"], ("0.75", "0.25", "0.24999999999999997")),
    # At budget 0.005 every cap is 5 money units, and 0.005000000001 * 1000
    # less the 1e-9 snap is exactly 5: the offer is usable, so the caps
    # stage's proof fails; the next offer is one unit dearer.
    "price_at_cap": (["0,0,3,0.005000000001", "1,0,2,0.005000000002"], ("0.005",)),
    # SSCPA's capacity is 0.0 on both budgets, as are the splits': ESW's
    # empty selection keeps the tie.  At 0.5 SSCPA buys the 1e-17 offer and
    # the ASW and NSW caps of 500 units keep the proof from holding; at 0.3
    # the proof holds and SSCPA buys nothing.
    "proof_tie": (["0,0,1e-17,0.407", "0,1,47.7,1.135", "0,2,0,0"], ("0.5", "0.3")),
    # Every cap is 250 units and both offers cost 407: the proof holds, and
    # SSCPA still buys an offer whose log2(1 + SNR) is 0.0.
    "proof_tie_bought": (["0,0,1e-17,0.407", "0,1,1e-17,0.407"], ("0.5",)),
    # ESW runs first and solves subcarrier 1 at cap 1375 (exact term
    # log2(18)); ASW's cap there is 1002, so that term replaces its
    # fractional log2(19.78), and ASW stops before its first knapsack.
    "exact_term_stops": (["0,0,23,1", "0,1,15,1", "1,1,15,0.75", "2,0,39,0.75", "2,1,2,0.25"], ("2.75",)),
    # ESW solves subcarrier 1 at cap 375 (exact term log2(8)); NSW's cap
    # there is 350, and its fractional term, log2(8 + a share of 1e-17),
    # is log2(8) too: the terms tie, and ESW ties SSCPA at capacity 3.
    "exact_term_ties": (["0,1,7,0.25", "1,0,16,1", "1,1,1e-17,0.25"], ("0.75",)),
}


def offers_csv(rng: np.random.Generator, index: int) -> tuple[str, float]:
    """One offers file and its total price."""
    m = int(rng.integers(1, 33))
    n = int(rng.choice([1, 4, 16, 32, 64]))
    if index % 4 == 0:  # integer SNRs and prices: exact efficiency and SNR ties
        snr = rng.integers(0, 6, (m, n)).astype(float)
        transfer = rng.integers(1, 4, (m, n)).astype(float)
    else:
        snr = rng.uniform(0.5, 200.0, (m, n)) * (rng.random((m, n)) > 0.3)
        transfer = rng.uniform(0.05, 1.3, (m, n))
    transfer = np.where((snr > 0.0) & (rng.random((m, n)) > 0.05), transfer, 0.0)
    lines = ["m,n,gamma_linear,transfer"]
    for i, (snr_row, transfer_row) in enumerate(zip(snr.tolist(), transfer.tolist())):
        lines += [f"{i},{j},{g!r},{t!r}" for j, (g, t) in enumerate(zip(snr_row, transfer_row))]
    return "\n".join(lines) + "\n", float(transfer.sum())


def commands(work: Path, trials: int) -> dict[str, list[str]]:
    """Output name -> argv; every argv writes its output to `OUT/<name>.csv`."""
    runs = {
        f"simulate_{name}": ["simulate", *flags, "--trials", str(trials), "--seed", "12345"]
        for name, flags in SIMULATE.items()
    }
    config = work / "pooled.json"
    config.write_text(json.dumps(POOLED))
    for k in POOLED_QUANTS:
        pooled = ["--config", str(config), "--quant", str(k)]
        runs[f"simulate_pooled_{k}"] = ["simulate", *pooled, "--trials", str(trials), "--seed", "12345"]
        runs[f"contracts_pooled_{k}"] = ["contracts", *pooled]
    scalars = work / "scalars.json"
    scalars.write_text(json.dumps(SCALARS))
    runs["simulate_scalars"] = ["simulate", "--config", str(scalars), "--trials", str(trials), "--seed", "12345"]
    runs["contracts"] = ["contracts"]
    runs["contracts_cell"] = ["contracts", "--relays", "10", "--budget", "16"]
    runs["table3"] = ["table3"]
    rng = np.random.default_rng(SEED)
    for i in range(CSVS):
        text, total = offers_csv(rng, i)
        path = work / f"offers_{i:02d}.csv"
        path.write_text(text)
        for share in (0.05, 0.3, 0.7, 1.2):
            for resolution in (10, 1000):
                runs[f"select_{i:02d}_{share}_{resolution}"] = [
                    "select", str(path), "--budget", repr(share * total),
                    "--resolution", str(resolution),
                ]
        for budget in ("0", "1"):
            runs[f"select_{i:02d}_budget{budget}"] = ["select", str(path), "--budget", budget]
    for name, (lines, budgets) in EDGE_OFFERS.items():
        path = work / f"offers_{name}.csv"
        path.write_text("\n".join(["m,n,gamma_linear,transfer", *lines]) + "\n")
        for budget in budgets:
            runs[f"select_{name}_{budget}"] = ["select", str(path), "--budget", budget]
    return runs


def run_side(tree: Path, runs: dict[str, list[str]], out: Path) -> list[int]:
    out.mkdir(parents=True)
    argvs = [[*argv, "--out", str(out / f"{name}.csv")] for name, argv in runs.items()]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)],
        cwd=out, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"command runner in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--trials", type=int, default=TRIALS, help="simulate trials per cell")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp_path = Path(tmp)
        parent_tree = tmp_path / "tree"
        commit = extract(args.parent, parent_tree)
        work = tmp_path / "inputs"
        work.mkdir()
        runs = commands(work, args.trials)
        codes = {
            side: run_side(tree, runs, tmp_path / side)
            for side, tree in (("parent", parent_tree), ("change", ROOT))
        }
        differ = 0
        for i, name in enumerate(runs):
            before = sha256(tmp_path / "parent" / f"{name}.csv")
            after = sha256(tmp_path / "change" / f"{name}.csv")
            same = before == after and codes["parent"][i] == codes["change"][i] == 0
            differ += not same
            print(f"{'same' if same else 'DIFF'} {name} exit {codes['parent'][i]}/{codes['change'][i]} "
                  f"parent {before[:16]} change {after[:16]}")
    print(f"{len(runs) - differ} of {len(runs)} outputs identical to {args.parent} ({commit[:12]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
