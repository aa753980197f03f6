"""Seeded inputs, timed operations and output checks for each workload.

Every input is generated here from the workload seed.  The library sees
only the generated `ExperimentConfig` objects (sweep workloads) and offers
CSV files (select_stream), and is always called through module attributes
(`simulate.run_experiment`, `cli.main`) so that a trace patched onto those
attributes sees the call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relaycontracts import cli, selection, simulate

REFERENCE_SEED = 1
MONEY_TOL = 1e-9  # the library's absolute tolerance for money identities
BOUND_TOL = 1e-6  # heuristic capacity may exceed the relaxed bound by this much


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's invariants."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Op:
    """One timed call: its inputs, and the work units (rounds or instances) it does."""

    units: int
    config: simulate.ExperimentConfig | None = None
    snr: np.ndarray | None = None
    transfer: np.ndarray | None = None
    budget: float = 0.0


class SweepWorkload:
    """Monte Carlo sweep cells, each op one `run_experiment` call on one cell.

    A pass visits every cell once in a fixed order, so every run sees the
    same mix of cells whatever its seed; the seed picks the random types.
    """

    labels = ("rounds_per_s", "round_ms_p50", "round_ms_p95")  # as users know them

    def __init__(self, cells: list[dict], trials: int, checked_passes: int):
        self.cells = cells
        self.trials = trials
        self.pass_size = len(cells)
        self.checked_ops = checked_passes * len(cells)

    def op(self, seed: int, index: int) -> Op:
        cell = self.cells[index % self.pass_size]
        pass_seed = int(np.random.SeedSequence([seed, index // self.pass_size]).generate_state(1)[0])
        config = simulate.ExperimentConfig(trials=self.trials, seed=pass_seed, **cell)
        return Op(self.trials, config=config)

    def warmup_op(self, seed: int) -> Op:
        cell = self.cells[len(self.cells) // 2]
        return Op(1, config=simulate.ExperimentConfig(trials=1, seed=seed, **cell))

    def prepare(self, op: Op, workdir: Path) -> None:
        pass

    def execute(self, op: Op, workdir: Path) -> str:
        return simulate.run_experiment(op.config).to_csv()

    def check(self, op: Op, output: str) -> None:
        """Cell means of the metrics CSV: run_experiment exposes no single round.

        Each round's heuristic <= relaxed bound is also enforced by
        `RoundResult` itself, so a violating round raises inside the op.
        """
        rows = [line.split(",") for line in output.splitlines()[1:]]
        by_method = {r[2]: r for r in rows}
        if len(rows) != 3 or set(by_method) != {"Overall", "BestSNR", "Relaxed"}:
            raise CheckFailed(f"expected one Overall/BestSNR/Relaxed row each, got {rows}")
        budget = float(op.config.budget)
        values = [float(x) for r in rows for x in r[3:] if x]
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed("non-finite value in metrics CSV")
        relaxed = float(by_method["Relaxed"][3])
        if float(by_method["Overall"][5]) > budget + MONEY_TOL:
            raise CheckFailed(f"Overall mean spend {by_method['Overall'][5]} > budget {budget}")
        for method in ("Overall", "BestSNR"):
            if float(by_method[method][3]) > relaxed + BOUND_TOL:
                raise CheckFailed(f"{method} mean capacity exceeds the relaxed bound")


class SelectStreamWorkload:
    """Generated offers CSVs, each solved by one in-process `select` CLI call.

    Instance cost spans two orders of magnitude, so each pass is a full
    factorial over strata: 8 equal strata of M x the 3 values of N x 4 equal
    strata of the budget share, with M and the share drawn uniformly inside
    their stratum.  Marginals stay uniform, and every pass holds the same
    mix of small, large, tight and slack instances, which keeps runs on
    different seeds comparable.
    """

    labels = ("instances_per_s", "select_ms_p50", "select_ms_p95")  # as users know them
    relays = (4, 32)  # inclusive range of M
    subcarriers = (16, 32, 64)
    decline_share = 0.3
    snr_range = (1.0, 200.0)  # linear, spans the reference menus' SNRs
    price_range = (0.05, 1.3)  # spans the reference menus' transfers
    budget_share = (0.05, 1.2)  # budget as a share of the total offered price
    strata = (8, len(subcarriers), 4)  # M strata, N values, budget-share strata
    pass_size = int(np.prod(strata))
    checked_ops = pass_size

    def op(self, seed: int, index: int) -> Op:
        pass_no, slot = divmod(index, self.pass_size)
        m_stratum, n_index, b_stratum = np.unravel_index(slot, self.strata)
        rng = np.random.default_rng([seed, pass_no, slot])
        m_count = self.relays[1] - self.relays[0] + 1
        m = self.relays[0] + int((m_stratum + rng.random()) * m_count / self.strata[0])
        lo, hi = self.budget_share
        share = lo + (b_stratum + rng.random()) * (hi - lo) / self.strata[2]
        return self._instance(rng, m, self.subcarriers[n_index], share)

    def warmup_op(self, seed: int) -> Op:
        return self._instance(np.random.default_rng([seed]), 8, 16, 0.5)

    def _instance(self, rng, m: int, n: int, share: float) -> Op:
        offered = rng.random((m, n)) >= self.decline_share
        snr = np.where(offered, rng.uniform(*self.snr_range, (m, n)), 0.0)
        transfer = np.where(offered, rng.uniform(*self.price_range, (m, n)), 0.0)
        return Op(1, snr=snr, transfer=transfer, budget=float(share * transfer.sum()))

    def prepare(self, op: Op, workdir: Path) -> None:
        (workdir / "offers.csv").write_text(offers_csv(op.snr, op.transfer))
        (workdir / "select.csv").unlink(missing_ok=True)

    def execute(self, op: Op, workdir: Path) -> str:
        out = workdir / "select.csv"
        argv = ["select", str(workdir / "offers.csv"), "--budget", repr(op.budget), "--out", str(out)]
        code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"select exited with code {code}")
        return out.read_text()

    def check(self, op: Op, output: str) -> None:
        """Spend <= budget, capacity <= relaxed bound, and the reported totals
        equal `capacity()` / `total_spend()` recomputed on the returned subsets."""
        n = op.snr.shape[1]
        lines = output.splitlines()
        if len(lines) != 2 * n + 2:
            raise CheckFailed(f"expected {2 * n + 2} select CSV lines, got {len(lines)}")
        relaxed_row = lines[-1].split(",")
        if relaxed_row[0] != "Relaxed":
            raise CheckFailed("last select row is not the relaxed bound")
        relaxed = float(relaxed_row[3])
        offers = selection.OfferMatrix(op.snr, op.transfer)
        for k, method in enumerate(("Overall", "BestSNR")):
            rows = [line.split(",") for line in lines[1 + k * n : 1 + (k + 1) * n]]
            if [r[0] for r in rows] != [method] * n or [int(r[1]) for r in rows] != list(range(n)):
                raise CheckFailed(f"{method} rows out of order")
            subsets = [tuple(int(m) for m in r[2].split(";") if m) for r in rows]
            cap = selection.capacity(offers, subsets)
            spend = selection.total_spend(offers, subsets)
            if {(r[3], r[4]) for r in rows} != {(f"{cap:.12g}", f"{spend:.12g}")}:
                raise CheckFailed(f"{method} totals differ from capacity()/total_spend()")
            if spend > op.budget + MONEY_TOL:
                raise CheckFailed(f"{method} spend {spend!r} > budget {op.budget!r}")
            if cap > relaxed + BOUND_TOL:
                raise CheckFailed(f"{method} capacity {cap!r} > relaxed bound {relaxed!r}")


def offers_csv(snr: np.ndarray, transfer: np.ndarray) -> str:
    """Offers wire format with round-trip float text, so the CLI parses the
    exact matrix the checks recompute on."""
    lines = ["m,n,gamma_linear,transfer"]
    for (m, n), g in np.ndenumerate(snr):
        lines.append(f"{m},{n},{float(g)!r},{float(transfer[m, n])!r}")
    return "\n".join(lines) + "\n"


_REFERENCE_CELL = {"quant": 10, "subcarriers": 16, "resolution": 1000}

WORKLOADS = {
    # The paper's capacity study: asymmetric information, second-best menu.
    "paper_sweep": SweepWorkload(
        [
            dict(_REFERENCE_CELL, relays=m, budget=float(t))
            for m in (2, 6, 10, 14, 18)
            for t in (8, 16, 24)
        ],
        trials=8,
        checked_passes=1,
    ),
    # Fine type quantization, where grid + menu + best response dominate.
    "fine_quant": SweepWorkload(
        [
            dict(quant=k, subcarriers=32, relays=3, budget=1.0, resolution=1000)
            # K=1000 twice per pass, so the median op is a K=1000 round
            # rather than the gap between the two grid sizes.
            for k in (300, 1000, 1000)
        ],
        trials=8,
        checked_passes=3,
    ),
    "select_stream": SelectStreamWorkload(),
}
