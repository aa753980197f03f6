"""Monte Carlo driver for the contract broadcast / response / selection cycle.

One round: the source builds a menu, every relay privately draws its type
vector and accepts its best pair per subcarrier (or the null contract), and
the source runs the budgeted selection over the accepted offers.  The
harness sweeps relay counts and budgets, averaging capacity per subcarrier
with reproducible per-trial seeding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .contracts import (
    ContractMenu,
    _check_cost,
    _first_best,
    _respond,
    first_best_menu,
    information_rent,
    second_best_menu,
    snr_to_db,
)
from .distributions import (
    _MAX_ARRAY_BYTES, TypeDistribution, TypeGrid, _check_integer, sample_type_vector
)
from .selection import (
    OfferMatrix,
    SelectionProblem,
    _check_budget,
    _check_resolution,
    best_snr_baseline,
    overall_heuristic,
    relaxed_upper_bound,
)

__all__ = [
    "MenuKind",
    "Information",
    "ExperimentConfig",
    "RoundResult",
    "MetricsRow",
    "MetricsTable",
    "broadcast_menu",
    "accepted_offers",
    "efficient_offers",
    "simulate_round",
    "run_experiment",
    "Table3Row",
    "reproduce_table3",
    "table3_to_csv",
]

class MenuKind(str, Enum):
    FIRST_BEST = "first_best"
    SECOND_BEST = "second_best"


class Information(str, Enum):
    COMPLETE = "complete"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment cell or sweep; defaults match the reference simulation setup."""

    dist: TypeDistribution = TypeDistribution.uniform(50.0, 300.0)
    quant: int = 10
    subcarriers: int = 16
    relays: int | tuple[int, ...] = 10
    budget: float | tuple[float, ...] = 16.0
    cost_coeff: float = 1.0
    trials: int = 1000
    seed: int = 12345
    menu_kind: MenuKind = MenuKind.SECOND_BEST
    information: Information = Information.ASYMMETRIC
    resolution: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "menu_kind", MenuKind(self.menu_kind))
        object.__setattr__(self, "information", Information(self.information))
        for name in ("relays", "budget"):  # as tuples or scalars, configs compare and hash
            value = getattr(self, name)
            if isinstance(value, (list, np.ndarray)):
                object.__setattr__(self, name, tuple(value) if np.ndim(value) else value[()])
        for b in self.budget if isinstance(self.budget, tuple) else (self.budget,):
            if isinstance(b, (str, bytes, bool, np.bool_)):
                raise ValueError(f"budget must be a number, got {b!r}")
        for name in ("quant", "subcarriers", "trials", "seed"):
            _check_integer(name, getattr(self, name))
        if self.quant < 1 or self.subcarriers < 1:
            raise ValueError("quantization factor and subcarrier count must be >= 1")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        _check_resolution(self.resolution)
        _check_cost(self.cost_coeff)
        for m in self.relay_sweep:
            _check_integer("relay count", m)
            if m < 0:
                raise ValueError("relay count must be non-negative")
        for b in self.budget_sweep:
            _check_budget(b)

    @property
    def relay_sweep(self) -> tuple[int, ...]:
        r = self.relays
        return (r,) if np.ndim(r) == 0 else tuple(r)

    @property
    def budget_sweep(self) -> tuple[float, ...]:
        b = self.budget
        return (float(b),) if np.ndim(b) == 0 else tuple(float(x) for x in b)


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one Monte Carlo round."""

    capacity_heuristic: float
    capacity_best_snr: float
    capacity_relaxed: float
    spend: float
    offers_accepted: int

    def __post_init__(self) -> None:
        if self.capacity_heuristic > self.capacity_relaxed + 1e-6:
            raise ValueError("heuristic capacity exceeds the relaxation bound")


@dataclass(frozen=True)
class MetricsRow:
    relays: int
    budget: float
    method: str
    mean_capacity_per_subcarrier: float
    stderr: float
    mean_spend: float | None


@dataclass(frozen=True)
class MetricsTable:
    rows: tuple[MetricsRow, ...]

    def get(self, relays: int, budget: float, method: str) -> MetricsRow:
        for row in self.rows:
            if (row.relays, row.budget, row.method) == (relays, budget, method):
                return row
        raise KeyError((relays, budget, method))

    def to_csv(self) -> str:
        lines = ["M,budget,method,mean_capacity_per_subcarrier,stderr,mean_spend"]
        for r in self.rows:
            spend = "" if r.mean_spend is None else f"{r.mean_spend:.12g}"
            lines.append(
                f"{r.relays},{r.budget:.12g},{r.method},"
                f"{r.mean_capacity_per_subcarrier:.12g},{r.stderr:.12g},{spend}"
            )
        return "\n".join(lines) + "\n"


def accepted_offers(menu: ContractMenu, types: np.ndarray) -> OfferMatrix:
    """Best response of every relay on every subcarrier to a broadcast menu.

    types has shape (M, N) of true, positive channel gains; relays whose
    best pair would lose money keep the null contract.
    """
    snrs, transfers = menu.snrs, menu.transfers
    best = _respond(menu, types)
    accept = best >= 0
    return OfferMatrix(np.where(accept, snrs[best], 0.0), np.where(accept, transfers[best], 0.0))


def efficient_offers(types: np.ndarray, cost_coeff: float) -> OfferMatrix:
    """Zero-rent first-best pair at every relay's true type (complete information)."""
    return OfferMatrix(*_first_best(np.asarray(types, dtype=float), cost_coeff))


def broadcast_menu(config: ExperimentConfig) -> ContractMenu:
    """The menu the source broadcasts for `config`'s grid and menu kind."""
    grid = TypeGrid.from_distribution(config.dist, config.quant, config.subcarriers)
    if config.menu_kind is MenuKind.FIRST_BEST:
        return first_best_menu(grid, config.cost_coeff)
    return second_best_menu(grid, config.cost_coeff)


def simulate_round(
    config: ExperimentConfig,
    rng: np.random.Generator,
    menu: ContractMenu | None = None,
) -> RoundResult:
    """One broadcast/response/selection round at a single (relays, budget) cell.

    `menu` is `broadcast_menu(config)` when given, so a sweep cell can build
    it once for all its rounds; complete-information rounds ignore it.
    """
    relays, budgets = config.relay_sweep, config.budget_sweep
    if len(relays) != 1 or len(budgets) != 1:
        raise ValueError(
            f"{len(relays)} relay counts x {len(budgets)} budgets given; simulate_round needs one cell"
        )
    m, budget = int(relays[0]), float(budgets[0])
    # The round's largest array: M x N offers, times K menu types in the best
    # responses; with no relays, per-subcarrier rows still hold N values.
    values = max(m, 1) * config.subcarriers
    if config.information is Information.ASYMMETRIC:
        values *= config.quant
    if 8 * values > _MAX_ARRAY_BYTES:
        raise ValueError(
            f"a round of {m} relays x {config.subcarriers} subcarriers needs an array "
            f"of {values} values, over 2**28 bytes"
        )

    types = sample_type_vector(config.dist, m * config.subcarriers, rng)
    types = types.reshape(m, config.subcarriers)
    if config.information is Information.COMPLETE:
        offers = efficient_offers(types, config.cost_coeff)
    else:
        offers = accepted_offers(menu if menu is not None else broadcast_menu(config), types)

    problem = SelectionProblem(offers, budget, config.resolution)
    heuristic = overall_heuristic(problem)
    baseline = best_snr_baseline(problem)
    bound = relaxed_upper_bound(problem)
    return RoundResult(
        capacity_heuristic=heuristic.capacity,
        capacity_best_snr=baseline.capacity,
        capacity_relaxed=bound,
        spend=heuristic.spend,
        offers_accepted=int(np.count_nonzero(offers.snr > 0.0)),
    )


def _trial_rng(seed: int, relays: int, budget: float, trial: int) -> np.random.Generator:
    # Stable per-cell, per-trial stream: sweep cells are independently
    # reproducible and shared across menu/information variants.
    key = [int(seed) & 0xFFFFFFFFFFFFFFFF, relays, int(round(budget * 1e6)), trial]
    return np.random.default_rng(np.random.SeedSequence(key))


def run_experiment(config: ExperimentConfig) -> MetricsTable:
    """Average `config.trials` rounds for every (relays, budget) sweep cell."""
    rows: list[MetricsRow] = []
    # The menu depends on neither relay count nor budget: one serves every cell.
    menu = broadcast_menu(config) if config.information is Information.ASYMMETRIC else None
    for m in config.relay_sweep:
        for budget in config.budget_sweep:
            cell = replace(config, relays=m, budget=budget)
            heur = np.empty(config.trials)
            base = np.empty(config.trials)
            relaxed = np.empty(config.trials)
            spend = np.empty(config.trials)
            for trial in range(config.trials):
                rng = _trial_rng(config.seed, m, budget, trial)
                res = simulate_round(cell, rng, menu)
                heur[trial] = res.capacity_heuristic
                base[trial] = res.capacity_best_snr
                relaxed[trial] = res.capacity_relaxed
                spend[trial] = res.spend
            per_sub = 1.0 / config.subcarriers
            for method, caps, mean_spend in (
                ("Overall", heur, float(spend.mean())),
                ("BestSNR", base, None),
                ("Relaxed", relaxed, None),
            ):
                scaled = caps * per_sub
                se = (
                    float(scaled.std(ddof=1) / math.sqrt(config.trials))
                    if config.trials > 1
                    else 0.0
                )
                rows.append(
                    MetricsRow(m, budget, method, float(scaled.mean()), se, mean_spend)
                )
    return MetricsTable(tuple(rows))


# -- contract table reproduction -------------------------------------------


@dataclass(frozen=True)
class Table3Row:
    k: int
    delta: float
    prob: float
    fb_snr_db: float
    fb_transfer: float
    sb_snr_db: float
    sb_transfer: float
    rent: float


def reproduce_table3(cost_coeff: float = 1.0) -> list[Table3Row]:
    """First-best and second-best contract columns at the reference parameters."""
    dist = TypeDistribution.uniform(50.0, 300.0)
    grid = TypeGrid.from_distribution(dist, 10, 16)
    sb = second_best_menu(grid, cost_coeff)
    fb = first_best_menu(grid, cost_coeff)
    columns = zip(
        grid.deltas.tolist(), grid.probs[:, 0].tolist(), fb.snrs.tolist(),
        fb.transfers.tolist(), sb.snrs.tolist(), sb.transfers.tolist(),
        information_rent(sb).tolist(),
    )
    return [
        Table3Row(k, delta, prob, snr_to_db(fb_snr), fb_t, snr_to_db(sb_snr), sb_t, rent)
        for k, (delta, prob, fb_snr, fb_t, sb_snr, sb_t, rent) in enumerate(columns, 1)
    ]


def table3_to_csv(rows: list[Table3Row]) -> str:
    lines = ["k,delta,pi,fb_gamma_db,fb_transfer,sb_gamma_db,sb_transfer,rent"]
    for r in rows:
        lines.append(
            f"{r.k},{r.delta:.12g},{r.prob:.12g},{r.fb_snr_db:.4f},"
            f"{r.fb_transfer:.4f},{r.sb_snr_db:.4f},{r.sb_transfer:.4f},{r.rent:.4f}"
        )
    return "\n".join(lines) + "\n"
