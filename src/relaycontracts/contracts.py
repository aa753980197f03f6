"""Contract menu synthesis and auditing for relay agents.

A contract is a pair (snr, transfer): the destination SNR a relay promises
on one subcarrier and the payment it receives for delivering it.  Under
complete information the source extracts all relay surplus (first-best);
under asymmetric information it screens relay types with a menu that
distorts SNR downward below the top type and concedes information rent
(second-best).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import TypeGrid

__all__ = [
    "ContractPair",
    "ContractMenu",
    "MenuAudit",
    "relay_utility",
    "first_best_contract",
    "first_best_menu",
    "second_best_menu",
    "select_best_contract",
    "verify_menu",
    "information_rent",
    "snr_to_db",
    "menu_to_csv",
]

_TWO_LN2 = 2.0 * math.log(2.0)
MONEY_TOL = 1e-9


def _check_cost(cost_coeff: float) -> None:
    """The one cost-coefficient check; NaN fails it too."""
    if not 0.0 < cost_coeff < math.inf:
        raise ValueError(f"cost coefficient must be finite and positive, got {cost_coeff}")


def snr_to_db(snr_linear: float) -> float:
    return 10.0 * math.log10(snr_linear) if snr_linear > 0.0 else float("-inf")


@dataclass(frozen=True)
class ContractPair:
    snr: float
    transfer: float

    def __post_init__(self) -> None:
        if not (self.snr >= 0.0 and self.transfer >= 0.0):
            raise ValueError("contract SNR and transfer must be non-negative")


@dataclass(frozen=True)
class ContractMenu:
    """Read-only SNR and transfer schedules over the K types of `grid`, at cost coefficient c.

    Construction does not enforce monotonicity or incentive compatibility;
    `verify_menu` reports them, so deliberately broken menus can be audited.
    """

    snrs: np.ndarray
    transfers: np.ndarray
    grid: TypeGrid
    cost_coeff: float
    pooled: bool = False

    def __post_init__(self) -> None:
        for name in ("snrs", "transfers"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (self.grid.k,):
                raise ValueError(f"menu has {name} of shape {values.shape} for {self.grid.k} types")
            if not np.all(values >= 0.0):
                raise ValueError("contract SNR and transfer must be non-negative")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        _check_cost(self.cost_coeff)

    @property
    def pairs(self) -> tuple[ContractPair, ...]:
        """The menu as K `ContractPair`s, lowest type first."""
        return tuple(map(ContractPair, self.snrs.tolist(), self.transfers.tolist()))


@dataclass(frozen=True)
class MenuAudit:
    """Truth table of the IR/IC constraint system for one menu."""

    ir_satisfied: tuple[bool, ...]
    ir_binding_at_bottom: bool
    ic_matrix: np.ndarray
    adjacent_ic_binding: tuple[bool, ...]
    monotone: bool

    @property
    def all_ok(self) -> bool:
        return (
            all(self.ir_satisfied)
            and self.ir_binding_at_bottom
            and bool(self.ic_matrix.all())
            and all(self.adjacent_ic_binding)
            and self.monotone
        )


def relay_utility(pair: ContractPair, theta: float, cost_coeff: float) -> float:
    """Relay profit t - c*snr/theta from honoring `pair` at true type theta."""
    if not theta > 0.0:
        raise ValueError("relay type must be positive")
    _check_cost(cost_coeff)
    return pair.transfer - cost_coeff * pair.snr / theta


def _snr_from_marginal_cost(chat):
    """Maximizer of 0.5*log2(1+g) - chat*g over g >= 0, elementwise.

    The one first-best SNR formula: every menu and the complete-information
    offers use it, so the no-distortion-at-the-top identity holds bitwise.
    """
    with np.errstate(over="ignore", divide="ignore"):
        snr = np.maximum(1.0 / (_TWO_LN2 * np.asarray(chat, dtype=float)) - 1.0, 0.0)
    if not np.all(snr < math.inf):
        raise ValueError(
            f"first-best SNR overflows at marginal cost c/theta = {np.min(chat):g}; "
            "the cost coefficient is too small for these relay types"
        )
    return snr


def _marginal_costs(types, cost_coeff: float) -> np.ndarray:
    """c/theta at every type in `types`.  Each type must be positive, and
    one so small that c/theta overflows is refused by name."""
    types = np.asarray(types, dtype=float)
    if not np.all(types > 0.0):
        raise ValueError("relay type must be positive")
    _check_cost(cost_coeff)
    with np.errstate(over="ignore"):
        costs = cost_coeff / types
    if not np.all(costs < math.inf):
        raise ValueError(_too_small(types.min(), cost_coeff, "c/theta"))
    return costs


def _too_small(theta: float, cost_coeff: float, what: str) -> str:
    return f"relay type {theta:g} is too small for cost coefficient {cost_coeff:g}: its {what} overflows"


def _first_best(types, cost_coeff: float):
    """The one first-best pair rule: at every positive type in `types`, the
    efficient SNR and, as its transfer, its cost c*snr/theta (zero surplus)."""
    snr = _snr_from_marginal_cost(_marginal_costs(types, cost_coeff))
    return snr, cost_coeff * snr / types


def first_best_contract(theta: float, cost_coeff: float) -> ContractPair:
    """Complete-information contract: efficient SNR, zero relay surplus."""
    return ContractPair(*map(float, _first_best(theta, cost_coeff)))


def first_best_menu(grid: TypeGrid, cost_coeff: float) -> ContractMenu:
    """First-best pair at every grid type (not incentive compatible)."""
    return ContractMenu(*_first_best(grid.deltas, cost_coeff), grid, cost_coeff)


def _pava_nonincreasing(weights_num: np.ndarray, weights_den: np.ndarray):
    """Pool adjacent violators of the ratio sequence num/den (non-increasing).

    A ratio with a non-positive denominator is +inf.  When no adjacent pair
    of the singleton ratios increases, nothing pools: the singleton ratios
    come back as one array with unit lengths, without the loop.  Otherwise
    the loop pools: blocks carry (sum num, sum den, count), and a block with
    zero denominator can only survive unpooled at the head of the sequence.
    Returns (block ratios, block lengths).
    """
    nums = np.asarray(weights_num, dtype=float)
    dens = np.asarray(weights_den, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        singles = np.where(dens > 0.0, nums / dens, math.inf)
    if not np.any(singles[:-1] < singles[1:]):
        return singles, np.ones(singles.size, dtype=int)

    blocks: list[list[float]] = []

    def ratio(b: list[float]) -> float:
        return b[0] / b[1] if b[1] > 0.0 else math.inf

    for num, den in zip(weights_num, weights_den):
        blocks.append([num, den, 1])
        while len(blocks) >= 2 and ratio(blocks[-2]) < ratio(blocks[-1]):
            num2, den2, cnt2 = blocks.pop()
            blocks[-1][0] += num2
            blocks[-1][1] += den2
            blocks[-1][2] += cnt2
    return [ratio(b) for b in blocks], [b[2] for b in blocks]


def second_best_menu(grid: TypeGrid, cost_coeff: float) -> ContractMenu:
    """Optimal screening menu for asymmetric information over `grid`.

    Each SNR below the top maximizes the type's expected virtual surplus,
    where the virtual marginal cost inflates c/delta_k by the aggregated
    hazard weight of all higher types; the top type gets its efficient SNR.
    Transfers follow the binding downward-adjacent-IC recursion from the
    bottom type's binding IR.  If the pointwise maximizers are not monotone
    the menu is projected onto the monotone cone by weighted pool-adjacent-
    violators and flagged `pooled`.
    """
    deltas = grid.deltas
    k = grid.k
    costs = _marginal_costs(deltas, cost_coeff)

    own_mass = grid.probs.sum(axis=1)
    tail_mass = own_mass[::-1].cumsum()[::-1]  # mass at type k or above, all subcarriers

    # Rows with an empty tail never bind anything: they duplicate the last
    # live pair below.  The bottom row is always live (tail_mass[0] == N).
    n_live = int(np.nonzero(tail_mass > 0.0)[0][-1]) + 1

    # Virtual marginal cost weight of gamma_k in the reduced objective:
    # W_k = c * (tail_k/delta_k - tail_{k+1}/delta_{k+1}), with empty tail above K.
    tail_next = np.append(tail_mass[1:], 0.0)
    delta_next = np.append(deltas[1:], deltas[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        virtual_w = cost_coeff * (tail_mass / deltas - tail_next / delta_next)
    if not np.all(np.isfinite(virtual_w)):
        theta = deltas[np.argmin(np.isfinite(virtual_w))]
        raise ValueError(_too_small(theta, cost_coeff, "virtual marginal cost"))

    # The top live type never pools (its ratio c/delta is a strict minimum),
    # so project only the rows below it and append the efficient top.
    ratios, lengths = _pava_nonincreasing(
        virtual_w[: n_live - 1], own_mass[: n_live - 1]
    )
    chat = np.append(np.repeat(ratios, lengths), costs[n_live - 1])
    gammas = np.empty(k)
    gammas[:n_live] = _snr_from_marginal_cost(chat)
    gammas[n_live:] = gammas[n_live - 1]
    pooled = len(ratios) < n_live - 1 or n_live < k

    transfers = np.empty(k)
    transfers[0] = cost_coeff * gammas[0] / deltas[0]
    if k > 1:
        transfers[1:] = cost_coeff * np.diff(gammas) / deltas[1:]
    transfers = transfers.cumsum()

    return ContractMenu(gammas, transfers, grid, cost_coeff, pooled=pooled)


def select_best_contract(menu: ContractMenu, theta: float) -> int | None:
    """Index of the relay's preferred pair at true type theta, or None.

    None means every pair yields strictly negative utility, so the relay
    keeps the null contract (0, 0).  Ties break toward the lowest index.
    """
    best = int(_best_response(menu.snrs, menu.transfers, menu.cost_coeff, theta))
    return None if best < 0 else best


def _utilities(snrs: np.ndarray, transfers: np.ndarray, cost_coeff: float, types: np.ndarray):
    """utilities[..., j] = t_j - c*snr_j/theta: the profit of every type in
    `types` from every menu pair, built in one buffer of shape types.shape + (K,)."""
    utilities = cost_coeff * snrs / types[..., None]
    return np.subtract(transfers, utilities, out=utilities)


def _best_response(snrs: np.ndarray, transfers: np.ndarray, cost_coeff: float, types):
    """Index of the preferred menu pair at every true type in `types`, or -1.

    The library's one best-response rule: the first pair of maximal
    utility t - c*snr/theta, or -1 (the null contract) when that utility is
    strictly negative.  Types must be positive.
    """
    types = np.asarray(types, dtype=float)
    if not np.all(types > 0.0):
        raise ValueError("relay type must be positive")
    utilities = _utilities(snrs, transfers, cost_coeff, types)
    best = utilities.argmax(axis=-1)
    keep = np.take_along_axis(utilities, best[..., None], axis=-1)[..., 0] >= 0.0
    return np.where(keep, best, -1)


def verify_menu(menu: ContractMenu) -> MenuAudit:
    """Evaluate every IR and IC inequality of `menu` at money tolerance MONEY_TOL."""
    tol = MONEY_TOL
    gammas = menu.snrs
    transfers = menu.transfers
    deltas = menu.grid.deltas
    c = menu.cost_coeff

    # utilities[k, j]: type k's profit from taking pair j
    utilities = _utilities(gammas, transfers, c, deltas)
    own = np.diag(utilities).copy()

    ir = own >= -tol
    adjacent = np.abs(own[1:] - utilities[np.arange(1, len(deltas)), np.arange(len(deltas) - 1)]) <= tol
    ic = own[:, None] >= np.subtract(utilities, tol, out=utilities)
    np.fill_diagonal(ic, True)
    monotone = bool(np.all(np.diff(gammas) >= 0.0))

    return MenuAudit(
        ir_satisfied=tuple(bool(x) for x in ir),
        ir_binding_at_bottom=bool(abs(own[0]) <= tol),
        ic_matrix=ic,
        adjacent_ic_binding=tuple(bool(x) for x in adjacent),
        monotone=monotone,
    )


def information_rent(menu: ContractMenu) -> np.ndarray:
    """Per-type surplus t_k - c*gamma_k/delta_k under truthful selection."""
    return menu.transfers - menu.cost_coeff * menu.snrs / menu.grid.deltas


def menu_to_csv(menu: ContractMenu) -> str:
    """Deterministic tabular dump: k, delta, gamma_linear, gamma_db, transfer, rent."""
    rents = information_rent(menu)
    lines = ["k,delta,gamma_linear,gamma_db,transfer,rent"]
    for i, pair in enumerate(menu.pairs):
        lines.append(
            f"{i + 1},{menu.grid.deltas[i]:.12g},{pair.snr:.12g},"
            f"{snr_to_db(pair.snr):.4f},{pair.transfer:.12g},{rents[i]:.12g}"
        )
    return "\n".join(lines) + "\n"
