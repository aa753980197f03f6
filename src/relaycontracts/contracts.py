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
from typing import NamedTuple

import numpy as np

from .distributions import TypeGrid, _derived

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
# A best response whose full (..., K) utility buffer would hold this many
# values or more scores bracket windows, where the menu has a bracket table.
# The measured crossover lies at 2,000-5,000 values for 32-288 types: below
# it the window's fixed cost per call exceeds the full rule's.
_WINDOW_MIN_VALUES = 8192
_EPS = 2.0**-52


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

    _brackets = _derived(lambda menu: _bracket_table(menu))  # a `_Brackets`, or None


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
    # In float64 whatever scalar types the pair and arguments carry.
    return float(pair.transfer) - float(cost_coeff) * float(pair.snr) / float(theta)


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
    best = int(_respond(menu, theta))
    return None if best < 0 else best


def _utilities(snrs: np.ndarray, transfers: np.ndarray, cost_coeff: float, types: np.ndarray, low: float):
    """utilities[..., j] = t_j - c*snr_j/theta: the profit of every type in
    `types` from every menu pair, built in one buffer of shape types.shape + (K,).

    `low` is the smallest type.  A finite c*snr over a type of 1 or more
    stays finite; below 1 it may overflow, to a utility of -inf, the right
    one: the null contract beats that pair.
    """
    if low < 1.0:
        with np.errstate(over="ignore"):
            utilities = cost_coeff * snrs / types[..., None]
    else:
        utilities = cost_coeff * snrs / types[..., None]
    return np.subtract(transfers, utilities, out=utilities)


def _best_response(snrs: np.ndarray, transfers: np.ndarray, cost_coeff: float, types):
    """Index of the preferred menu pair at every true type in `types`, or -1.

    The library's one best-response rule: the first pair of maximal
    utility t - c*snr/theta, or -1 (the null contract) when that utility is
    strictly negative.  Types must be positive.
    """
    types = np.asarray(types, dtype=float)
    low = types.min(initial=math.inf)  # NaN if any type is NaN
    if not low > 0.0:
        raise ValueError("relay type must be positive")
    utilities = _utilities(snrs, transfers, cost_coeff, types, low)
    best = utilities.argmax(axis=-1)
    keep = np.take_along_axis(utilities, best[..., None], axis=-1)[..., 0] >= 0.0
    return np.where(keep, best, -1)


class _Brackets(NamedTuple):
    """A menu's single-crossing thresholds and its distinct pairs, padded for five-pair windows.

    Bracket b holds the types between thresholds b-1 and b; its window is
    entries b to b+4 of each padded array, the distinct pairs b-2 to b+2.
    """

    thresholds: np.ndarray  # (L-1,) the types at which one distinct pair overtakes the one below
    costs: np.ndarray  # (L+4,) c*snr of the L distinct pairs, two sentinels of 0 at each end
    transfers: np.ndarray  # (L+4,) their transfers, sentinels -inf
    index: np.ndarray  # (L+4,) each distinct pair's first index in the menu, sentinels -1
    top_cost: float  # the largest c*snr
    top_transfer: float  # the largest transfer


_WINDOW = np.arange(5)  # a bracket's window, as offsets into the padded arrays


def _bracket_table(menu: ContractMenu) -> _Brackets | None:
    """The bracket table of `menu`, or None where single-peakedness is not certified.

    Runs of equal consecutive (c*snr, transfer) pairs, with c*snr formed as
    `_utilities` forms it, collapse to their first index.  Between the L
    pairs left, pair j+1 beats pair j exactly above the threshold
    d(c*snr)/d(transfer).  If every transfer difference is positive, the
    first threshold is a normal float, the last is finite, and each is at
    least (1 + 8 eps) times the one before, then every cost difference is
    positive, every computed threshold is within 2 eps of its real value,
    and the real thresholds increase.  So the real utilities of these
    pairs are single-peaked in the pair index for every type, with the
    peak at most one bracket from the one `searchsorted` finds.  A
    non-monotone menu fails the test.
    """
    costs, transfers = menu.cost_coeff * menu.snrs, menu.transfers
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and NaN fail below
        d_cost, d_transfer = np.diff(costs), np.diff(transfers)
        step = (d_cost != 0.0) | (d_transfer != 0.0)  # False inside a run of equal pairs
        d_cost, d_transfer = d_cost[step], d_transfer[step]
        thresholds = d_cost / d_transfer
    if thresholds.size and not (
        np.all(d_transfer > 0.0)
        and thresholds[0] >= np.finfo(float).tiny
        and thresholds[-1] < math.inf
        and np.all(thresholds[1:] >= thresholds[:-1] * (1.0 + 8.0 * _EPS))
    ):
        return None
    index = np.flatnonzero(np.append(True, step))
    return _Brackets(
        thresholds,
        np.concatenate(([0.0, 0.0], costs[index], [0.0, 0.0])),
        np.concatenate(([-math.inf, -math.inf], transfers[index], [-math.inf, -math.inf])),
        np.concatenate(([-1, -1], index, [-1, -1])),
        float(costs[-1]),
        float(transfers[-1]),
    )


def _respond(menu: ContractMenu, types):
    """`_best_response` to `menu` at every type in `types`, equal to it bit for bit.

    Where the full rule's (..., K) buffer would hold at least
    _WINDOW_MIN_VALUES values and the menu has a bracket table, each type
    scores only the five pairs around its bracket, with the full rule's own
    float expression t - (c*snr)/theta.  Each computed utility is within
    E = 4 eps (max t + max c*snr / min theta) + 4 * 2**-1074 of its real
    value, so where both window ends lie more than 3E below the window's
    maximum, single-peakedness puts every pair outside the window strictly
    below that maximum: the first maximum in the window is the full rule's
    first maximum, and the null-contract test reads the same value.  Rows
    that miss the margin (utilities flat within rounding across the
    window, or all rows of a call whose smallest type makes E vast) go
    through the full rule, and so does a whole call in which c*snr/theta
    can overflow.
    """
    types = np.asarray(types, dtype=float)
    brackets = menu._brackets if types.size * menu.snrs.size >= _WINDOW_MIN_VALUES else None
    if brackets is None:
        return _best_response(menu.snrs, menu.transfers, menu.cost_coeff, types)
    flat = types.ravel()
    low = float(flat.min())
    if not low > 0.0:
        raise ValueError("relay type must be positive")
    # Python floats: an overflowing c*snr/theta makes the margin inf, without a warning.
    margin = 12.0 * _EPS * (brackets.top_transfer + brackets.top_cost / low) + 12.0 * 2.0**-1074
    if margin == math.inf:
        return _best_response(menu.snrs, menu.transfers, menu.cost_coeff, types)
    at = brackets.thresholds.searchsorted(flat)
    windows = at[:, None] + _WINDOW
    utilities = brackets.costs[windows] / flat[:, None]
    np.subtract(brackets.transfers[windows], utilities, out=utilities)
    pick = utilities.argmax(axis=1)
    top = utilities[np.arange(flat.size), pick]
    best = np.where(top >= 0.0, brackets.index[at + pick], -1)
    unsure = ~(np.maximum(utilities[:, 0], utilities[:, 4]) < top - margin)
    if unsure.any():
        best[unsure] = _best_response(menu.snrs, menu.transfers, menu.cost_coeff, flat[unsure])
    return best.reshape(types.shape)


def verify_menu(menu: ContractMenu) -> MenuAudit:
    """Evaluate every IR and IC inequality of `menu` at money tolerance MONEY_TOL."""
    tol = MONEY_TOL
    gammas = menu.snrs
    transfers = menu.transfers
    deltas = menu.grid.deltas
    c = menu.cost_coeff

    # utilities[k, j]: type k's profit from taking pair j
    utilities = _utilities(gammas, transfers, c, deltas, deltas[0])
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
