"""Budget-constrained relay selection from accepted contract offers.

Given the per-relay, per-subcarrier contract pairs the source has collected,
selecting relays to maximize total capacity under one overall budget is a
nonlinear non-separable knapsack problem.  This module provides the
budget-splitting heuristics and the sequential allocation heuristic the
source actually runs, a best-SNR greedy baseline, a fractional-relaxation
upper bound, and an exhaustive oracle for small instances.
"""

from __future__ import annotations

import bisect
import itertools
import math
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .distributions import _MAX_ARRAY_BYTES, _check_integer, _derived

__all__ = [
    "OfferMatrix",
    "SelectionMethod",
    "SelectionProblem",
    "SelectionResult",
    "capacity",
    "total_spend",
    "knapsack_01",
    "weight_profile",
    "weighted_split_selection",
    "sscpa",
    "overall_heuristic",
    "best_snr_baseline",
    "relaxed_upper_bound",
    "exhaustive_optimum",
    "offers_to_csv",
    "offers_from_csv",
    "selection_to_csv",
]

_UNIT_SNAP = 1e-9  # guards ceil/floor against float noise in t * resolution
_EXACT_UNITS = 2**53  # money-unit counts from here on are no longer exact floats
_CSV_HUGE_INDEX = 2**30  # offers CSV indices from here on exceed the cap
_CSV_CHUNK = 1 << 16  # characters of offers CSV split into lines at a time
_CSV_HEADER = "m,n,gamma_linear,transfer"
_CSV_PLAIN_BYTES = b"0123456789.eE+-,\n"  # the bytes of a plain offers chunk
_LN2 = math.log(2.0)
_FLOAT_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_FLOAT_MAX = float(np.finfo(float).max)


class SelectionMethod(str, Enum):
    ESW = "ESW"
    ASW = "ASW"
    NSW = "NSW"
    SSCPA = "SSCPA"
    OVERALL = "Overall"
    BEST_SNR = "BestSNR"
    EXHAUSTIVE = "Exhaustive"


_SPLIT_KINDS = (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)


def _split_row(kind: SelectionMethod | str) -> int:
    """The one split-kind check: the kind's row in ESW, ASW, NSW order; a
    kind given as its string value has the enum's row."""
    if kind not in _SPLIT_KINDS:
        raise ValueError(f"no weight profile for method {kind}")
    return _SPLIT_KINDS.index(kind)


def _check_budget(budget: float, name: str = "budget") -> None:
    """The one budget check, for budgets and a knapsack's sub-budget: a
    number, not text, a bool or None, finite and non-negative; NaN fails it."""
    if budget is None or isinstance(budget, (str, bytes, bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {budget!r}")
    if not 0.0 <= budget < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {budget}")


def _check_resolution(resolution: int) -> None:
    """The one resolution check: an integer count of money units per 1.0, below 2**53."""
    _check_integer("resolution", resolution)
    if not 1 <= resolution < _EXACT_UNITS:
        raise ValueError(f"resolution must be a unit count in [1, 2**53), got {resolution}")


def _money_units(budget, resolution: int):
    """Whole money units a budget or budget array buys; knapsack widths and plan caps agree by it."""
    return np.floor(budget * resolution + _UNIT_SNAP)


def _with_margin(bound):
    """A capacity bound raised past rounding; the pre-skip and the floor stop agree by it."""
    return bound * (1.0 + 1e-9) + 1e-9


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class OfferMatrix:
    """Accepted contract pairs per (relay, subcarrier); zeros mean no offer.

    Offers must be finite and non-negative, a null offer (SNR 0) must be
    free, and no SNR sum per subcarrier, running price total or SNR per
    unit transfer may overflow.  A fused check settles all of these from
    the extremes of both arrays (`_fast_efficiency`); where it cannot, or
    the matrix is empty, the full checks run and name the first failure.
    `cheapest` is taken after the checks.
    """

    snr: np.ndarray
    transfer: np.ndarray
    # SNR per unit transfer, 0 where free: the overflow check's ratio, kept
    efficiency: np.ndarray = field(init=False, repr=False, compare=False)
    # Each subcarrier's relays by descending efficiency, ties to the lowest index
    efficiency_order: np.ndarray = field(init=False, repr=False, compare=False)
    # The lowest price of an offer with positive SNR, inf where there is none:
    # a budget below it buys nothing more
    cheapest: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        snr = np.ascontiguousarray(self.snr, dtype=float)
        transfer = np.ascontiguousarray(self.transfer, dtype=float)
        if snr.ndim != 2 or snr.shape != transfer.shape:
            raise ValueError("snr and transfer must be equal-shape 2-D arrays")
        ratio = _fast_efficiency(snr, transfer)
        if ratio is None:
            ratio = _checked_efficiency(snr, transfer)
        order = np.argsort(-ratio, axis=0, kind="stable")
        for name, values in (
            ("snr", snr), ("transfer", transfer), ("efficiency", ratio), ("efficiency_order", order)
        ):
            object.__setattr__(self, name, _read_only(values))
        object.__setattr__(self, "cheapest", float(transfer.min(where=snr > 0.0, initial=math.inf)))

    # The offers in efficiency order, (rank, subcarrier): the flat index and
    # the SNRs and prices it gathers, which SSCPA, the split plan and the
    # relaxed sweep read.  Each is built read-only on its first read, so a
    # matrix that is only parsed or written holds none of them.
    ordered_at = _derived(lambda offers: _read_only(offers.efficiency_order * offers.n + np.arange(offers.n)))
    ordered_snr = _derived(lambda offers: _read_only(offers.snr.take(offers.ordered_at)))
    ordered_transfer = _derived(lambda offers: _read_only(offers.transfer.take(offers.ordered_at)))

    @property
    def m(self) -> int:
        return self.snr.shape[0]

    @property
    def n(self) -> int:
        return self.snr.shape[1]


def _fast_efficiency(snr: np.ndarray, transfer: np.ndarray) -> np.ndarray | None:
    """SNR per unit transfer, 0 where free, if the extremes prove the offers
    valid; else None.

    In Python floats, so nothing warns: both minima are >= 0 (NaN fails);
    twice the largest SNR times M and the largest price times M*N are
    finite, so no SNR sum or running price total can reach inf, even with
    rounding; the largest SNR over the smallest positive price is finite, so
    no ratio overflows; and every paid offer has a positive SNR.
    """
    if snr.size == 0:
        return None
    paid = transfer > 0.0
    cheapest = float(transfer.min(where=paid, initial=math.inf))
    top_snr, top_price = float(snr.max()), float(transfer.max())
    if not (
        float(snr.min()) >= 0.0
        and float(transfer.min()) >= 0.0
        and 2.0 * top_snr * snr.shape[0] < math.inf
        and 2.0 * top_price * snr.size < math.inf
        and top_snr / cheapest < math.inf
        and snr.min(where=paid, initial=math.inf) > 0.0
    ):
        return None
    return np.divide(snr, transfer, out=np.zeros_like(snr), where=paid)


def _checked_efficiency(snr: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """SNR per unit transfer, 0 where free, after each check in turn; the
    first that fails raises its named ValueError."""
    if not np.all((snr >= 0.0) & (snr < np.inf) & (transfer >= 0.0) & (transfer < np.inf)):
        raise ValueError("offers must be finite and non-negative")
    if np.any((snr == 0.0) & (transfer > 0.0)):
        raise ValueError("null offers must carry zero transfer")
    with np.errstate(over="ignore"):  # methods add SNRs per subcarrier, prices overall
        sums = {"SNR sum": snr.sum(axis=0), "running total transfer": np.cumsum(transfer.sum(axis=0))}
    for what, values in sums.items():
        if not np.all(values < np.inf):
            n = int(np.argmax(values == np.inf))
            raise ValueError(f"offers overflow at subcarrier {n}: its {what} is inf")
    with np.errstate(over="ignore"):
        ratio = np.divide(snr, transfer, out=np.zeros_like(snr), where=transfer > 0.0)
    if not np.all(ratio < np.inf):
        m, n = np.argwhere(ratio == np.inf)[0]
        raise ValueError(
            f"offer ({m}, {n}) SNR per unit transfer overflows: {snr[m, n]:g} / {transfer[m, n]:g}"
        )
    return ratio


@dataclass(frozen=True)
class SelectionProblem:
    offers: OfferMatrix
    budget: float
    resolution: int = 1000

    def __post_init__(self) -> None:
        _check_budget(self.budget)
        if self.budget < _FLOAT_TINY:
            # A budget below the smallest normal float is no budget: it floors
            # to 0 money units, and spends near it are 5e-324 apart, so the
            # relaxation could only spend it rounded, up to twice over.
            object.__setattr__(self, "budget", 0.0)
        _check_resolution(self.resolution)
        # Prices become whole money units in int64; at 2**53 and above the
        # float product is no longer exact and can overflow the cast.  The
        # product rises with the price, so the largest price decides, in
        # Python floats: inf without a warning.
        transfer = self.offers.transfer
        if transfer.size and float(transfer.max()) * float(self.resolution) >= _EXACT_UNITS:
            with np.errstate(over="ignore"):
                priced = transfer * self.resolution
            m, n = np.unravel_index(int(priced.argmax()), priced.shape)
            raise ValueError(
                f"offer ({m}, {n}) transfer {self.offers.transfer[m, n]:g} at resolution "
                f"{self.resolution} is 2**53 money units or more"
            )

    _split_caps = _derived(lambda problem: _cap_splits(problem))
    _split_plan = _derived(lambda problem: _plan_splits(problem))


@dataclass(frozen=True)
class SelectionResult:
    subsets: tuple[tuple[int, ...], ...]
    capacity: float
    spend: float
    method: SelectionMethod


def _check_subsets(offers: OfferMatrix, subsets: Sequence[Sequence[int]]) -> None:
    if len(subsets) != offers.n:
        raise ValueError(f"expected {offers.n} subsets, got {len(subsets)}")
    for sub in subsets:
        for m in sub:
            _check_integer("relay index", m)
            if not 0 <= m < offers.m:
                raise ValueError("relay index out of range")
        if len(set(sub)) != len(sub):
            raise ValueError("relay index repeated within a subcarrier")


def _sequential_sum(values) -> float:
    """Left-to-right float sum; the builtin `sum` compensates floats from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _totals(offers: OfferMatrix, subsets: Sequence[Sequence[int]]) -> tuple[float, float]:
    """Capacity and spend in one pass; every sum adds left to right, as `_sequential_sum` does.
    An empty subset adds nothing: its log2(1) = 0.0 and price 0.0 leave sums >= +0.0 as they are."""
    width = offers.n
    flat = np.array([m * width + n for n, sub in enumerate(subsets) for m in sub], dtype=np.intp)
    snrs, prices = offers.snr.take(flat).tolist(), offers.transfer.take(flat).tolist()
    cap = spend = 0.0
    i = 0
    for sub in subsets:
        if not len(sub):
            continue
        snr = price = 0.0
        for _ in sub:
            snr += snrs[i]
            price += prices[i]
            i += 1
        cap += math.log2(1.0 + snr)
        spend += price
    return cap, spend


def capacity(offers: OfferMatrix, subsets: Sequence[Sequence[int]]) -> float:
    """Total capacity sum_n log2(1 + sum of selected SNRs), bits/symbol."""
    _check_subsets(offers, subsets)
    return _totals(offers, subsets)[0]


def total_spend(offers: OfferMatrix, subsets: Sequence[Sequence[int]]) -> float:
    """Total transfers paid for the selection."""
    _check_subsets(offers, subsets)
    return _totals(offers, subsets)[1]


def _result(
    offers: OfferMatrix,
    subsets: Sequence[Sequence[int]],
    method: SelectionMethod,
) -> SelectionResult:
    # The library built these subsets itself, so they skip `_check_subsets`;
    # an empty one is `()` without a sort.
    clean = tuple([tuple(sorted(sub)) if sub else () for sub in subsets])
    cap, spend = _totals(offers, clean)
    return SelectionResult(subsets=clean, capacity=cap, spend=spend, method=method)


def knapsack_01(
    snr_col: np.ndarray,
    transfer_col: np.ndarray,
    sub_budget: float,
    resolution: int,
) -> list[int]:
    """Exact 0-1 knapsack on one subcarrier's offers, discretized to money units.

    Transfers round up and the budget rounds down at `resolution` units per
    1.0 of money, each past a 1e-9-unit snap against float noise: a price
    within 1e-9 units above a whole unit rounds down to it, and the budget
    within 1e-9 units below one rounds up.  So the selection may overdraw
    the sub-budget by up to (offers taken + 1) * 1e-9 / resolution of
    money, plus float rounding.  Returns the selected relay indices in
    ascending order.  Raises ValueError on a sub-budget or a price that is
    not finite and non-negative or is 2**53 money units or more (as
    `SelectionProblem` does for prices), and rather than allocate more than
    2**28 bytes by the bound (usable offers + 16) x width: the bool table
    plus two float rows of the width.  The table holds
    one row fewer than the usable offers: the first row is a fill, as the
    best values are all zero before it, and the traceback reads the last
    item's row in one cell, at the sub-budget's units, so one comparison
    decides it.
    """
    gammas = np.asarray(snr_col, dtype=float)
    transfers = np.asarray(transfer_col, dtype=float)
    if gammas.shape != transfers.shape or gammas.ndim != 1:
        raise ValueError("snr and transfer columns must be equal-length vectors")
    _check_budget(sub_budget, "sub-budget")
    _check_resolution(resolution)
    if float(sub_budget) * resolution >= _EXACT_UNITS:  # a Python float: inf without a warning
        raise ValueError(
            f"sub-budget {sub_budget:g} at resolution {resolution} is 2**53 money units or more"
        )

    units = int(_money_units(sub_budget, resolution))
    items, item_weights, item_gammas = [], [], []  # the usable offers
    for m, (g, t) in enumerate(zip(gammas.tolist(), transfers.tolist())):
        if not 0.0 <= t < math.inf:
            raise ValueError(f"offer {m} price must be finite and non-negative, got {t}")
        priced = t * resolution  # a Python float: inf where it overflows, without a warning
        if priced >= _EXACT_UNITS:
            raise ValueError(f"offer {m} price {t:g} at resolution {resolution} is 2**53 money units or more")
        w = math.ceil(priced - _UNIT_SNAP)  # `_price_units` on one price
        if g > 0.0 and w <= units:
            items.append(m)
            item_weights.append(w)
            item_gammas.append(g)
    if not items:
        return []

    # best[c]: top SNR sum within capacity c over the items seen so far;
    # took[i, c]: item i improved best[c].  Capacities below an item's
    # weight never take it, so each step touches only best[w:].  Every
    # usable SNR is positive, so the first item takes every capacity it fits.
    width = units + 1
    if (len(items) + 16) * width > _MAX_ARRAY_BYTES:
        raise _table_refusal(len(items), width)
    best = np.zeros(width)
    scratch = np.empty(width)
    took = np.zeros((len(items) - 1, width), dtype=bool)
    if len(items) > 1:
        took[0, item_weights[0]:] = True
        best[item_weights[0]:] = item_gammas[0]
    for i in range(1, len(items) - 1):
        w, g = item_weights[i], item_gammas[i]
        reach = best[w:]
        cand = np.add(best[: width - w], g, out=scratch[: width - w])
        np.greater(cand, reach, out=took[i, w:])
        np.maximum(reach, cand, out=reach)

    chosen: list[int] = []
    remaining = units
    if best[units - item_weights[-1]] + item_gammas[-1] > best[units]:  # the last item's took cell
        chosen.append(items[-1])
        remaining -= item_weights[-1]
    for i in range(len(items) - 2, -1, -1):
        if took[i, remaining]:
            chosen.append(items[i])
            remaining -= item_weights[i]
    chosen.reverse()
    return chosen


def _table_refusal(usable: int, width: int) -> ValueError:
    return ValueError(
        f"knapsack table of {usable} usable offers x {width} money units "
        f"needs more than 2**28 bytes; lower the resolution"
    )


def _price_units(transfers: np.ndarray, resolution: int) -> np.ndarray:
    """Non-negative transfers in whole money units (exact float integers), rounded up as charged."""
    return np.ceil(transfers * resolution - _UNIT_SNAP)


def weight_profile(offers: OfferMatrix, kind: SelectionMethod | str) -> np.ndarray:
    """Per-subcarrier budget weights: equal, mean-efficiency, or net-efficiency."""
    row = _split_row(kind)
    if row == 0:  # ESW
        return np.ones(offers.n)
    if row == 1:  # ASW
        if offers.m == 0:
            return np.zeros(offers.n)
        return offers.efficiency.sum(axis=0) / offers.m
    sum_t = offers.transfer.sum(axis=0)
    return np.divide(offers.snr.sum(axis=0), sum_t, out=np.zeros(offers.n), where=sum_t > 0.0)


@dataclass
class _SplitCaps:
    """One row per split, ESW, ASW, NSW: its budget shares and their caps,
    and the cheapest-offer proof that no split can use any offer."""

    weight_sums: np.ndarray  # (3,) each split's budget weights summed, inf where they overflow
    sub_budgets: np.ndarray  # (3, N) budget shares
    caps: np.ndarray  # (3, N) the shares in `knapsack_01`'s money units, NaN where weights sum to 0
    nothing_fits: bool  # the cheapest offer's units lie above every cap, so every split is empty


def _cap_splits(problem: SelectionProblem) -> _SplitCaps:
    """Each split's budget shares, their caps, and the cheapest-offer proof.

    An offer is usable under a cap where its SNR is positive and its
    `_price_units` fit the cap; a NaN cap makes nothing usable.  The units
    rise with the price, so where `OfferMatrix.cheapest`'s units lie above
    the largest non-NaN cap, no offer is usable under any cap, and every
    split takes nothing.
    """
    offers, resolution = problem.offers, problem.resolution
    with np.errstate(over="ignore", invalid="ignore"):  # weight sums of inf or 0, inf shares
        weights = np.array([weight_profile(offers, kind) for kind in _SPLIT_KINDS])
        weight_sums = weights.sum(axis=1)
        sub_budgets = weights * problem.budget / weight_sums[:, None]
        caps = _money_units(sub_budgets, resolution)
    top = np.fmax.reduce(caps, axis=None, initial=-math.inf)  # NaN caps fit nothing
    return _SplitCaps(weight_sums, sub_budgets, caps, bool(_price_units(offers.cheapest, resolution) > top))


@dataclass
class _SplitPlan:
    """One row per split, ESW, ASW, NSW.  The bounds order the splits, and
    each row's terms - estimates the knapsacks of its split."""

    units: np.ndarray  # (M, N) each offer's price in money units, rounded up as charged
    usable: np.ndarray  # (3, M, N) the offers each cap lets `knapsack_01` use, in relay order
    terms: np.ndarray  # (3, N) log2(1 + each subcarrier's fractional knapsack optimum)
    estimates: np.ndarray  # (3, N) log2(1 + SNR of the offers each fractional fill buys whole)
    bounds: list[float]  # each split's capacity bound, -inf where its weights overflow


def _plan_splits(problem: SelectionProblem) -> _SplitPlan:
    """Upper bounds on each split's capacity, from the caps stage (`_cap_splits`).

    A subset the split takes on subcarrier n has price units summing to at
    most its cap, and an offer's units are at least t*resolution -
    _UNIT_SNAP, so with weights t*resolution the subset fits room cap +
    M*_UNIT_SNAP.  The fractional optimum fills that room with the usable
    offers in efficiency order, the break offer in part; free offers count
    whole.  A cap of NaN (weights summing to zero) buys nothing, not even a
    free offer: its terms and estimates are 0, as the split takes nothing
    there.  An infinite cap buys every offer.  A split's bound is its terms'
    sum with `_with_margin`, or -inf where its weights overflow, so the
    split refuses to run.  A term's estimate counts only the offers the
    fill buys whole.
    """
    offers, stage = problem.offers, problem._split_caps
    caps = stage.caps[:, None, :]
    units = _price_units(offers.transfer, problem.resolution)
    relay_usable = (offers.snr > 0.0) & (units <= caps)
    usable = relay_usable.reshape(3, -1).take(offers.ordered_at, axis=1)  # in efficiency order
    with np.errstate(over="ignore", invalid="ignore"):  # inf caps, shares of prices near 0
        weight = np.where(usable, offers.ordered_transfer * problem.resolution, 0.0)
        ahead = np.zeros_like(weight)
        np.cumsum(weight[:, :-1, :], axis=1, out=ahead[:, 1:, :])
        room = caps + offers.m * _UNIT_SNAP
        bought = usable.astype(float)  # the share of each offer: all if free, none if unusable
        np.divide(room - ahead, weight, out=bought, where=weight > 0.0)
    np.minimum(np.maximum(bought, 0.0, out=bought), 1.0, out=bought)
    snr = offers.ordered_snr
    terms, estimates = (np.log2(1.0 + (share * snr).sum(axis=1)) for share in (bought, np.floor(bought)))
    bounds = np.where(stage.weight_sums < math.inf, _with_margin(terms.sum(axis=1)), -math.inf)
    return _SplitPlan(units, relay_usable, terms, estimates, bounds.tolist())


def weighted_split_selection(
    problem: SelectionProblem,
    kind: SelectionMethod | str,
    *,
    floor: float = -math.inf,
    _solved: dict[int, list[tuple]] | None = None,
) -> SelectionResult:
    """Split the budget by a weight profile, then solve one knapsack per subcarrier.

    Unspent per-subcarrier remainders are not redistributed.  Where a
    subcarrier's usable offers (those `knapsack_01` would consider) all fit
    its share together, including none, the split makes no knapsack call:
    there the DP's best value at every capacity from the offers' running
    weight up is their running float sum, so its traceback takes an offer
    exactly when its SNR moves that sum (a 1e-17 after a 100 is left out).

    The split keeps a running upper bound on its capacity: the sum of its
    per-subcarrier fractional-knapsack terms (`_plan_splits`), or the
    lower exact terms earlier splits left (`_solved`, below), in which
    each knapsack's exact log2(1 + SNR sum) replaces its subcarrier's term
    once solved.  Before each knapsack, if `_with_margin(bound)` < `floor`,
    the split stops and returns what it has: the all-fit subcarriers, the
    solved ones, and the rest empty.  That selection is feasible and its
    capacity is below `floor`.  With no floor it never stops.  It solves
    its knapsacks by descending plan term - estimate, the plan's guess at each
    one's drop of the bound, ties in index order, so a losing split crosses
    `floor` sooner.  Subcarriers are independent, so a split that does not
    stop returns what it would with no floor.

    `_solved`, private to `overall_heuristic`, maps a subcarrier to the
    knapsacks earlier splits of the same call solved there, as
    (cap, subset, log2(1 + the subset's SNR sum)) tuples by ascending cap,
    and the split adds its own.  For each subcarrier it must solve, the
    split looks up the one solved at the smallest cap u >= its own cap u'.
    Its term lowers the running bound there, and its subset S is the
    answer where u = u' or units(S) <= u'; else `knapsack_01` solves it.
    The rule is exact.  Best values never fall as the cap grows, so no
    wider knapsack has a lower term.  One with subset S answers every cap
    in [units(S), u] with S, as the best values are flat there, so if any
    wider one answers u', the nearest does, with the same subset.  A call
    without `_solved` shares nothing.  A cap of 2**53 units or more, which
    `knapsack_01` refuses by its sub-budget, is refused here by the table
    it would need, as the split knows its usable offers.
    """
    row = _split_row(kind)
    kind = _SPLIT_KINDS[row]
    offers, stage, plan = problem.offers, problem._split_caps, problem._split_plan
    if plan.bounds[row] == -math.inf:
        raise ValueError(f"{kind.value} budget weights overflow: their sum is inf")
    resolution, sub_budgets, caps = problem.resolution, stage.sub_budgets[row], stage.caps[row]
    units, usable = plan.units, plan.usable[row]
    # Float sums of whole units are exact below 2**53 and stay at or above it, where int64
    # sums of many prices near 2**53 units would wrap.  A NaN cap fits: nothing under it is usable.
    fits = ~(np.where(usable, units, 0.0).sum(axis=0) > caps)
    running = np.where(usable, offers.snr, 0.0).cumsum(axis=0)
    taken = usable & fits
    taken[1:] &= running[1:] > running[:-1]
    subsets: list[list[int]] = [[] for _ in range(offers.n)]
    rows, cols = np.nonzero(taken)
    for m, n in zip(rows.tolist(), cols.tolist()):
        subsets[n].append(m)
    terms = plan.terms[row].tolist()
    solve = np.flatnonzero(~fits)
    if solve.size > 1:  # largest estimated bound drop first; ties in index order
        solve = solve[np.argsort(plan.estimates[row, solve] - plan.terms[row, solve], kind="stable")]
    solve = solve.tolist()
    nearest = {}  # per subcarrier, the knapsack solved at the smallest cap >= this split's
    if _solved:
        for n in solve:
            for entry in _solved.get(n, ()):  # by ascending cap
                if entry[0] >= caps[n]:
                    nearest[n] = entry
                    terms[n] = min(terms[n], entry[2])
                    break
    bound = _sequential_sum(terms)
    for n in solve:
        if _with_margin(bound) < floor:
            break
        cap, entry = caps[n], nearest.get(n)
        if entry is None or cap != entry[0] and float(units[entry[1], n].sum()) > cap:
            if cap >= _EXACT_UNITS:
                raise _table_refusal(int(np.count_nonzero(usable[:, n])), int(cap) + 1)
            snr_col = offers.snr[:, n]
            subset = knapsack_01(snr_col, offers.transfer[:, n], sub_budgets[n], resolution)
            entry = (cap, subset, math.log2(1.0 + _sequential_sum(snr_col[subset].tolist())))
            if _solved is not None:
                bisect.insort(_solved.setdefault(n, []), entry)
        subsets[n] = entry[1]
        bound += entry[2] - terms[n]
    return _result(offers, subsets, kind)


def sscpa(problem: SelectionProblem) -> SelectionResult:
    """Sequential allocation: round-robin the subcarriers, each visit taking
    the most efficient unallocated offer that fits the remaining budget
    (ties to the lowest relay index); stops once a full pass allocates nothing.

    A cursor walks each subcarrier's offers in `efficiency_order`.  The
    remaining budget never grows, so an offer that does not fit on one visit
    never fits later: the cursor passes it for good, and the first offer at
    the cursor that fits is the pick.  A declined offer (SNR 0) is priced
    at inf, so every cursor passes it.  A pass visits only the live
    columns, those whose cursor has not reached the end, in index order.
    A visit either allocates or ends its column, so the walk stops when no
    column is live, where a full pass would allocate nothing.  It also
    stops once an allocation leaves less than `OfferMatrix.cheapest`: from
    there every visit would end its column.
    """
    offers = problem.offers
    size = offers.m
    prices = np.where(offers.ordered_snr > 0.0, offers.ordered_transfer, math.inf).T.tolist()
    relays = offers.efficiency_order.T.tolist()
    cursors = [0] * offers.n
    remaining, cheapest = problem.budget, offers.cheapest
    subsets: list[list[int]] = [[] for _ in range(offers.n)]
    live = range(offers.n) if size else ()
    while live:
        kept = []
        for n in live:
            column, i = prices[n], cursors[n]
            while i < size and column[i] > remaining:
                i += 1
            if i < size:
                subsets[n].append(relays[n][i])
                remaining -= column[i]
                if remaining < cheapest:
                    kept = []
                    break
                i += 1
                if i < size:
                    kept.append(n)
            cursors[n] = i
        live = kept
    return _result(offers, subsets, SelectionMethod.SSCPA)


def overall_heuristic(problem: SelectionProblem) -> SelectionResult:
    """Best of the ESW/ASW/NSW splits and SSCPA; ties keep the earlier method.

    SSCPA runs first.  Where the caps stage proves that no split can use
    any offer (`_cap_splits`), every split is the empty selection, capacity
    0.0: if SSCPA's capacity is above 0.0 it is the result, and the split
    plan is never built.  At 0.0 the splits run, so ESW's empty selection
    keeps the tie.  Otherwise the splits run by descending `_plan_splits`
    bound, equal bounds in ESW, ASW, NSW order, so the likeliest winner
    raises the best capacity so far early.  A split whose bound is below
    that best cannot win and does not run.  One that runs gets the best as
    its `floor` and stops once its running bound falls below it, with a
    capacity below the final best.  The result is the first maximum, in
    ESW, ASW, NSW, SSCPA order, among the candidates that ran.  Only a
    candidate below the final best is skipped or stops, so the result is
    that of all four run in full, ties included.  The splits share the
    knapsacks they solve (`weighted_split_selection`): on each subcarrier
    a later split looks up the one solved at the nearest cap at or above
    its own.  Its exact term bounds the split there, and its subset, where
    that cap is the split's or the subset's units fit the split's cap, is
    the subset a `knapsack_01` call would return, taken without one.  An
    ASW or NSW split whose budget weights overflow has bound -inf and never
    runs; ESW's weights are ones, so ESW and SSCPA always compete.  The
    selection is feasible, so its capacity never exceeds
    `exhaustive_optimum`. It does not dominate `best_snr_baseline` on
    every instance: each candidate commits money per subcarrier, and the
    greedy's global packing can win.  The ordering holds on average only.
    """
    ran = [None, None, None, sscpa(problem)]  # by rank: ESW, ASW, NSW, SSCPA
    best = ran[3].capacity
    if not (problem._split_caps.nothing_fits and best > 0.0):
        bounds = problem._split_plan.bounds
        solved: dict[int, list[tuple]] = {}  # the knapsacks the splits solve, for the later ones
        for row in sorted(range(3), key=bounds.__getitem__, reverse=True):  # stable on ties
            if bounds[row] < best:
                break
            ran[row] = weighted_split_selection(problem, _SPLIT_KINDS[row], floor=best, _solved=solved)
            best = max(best, ran[row].capacity)
    winner = max([result for result in ran if result is not None], key=lambda r: r.capacity)
    return SelectionResult(winner.subsets, winner.capacity, winner.spend, SelectionMethod.OVERALL)


def best_snr_baseline(problem: SelectionProblem) -> SelectionResult:
    """Greedy by raw SNR across all offers, skipping what no longer fits.

    The selection is feasible, so its capacity never exceeds
    `exhaustive_optimum`. Neither this greedy nor `overall_heuristic`
    dominates the other on every instance; on average the heuristic wins.
    The walk stops once a purchase leaves less than `OfferMatrix.cheapest`,
    where no later offer fits.
    """
    offers = problem.offers
    snr = offers.snr.T.ravel()  # subcarrier-major, so stable ties fall by subcarrier, then relay
    order = np.argsort(-snr, kind="stable")[: np.count_nonzero(snr > 0.0)]
    ns, ms = np.divmod(order, offers.m)
    remaining, cheapest = problem.budget, offers.cheapest
    subsets: list[list[int]] = [[] for _ in range(offers.n)]
    for m, n, t in zip(ms.tolist(), ns.tolist(), offers.transfer[ms, ns].tolist()):
        if t <= remaining:
            subsets[n].append(m)
            remaining -= t
            if remaining < cheapest:
                break
    return _result(offers, subsets, SelectionMethod.BEST_SNR)


def relaxed_upper_bound(problem: SelectionProblem) -> float:
    """Upper bound on the selection optimum: the optimum of its fractional
    relaxation, max sum_n log2(1 + sum_m x*snr) over 0 <= x <= 1 and the
    budget, exact up to rounding.
    """
    offers = problem.offers
    budget = problem.budget
    free = (offers.transfer == 0.0) & (offers.snr > 0.0)
    base_snr = np.where(free, offers.snr, 0.0).sum(axis=0)
    if float(offers.transfer.sum()) <= budget:
        buyable = (offers.transfer > 0.0) & (offers.snr > 0.0)
        return float(
            np.log2(1.0 + base_snr + np.where(buyable, offers.snr, 0.0).sum(axis=0)).sum()
        )
    return float(np.log2(1.0 + _breakpoint_sweep(offers, budget, base_snr)[0]).sum())


def _breakpoint_sweep(offers: OfferMatrix, budget: float, base_snr: np.ndarray):
    """The relaxation's optimal SNR per subcarrier, mu* and the spend there,
    for a budget below the offers' total price (b_n = `base_snr`).

    With mu = 1/lambda, subcarrier n buys offers in efficiency order until
    1 + b_n + S_n = e_j*mu/ln2.  Offer j is fractional from mu = floor_j*ln2/e_j
    (floor_j: 1 + b_n + the SNR of the offers ahead of it) to that plus
    t_j*ln2, its spend rising with slope 1/ln2: spend is piecewise linear in mu.
    The offers are read in efficiency order as `OfferMatrix` gathered them,
    the SNRs whole for the running sums and the rest only at the paid
    offers, rank by rank.
    """
    n, at = offers.n, offers.ordered_at
    snr, price = offers.ordered_snr, offers.ordered_transfer
    ahead = np.zeros_like(snr)
    np.cumsum(snr[:-1], axis=0, out=ahead[1:])
    paid = np.flatnonzero(price > 0.0)
    cols = paid % n
    with np.errstate(divide="ignore", over="ignore"):
        # An offer too inefficient for a finite mu starts at the largest float.
        eff = offers.efficiency.take(at.take(paid))
        start = np.minimum((ahead.take(paid) + (1.0 + base_snr).take(cols)) * _LN2 / eff, _FLOAT_MAX)
        gain, price = snr.take(paid), price.take(paid)
        width = price * _LN2
        end, count = start + width, start.size
        # Spend times ln2 at each breakpoint.  At one mu, starts sort first,
        # then the narrowest end.  An end adds its offer's exact width, not
        # the rounded one it swept, so an offer narrower than the float
        # spacing of its mu keeps its spend.
        events = np.concatenate([start, end])
        ranked = np.lexsort((np.concatenate([np.zeros(count), width]), events))
        mus = events[ranked]
        active = np.cumsum(np.where(ranked < count, 1, -1))
        steps = np.concatenate([np.zeros(count), width - (end - start)])[ranked]
        steps[1:] += active[:-1] * (mus[1:] - mus[:-1])
        spend = np.cumsum(steps)
        k = min(int(np.searchsorted(spend, budget * _LN2, side="right")) - 1, 2 * count - 2)
        step = (budget * _LN2 - spend[k]) / active[k]
        # Offers ending by breakpoint k are bought, those starting after it
        # are not, and the rest are measured from their own start.
        passed = np.zeros(2 * count, dtype=bool)
        passed[ranked[: k + 1]] = True
        share = np.minimum(np.maximum((mus[k] - start + step) / width, 0.0), 1.0)
        bought = np.where(passed[count:], 1.0, np.where(passed[:count], share, 0.0))
    return base_snr + np.bincount(cols, bought * gain, n), mus[k] + step, bought @ price


def exhaustive_optimum(problem: SelectionProblem) -> SelectionResult:
    """Brute-force optimum over all inclusion vectors; refuses M*N > 20."""
    offers = problem.offers
    if offers.m * offers.n > 20:
        raise ValueError(
            f"instance too large for exhaustive search: M*N = {offers.m * offers.n} > 20"
        )
    ms, ns = np.nonzero(offers.snr > 0.0)
    cells = list(zip(ms.tolist(), ns.tolist()))
    count = len(cells)
    gamma_cells = offers.snr[ms, ns] if count else np.empty(0)
    t_cells = offers.transfer[ms, ns] if count else np.empty(0)

    best_cap = -1.0
    best_mask = 0
    chunk = 1 << 16
    for start in range(0, 1 << count, chunk):
        stop = min(start + chunk, 1 << count)
        masks = np.arange(start, stop, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(count)) & 1).astype(float)
        spends = bits @ t_cells if count else np.zeros(len(masks))
        caps = np.zeros(len(masks))
        for n in range(offers.n):
            idx = np.nonzero(ns == n)[0]
            if idx.size:
                caps += np.log2(1.0 + bits[:, idx] @ gamma_cells[idx])
        caps[spends > problem.budget] = -np.inf
        i = int(np.argmax(caps))
        if caps[i] > best_cap:
            best_cap = float(caps[i])
            best_mask = start + i

    subsets: list[list[int]] = [[] for _ in range(offers.n)]
    for i, (m, n) in enumerate(cells):
        if (best_mask >> i) & 1:
            subsets[n].append(m)
    return _result(offers, subsets, SelectionMethod.EXHAUSTIVE)


# -- CSV wire formats ------------------------------------------------------


def offers_to_csv(offers: OfferMatrix) -> str:
    """Offers wire format; `repr` floats make `offers_from_csv` read it back exactly."""
    lines = [_CSV_HEADER]
    for m in range(offers.m):
        for n in range(offers.n):
            lines.append(
                f"{m},{n},{float(offers.snr[m, n])!r},{float(offers.transfer[m, n])!r}"
            )
    return "\n".join(lines) + "\n"


def _chunks(text: str, begin: int = 0):
    """Pieces of `text` from `begin` of about _CSV_CHUNK characters, each cut
    after a newline and so at a line boundary of `text.splitlines()`."""
    while begin < len(text):
        cut = text.find("\n", begin + _CSV_CHUNK) + 1 or len(text)
        yield text[begin:cut]
        begin = cut


def _nonblank_lines(text: str):
    """(number, line) of each non-blank line as `text.splitlines()` numbers them."""
    lineno = 0
    for chunk in _chunks(text):
        for line in chunk.splitlines():
            lineno += 1
            if line.strip():
                yield lineno, line


def _plain_columns(chunk: str) -> np.ndarray | None:
    """The (4, lines) m, n, gamma, transfer columns of a chunk of plain offer
    lines, or None if the chunk is not plain.

    Plain lines are ASCII and end in LF.  Each has three commas and no empty
    field; its indices are 1-9 digits and its values use `0-9 . e E + -`
    only.  numpy's strtod reads such fields as the line loop's int and float
    do, and it must read the whole chunk.
    """
    if not chunk.isascii():
        return None
    body = chunk.encode("ascii")
    if not body.endswith(b"\n") or body.translate(None, _CSV_PLAIN_BYTES):
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    is_sep = (raw == 44) | (raw == 10)  # ',' and LF
    seps = np.flatnonzero(is_sep)
    if seps.size % 4 or not np.all(raw[seps].reshape(-1, 4) == (44, 44, 44, 10)):
        return None
    widths = np.diff(seps, prepend=-1).reshape(-1, 4) - 1
    if widths.min() < 1 or widths[:, :2].max() > 9:
        return None
    marks = np.flatnonzero(~is_sep & ((raw < 48) | (raw > 57)))  # . e E + -
    if np.any(np.searchsorted(seps, marks) % 4 < 2):  # in an index field
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a partial read may only warn
            values = np.fromstring(body.replace(b"\n", b","), sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != seps.size:
        return None
    return values.reshape(-1, 4).T


def _cells(ms: array, ns: array) -> tuple[int, np.ndarray]:
    """Width n_span and flat index m * n_span + n of each parsed entry."""
    n_span = int(np.frombuffer(ns, dtype=np.int64).max(initial=0)) + 1
    cells = np.frombuffer(ms, dtype=np.int64) * n_span
    cells += np.frombuffer(ns, dtype=np.int64)
    return n_span, cells


def _repeat_error(text: str, n_span: int, cells: np.ndarray) -> ValueError | None:
    """The error for the first entry whose cell an earlier one has, if any."""
    order = np.argsort(cells, kind="stable")  # each cell's entries in file order
    ordered = cells[order]
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
    if repeats.size == 0:
        return None
    repeat = int(order[repeats + 1].min())
    first = int(order[np.searchsorted(ordered, cells[repeat])])
    first_line, repeat_line = (
        next(itertools.islice(_nonblank_lines(text), entry + 1, None))[0]
        for entry in (first, repeat)
    )
    m, n = divmod(int(cells[repeat]), n_span)
    return ValueError(f"line {repeat_line}: offer ({m}, {n}) repeats line {first_line}")


def offers_from_csv(text: str) -> OfferMatrix:
    """Parse the offers wire format; raises ValueError naming the bad line.

    After an exact header line, each chunk of plain lines (`_plain_columns`)
    is read as arrays; a line loop reads every other chunk and raises every
    parse error.  Entries go into flat arrays.  A stable sort of their cells
    finds a repeated offer, and one scatter fills each matrix.  Errors come
    in line order, and the size cap is checked last, before allocating.
    """
    ms, ns, gs, ts = array("q"), array("q"), array("d"), array("d")
    m_max = n_max = 0
    header = text.startswith(_CSV_HEADER + "\n")
    lineno = 1 if header else 0
    no_header = ValueError(f"line 1: expected header '{_CSV_HEADER}'")
    try:
        for chunk in _chunks(text, len(_CSV_HEADER) + 1 if header else 0):
            columns = _plain_columns(chunk) if header else None
            if columns is not None:
                index = columns[:2].astype(np.int64)
                m_max = max(m_max, int(index[0].max()) + 1)
                n_max = max(n_max, int(index[1].max()) + 1)
                ms.frombytes(index[0].tobytes())
                ns.frombytes(index[1].tobytes())
                gs.frombytes(columns[2].tobytes())
                ts.frombytes(columns[3].tobytes())
                lineno += columns.shape[1]
                continue
            for line in chunk.splitlines():
                lineno += 1
                if not line.strip():
                    continue
                if not header:
                    if line.strip() != _CSV_HEADER:
                        raise no_header
                    header = True
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: expected 4 comma-separated fields")
                try:
                    m, n = int(parts[0]), int(parts[1])
                    g, t = float(parts[2]), float(parts[3])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                if m < 0 or n < 0:
                    raise ValueError(f"line {lineno}: negative relay or subcarrier index")
                m_max, n_max = max(m_max, m + 1), max(n_max, n + 1)
                # An index the size cap rejects anyway is stored as a stand-in no
                # other entry shares, which keeps the cells within int64.
                ms.append(m if m < _CSV_HUGE_INDEX else _CSV_HUGE_INDEX + len(ms))
                ns.append(n if n < _CSV_HUGE_INDEX else _CSV_HUGE_INDEX + len(ns))
                gs.append(g)
                ts.append(t)
        if not header:
            raise no_header
    except ValueError as exc:  # unless the entries above it already repeat a cell
        raise _repeat_error(text, *_cells(ms, ns)) or exc from None
    n_span, cells = _cells(ms, ns)
    del ms, ns
    error = _repeat_error(text, n_span, cells)
    if error is not None:
        raise error
    if 2 * 8 * m_max * n_max > _MAX_ARRAY_BYTES:
        raise ValueError(
            f"offers span {m_max} relays x {n_max} subcarriers: "
            "their SNR and transfer arrays would exceed 2**28 bytes"
        )
    # Within the cap every index is exact and n_span is n_max.
    # Each flat array goes as soon as it is used, for a lower peak.
    snr = np.zeros(m_max * n_max)
    snr[cells] = np.frombuffer(gs)
    del gs
    transfer = np.zeros(m_max * n_max)
    transfer[cells] = np.frombuffer(ts)
    del ts, cells
    return OfferMatrix(snr.reshape(m_max, n_max), transfer.reshape(m_max, n_max))


def selection_to_csv(results: Sequence[SelectionResult], bounds: dict | None = None) -> str:
    """Rows (method, n, selected_m_list, capacity, spend); capacity and spend
    are those of the method's whole selection.  `bounds` adds subset-free
    rows, e.g. the relaxed upper bound.  Each relay index is made text once
    per call, and an empty subset is an empty field without a join."""
    lines = ["method,n,selected_m_list,capacity,spend"]
    top = max([max(map(max, filter(None, res.subsets)), default=-1) for res in results], default=-1)
    text = list(map(str, range(top + 1))).__getitem__
    for res in results:
        head, tail = f"{SelectionMethod(res.method).value},", f",{res.capacity:.12g},{res.spend:.12g}"
        picks = [";".join(map(text, sub)) if sub else "" for sub in res.subsets]
        lines += [f"{head}{n},{pick}{tail}" for n, pick in enumerate(picks)]
    for name, value in (bounds or {}).items():
        lines.append(f"{name},,,{value:.12g},")
    return "\n".join(lines) + "\n"
