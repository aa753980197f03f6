"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the full batch stays inside the stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from conftest import make_random_grid
from relaycontracts import (
    ExperimentConfig,
    Information,
    MenuKind,
    OfferMatrix,
    SelectionMethod,
    SelectionProblem,
    TypeDistribution,
    TypeGrid,
    accepted_offers,
    best_snr_baseline,
    exhaustive_optimum,
    first_best_contract,
    first_best_menu,
    knapsack_01,
    overall_heuristic,
    relaxed_upper_bound,
    reproduce_table3,
    run_experiment,
    second_best_menu,
    select_best_contract,
    simulate_round,
    sscpa,
    verify_menu,
    weighted_split_selection,
)
from relaycontracts.simulate import _trial_rng

TABLE3 = [
    # delta, fb_db, fb_t, sb_db, sb_t, rent
    (50, 15.4490, 0.7013, 9.0401, 0.1603, 0.0),
    (75, 17.2510, 0.7080, 12.3131, 0.2806, 0.0534),
    (100, 18.5208, 0.7113, 14.6324, 0.4008, 0.1102),
    (125, 19.5021, 0.7133, 16.4428, 0.5210, 0.1683),
    (150, 20.3020, 0.7147, 17.9322, 0.6412, 0.2271),
    (175, 20.9773, 0.7156, 19.1990, 0.7615, 0.2863),
    (200, 21.5615, 0.7163, 20.3020, 0.8817, 0.3457),
    (225, 22.0764, 0.7169, 21.2794, 1.0019, 0.4052),
    (250, 22.5367, 0.7173, 22.1564, 1.1221, 0.4649),
    (275, 22.9528, 0.7177, 22.9528, 1.2424, 0.5246),
]

DB_TOL = 1e-3
MONEY_TOL = 5e-4


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _reference_grid() -> TypeGrid:
    dist = TypeDistribution.uniform(50.0, 300.0)
    return TypeGrid.from_distribution(dist, 10, 16)


def _random_offers(rng, m_max, n_max):
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    snr = rng.uniform(0.2, 25.0, (m, n))
    transfer = rng.uniform(0.05, 2.5, (m, n))
    null = rng.random((m, n)) < 0.2
    snr[null] = 0.0
    transfer[null] = 0.0
    return OfferMatrix(snr, transfer)


def test_criterion_1_table3_reproduction():
    start = time.perf_counter()
    rows = reproduce_table3(1.0)
    elapsed = time.perf_counter() - start
    ok = len(rows) == 10 and elapsed < 1.0
    for row, (delta, fb_db, fb_t, sb_db, sb_t, rent) in zip(rows, TABLE3):
        ok = ok and row.delta == delta
        ok = ok and abs(row.fb_snr_db - fb_db) <= DB_TOL
        ok = ok and abs(row.fb_transfer - fb_t) <= MONEY_TOL
        ok = ok and abs(row.sb_snr_db - sb_db) <= DB_TOL
        ok = ok and abs(row.sb_transfer - sb_t) <= MONEY_TOL
        ok = ok and abs(row.rent - rent) <= MONEY_TOL
    _criterion(
        1, f"reference contract table reproduced to tolerance in {elapsed * 1e3:.0f} ms", ok
    )


def test_criterion_2_no_distortion_at_top():
    grid = _reference_grid()
    menu = second_best_menu(grid, 1.0)
    fb = first_best_contract(275.0, 1.0)
    same_bits = menu.pairs[-1].snr == fb.snr
    printed = (
        f"{10.0 * math.log10(menu.pairs[-1].snr):.4f}",
        f"{10.0 * math.log10(fb.snr):.4f}",
    )
    ok = same_bits and printed == ("22.9528", "22.9528")
    _criterion(2, "top second-best SNR is bitwise first-best (22.9528 dB)", ok)


def test_criterion_3_ic_ir_property_suite():
    grid = _reference_grid()
    audit = verify_menu(second_best_menu(grid, 1.0))
    ok = audit.all_ok

    rng = np.random.default_rng(2024)
    for _ in range(100):
        random_grid = make_random_grid(rng)
        menu = second_best_menu(random_grid, float(rng.uniform(0.1, 10.0)))
        ok = ok and verify_menu(menu).all_ok

    fb_menu = first_best_menu(grid, 1.0)
    fb_audit = verify_menu(fb_menu)
    ok = ok and not bool(fb_audit.ic_matrix.all())
    for delta in grid.deltas:
        ok = ok and select_best_contract(fb_menu, float(delta)) == 0
    _criterion(
        3,
        "IC/IR audit clean on the reference menu and 100 random grids; "
        "first-best menu fails IC and collapses to contract 1",
        ok,
    )


def test_criterion_4_bracket_selection():
    menu = second_best_menu(_reference_grid(), 1.0)
    deltas = menu.grid.deltas
    rng = np.random.default_rng(404)
    thetas = rng.uniform(50.0, 300.0, 10_000)
    expected = np.searchsorted(deltas, thetas, side="right") - 1
    mismatches = sum(
        1
        for theta, want in zip(thetas, expected)
        if select_best_contract(menu, float(theta)) != want
    )
    _criterion(4, f"bracket selection on 10^4 random types ({mismatches} mismatches)", mismatches == 0)


def test_criterion_5_knapsack_oracle_equivalence():
    rng = np.random.default_rng(505)
    resolution = 1000
    bits_full = (np.arange(1 << 12)[:, None] >> np.arange(12)) & 1
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(1, 13))
        gammas = rng.uniform(0.1, 30.0, m)
        t_units = rng.integers(1, 3000, m)
        transfers = t_units / resolution
        budget_units = int(rng.integers(0, 6000))
        budget = budget_units / resolution

        chosen = knapsack_01(gammas, transfers, budget, resolution)
        value = sum(gammas[i] for i in chosen)

        bits = bits_full[: 1 << m, :m]
        feasible = bits @ t_units <= budget_units
        oracle = float((bits @ gammas)[feasible].max())
        if abs(value - oracle) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _criterion(
        5,
        f"knapsack DP equals subset brute force on 200 instances "
        f"({mismatches} mismatches, {elapsed:.1f} s)",
        ok,
    )


def test_criterion_6_selection_sandwich():
    # The oracle links are pointwise: the best-SNR greedy and the overall
    # heuristic both return feasible selections, so neither may exceed the
    # exhaustive optimum, which in turn may not exceed the relaxed bound.
    # The first link (best-SNR <= overall) is checked as a paired average,
    # which is how the paper states it: no method promises it per instance.
    # The greedy packs the budget across all subcarriers at once while the
    # heuristic family commits money per subcarrier, so the greedy wins on
    # some instances (12 of these 200; pinned counterexample:
    # tests/test_selection.py::test_best_snr_can_beat_the_overall_heuristic).
    # The paired mean must clear twice its standard error; any single budget
    # split in place of the best-of-four would not.
    dist = TypeDistribution.uniform(50.0, 300.0)
    menu = second_best_menu(_reference_grid(), 1.0)
    rng = np.random.default_rng(606)

    greedy_wins = 0
    oracle_violations = 0
    gains = []
    ratios = []
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        types = dist.ppf(rng.random((m, n)))
        offers = accepted_offers(menu, types)
        budget = round(float(rng.uniform(0.5, 1.5)) * n * 1000) / 1000
        problem = SelectionProblem(offers, budget)
        greedy = best_snr_baseline(problem).capacity
        overall = overall_heuristic(problem).capacity
        exact = exhaustive_optimum(problem).capacity
        bound = relaxed_upper_bound(problem)
        if greedy > overall + 1e-6:
            greedy_wins += 1
        if greedy > exact + 1e-6 or overall > exact + 1e-6 or exact > bound + 1e-6:
            oracle_violations += 1
        gains.append(overall - greedy)
        ratios.append(1.0 if exact <= 1e-12 else overall / exact)
    mean_gain = float(np.mean(gains))
    two_se = 2.0 * float(np.std(gains, ddof=1)) / math.sqrt(len(gains))
    mean_ratio = float(np.mean(ratios))
    ok = oracle_violations == 0 and mean_gain > two_se and mean_ratio >= 0.90
    _criterion(
        6,
        f"selection sandwich on 200 instances: best-SNR,overall<=exhaustive<=relaxed "
        f"violated on {oracle_violations}; mean(overall-best-SNR) {mean_gain:.3f} > "
        f"2*SE {two_se:.3f}; overall/exhaustive mean {mean_ratio:.3f} >= 0.90 "
        f"(best-SNR wins on {greedy_wins}, not a failure)",
        ok,
    )


def test_criterion_7_figure_shape_properties():
    start = time.perf_counter()
    m_grid = (2, 6, 10, 14, 18)
    budgets = (8.0, 16.0, 24.0)
    sweep = run_experiment(
        ExperimentConfig(relays=m_grid, budget=budgets, trials=1000, seed=12345)
    )

    # (a) heuristic dominates the best-SNR baseline in every cell
    ok_a = all(
        sweep.get(m, b, "Overall").mean_capacity_per_subcarrier
        >= sweep.get(m, b, "BestSNR").mean_capacity_per_subcarrier
        for m in m_grid
        for b in budgets
    )

    # (b) best-SNR capacity decays with relay count at T=8 beyond M=6
    ok_b = True
    tail = [m for m in m_grid if m >= 6]
    for m_lo, m_hi in zip(tail, tail[1:]):
        lo = sweep.get(m_lo, 8.0, "BestSNR")
        hi = sweep.get(m_hi, 8.0, "BestSNR")
        slack = 2.0 * math.hypot(lo.stderr, hi.stderr)
        ok_b = ok_b and (
            hi.mean_capacity_per_subcarrier
            <= lo.mean_capacity_per_subcarrier + slack
        )

    # (c) relative optimality gap shrinks as the budget grows
    def mean_gap(budget):
        gaps = []
        for m in m_grid:
            relaxed = sweep.get(m, budget, "Relaxed").mean_capacity_per_subcarrier
            overall = sweep.get(m, budget, "Overall").mean_capacity_per_subcarrier
            gaps.append((relaxed - overall) / relaxed)
        return float(np.mean(gaps))

    ok_c = mean_gap(8.0) > mean_gap(24.0)

    # (d) capacity is nearly flat in the quantization factor at T=16
    k_means = [sweep.get(10, 16.0, "Overall").mean_capacity_per_subcarrier]
    for k in (3, 5, 20):
        table = run_experiment(
            ExperimentConfig(relays=10, budget=16.0, quant=k, trials=1000, seed=12345)
        )
        k_means.append(table.get(10, 16.0, "Overall").mean_capacity_per_subcarrier)
    ok_d = (max(k_means) - min(k_means)) / float(np.mean(k_means)) < 0.05

    # (e) information ordering: complete >= asymmetric 2nd-best >= asymmetric 1st-best
    complete = run_experiment(
        ExperimentConfig(
            relays=10, budget=(8.0, 24.0), trials=1000, seed=12345,
            information=Information.COMPLETE,
        )
    )
    firstbest = run_experiment(
        ExperimentConfig(
            relays=10, budget=(8.0, 24.0), trials=1000, seed=12345,
            menu_kind=MenuKind.FIRST_BEST,
        )
    )
    ok_e = True
    for b in (8.0, 24.0):
        comp = complete.get(10, b, "Overall").mean_capacity_per_subcarrier
        asym2 = sweep.get(10, b, "Overall").mean_capacity_per_subcarrier
        asym1 = firstbest.get(10, b, "Overall").mean_capacity_per_subcarrier
        ok_e = ok_e and comp >= asym2 >= asym1

    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and ok_d and ok_e and elapsed < 600.0
    _criterion(
        7,
        f"figure-shape properties a={ok_a} b={ok_b} c={ok_c} d={ok_d} e={ok_e} "
        f"({elapsed:.0f} s)",
        ok,
    )


def test_criterion_8_feasibility_invariant():
    rng = np.random.default_rng(808)
    violations = 0

    for _ in range(150):
        offers = _random_offers(rng, m_max=8, n_max=6)
        budget = float(rng.uniform(0.0, 5.0))
        problem = SelectionProblem(offers, budget)
        results = [
            weighted_split_selection(problem, SelectionMethod.ESW),
            weighted_split_selection(problem, SelectionMethod.ASW),
            weighted_split_selection(problem, SelectionMethod.NSW),
            sscpa(problem),
            overall_heuristic(problem),
            best_snr_baseline(problem),
        ]
        if offers.m * offers.n <= 20:
            results.append(exhaustive_optimum(problem))
        violations += sum(1 for res in results if res.spend > budget)

    for information in (Information.ASYMMETRIC, Information.COMPLETE):
        for menu_kind in (MenuKind.SECOND_BEST, MenuKind.FIRST_BEST):
            config = ExperimentConfig(
                relays=10, budget=16.0, trials=1,
                information=information, menu_kind=menu_kind,
            )
            for trial in range(15):
                res = simulate_round(config, _trial_rng(11, 10, 16.0, trial))
                if res.spend > 16.0:
                    violations += 1
    _criterion(8, f"exact spend <= budget everywhere ({violations} violations)", violations == 0)


def test_criterion_9_dp_scaling():
    rng = np.random.default_rng(909)

    def timed(gammas, transfers, budget):
        start = time.perf_counter()
        knapsack_01(gammas, transfers, budget, 1000)
        return time.perf_counter() - start

    # warm-up so allocator effects stay out of the smallest sample
    timed(rng.uniform(1, 10, 32), rng.uniform(0.001, 1.0, 32), 8.0)

    m_grid = [25, 50, 100, 200]
    m_cases = []
    for m in m_grid:
        gammas = rng.uniform(1.0, 10.0, m)
        transfers = rng.uniform(0.001, 6.0, m)
        m_cases.append((gammas, transfers, 20.0))
    budget_grid = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    b_cases = []
    for budget in budget_grid:
        gammas = rng.uniform(1.0, 10.0, 120)
        transfers = rng.uniform(0.001, 1.0, 120)
        b_cases.append((gammas, transfers, budget))

    # Every round times every size, so a burst of load on a shared host
    # slows all sizes alike; each size keeps its fastest round.
    cases = m_cases + b_cases
    best = [math.inf] * len(cases)
    for _ in range(7):
        for i, case in enumerate(cases):
            best[i] = min(best[i], timed(*case))
    m_times, b_times = best[: len(m_grid)], best[len(m_grid):]
    m_slope = float(np.polyfit(np.log(m_grid), np.log(m_times), 1)[0])
    b_slope = float(np.polyfit(np.log(budget_grid), np.log(b_times), 1)[0])

    ok = 0.8 <= m_slope <= 1.3 and 0.8 <= b_slope <= 1.3
    _criterion(
        9,
        f"DP wall-time fits O(M*T): slope_M={m_slope:.2f}, slope_T={b_slope:.2f}",
        ok,
    )
