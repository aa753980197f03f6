import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaycontracts.selection as selection_module
from relaycontracts import (
    ExperimentConfig,
    OfferMatrix,
    SelectionMethod,
    SelectionProblem,
    TypeDistribution,
    TypeGrid,
    accepted_offers,
    best_snr_baseline,
    broadcast_menu,
    capacity,
    exhaustive_optimum,
    knapsack_01,
    offers_from_csv,
    offers_to_csv,
    overall_heuristic,
    relaxed_upper_bound,
    sample_type_vector,
    second_best_menu,
    selection_to_csv,
    sscpa,
    total_spend,
    weight_profile,
    weighted_split_selection,
)


def offers_1d(gammas, transfers):
    g = np.asarray(gammas, dtype=float)[:, None]
    t = np.asarray(transfers, dtype=float)[:, None]
    return OfferMatrix(g, t)


def brute_force_value(gammas, transfers, budget):
    """Max total SNR over all subsets with exact transfer sums <= budget."""
    best = 0.0
    m = len(gammas)
    for mask in range(1 << m):
        picks = [i for i in range(m) if mask >> i & 1]
        if sum(transfers[i] for i in picks) <= budget:
            best = max(best, sum(gammas[i] for i in picks))
    return best


def brute_force_selection(offers, budget):
    """Exhaustive optimum capacity over per-cell inclusion, for tiny instances."""
    cells = [(m, n) for m in range(offers.m) for n in range(offers.n) if offers.snr[m, n] > 0]
    best = 0.0
    for included in itertools.product((0, 1), repeat=len(cells)):
        spend = sum(offers.transfer[c] for c, b in zip(cells, included) if b)
        if spend > budget:
            continue
        snr_per_n = [0.0] * offers.n
        for (m, n), b in zip(cells, included):
            if b:
                snr_per_n[n] += offers.snr[m, n]
        best = max(best, sum(math.log2(1.0 + s) for s in snr_per_n))
    return best


def random_offers(rng, m_max=5, n_max=4):
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    snr = rng.uniform(0.2, 25.0, (m, n))
    transfer = rng.uniform(0.05, 2.5, (m, n))
    null = rng.random((m, n)) < 0.2
    snr[null] = 0.0
    transfer[null] = 0.0
    return OfferMatrix(snr, transfer)


# -- capacity / spend -------------------------------------------------------


def test_capacity_examples():
    offers = offers_1d([1.0, 2.0], [0.1, 0.2])
    assert capacity(offers, [()]) == 0.0
    assert capacity(offers, [(0, 1)]) == pytest.approx(2.0)  # log2(4)
    two = OfferMatrix(np.array([[1.0, 3.0]]), np.array([[0.1, 0.1]]))
    assert capacity(two, [(0,), (0,)]) == pytest.approx(1.0 + 2.0)


def test_capacity_adds_its_terms_left_to_right():
    # A term of 50.0 then ten of about 2.9e-15, each below half of 50.0's
    # float spacing: a left-to-right sum stays 50.0, a compensated one does not.
    snr = np.array([[2.0**50 - 1.0] + [2e-15] * 10])
    offers = OfferMatrix(snr, np.ones_like(snr))
    terms = [math.log2(1.0 + g) for g in snr[0].tolist()]
    sequential = 0.0
    for term in terms:
        sequential += term
    assert terms[0] == 50.0 and sequential == 50.0 != math.fsum(terms)
    assert capacity(offers, [(0,)] * 11) == sequential


def test_capacity_rejects_bad_subsets():
    offers = offers_1d([1.0], [0.1])
    with pytest.raises(ValueError):
        capacity(offers, [(1,)])
    with pytest.raises(ValueError):
        capacity(offers, [(0, 0)])
    with pytest.raises(ValueError):
        capacity(offers, [(0,), (0,)])


def test_total_spend_examples():
    offers = offers_1d([10.0, 6.0, 5.0], [2.0, 1.0, 1.0])
    assert total_spend(offers, [()]) == 0.0
    assert total_spend(offers, [(0,)]) == pytest.approx(2.0)
    assert total_spend(offers, [(1, 2)]) == pytest.approx(2.0)


# -- knapsack ---------------------------------------------------------------


def test_knapsack_small_instance():
    chosen = knapsack_01(np.array([10.0, 6.0, 5.0]), np.array([2.0, 1.0, 1.0]), 2.0, 10)
    assert chosen == [1, 2]
    assert brute_force_value([10, 6, 5], [2, 1, 1], 2.0) == 11.0


def test_knapsack_zero_budget_and_single_item():
    assert knapsack_01(np.array([4.0]), np.array([1.0]), 0.0, 10) == []
    assert knapsack_01(np.array([4.0]), np.array([1.0]), 5.0, 10) == [0]


def test_knapsack_matches_brute_force_on_unit_multiples():
    rng = np.random.default_rng(31)
    resolution = 1000
    for _ in range(50):
        m = int(rng.integers(1, 11))
        gammas = rng.uniform(0.1, 30.0, m)
        transfers = rng.integers(1, 3000, m) / resolution
        budget = float(rng.integers(0, 6000)) / resolution
        chosen = knapsack_01(gammas, transfers, budget, resolution)
        assert sum(transfers[i] for i in chosen) <= budget + 1e-12
        value = sum(gammas[i] for i in chosen)
        assert value == pytest.approx(
            brute_force_value(gammas.tolist(), transfers.tolist(), budget), abs=1e-9
        )


def test_knapsack_survives_float_products():
    # 0.007 * 1000 = 7.000000000000001 must still count as 7 units
    chosen = knapsack_01(np.array([1.0]), np.array([0.007]), 0.007, 1000)
    assert chosen == [0]


# -- weight profiles and splits ---------------------------------------------


def test_weight_profiles():
    offers = OfferMatrix(
        np.array([[6.0, 3.0], [2.0, 1.0]]), np.array([[2.0, 1.0], [2.0, 1.0]])
    )
    assert np.allclose(weight_profile(offers, SelectionMethod.ESW), [1.0, 1.0])
    assert np.allclose(weight_profile(offers, SelectionMethod.ASW), [2.0, 2.0])
    assert np.allclose(weight_profile(offers, SelectionMethod.NSW), [2.0, 2.0])
    with pytest.raises(ValueError):
        weight_profile(offers, SelectionMethod.SSCPA)


def test_weight_profile_handles_empty_subcarrier():
    offers = OfferMatrix(np.array([[5.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert np.allclose(weight_profile(offers, SelectionMethod.NSW), [5.0, 0.0])
    assert np.allclose(weight_profile(offers, SelectionMethod.ASW), [5.0, 0.0])


def test_a_split_kind_given_as_its_string_is_the_enum():
    # Each kind as a string reads the enum's weights and runs the enum's split
    # bit for bit, and its result carries the enum, which the CSV writer reads.
    offers = OfferMatrix(np.array([[3.0, 1.0], [2.0, 0.0]]), np.array([[0.5, 0.2], [0.3, 0.0]]))
    assert weight_profile(offers, "ESW").tolist() == [1.0, 1.0]
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        assert weight_profile(offers, kind.value).tobytes() == weight_profile(offers, kind).tobytes()
        for budget in (0.3, 0.6, 1.0):
            got = weighted_split_selection(SelectionProblem(offers, budget), kind.value)
            want = weighted_split_selection(SelectionProblem(offers, budget), kind)
            assert got == want and got.method is kind
            assert selection_to_csv([got]) == selection_to_csv([want])
    with pytest.raises(ValueError, match="no weight profile for method Overall"):
        weight_profile(offers, "Overall")


def test_capacity_and_spend_refuse_a_relay_index_that_is_not_an_integer():
    # A float index once read another relay's offer through its flat index.
    offers = OfferMatrix(np.array([[3.0, 1.0], [2.0, 0.0]]), np.array([[0.5, 0.2], [0.3, 0.0]]))
    assert (capacity(offers, [[0], []]), total_spend(offers, [[0], []])) == (2.0, 0.5)
    assert capacity(offers, [[np.int64(1)], [np.int32(0)]]) == math.log2(3.0) + 1.0
    for index in (0.5, 1.5, 1.0, math.nan, np.float64(0.0), True, np.bool_(False)):
        for total in (capacity, total_spend):
            with pytest.raises(ValueError, match=re.escape(f"relay index must be an integer, got {index!r}")):
                total(offers, [[index], []])


def test_derived_state_is_built_on_first_read_and_then_read_from_the_object():
    offers = offers_1d([3.0, 2.0], [0.5, 0.3])
    assert not {"ordered_at", "ordered_snr", "ordered_transfer"} & set(vars(offers))
    snr = offers.ordered_snr
    assert vars(offers)["ordered_snr"] is snr is offers.ordered_snr
    assert "ordered_at" in vars(offers) and "ordered_transfer" not in vars(offers)
    with pytest.raises(dataclasses.FrozenInstanceError):
        offers.ordered_transfer = snr
    assert "ordered_transfer" not in vars(offers)


def test_equal_split_matches_per_subcarrier_knapsack():
    snr = np.array([[10.0, 10.0], [6.0, 6.0], [5.0, 5.0]])
    transfer = np.array([[2.0, 2.0], [1.0, 1.0], [1.0, 1.0]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 4.0, 10)
    res = weighted_split_selection(problem, SelectionMethod.ESW)
    for n in range(2):
        assert list(res.subsets[n]) == knapsack_01(snr[:, n], transfer[:, n], 2.0, 10)
    assert res.subsets == ((1, 2), (1, 2))
    assert res.capacity == pytest.approx(2.0 * math.log2(12.0))


def test_single_subcarrier_split_equals_full_knapsack():
    rng = np.random.default_rng(5)
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        gammas = rng.uniform(0.5, 20.0, 6)
        transfers = rng.uniform(0.1, 2.0, 6)
        problem = SelectionProblem(offers_1d(gammas, transfers), 3.0, 1000)
        res = weighted_split_selection(problem, kind)
        assert list(res.subsets[0]) == knapsack_01(gammas, transfers, 3.0, 1000)


def test_all_null_offers_give_empty_result():
    offers = OfferMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
    problem = SelectionProblem(offers, 5.0)
    for kind in (SelectionMethod.ASW, SelectionMethod.NSW):
        res = weighted_split_selection(problem, kind)
        assert res.capacity == 0.0
        assert res.subsets == ((), ())


# -- SSCPA -------------------------------------------------------------------


def test_sscpa_hand_trace():
    # sub 0: relay0 (4, 2), relay1 (3, 1); sub 1: relay0 (2, 1)
    snr = np.array([[4.0, 2.0], [3.0, 0.0]])
    transfer = np.array([[2.0, 1.0], [1.0, 0.0]])
    res = sscpa(SelectionProblem(OfferMatrix(snr, transfer), 3.0))
    assert res.subsets == ((1,), (0,))
    assert res.spend == pytest.approx(2.0)
    assert res.capacity == pytest.approx(math.log2(4.0) + math.log2(3.0))


def test_sscpa_zero_budget_and_single_offer():
    offers = offers_1d([4.0], [1.0])
    assert sscpa(SelectionProblem(offers, 0.0)).subsets == ((),)
    assert sscpa(SelectionProblem(offers, 2.0)).subsets == ((0,),)


def test_sscpa_tie_breaks_to_lowest_relay():
    offers = offers_1d([4.0, 4.0], [1.0, 1.0])
    res = sscpa(SelectionProblem(offers, 1.0))
    assert res.subsets == ((0,),)


# -- overall heuristic and baseline -------------------------------------------


def test_overall_dominates_each_candidate():
    rng = np.random.default_rng(13)
    for _ in range(25):
        problem = SelectionProblem(random_offers(rng), float(rng.uniform(0.2, 6.0)))
        overall = overall_heuristic(problem)
        candidates = [
            weighted_split_selection(problem, k)
            for k in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)
        ] + [sscpa(problem)]
        assert overall.method is SelectionMethod.OVERALL
        best = max(c.capacity for c in candidates)
        assert overall.capacity == pytest.approx(best, abs=1e-12)
        for cand in candidates:
            assert overall.capacity >= cand.capacity - 1e-12


def test_overall_single_subcarrier_is_dp_exact():
    gammas = [10.0, 6.0, 5.0]
    transfers = [2.0, 1.0, 1.0]
    problem = SelectionProblem(offers_1d(gammas, transfers), 2.0, 10)
    res = overall_heuristic(problem)
    assert res.capacity == pytest.approx(math.log2(12.0))


def test_best_snr_greedy_trace():
    snr = np.array([[10.0, 0.0], [0.0, 9.0]])
    transfer = np.array([[5.0, 0.0], [0.0, 1.0]])
    res = best_snr_baseline(SelectionProblem(OfferMatrix(snr, transfer), 1.0))
    assert res.subsets == ((), (1,))
    assert res.spend == pytest.approx(1.0)


def test_best_snr_zero_budget():
    res = best_snr_baseline(SelectionProblem(offers_1d([5.0], [1.0]), 0.0))
    assert res.capacity == 0.0


def test_best_snr_can_beat_the_overall_heuristic():
    # The four candidate heuristics do not dominate the greedy baseline
    # pointwise.  Here one relay offers a cheap pair, a star pair, and a
    # mid-priced pair on three subcarriers: the greedy skips the cheap pair
    # and affords both others, while SSCPA commits to the cheap pair on its
    # first visit and every budget split strands money in slices.
    snr = np.array([[2.102, 21.761, 2.256]])
    transfer = np.array([[0.824, 1.511, 1.407]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 3.509)
    greedy = best_snr_baseline(problem)
    overall = overall_heuristic(problem)
    assert greedy.subsets == ((), (0,), (0,))
    assert greedy.capacity > overall.capacity
    # feasibility and oracle dominance still hold for both
    exact = exhaustive_optimum(problem).capacity
    assert greedy.capacity <= exact + 1e-9
    assert overall.capacity <= exact + 1e-9


def test_best_snr_never_beats_exhaustive():
    rng = np.random.default_rng(41)
    for _ in range(25):
        offers = random_offers(rng, m_max=4, n_max=3)
        budget = float(rng.uniform(0.2, 4.0))
        problem = SelectionProblem(offers, budget)
        assert (
            best_snr_baseline(problem).capacity
            <= exhaustive_optimum(problem).capacity + 1e-9
        )


# -- relaxed bound -------------------------------------------------------------


def test_relaxed_bound_with_slack_budget_is_exact():
    rng = np.random.default_rng(8)
    offers = random_offers(rng)
    total = float(offers.transfer.sum())
    problem = SelectionProblem(offers, total + 1.0)
    everything = [
        [m for m in range(offers.m) if offers.snr[m, n] > 0] for n in range(offers.n)
    ]
    assert relaxed_upper_bound(problem) == pytest.approx(
        capacity(offers, everything), abs=1e-12
    )


def test_relaxed_bound_single_fractional_offer():
    gamma, t = 7.0, 0.8
    problem = SelectionProblem(offers_1d([gamma], [t]), t / 2.0)
    bound = relaxed_upper_bound(problem)
    exact = math.log2(1.0 + gamma / 2.0)
    assert abs(bound - exact) <= 1e-12


def test_relaxed_bound_dominates_exhaustive():
    rng = np.random.default_rng(23)
    for _ in range(20):
        offers = random_offers(rng, m_max=3, n_max=2)
        budget = float(rng.uniform(0.1, 3.0))
        problem = SelectionProblem(offers, budget)
        assert relaxed_upper_bound(problem) >= exhaustive_optimum(problem).capacity - 1e-9


def test_relaxed_bound_zero_budget():
    problem = SelectionProblem(offers_1d([5.0], [1.0]), 0.0)
    assert relaxed_upper_bound(problem) == pytest.approx(0.0, abs=1e-9)
    # A budget below the smallest normal float is no budget, so the sweep
    # spends exactly 0, not a rounded share of the price 2.
    problem = SelectionProblem(offers_1d([5.0], [2.0]), 5e-324)
    assert problem.budget == 0.0 and relaxed_upper_bound(problem) == 0.0
    assert assert_spends_the_budget(problem)
    # Free offers only: the bound is their SNR, whatever the budget.
    snr = np.array([[3.0, 0.0, 0.1], [2.0, 7.0, 0.2]])
    problem = SelectionProblem(OfferMatrix(snr, np.zeros_like(snr)), 0.0)
    expected = np.log2(1.0 + snr.sum(axis=0)).sum()
    assert float.hex(relaxed_upper_bound(problem)) == float.hex(float(expected))


def test_relaxed_bound_of_offers_too_inefficient_for_a_finite_multiplier():
    # SNR per unit price underflows (1e-320 / 1) or is 0 (5e-324 / 2); every
    # such offer starts at the largest float, and the bound is the free SNR.
    for gammas, transfers, free in (([1e-320], [1.0], 0.0), ([5e-324, 3.0], [2.0, 0.0], 3.0)):
        problem = SelectionProblem(offers_1d(gammas, transfers), 0.5)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert relaxed_upper_bound(problem) == math.log2(1.0 + free)


# -- exhaustive oracle ---------------------------------------------------------


def test_exhaustive_matches_brute_force_and_knapsack():
    gammas = [10.0, 6.0, 5.0]
    transfers = [2.0, 1.0, 1.0]
    problem = SelectionProblem(offers_1d(gammas, transfers), 2.0)
    res = exhaustive_optimum(problem)
    assert res.capacity == pytest.approx(math.log2(12.0))
    chosen = knapsack_01(np.array(gammas), np.array(transfers), 2.0, 1000)
    assert res.capacity == pytest.approx(
        math.log2(1.0 + sum(gammas[i] for i in chosen))
    )


def test_exhaustive_agrees_with_independent_enumeration():
    rng = np.random.default_rng(53)
    for _ in range(15):
        offers = random_offers(rng, m_max=3, n_max=3)
        budget = float(rng.uniform(0.2, 3.0))
        problem = SelectionProblem(offers, budget)
        assert exhaustive_optimum(problem).capacity == pytest.approx(
            brute_force_selection(offers, budget), abs=1e-9
        )


def test_exhaustive_takes_everything_under_huge_budget():
    rng = np.random.default_rng(61)
    offers = random_offers(rng, m_max=3, n_max=3)
    res = exhaustive_optimum(SelectionProblem(offers, 1e9))
    everything = [
        tuple(m for m in range(offers.m) if offers.snr[m, n] > 0)
        for n in range(offers.n)
    ]
    assert res.subsets == tuple(everything)


def test_exhaustive_refuses_large_instances():
    offers = OfferMatrix(np.ones((3, 7)), np.ones((3, 7)))
    with pytest.raises(ValueError):
        exhaustive_optimum(SelectionProblem(offers, 1.0))


# -- global properties ---------------------------------------------------------


def test_every_method_respects_budget_exactly():
    rng = np.random.default_rng(71)
    for _ in range(40):
        offers = random_offers(rng)
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
        for res in results:
            assert res.spend <= budget
            assert res.spend == pytest.approx(
                total_spend(offers, res.subsets), abs=1e-9
            )


def test_split_heuristics_monotone_in_budget():
    # Weight profiles do not depend on the budget, so every per-subcarrier
    # knapsack sees a non-decreasing budget and the split capacities are
    # monotone; the overall heuristic is bounded below by the monotone ESW.
    rng = np.random.default_rng(83)
    budgets = np.linspace(0.0, 8.0, 17)
    for _ in range(10):
        offers = random_offers(rng, m_max=6, n_max=4)
        esw, asw, nsw, overall = [], [], [], []
        for budget in budgets:
            problem = SelectionProblem(offers, float(budget))
            esw.append(weighted_split_selection(problem, SelectionMethod.ESW).capacity)
            asw.append(weighted_split_selection(problem, SelectionMethod.ASW).capacity)
            nsw.append(weighted_split_selection(problem, SelectionMethod.NSW).capacity)
            overall.append(overall_heuristic(problem).capacity)
        for series in (esw, asw, nsw):
            assert np.all(np.diff(series) >= -1e-12)
        assert np.all(np.array(overall) >= np.array(esw) - 1e-12)


def test_sscpa_is_not_monotone_in_budget():
    # Known non-monotone case: just enough extra budget makes SSCPA grab the
    # single highest-efficiency offer, which exhausts the budget and starves
    # the other subcarriers.  The split heuristics keep the overall result
    # from collapsing, but SSCPA alone can lose capacity as the budget grows.
    snr = np.array([[13.0, 0.0, 0.0], [3.0, 3.0, 3.0]])
    transfer = np.array([[1.0, 0.0, 0.0], [0.3, 0.3, 0.3]])
    offers = OfferMatrix(snr, transfer)
    tight = sscpa(SelectionProblem(offers, 0.9))
    loose = sscpa(SelectionProblem(offers, 1.0))
    assert tight.capacity == pytest.approx(3.0 * math.log2(4.0))
    assert loose.capacity == pytest.approx(math.log2(14.0))
    assert loose.capacity < tight.capacity
    assert (
        overall_heuristic(SelectionProblem(offers, 1.0)).capacity
        >= tight.capacity - 1e-12
    )


# -- CSV wire formats ----------------------------------------------------------


def test_offers_csv_round_trip():
    rng = np.random.default_rng(91)
    offers = random_offers(rng)
    again = offers_from_csv(offers_to_csv(offers))
    assert np.array_equal(offers.snr, again.snr)
    assert np.array_equal(offers.transfer, again.transfer)


def test_offers_csv_reports_bad_line():
    text = "m,n,gamma_linear,transfer\n0,0,1.5,0.2\n0,x,2,0.1\n"
    with pytest.raises(ValueError, match="line 3"):
        offers_from_csv(text)
    with pytest.raises(ValueError, match="line 1"):
        offers_from_csv("nope\n")
    # a repeated (m, n) names both lines, counting the blank one
    text = "m,n,gamma_linear,transfer\n0,0,1.5,0.2\n\n1,0,2,0.1\n0,0,3,0.3\n"
    with pytest.raises(ValueError, match=r"line 5: offer \(0, 0\) repeats line 2"):
        offers_from_csv(text)


def test_offers_csv_size_cap_is_in_bytes():
    # 2100 x 2100 cells take 2 x 35 MB: accepted, as dense files that size
    # always were; 4097 x 4096 would pass the 2**28-byte cap and is refused
    # before anything is allocated.
    offers = offers_from_csv("m,n,gamma_linear,transfer\n0,0,10,1\n2099,2099,5,1\n")
    assert offers.snr.shape == (2100, 2100)
    assert offers.transfer[2099, 2099] == 1.0
    with pytest.raises(ValueError, match="4097 relays x 4096 subcarriers"):
        offers_from_csv("m,n,gamma_linear,transfer\n4096,4095,10,1\n")
    with pytest.raises(ValueError, match="2\\*\\*28 bytes"):
        offers_from_csv("m,n,gamma_linear,transfer\n0,99999999,10,2\n")


def test_offers_csv_reports_the_first_error_in_line_order():
    header = "m,n,gamma_linear,transfer\n"
    with pytest.raises(ValueError, match=r"line 3: offer \(0, 0\) repeats line 2"):
        offers_from_csv(header + "0,0,1,1\n0,0,2,1\n1,1,3\n")
    with pytest.raises(ValueError, match="line 3: expected 4 comma-separated fields"):
        offers_from_csv(header + "0,0,1,1\n1,1,3\n0,0,2,1\n")
    # Lines count as str.splitlines counts them (\r\n, form feeds), also
    # past the chunks the parser splits at a time.
    body = "".join(f"{m},{n},1,1\r\n" for m in range(100) for n in range(100))
    with pytest.raises(ValueError, match=r"line 10004: offer \(7, 3\) repeats line 705"):
        offers_from_csv(header + body + "\x0c\n7,3,1,1\n")
    # Indices past the size cap never repeat one another by mistake.
    with pytest.raises(ValueError, match="offers span 1000000000000000000001 relays x 1"):
        offers_from_csv(header + "100000000000000000000,0,1,1\n1000000000000000000000,0,1,1\n")


def test_offers_csv_parse_peak_memory_is_a_few_times_its_arrays(tmp_path):
    # A child process reads a 512 x 512 offers file (4 MiB of arrays), then
    # parses it; its peak RSS may rise by at most three times the arrays.
    # ru_maxrss is a high-water mark that reading the file already moves, by
    # a different amount from run to run, so it can hide the parse.  A second
    # parse is traced: the peak of what it allocates obeys the same bound.
    path = tmp_path / "offers.csv"
    path.write_text(
        "m,n,gamma_linear,transfer\n"
        + "".join(f"{m},{n},{1 + (m + n) % 7},1\n" for m in range(512) for n in range(512))
    )
    script = (
        "import resource, sys, tracemalloc\n"
        "from relaycontracts import offers_from_csv\n"
        "text = open(sys.argv[1]).read()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "offers = offers_from_csv(text)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "del offers\n"
        "tracemalloc.start()\n"
        "offers = offers_from_csv(text)\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "print(before, after, peak, offers.snr.nbytes + offers.transfer.nbytes)\n"
    )
    src = str(Path(selection_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env, check=True
    ).stdout
    before_kib, after_kib, peak, arrays = map(int, out.split())
    assert arrays == 2 * 8 * 512 * 512
    assert (after_kib - before_kib) * 1024 <= 3 * arrays
    assert peak <= 3 * arrays


def test_selection_csv_layout():
    offers = offers_1d([10.0, 6.0, 5.0], [2.0, 1.0, 1.0])
    problem = SelectionProblem(offers, 2.0, 10)
    res = overall_heuristic(problem)
    text = selection_to_csv([res], bounds={"Relaxed": 3.7})
    lines = text.strip().split("\n")
    assert lines[0] == "method,n,selected_m_list,capacity,spend"
    assert lines[1].startswith("Overall,0,1;2,")
    assert lines[-1] == "Relaxed,,,3.7,"


def test_selection_csv_writes_a_method_given_as_its_string():
    result = selection_module.SelectionResult(((0,), ()), 1.0, 0.5, SelectionMethod.OVERALL)
    text = selection_to_csv([dataclasses.replace(result, method="Overall")])
    assert text == selection_to_csv([result])
    with pytest.raises(ValueError, match="not a valid SelectionMethod"):
        selection_to_csv([dataclasses.replace(result, method="Best")])


def test_offer_matrix_validation():
    with pytest.raises(ValueError):
        OfferMatrix(np.array([[0.0]]), np.array([[1.0]]))  # null with payment
    with pytest.raises(ValueError):
        OfferMatrix(np.array([[-1.0]]), np.array([[0.0]]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            OfferMatrix(np.array([[bad]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="finite"):
            OfferMatrix(np.array([[10.0]]), np.array([[bad]]))
    with pytest.raises(ValueError):
        SelectionProblem(offers_1d([1.0], [1.0]), -1.0)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_selection_problem_rejects_non_finite_budget(budget):
    with pytest.raises(ValueError, match="budget must be finite"):
        SelectionProblem(offers_1d([1.0], [1.0]), budget)


@pytest.mark.parametrize("budget", ["1", b"1", True, np.bool_(False), None])
def test_every_budget_entry_point_refuses_a_budget_that_is_not_a_number(budget):
    with pytest.raises(ValueError, match="^budget must be a number, got"):
        SelectionProblem(offers_1d([1.0], [1.0]), budget)
    with pytest.raises(ValueError, match="^sub-budget must be a number, got"):
        knapsack_01(np.array([1.0]), np.array([1.0]), budget, 10)
    with pytest.raises(ValueError, match="^budget must be a number, got"):
        ExperimentConfig(budget=budget)


# -- frozen reference implementations ---------------------------------------
# Verbatim copies of the straightforward knapsack DP, result totals,
# relaxed-bound bisection, per-visit SSCPA and indexed best-SNR greedy that
# the optimized library code replaced.  The library must reproduce them bit
# for bit (same subsets, same floats), except the relaxed bound: the
# bisection stops at a duality gap of 1e-6, so the exact optimum may sit
# up to 1e-6 below its dual value, and above it only by rounding
# (`assert_within_bisection`).

_UNIT_SNAP = 1e-9


def reference_knapsack(snr_col, transfer_col, sub_budget, resolution):
    gammas = np.asarray(snr_col, dtype=float)
    transfers = np.asarray(transfer_col, dtype=float)
    units = int(math.floor(sub_budget * resolution + _UNIT_SNAP))
    weights = np.ceil(transfers * resolution - _UNIT_SNAP).astype(np.int64)
    weights = np.maximum(weights, 0)
    usable = np.nonzero((gammas > 0.0) & (weights <= units))[0]
    if usable.size == 0:
        return []

    best = np.zeros(units + 1)
    took = np.zeros((usable.size, units + 1), dtype=bool)
    for i, item in enumerate(usable):
        w = int(weights[item])
        g = gammas[item]
        if w == 0:
            cand = best + g
        else:
            cand = np.empty(units + 1)
            cand[:w] = -1.0
            cand[w:] = best[:-w] + g
        take = cand > best
        took[i] = take
        best = np.where(take, cand, best)

    chosen = []
    remaining = units
    for i in range(usable.size - 1, -1, -1):
        if took[i, remaining]:
            chosen.append(int(usable[i]))
            remaining -= int(weights[usable[i]])
    chosen.reverse()
    return chosen


def reference_totals(offers, subsets):
    cap = float(
        sum(
            math.log2(1.0 + sum(offers.snr[m, n] for m in sub))
            for n, sub in enumerate(subsets)
        )
    )
    spend = float(
        sum(sum(offers.transfer[m, n] for m in sub) for n, sub in enumerate(subsets))
    )
    return cap, spend


def reference_sequential_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def reference_capacity(offers, subsets):
    return reference_sequential_sum(
        math.log2(1.0 + reference_sequential_sum(col[m] for m in sub))
        for col, sub in zip(offers.snr.T.tolist(), subsets)
    )


def reference_spend(offers, subsets):
    return reference_sequential_sum(
        reference_sequential_sum(col[m] for m in sub)
        for col, sub in zip(offers.transfer.T.tolist(), subsets)
    )


def reference_selection_rows(results):
    lines = []
    for res in results:
        for n, sub in enumerate(res.subsets):
            picks = ";".join(str(m) for m in sub)
            lines.append(
                f"{res.method.value},{n},{picks},{res.capacity:.12g},{res.spend:.12g}"
            )
    return lines


def reference_split(problem, kind):
    offers = problem.offers
    weights = weight_profile(offers, kind)
    total = weights.sum()
    if total <= 0.0:
        return [()] * offers.n
    return [
        tuple(
            reference_knapsack(
                offers.snr[:, n],
                offers.transfer[:, n],
                weights[n] * problem.budget / total,
                problem.resolution,
            )
        )
        for n in range(offers.n)
    ]


def reference_waterfill_rows(eff, cum_snr, cum_transfer, base_snr, lam):
    stop = eff / (lam * math.log(2.0)) - 1.0 - base_snr[:, None]
    prev_snr = np.concatenate([np.zeros((cum_snr.shape[0], 1)), cum_snr[:, :-1]], axis=1)
    prev_spend = np.concatenate(
        [np.zeros((cum_transfer.shape[0], 1)), cum_transfer[:, :-1]], axis=1
    )
    over = cum_snr > stop
    first = np.where(over.any(axis=1), over.argmax(axis=1), cum_snr.shape[1] - 1)
    rows = np.arange(cum_snr.shape[0])
    full_all = ~over.any(axis=1)

    snr_at = np.where(full_all, cum_snr[rows, first], prev_snr[rows, first])
    spend_at = np.where(full_all, cum_transfer[rows, first], prev_spend[rows, first])
    gamma_b = cum_snr[rows, first] - prev_snr[rows, first]
    t_b = cum_transfer[rows, first] - prev_spend[rows, first]
    room = np.clip(stop[rows, first] - prev_snr[rows, first], 0.0, gamma_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(gamma_b > 0.0, room / gamma_b, 0.0)
    frac = np.where(full_all, 0.0, frac)
    return snr_at + frac * gamma_b * ~full_all, spend_at + frac * t_b * ~full_all


def reference_relaxed(problem):
    offers = problem.offers
    budget = problem.budget
    free = (offers.transfer == 0.0) & (offers.snr > 0.0)
    base_snr = np.where(free, offers.snr, 0.0).sum(axis=0)
    base_cap = float(np.log2(1.0 + base_snr).sum())

    buyable = (offers.transfer > 0.0) & (offers.snr > 0.0)
    if not buyable.any():
        return base_cap
    if float(offers.transfer.sum()) <= budget:
        return float(
            np.log2(1.0 + base_snr + np.where(buyable, offers.snr, 0.0).sum(axis=0)).sum()
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(buyable, np.where(offers.transfer > 0.0, offers.snr / offers.transfer, 0.0), 0.0)
    snr = np.where(buyable, offers.snr, 0.0)
    transfer = np.where(buyable, offers.transfer, 0.0)
    order = np.argsort(-eff, axis=0)
    eff = np.take_along_axis(eff, order, axis=0).T
    cum_snr = np.cumsum(np.take_along_axis(snr, order, axis=0).T, axis=1)
    cum_transfer = np.cumsum(np.take_along_axis(transfer, order, axis=0).T, axis=1)

    lam_max = float(eff.max()) / math.log(2.0) + 1.0
    lo, hi = 0.0, lam_max
    dual_best = math.inf
    primal_best = base_cap
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        snr_rows, spend_rows = reference_waterfill_rows(eff, cum_snr, cum_transfer, base_snr, lam)
        value = float(np.log2(1.0 + base_snr + snr_rows).sum())
        spent = float(spend_rows.sum())
        dual_best = min(dual_best, value - lam * spent + lam * budget)
        if spent <= budget:
            primal_best = max(primal_best, value)
            hi = lam
        else:
            lo = lam
        if dual_best - primal_best <= 1e-6:
            break
    return dual_best



def reference_sscpa(problem):
    offers = problem.offers
    if offers.m == 0:
        return [()] * offers.n
    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(offers.transfer > 0.0, offers.snr / offers.transfer, 0.0)
    remaining = problem.budget
    allocated = np.zeros(offers.snr.shape, dtype=bool)
    subsets = [[] for _ in range(offers.n)]
    while True:
        progress = False
        for n in range(offers.n):
            pickable = (
                ~allocated[:, n]
                & (offers.snr[:, n] > 0.0)
                & (offers.transfer[:, n] <= remaining)
            )
            if not pickable.any():
                continue
            column = np.where(pickable, eff[:, n], -1.0)
            m = int(np.argmax(column))
            allocated[m, n] = True
            subsets[n].append(m)
            remaining -= offers.transfer[m, n]
            progress = True
        if not progress:
            break
    return [tuple(sorted(sub)) for sub in subsets]


def reference_best_snr(problem):
    offers = problem.offers
    ms, ns = np.nonzero(offers.snr > 0.0)
    order = np.lexsort((ms, ns, -offers.snr[ms, ns]))
    remaining = problem.budget
    subsets = [[] for _ in range(offers.n)]
    for idx in order:
        m, n = int(ms[idx]), int(ns[idx])
        t = offers.transfer[m, n]
        if t <= remaining:
            subsets[n].append(m)
            remaining -= t
    return [tuple(sorted(sub)) for sub in subsets]

def edge_case_column(rng, m):
    """Offers with declines, free offers and a 1e-17 SNR beside large ones."""
    gammas = rng.uniform(0.5, 200.0, m) * (rng.random(m) > 0.2)
    if rng.random() < 0.3:
        gammas[rng.integers(m)] = 1e-17
    transfers = rng.uniform(0.01, 1.5, m) * (gammas > 0.0)
    transfers[rng.random(m) < 0.1] = 0.0
    return gammas, transfers


def assert_same_totals(result, offers, subsets):
    cap, spend = reference_totals(offers, subsets)
    assert result.subsets == tuple(subsets)
    assert result.capacity.hex() == cap.hex()
    assert float(result.spend).hex() == spend.hex()


def test_knapsack_matches_reference_dp():
    rng = np.random.default_rng(4040)
    for _ in range(2400):
        m = int(rng.integers(1, 13))
        gammas, transfers = edge_case_column(rng, m)
        resolution = int(rng.choice([1, 10, 1000]))
        total = float(transfers.sum())
        budget = [
            total * rng.uniform(0.0, 1.0),
            total,
            total * rng.uniform(1.0, 3.0),
            rng.uniform(0.0, 4.0),
        ][int(rng.integers(4))]
        assert knapsack_01(gammas, transfers, budget, resolution) == reference_knapsack(
            gammas, transfers, budget, resolution
        )


def random_selection(rng, offers):
    """Each subcarrier's offers in random order, some dropped; empty ones too."""
    return [
        tuple(m for m in rng.permutation(offers.m).tolist() if rng.random() < 0.6)
        for _ in range(offers.n)
    ]


def totals_case_offers(rng):
    """Random offers with M=0, declined and free offers, and a 1e-17 SNR after a 100."""
    m, n = int(rng.integers(0, 13)), int(rng.integers(1, 21))
    snr = rng.uniform(0.5, 200.0, (m, n)) * (rng.random((m, n)) > 0.3)
    transfer = rng.uniform(0.05, 1.3, (m, n)) * (snr > 0.0)
    transfer[rng.random((m, n)) < 0.2] = 0.0
    if m >= 2 and rng.random() < 0.4:
        j = int(rng.integers(n))
        snr[:2, j], transfer[:2, j] = (100.0, 1e-17), (1.0, 0.5)
    return OfferMatrix(snr, transfer)


def test_totals_match_the_frozen_capacity_and_spend_bit_for_bit():
    rng = np.random.default_rng(6060)
    for _ in range(800):
        offers = totals_case_offers(rng)
        subsets = random_selection(rng, offers)
        expected = (reference_capacity(offers, subsets).hex(), reference_spend(offers, subsets).hex())
        assert tuple(x.hex() for x in selection_module._totals(offers, subsets)) == expected
        assert (capacity(offers, subsets).hex(), total_spend(offers, subsets).hex()) == expected
    # The 1e-17 after the 100 is lost in the subcarrier's SNR sum, in that order only.
    offers = offers_1d([100.0, 1e-17], [1.0, 0.5])
    assert capacity(offers, [(0, 1)]) == math.log2(101.0) == reference_capacity(offers, [(0, 1)])
    no_relays = OfferMatrix(np.zeros((0, 3)), np.zeros((0, 3)))
    assert selection_module._totals(no_relays, [()] * 3) == (0.0, 0.0)


def test_select_csv_matches_the_frozen_row_loop():
    rng = np.random.default_rng(6161)
    for _ in range(200):
        offers = totals_case_offers(rng)
        resolution = int(rng.choice([1, 10, 1000]))
        problem = SelectionProblem(offers, float(rng.uniform(0.0, 3.0)), resolution)
        results = [overall_heuristic(problem), best_snr_baseline(problem)]
        subsets = tuple(random_selection(rng, offers))
        cap, spend = selection_module._totals(offers, subsets)
        results.append(selection_module.SelectionResult(subsets, cap, spend, SelectionMethod.SSCPA))
        bound = relaxed_upper_bound(problem)
        expected = ["method,n,selected_m_list,capacity,spend", *reference_selection_rows(results),
                    f"Relaxed,,,{bound:.12g},"]
        assert selection_to_csv(results, bounds={"Relaxed": bound}) == "\n".join(expected) + "\n"


def test_knapsack_matches_reference_dp_on_edge_columns():
    rng = np.random.default_rng(7070)
    for _ in range(1500):
        m = int(rng.integers(1, 10))
        resolution = int(rng.choice([1, 10, 1000]))
        gammas = rng.uniform(0.5, 50.0, m) * (rng.random(m) > 0.15)
        units = rng.integers(0, 6, m).astype(float)
        transfers = units / resolution  # exact unit multiples, zero prices among them
        hair = rng.random(m) < 0.3  # a price times resolution a hair above an integer
        transfers[hair] = np.nextafter(transfers[hair], math.inf)
        transfers[rng.random(m) < 0.1] += 0.5e-9 / resolution
        transfers[rng.random(m) < 0.1] += 2e-9 / resolution
        transfers[gammas == 0.0] = 0.0
        budget = float(rng.choice([float(rng.integers(0, 8)) / resolution, float(transfers.max())]))
        if rng.random() < 0.3:
            budget = float(transfers.sum())  # an offer or all of them weigh the whole sub-budget
        assert knapsack_01(gammas, transfers, budget, resolution) == reference_knapsack(
            gammas, transfers, budget, resolution
        )


@pytest.mark.parametrize("price", [1e308, 2.0**53 / 1000, 1e300])
def test_knapsack_refuses_a_price_of_2_to_the_53_units_or_more(price):
    # 1e308 * 1000 overflows to inf units; 2**53 units are no longer exact.
    # Both are refused by name, as `SelectionProblem` refuses them, without
    # a numpy warning; a price just below 2**53 units is merely unaffordable.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"offer 1 price .* at resolution 1000 is 2\*\*53 money units or more"):
            knapsack_01(np.array([5.0, 4.0]), np.array([0.5, price]), 1.0, 1000)
        assert knapsack_01(np.array([5.0, 4.0]), np.array([0.5, (2.0**53 - 1) / 1000]), 1.0, 1000) == [0]


@pytest.mark.parametrize("price", [math.inf, math.nan, -3.0])
def test_knapsack_refuses_a_non_finite_or_negative_price(price):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"offer 1 price must be finite and non-negative, got"):
            knapsack_01(np.array([5.0, 4.0]), np.array([0.5, price]), 1.0, 1000)


def test_selection_methods_match_reference_implementations():
    rng = np.random.default_rng(5050)
    for _ in range(600):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        snr = rng.uniform(0.5, 200.0, (m, n)) * (rng.random((m, n)) > 0.3)
        if rng.random() < 0.3:
            snr[rng.integers(m), rng.integers(n)] = 1e-17
        transfer = rng.uniform(0.05, 1.3, (m, n)) * (snr > 0.0)
        transfer[rng.random((m, n)) < 0.05] = 0.0
        offers = OfferMatrix(snr, transfer)
        share = rng.uniform(0.0, 1.3) if rng.random() < 0.8 else rng.uniform(1.3, 5.0)
        resolution = int(rng.choice([1, 10, 1000]))
        problem = SelectionProblem(offers, float(transfer.sum() * share), resolution)

        candidates = []
        bounds = split_bounds(problem)
        for kind, bound in zip((SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW), bounds):
            subsets = reference_split(problem, kind)
            assert_same_totals(weighted_split_selection(problem, kind), offers, subsets)
            candidates.append((reference_totals(offers, subsets)[0], subsets))
            assert bound >= candidates[-1][0]
        subsets = reference_sscpa(problem)
        assert_same_totals(sscpa(problem), offers, subsets)
        candidates.append((reference_totals(offers, subsets)[0], subsets))
        best = max(candidates, key=lambda c: c[0])[1]
        assert_same_totals(overall_heuristic(problem), offers, best)
        assert_same_totals(best_snr_baseline(problem), offers, reference_best_snr(problem))
        assert_within_bisection(problem)


def assert_within_bisection(problem):
    bisection = reference_relaxed(problem)
    sweep = relaxed_upper_bound(problem)
    assert bisection - 1e-6 <= sweep <= bisection + 1e-12 * max(1.0, bisection)


def reference_breakpoint_sweep(offers, budget, base_snr):
    """Frozen copy of the breakpoint sweep as it gathered the whole matrix
    in efficiency order, then the paid offers by (rank, subcarrier)."""
    ln2 = math.log(2.0)
    order = offers.efficiency_order, np.arange(offers.n)
    eff, snr, price = offers.efficiency[order], offers.snr[order], offers.transfer[order]
    ahead = np.zeros_like(snr)
    np.cumsum(snr[:-1], axis=0, out=ahead[1:])
    rows, cols = np.nonzero(price > 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        starts = np.minimum((ahead + (1.0 + base_snr)) * ln2 / eff, np.finfo(float).max)
        start, gain, price = starts[rows, cols], snr[rows, cols], price[rows, cols]
        width = price * ln2
        end, count = start + width, start.size
        events = np.concatenate([start, end])
        ranked = np.lexsort((np.concatenate([np.zeros(count), width]), events))
        mus = events[ranked]
        active = np.cumsum(np.where(ranked < count, 1, -1))
        steps = np.concatenate([np.zeros(count), width - (end - start)])[ranked]
        steps[1:] += active[:-1] * np.diff(mus)
        spend = np.cumsum(steps)
        k = min(int(np.searchsorted(spend, budget * ln2, side="right")) - 1, 2 * count - 2)
        step = (budget * ln2 - spend[k]) / active[k]
        passed = np.zeros(2 * count, dtype=bool)
        passed[ranked[: k + 1]] = True
        share = np.clip((mus[k] - start + step) / width, 0.0, 1.0)
        bought = np.where(passed[count:], 1.0, np.where(passed[:count], share, 0.0))
    return base_snr + np.bincount(cols, bought * gain, offers.n), mus[k] + step, bought @ price


def sweep_solution(problem):
    """(bound, mu*, spend) from the breakpoint sweep, or None when an early
    exit of `relaxed_upper_bound` fires: no buyable offer, or all affordable.
    The sweep's SNRs, mu* and spend equal the frozen copy's bit for bit."""
    offers = problem.offers
    if not (offers.transfer > 0.0).any() or offers.transfer.sum() <= problem.budget:
        return None
    free = np.where((offers.transfer == 0.0) & (offers.snr > 0.0), offers.snr, 0.0)
    snr, mu, spend = selection_module._breakpoint_sweep(offers, problem.budget, free.sum(axis=0))
    want = reference_breakpoint_sweep(offers, problem.budget, free.sum(axis=0))
    assert (snr.tobytes(), float(mu).hex(), float(spend).hex()) == (
        want[0].tobytes(), float(want[1]).hex(), float(want[2]).hex()
    )
    return float(np.log2(1.0 + snr).sum()), mu, spend


def assert_spends_the_budget(problem):
    solution = sweep_solution(problem)
    if solution is None:
        return False
    bound, mu, spend = solution
    assert bound == relaxed_upper_bound(problem)
    assert mu > 0.0
    assert abs(spend - problem.budget) <= 1e-9 * problem.budget
    return True


def test_relaxed_sweep_spends_exactly_the_budget():
    rng = np.random.default_rng(5151)
    swept = 0
    for _ in range(300):
        m, n = int(rng.integers(1, 40)), int(rng.choice([1, 5, 16, 64]))
        snr = rng.uniform(0.5, 200.0, (m, n)) * (rng.random((m, n)) > 0.3)
        if rng.random() < 0.3:
            snr[rng.integers(m), rng.integers(n)] = 1e-17
        transfer = rng.uniform(0.05, 1.3, (m, n)) * (snr > 0.0)
        transfer[rng.random((m, n)) < 0.05] = 0.0
        problem = SelectionProblem(OfferMatrix(snr, transfer), float(transfer.sum() * rng.uniform(0.0, 1.1)))
        swept += assert_spends_the_budget(problem)
        assert_within_bisection(problem)
    assert swept > 250


def test_relaxed_bound_with_an_offer_below_float_resolution():
    # The 1e-17 offer is fractional: its mu range is 0.3 wide at mu = 3e16,
    # narrower than the float spacing there.  It adds < 1e-15 bits, while
    # the bisection's dual value sits 5e-7 above the optimum.
    offers = OfferMatrix(np.array([[1e-17, 104.698498]]), np.array([[0.42904715, 0.05261048]]))
    problem = SelectionProblem(offers, 0.1015337)
    assert abs(relaxed_upper_bound(problem) - math.log2(105.698498)) <= 1e-12
    assert reference_relaxed(problem) - relaxed_upper_bound(problem) > 1e-7
    assert assert_spends_the_budget(problem)
    # Two such offers start at one float mu; the spend still grows offer by
    # offer, narrowest end first, up to every budget.
    offers = OfferMatrix(np.array([[1e-17, 1e-17], [0.0, 2.0]]), np.array([[3.0, 1.0], [0.0, 0.0]]))
    for budget in (0.5, 1.5, 2.0, 2.5, 2.9, 3.5):
        assert assert_spends_the_budget(SelectionProblem(offers, budget))


def test_relaxed_bound_dominates_exhaustive_on_the_acceptance_draws():
    # Criterion 6: menu offers from 1-4 relays on 1-3 subcarriers.
    dist = TypeDistribution.uniform(50.0, 300.0)
    menu = second_best_menu(TypeGrid.from_distribution(dist, 10, 16), 1.0)
    rng = np.random.default_rng(606)
    for _ in range(200):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        offers = accepted_offers(menu, dist.ppf(rng.random((m, n))))
        budget = round(float(rng.uniform(0.5, 1.5)) * n * 1000) / 1000
        problem = SelectionProblem(offers, budget)
        assert exhaustive_optimum(problem).capacity <= relaxed_upper_bound(problem) + 1e-9
    # Criterion 8: random offers, exhaustive where M*N <= 20.
    rng = np.random.default_rng(808)
    for _ in range(150):
        problem = SelectionProblem(random_offers(rng, m_max=8, n_max=6), float(rng.uniform(0.0, 5.0)))
        if problem.offers.m * problem.offers.n <= 20:
            assert exhaustive_optimum(problem).capacity <= relaxed_upper_bound(problem) + 1e-9


def tie_and_pass_problem(rng):
    """Small integer prices and SNRs: exact efficiency and SNR ties, free
    offers, and budgets that run out after the first pass or two."""
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    snr = rng.integers(0, 5, (m, n)).astype(float)
    transfer = rng.integers(1, 4, (m, n)) * (snr > 0.0)
    transfer = np.where(rng.random((m, n)) < 0.15, 0.0, transfer)
    budget = float(rng.integers(0, 2 * n + 3)) + float(rng.choice([0.0, 0.5]))
    return SelectionProblem(OfferMatrix(snr, transfer), budget, int(rng.choice([1, 10])))


def sparse_round_problem(rng):
    """A round on 32 or 64 subcarriers whose budget buys at most two offers
    (prices >= 0.3, budget < 0.9), or is 0; 0-4 relays, with declined and
    free offers.  Where there are three relays or more, relay 1 declines
    on subcarrier 0 between relays 0 and 2, both free: at the end of that
    column's efficiency order, a declined offer after a free one."""
    m, n = int(rng.integers(0, 5)), int(rng.choice([32, 64]))
    snr = rng.uniform(0.5, 200.0, (m, n)) * (rng.random((m, n)) > 0.3)
    transfer = rng.uniform(0.3, 1.3, (m, n)) * (snr > 0.0)
    transfer[rng.random((m, n)) < 0.1] = 0.0
    if m >= 3:
        snr[:3, 0], transfer[:3, 0] = (5.0, 0.0, 2.0), 0.0
    budget = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.9))
    return SelectionProblem(OfferMatrix(snr, transfer), budget, int(rng.choice([1, 1000])))


def test_sscpa_and_greedy_match_reference_on_ties_and_free_offers():
    rng = np.random.default_rng(6060)
    first_pass_only = 0
    for _ in range(800):
        problem = tie_and_pass_problem(rng)
        offers = problem.offers
        assert_same_totals(sscpa(problem), offers, reference_sscpa(problem))
        assert_same_totals(best_snr_baseline(problem), offers, reference_best_snr(problem))
        # An offer that fits the whole budget but is never taken: it fit on
        # the first pass only, so the cursor must pass it for good.
        taken = sscpa(problem).subsets
        first_pass_only += any(
            0.0 < offers.transfer[m, n] <= problem.budget and m not in taken[n]
            for m in range(offers.m)
            for n in range(offers.n)
        )
    assert first_pass_only > 100
    # Sparse rounds: almost every subset ends empty.
    shapes = {"no relays": 0, "zero budget, free offers": 0, "declined after free": 0, "two bought": 0}
    for _ in range(400):
        problem = sparse_round_problem(rng)
        offers = problem.offers
        result = sscpa(problem)
        assert_same_totals(result, offers, reference_sscpa(problem))
        assert_same_totals(best_snr_baseline(problem), offers, reference_best_snr(problem))
        paid = [(m, n) for n, sub in enumerate(result.subsets) for m in sub if offers.transfer[m, n] > 0.0]
        assert len(paid) <= 2
        shapes["no relays"] += offers.m == 0
        shapes["zero budget, free offers"] += problem.budget == 0.0 and result.capacity > 0.0
        shapes["declined after free"] += offers.m >= 3 and result.subsets[0][:2] == (0, 2)
        shapes["two bought"] += len(paid) == 2
    assert min(shapes.values()) >= 10, shapes


def test_sscpa_hand_trace_of_an_offer_that_fits_only_on_the_first_pass():
    # Pass 1 takes relay 0 on both subcarriers (budget 5 -> 1); relay 1 on
    # subcarrier 0 (price 2) fit at the start but no longer does.
    snr = np.array([[6.0, 6.0], [3.0, 0.0], [1.0, 0.0]])
    transfer = np.array([[2.0, 2.0], [2.0, 0.0], [1.0, 0.0]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 5.0)
    assert sscpa(problem).subsets == ((0, 2), (0,))
    assert sscpa(problem).subsets == tuple(reference_sscpa(problem))


def test_offers_gather_the_efficiency_order_once_read_only_for_sscpa_the_plan_and_the_sweep():
    # One OfferMatrix gathers its offers in efficiency order on first use:
    # the flat index, SNRs and prices equal fresh takes bit for bit, refuse
    # writes, and are built once.  A parse builds none of them.  SSCPA, the
    # split plan and the relaxed sweep on one problem read that one gather
    # and still match their frozen copies.
    rng = np.random.default_rng(2525)
    problems = [tie_and_pass_problem(rng) for _ in range(150)] + [sparse_round_problem(rng) for _ in range(50)]
    problems.append(SelectionProblem(OfferMatrix(np.zeros((0, 3)), np.zeros((0, 3))), 1.0))
    problems.append(SelectionProblem(offers_from_csv("m,n,gamma_linear,transfer\n0,0,3,0.5\n1,1,2,0.25\n"), 0.6))
    assert not {"ordered_at", "ordered_snr", "ordered_transfer"} & set(vars(problems[-1].offers))
    for problem in problems:
        offers = problem.offers
        assert sscpa(problem).subsets == tuple(reference_sscpa_walk(problem))
        gathered = offers.ordered_at, offers.ordered_snr, offers.ordered_transfer
        at = offers.efficiency_order * offers.n + np.arange(offers.n)
        for got, want in zip(gathered, (at, offers.snr.take(at), offers.transfer.take(at))):
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0
        plan = problem._split_plan
        got = problem._split_caps.sub_budgets, problem._split_caps.caps, plan.terms, plan.estimates, plan.bounds
        for row, want in zip(got, reference_plan_splits(problem)):
            assert np.asarray(row).tobytes() == np.asarray(want).tobytes()
        sweep_solution(problem)
        assert all(a is b for a, b in zip(gathered, (offers.ordered_at, offers.ordered_snr, offers.ordered_transfer)))


def counting_knapsack(monkeypatch):
    """Record each knapsack_01 call the splits make: its usable offers'
    count, their total price units and the call's budget in units."""
    calls = []
    original = selection_module.knapsack_01

    def wrapper(snr_col, transfer_col, sub_budget, resolution):
        units = math.floor(sub_budget * resolution + _UNIT_SNAP)
        prices = np.maximum(np.ceil(np.asarray(transfer_col) * resolution - _UNIT_SNAP), 0)
        usable = (np.asarray(snr_col) > 0.0) & (prices <= units)
        calls.append((int(np.count_nonzero(usable)), int(prices[usable].sum()), units))
        return original(snr_col, transfer_col, sub_budget, resolution)

    monkeypatch.setattr(selection_module, "knapsack_01", wrapper)
    return calls


def test_splits_skip_subcarriers_where_nothing_is_affordable(monkeypatch):
    # fine_quant's shape: 3 relays, 32 subcarriers, budget 1, menu prices
    # from 0.16 up, so no subcarrier's sub-budget buys any offer.
    calls = counting_knapsack(monkeypatch)
    rng = np.random.default_rng(7070)
    for _ in range(20):
        snr = rng.uniform(8.0, 200.0, (3, 32)) * (rng.random((3, 32)) > 0.2)
        transfer = rng.uniform(0.16, 1.3, (3, 32)) * (snr > 0.0)
        problem = SelectionProblem(OfferMatrix(snr, transfer), 1.0, 1000)
        for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
            result = weighted_split_selection(problem, kind)
            assert result.subsets == tuple(reference_split(problem, kind))
    assert calls == []


def test_splits_call_the_knapsack_only_where_an_offer_is_affordable(monkeypatch):
    calls = counting_knapsack(monkeypatch)
    rng = np.random.default_rng(8080)
    skipped = 0
    for _ in range(60):
        m, n = int(rng.integers(1, 12)), 16
        snr = rng.uniform(0.5, 200.0, (m, n)) * (rng.random((m, n)) > 0.3)
        transfer = rng.uniform(0.05, 1.3, (m, n)) * (snr > 0.0)
        problem = SelectionProblem(OfferMatrix(snr, transfer), float(rng.uniform(0.5, 16.0)), 1000)
        for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
            before = len(calls)
            result = weighted_split_selection(problem, kind)
            assert result.subsets == tuple(reference_split(problem, kind))
            skipped += n - (len(calls) - before)
    assert calls and min(usable for usable, _, _ in calls) >= 1
    assert skipped > 0


def test_split_takes_all_fitting_offers_as_the_dp_traces_them_back(monkeypatch):
    # Both offers fit, but 100 + 1e-17 == 100: the DP never takes the second.
    calls = counting_knapsack(monkeypatch)
    problem = SelectionProblem(offers_1d([100.0, 1e-17], [1.0, 1.0]), 5.0)
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        assert weighted_split_selection(problem, kind).subsets == ((0,),)
    assert calls == []
    assert knapsack_01(np.array([100.0, 1e-17]), np.ones(2), 5.0, 1000) == [0]
    assert reference_knapsack(np.array([100.0, 1e-17]), np.ones(2), 5.0, 1000) == [0]
    # Offer 1 costs more than the share, so its 1e300 must not enter the
    # running sum that decides whether 100 moves it; 1e-17 after 100 does not.
    snr, transfer = np.array([1e-17, 1e300, 100.0, 1e-17, 5.0]), np.array([1, 10, 1, 1, 1.0])
    problem = SelectionProblem(offers_1d(snr, transfer), 5.0)
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        assert weighted_split_selection(problem, kind).subsets == ((0, 2, 4),)
    assert calls == []
    assert knapsack_01(snr, transfer, 5.0, 1000) == [0, 2, 4]
    assert reference_knapsack(snr, transfer, 5.0, 1000) == [0, 2, 4]


def test_splits_run_the_knapsack_only_where_the_usable_offers_do_not_all_fit(monkeypatch):
    calls = counting_knapsack(monkeypatch)
    rng = np.random.default_rng(9090)
    for _ in range(40):
        m, n = int(rng.integers(1, 12)), 16
        snr = rng.uniform(0.5, 200.0, (m, n)) * (rng.random((m, n)) > 0.3)
        snr[rng.random((m, n)) < 0.05] = 1e-17
        transfer = rng.uniform(0.05, 1.3, (m, n)) * (snr > 0.0)
        transfer[rng.random((m, n)) < 0.05] = 0.0
        offers = OfferMatrix(snr, transfer)
        column_prices = transfer.sum(axis=0)
        for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
            weights = weight_profile(offers, kind)
            share = weights / weights.sum()
            # Each subcarrier's budget share is 1.3-5 times its offers' price.
            roomy = float(rng.uniform(1.3, 5.0) * (column_prices / np.maximum(share, 1e-300)).max())
            tight = float(rng.uniform(0.05, 1.0) * column_prices.sum())
            before = len(calls)
            result = weighted_split_selection(SelectionProblem(offers, roomy, 1000), kind)
            assert len(calls) == before
            # What the DP takes with room for every offer of each subcarrier.
            assert result.subsets == tuple(
                tuple(reference_knapsack(snr[:, j], transfer[:, j], column_prices[j] + 1.0, 1000))
                for j in range(n)
            )
            problem = SelectionProblem(offers, tight, 1000)
            result = weighted_split_selection(problem, kind)
            assert result.subsets == tuple(reference_split(problem, kind))
    assert calls
    assert all(reach > units for _, reach, units in calls)


def reference_plan_splits(problem):
    """Frozen copy of the single-pass split plan: shares, caps, terms,
    estimates and bounds, with the estimates summed beside the terms."""
    offers, resolution = problem.offers, problem.resolution
    with np.errstate(over="ignore", invalid="ignore"):
        profiles = [weight_profile(offers, kind) for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)]
        weight_sums = np.array([weights.sum() for weights in profiles])
        sub_budgets = np.stack(profiles) * problem.budget / weight_sums[:, None]
        caps = np.floor(sub_budgets * resolution + 1e-9)
        order = offers.efficiency_order, np.arange(offers.n)
        snr, priced = offers.snr[order], offers.transfer[order] * resolution
        usable = (snr > 0.0) & (priced - 1e-9 <= caps[:, None, :])
        weight = np.where(usable, priced, 0.0)
        ahead = np.zeros_like(weight)
        np.cumsum(weight[:, :-1, :], axis=1, out=ahead[:, 1:, :])
        room = caps[:, None, :] + offers.m * 1e-9
        bought = usable.astype(float)
        np.divide(room - ahead, weight, out=bought, where=weight > 0.0)
    np.minimum(np.maximum(bought, 0.0, out=bought), 1.0, out=bought)
    logs = np.log2(1.0 + (np.concatenate((bought, np.floor(bought))) * snr).sum(axis=1))
    terms, estimates = logs[:3], logs[3:]
    bounds = np.where(weight_sums < math.inf, terms.sum(axis=1) * (1.0 + 1e-9) + 1e-9, -math.inf)
    return sub_budgets, caps, terms, estimates, bounds.tolist()


def test_split_plan_matches_the_single_pass_plan_bitwise():
    # The plan builds the estimates apart from the terms; every row keeps
    # the bytes of the plan that summed them in one pass.  M up to 20
    # and N = 1 cover numpy's blocked sums along the relay axis.
    rng = np.random.default_rng(4141)
    problems = [
        SelectionProblem(OfferMatrix(np.array([[3.0, 1e-17], [2.0, 0.0]]), np.zeros((2, 2))), 1.0),
        SelectionProblem(OfferMatrix(np.array([[1e300, 1e300]]), np.array([[1e-8, 1e-8]])), 1.0),
        SelectionProblem(OfferMatrix(np.zeros((0, 3)), np.zeros((0, 3))), 1.0),
    ]
    for _ in range(300):
        m, n = int(rng.integers(1, 21)), int(rng.choice([1, 2, 5, 16]))
        snr, transfer = (np.column_stack(parts) for parts in zip(*(edge_case_column(rng, m) for _ in range(n))))
        budget = float(rng.choice([0.0, rng.uniform(0.0, 1.2) * transfer.sum(), rng.uniform(0.0, 3.0)]))
        problems.append(SelectionProblem(OfferMatrix(snr, transfer), budget, int(rng.choice([1, 7, 1000]))))
    overall_heuristic(problems[0])  # every split's free offers fit: no knapsack, no estimates
    for problem in problems:
        stage, plan = problem._split_caps, problem._split_plan
        got = stage.sub_budgets, stage.caps, plan.terms, plan.estimates, plan.bounds
        for row, want in zip(got, reference_plan_splits(problem)):
            assert np.asarray(row).tobytes() == np.asarray(want).tobytes()
        assert plan.estimates is plan.estimates


def split_bounds(problem):
    """The ESW, ASW and NSW bounds of the problem's split plan, as an array."""
    return np.array(problem._split_plan.bounds)


def assert_bounds_dominate_splits(problem):
    """Each split's plan bound is at least its capacity, and a split whose
    weights overflow has bound -inf.  Where the caps stage proves that no
    offer fits, each split that runs takes nothing."""
    bounds = split_bounds(problem)
    for kind, bound in zip((SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW), bounds):
        try:
            result = weighted_split_selection(problem, kind)
        except ValueError as exc:
            assert "budget weights overflow" in str(exc) and bound == -math.inf
            continue
        assert bound >= result.capacity
        if problem._split_caps.nothing_fits:
            assert (result.subsets, result.capacity, result.spend) == (((),) * problem.offers.n, 0.0, 0.0)


def test_split_bounds_dominate_the_splits_on_edge_cases():
    rng = np.random.default_rng(1212)
    for _ in range(300):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        columns = [edge_case_column(rng, m) for _ in range(n)]
        snr, transfer = (np.column_stack(parts) for parts in zip(*columns))
        budget = [0.0, float(transfer.sum() * rng.uniform(0.0, 1.2)), float(rng.uniform(0.0, 3.0))]
        for b in budget:
            assert_bounds_dominate_splits(SelectionProblem(OfferMatrix(snr, transfer), b, int(rng.choice([1, 7, 1000]))))
    # Free offers only: every split takes them all, and so may the bound.
    free = SelectionProblem(OfferMatrix(np.array([[3.0, 1e-17], [2.0, 0.0]]), np.zeros((2, 2))), 0.0)
    assert_bounds_dominate_splits(free)
    assert split_bounds(free)[0] >= math.log2(6.0)
    # Twenty offers of 9.9e-10 money cost 0 units each, so the split takes
    # them with the 1-unit offer; their prices overhang its cap by 2e-8.
    snr, transfer = np.full((21, 1), 1e-6), np.full((21, 1), 9.9e-10)
    snr[20], transfer[20] = 100.0, 1.0
    overhang = SelectionProblem(OfferMatrix(snr, transfer), 1.0, 1)
    assert weighted_split_selection(overhang, SelectionMethod.ESW).subsets == (tuple(range(21)),)
    assert_bounds_dominate_splits(overhang)
    # An ASW weight of 5e9 times a budget of 1e300 is an infinite share.
    huge_share = SelectionProblem(
        OfferMatrix(np.array([[1e3, 5.0], [2.0, 0.0]]), np.array([[1e-7, 1.0], [1.0, 0.0]])), 1e300
    )
    with np.errstate(over="ignore"):
        assert np.isinf(weight_profile(huge_share.offers, SelectionMethod.ASW) * 1e300).any()
    assert_bounds_dominate_splits(huge_share)
    assert np.isfinite(split_bounds(huge_share)).all()
    # ASW and NSW weights that overflow: those splits keep bound -inf.
    overflow = SelectionProblem(OfferMatrix(np.array([[1e300, 1e300]]), np.array([[1e-8, 1e-8]])), 1.0)
    bounds = split_bounds(overflow)
    assert np.isfinite(bounds[0]) and bounds[1] == bounds[2] == -math.inf
    assert_bounds_dominate_splits(overflow)


def test_a_nan_cap_buys_nothing_not_even_free_offers():
    # Free offers have efficiency 0, and here every offer is free, so the
    # ASW and NSW weights sum to zero and their caps are NaN.  Those splits
    # take nothing, and their terms, estimates and bounds leave out the free
    # offers that ESW and SSCPA take.
    problem = SelectionProblem(OfferMatrix(np.array([[3.0, 1e-17], [2.0, 0.0]]), np.zeros((2, 2))), 1.0)
    plan = problem._split_plan
    assert np.isnan(problem._split_caps.caps[1:]).all()
    assert (plan.terms[1:] == 0.0).all() and (plan.estimates[1:] == 0.0).all()
    for kind in (SelectionMethod.ASW, SelectionMethod.NSW):
        assert weighted_split_selection(problem, kind).subsets == ((), ())
    assert_bounds_dominate_splits(problem)
    esw = weighted_split_selection(problem, SelectionMethod.ESW)
    assert esw.subsets == ((0, 1), (0,))
    result = overall_heuristic(problem)
    assert (result.subsets, result.capacity, result.spend) == (esw.subsets, esw.capacity, esw.spend)


def test_overall_skips_the_splits_that_cannot_beat_sscpa(monkeypatch):
    # SSCPA spends all 2.0 on subcarrier 0 (capacity log2(201)); every
    # split leaves a share on subcarrier 1, so none can reach it.
    calls = counting_knapsack(monkeypatch)
    problem = SelectionProblem(
        OfferMatrix(np.array([[100.0, 1.0], [100.0, 0.0]]), np.array([[1.0, 1.5], [1.0, 0.0]])), 2.0
    )
    best = sscpa(problem)
    assert best.subsets == ((0, 1), ()) and best.capacity == math.log2(201.0)
    assert (split_bounds(problem) < best.capacity).all()
    result = overall_heuristic(problem)
    assert calls == []
    assert (result.subsets, result.capacity) == (best.subsets, best.capacity)
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        assert weighted_split_selection(problem, kind).capacity < best.capacity
    assert len(calls) == 3


def test_overall_runs_a_split_that_ties_sscpa_and_keeps_its_subsets(monkeypatch):
    # Relay 1 is twice as efficient, so SSCPA takes it; the DP first meets
    # relay 0 and keeps it, as relay 1 adds no SNR.  Both reach log2(11).
    calls = counting_knapsack(monkeypatch)
    problem = SelectionProblem(offers_1d([10.0, 10.0], [1.0, 0.5]), 1.0)
    assert sscpa(problem).subsets == ((1,),)
    esw = weighted_split_selection(problem, SelectionMethod.ESW)
    assert esw.subsets == ((0,),) and esw.capacity == sscpa(problem).capacity
    calls.clear()
    result = overall_heuristic(problem)
    # One subcarrier: every split gets the whole budget, so ASW and NSW take ESW's subset.
    assert len(calls) == 1
    assert (result.subsets, result.spend, result.method) == (((0,),), 1.0, SelectionMethod.OVERALL)


def test_overall_builds_the_split_plan_once(monkeypatch):
    # All three splits run here, ESW's knapsack serving all three; the pre-skip,
    # the splits and their running bounds all read one plan, so each weight
    # profile is computed once.
    calls = counting_knapsack(monkeypatch)
    profiles = []
    original = selection_module.weight_profile

    def counting_profile(offers, kind):
        profiles.append(kind)
        return original(offers, kind)

    monkeypatch.setattr(selection_module, "weight_profile", counting_profile)
    problem = SelectionProblem(offers_1d([10.0, 10.0], [1.0, 0.5]), 1.0)
    result = overall_heuristic(problem)
    assert len(calls) == 1 and result.subsets == ((0,),)
    assert profiles == [SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW]
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        weighted_split_selection(problem, kind)
    assert len(profiles) == 3


def test_overall_stops_a_split_once_its_first_knapsack_proves_it_cannot_win(monkeypatch):
    # ESW gives each subcarrier 1.0.  On subcarrier 0 that buys one offer of
    # 0.6, though the fractional bound buys 1 2/3 of them: ESW's bound,
    # log2(167.67) + log2(21) = 11.78, is above SSCPA's log2(201) + log2(11)
    # = 11.11, so ESW runs.  After subcarrier 0's knapsack its bound is
    # log2(101) + log2(21) = 11.05, below SSCPA, so subcarrier 1's is never
    # run.  ASW and NSW give subcarrier 0 nearly all the budget, and their
    # bounds, log2(201), fall below SSCPA.
    calls = counting_knapsack(monkeypatch)
    snr = np.array([[100.0, 10.0], [100.0, 10.0], [0.0, 10.0]])
    transfer = np.array([[0.6, 0.5], [0.6, 0.5], [0.0, 0.5]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 2.0)
    best = sscpa(problem)
    bounds = split_bounds(problem)
    assert bounds[0] > best.capacity > bounds[1:].max()
    esw = weighted_split_selection(problem, SelectionMethod.ESW)
    assert len(calls) == 2 and esw.subsets == ((0,), (0, 1)) and esw.capacity < best.capacity
    calls.clear()
    result = overall_heuristic(problem)
    assert len(calls) == 1
    assert result.subsets == best.subsets == ((0, 1), (0,)) and result.capacity == best.capacity
    stopped = weighted_split_selection(problem, SelectionMethod.ESW, floor=best.capacity)
    assert stopped.subsets == ((0,), ()) and stopped.capacity == math.log2(101.0)


def test_split_solves_its_largest_estimated_bound_drop_first(monkeypatch):
    # ESW gives each subcarrier 1.25.  Subcarrier 0's fractional fill buys
    # 20 whole and a quarter of 10 (term log2(23.5)), subcarrier 1's one 20
    # whole and three quarters of the other (term log2(36)); each knapsack
    # takes one 20, log2(21).  Subcarrier 1 drops the bound most, so it is
    # solved first, and the bound, log2(23.5) + log2(21) = 8.95, is below
    # SSCPA's log2(31) + log2(21) = 9.35.  In index order, subcarrier 0's
    # knapsack would leave log2(21) + log2(36) = 9.56, and a second would run.
    calls = counting_knapsack(monkeypatch)
    snr, transfer = np.array([[20.0, 20.0], [10.0, 20.0]]), np.array([[1.0, 1.0], [1.0, 0.5]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 2.5)
    best = sscpa(problem)
    assert best.subsets == ((0, 1), (1,)) and best.capacity == math.log2(31.0) + math.log2(21.0)
    bounds = split_bounds(problem)
    assert bounds[0] >= best.capacity > bounds[1:].max()
    esw = weighted_split_selection(problem, SelectionMethod.ESW)
    assert len(calls) == 2 and esw.capacity < best.capacity
    index_order_bound = math.log2(21.0) + math.log2(36.0)
    assert index_order_bound * (1.0 + 1e-9) + 1e-9 >= best.capacity
    calls.clear()
    result = overall_heuristic(problem)
    # Only subcarrier 1's knapsack: 2 usable offers, 1500 price units, a 1250-unit share.
    assert calls == [(2, 1500, 1250)]
    assert (result.subsets, result.capacity) == (best.subsets, best.capacity)
    stopped = weighted_split_selection(problem, SelectionMethod.ESW, floor=best.capacity)
    assert stopped.subsets == ((), (0,)) and stopped.capacity == math.log2(21.0)
    plan = problem._split_plan
    assert plan.terms[0] - plan.estimates[0] == pytest.approx(
        [math.log2(23.5 / 21.0), math.log2(36.0 / 21.0)]
    )


def test_overall_runs_the_splits_by_plan_bound_and_an_earlier_tie_wins(monkeypatch):
    # ESW gives each subcarrier 1.0: on subcarrier 1 only relay 1 (price
    # 0.5) fits.  ASW and NSW give subcarrier 1 most of the budget, where the
    # DP keeps relay 0 (price 1.5), the first to reach SNR 20.  All three
    # splits reach log2(21) with higher bounds for ASW, then NSW; SSCPA
    # spends the budget on subcarrier 0, log2(11).  So ASW runs first, and
    # ESW, run last on a bound just above the tie, keeps it.
    kinds = []
    original = selection_module.weighted_split_selection

    def wrapper(problem, kind, **kwargs):
        kinds.append(kind)
        return original(problem, kind, **kwargs)

    snr, transfer = np.array([[10.0, 20.0], [0.0, 20.0]]), np.array([[2.0, 1.5], [0.0, 0.5]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 2.0)
    bounds = split_bounds(problem)
    assert bounds[1] > bounds[2] > bounds[0]
    splits = [original(problem, kind) for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)]
    assert [split.subsets for split in splits] == [((), (1,)), ((), (0,)), ((), (0,))]
    assert {split.capacity for split in splits} == {math.log2(21.0)}
    assert sscpa(problem).capacity == math.log2(11.0)
    monkeypatch.setattr(selection_module, "weighted_split_selection", wrapper)
    result = overall_heuristic(problem)
    assert kinds == [SelectionMethod.ASW, SelectionMethod.NSW, SelectionMethod.ESW]
    assert result.subsets == splits[0].subsets and result.method is SelectionMethod.OVERALL
    assert (result.capacity.hex(), result.spend.hex()) == (splits[0].capacity.hex(), (0.5).hex())


def test_overall_reuses_a_subset_within_its_units_and_cap_and_solves_above_the_cap(monkeypatch):
    # NSW runs first, with caps 2018 and 1981; it takes relay 0 of the tied
    # relays 0 and 1 on subcarrier 0, 2000 units.  ESW's 2000 there lies in
    # [2000, 2018], so ESW takes that subset; its 2000 on subcarrier 1 is
    # above NSW's 1981, so it solves that knapsack again.
    calls = counting_knapsack(monkeypatch)
    snr = np.array([[15.0, 10.0], [15.0, 5.0], [5.0, 10.0]])
    transfer = np.array([[2.0, 1.5], [2.0, 1.5], [1.5, 1.0]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 4.0)
    assert problem._split_caps.caps[[0, 2]].tolist() == [[2000.0, 2000.0], [2018.0, 1981.0]]
    result = overall_heuristic(problem)
    assert calls == [(3, 4000, 1981), (3, 5500, 2018), (3, 4000, 2000)]
    assert result.subsets == ((0,), (0,))
    # ESW solves subcarrier 0 at 1500; both offers fit its 1500 on subcarrier
    # 1.  ASW's 1800 on subcarrier 0 is above 1500, so ASW solves both its
    # knapsacks, and NSW, whose caps equal ASW's, takes both subsets.
    calls.clear()
    snr, transfer = np.array([[15.0, 5.0], [15.0, 10.0]]), np.array([[1.0, 0.5], [1.0, 1.0]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 3.0)
    result = overall_heuristic(problem)
    assert calls == [(2, 2000, 1500), (2, 1500, 1200), (2, 2000, 1800)]
    assert result.subsets == ((0,), (0, 1))
    kinds = (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)
    alone = [weighted_split_selection(SelectionProblem(problem.offers, 3.0), kind) for kind in kinds]
    assert len(calls) == 3 + 5
    assert [split.subsets for split in alone] == [((0,), (0, 1)), ((0,), (1,)), ((0,), (1,))]


def reference_subset_shared_overall(problem):
    """Frozen copy of `overall_heuristic` whose splits share only subsets:
    SSCPA first, then the splits by plan bound, each stopping at the best
    capacity so far from its fractional terms alone; a knapsack solved at
    cap u with subset S answers a later cap in [units(S), u].  It calls
    `knapsack_01` through the module, so `counting_knapsack` counts it."""
    offers, resolution = problem.offers, problem.resolution
    sub_budgets, caps, terms, estimates, bounds = reference_plan_splits(problem)
    units = np.ceil(offers.transfer * resolution - 1e-9)
    sscpa_subsets = reference_sscpa_walk(problem)
    ran = [None, None, None, (sscpa_subsets, reference_capacity(offers, sscpa_subsets))]
    best = ran[3][1]
    solved = {}
    for row in sorted(range(3), key=bounds.__getitem__, reverse=True):
        if bounds[row] < best:
            break
        usable = (offers.snr > 0.0) & (units <= caps[row])
        fits = ~(np.where(usable, units, 0.0).sum(axis=0) > caps[row])
        running = np.where(usable, offers.snr, 0.0).cumsum(axis=0)
        taken = usable & fits
        taken[1:] &= running[1:] > running[:-1]
        subsets = [np.flatnonzero(taken[:, n]).tolist() for n in range(offers.n)]
        bound = reference_sequential_sum(terms[row].tolist())
        solve = np.flatnonzero(~fits)
        for n in solve[np.argsort(estimates[row, solve] - terms[row, solve], kind="stable")].tolist():
            if bound * (1.0 + 1e-9) + 1e-9 < best:
                break
            cap, entries = caps[row, n], solved.setdefault(n, [])
            subset = next((s for c, s in entries if c == cap or (c > cap and units[s, n].sum() <= cap)), None)
            if subset is None:
                subset = selection_module.knapsack_01(
                    offers.snr[:, n], offers.transfer[:, n], sub_budgets[row, n], resolution
                )
                entries.append((cap, subset))
            subsets[n] = subset
            bound += math.log2(1.0 + reference_sequential_sum(offers.snr[subset, n].tolist())) - terms[row, n]
        subsets = [tuple(sorted(sub)) for sub in subsets]
        ran[row] = (subsets, reference_capacity(offers, subsets))
        best = max(best, ran[row][1])
    subsets, cap = max([result for result in ran if result is not None], key=lambda result: result[1])
    return tuple(subsets), cap, reference_spend(offers, subsets)


def test_overall_shares_knapsacks_and_equals_its_candidates_run_in_full(monkeypatch, table3_menu):
    # Paper-sized rounds: the table-3 menu (K=10, N=16), 2-18 relays, budgets 8, 16 and 24.
    # Exact terms never cost a knapsack over the subset-only hand-off, and save some.
    calls = counting_knapsack(monkeypatch)
    original = selection_module.weighted_split_selection
    runs = []

    def recording(problem, kind, **kwargs):
        runs.append((kind, kwargs["floor"]))
        return original(problem, kind, **kwargs)

    rng = np.random.default_rng(2121)
    fewer = fewer_than_subsets = 0
    for _ in range(150):
        offers = accepted_offers(table3_menu, rng.uniform(50.0, 300.0, (int(rng.integers(2, 19)), 16)))
        budget = float(rng.choice([8.0, 16.0, 24.0]))
        runs.clear()
        calls.clear()
        monkeypatch.setattr(selection_module, "weighted_split_selection", recording)
        result = overall_heuristic(SelectionProblem(offers, budget))
        monkeypatch.setattr(selection_module, "weighted_split_selection", original)
        shared = len(calls)
        subsets, cap, spend = reference_subset_shared_overall(SelectionProblem(offers, budget))
        subset_only = len(calls) - shared
        assert (subsets, cap.hex(), spend.hex()) == (result.subsets, result.capacity.hex(), result.spend.hex())
        assert shared <= subset_only
        fewer_than_subsets += shared < subset_only
        for kind, floor in runs:  # each split overall ran, alone with the same floor
            original(SelectionProblem(offers, budget), kind, floor=floor)
        alone = len(calls) - shared - subset_only
        assert shared <= alone
        fewer += shared < alone
        fresh = SelectionProblem(offers, budget)
        kinds = (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)
        candidates = [original(fresh, kind) for kind in kinds] + [sscpa(fresh)]
        first = max(candidates, key=lambda candidate: candidate.capacity)
        assert result.method is SelectionMethod.OVERALL
        assert (result.subsets, result.capacity.hex(), result.spend.hex()) == (
            first.subsets, first.capacity.hex(), first.spend.hex()
        )
    assert fewer > 0 and fewer_than_subsets > 0


def test_a_later_split_stops_before_its_first_knapsack_on_an_earlier_exact_term(monkeypatch):
    # SSCPA reaches log2(63) + log2(18) = 10.147.  ESW (caps 1375 and 1375)
    # has the highest plan bound, 10.430, and runs first.  Its largest
    # estimated drop is subcarrier 1, where the knapsack takes relays 0 and
    # 2 (SNR 17, 1250 units); its bound falls to log2(54.375) + log2(18) =
    # 9.93, and ESW stops.  ASW (caps 1747 and 1002, bound 10.282) runs
    # next.  Its cap on subcarrier 1 is below ESW's 1375, so ESW's exact
    # term log2(18) bounds ASW there in place of its fractional
    # log2(19.78); ESW's 1250 units do not fit 1002, so nothing is reused.
    # ASW's bound starts at log2(62.93) + log2(18) = 10.1456, below SSCPA,
    # and it stops before its first knapsack.  NSW's bound, 10.051, is
    # below SSCPA.  Sharing only subsets, ASW would solve subcarrier 0 at
    # 1747 (relays 0 and 2, 1750 units, do not both fit) before stopping.
    calls = counting_knapsack(monkeypatch)
    original = selection_module.weighted_split_selection
    runs = []

    def recording(problem, kind, **kwargs):
        runs.append((kind, original(problem, kind, **kwargs)))
        return runs[-1][1]

    snr = np.array([[23.0, 15.0], [0.0, 15.0], [39.0, 2.0]])
    transfer = np.array([[1.0, 1.0], [0.0, 0.75], [0.75, 0.25]])
    problem = SelectionProblem(OfferMatrix(snr, transfer), 2.75)
    best = sscpa(problem)
    assert best.subsets == ((0, 2), (1, 2)) and best.capacity == math.log2(63.0) + math.log2(18.0)
    assert problem._split_caps.caps.tolist() == [[1375.0, 1375.0], [1747.0, 1002.0], [1894.0, 855.0]]
    bounds = split_bounds(problem)
    assert bounds[0] > bounds[1] > best.capacity > bounds[2]
    terms = problem._split_plan.terms
    assert terms[1, 1] > math.log2(18.0)
    assert (terms[1, 0] + math.log2(18.0)) * (1.0 + 1e-9) + 1e-9 < best.capacity
    monkeypatch.setattr(selection_module, "weighted_split_selection", recording)
    result = overall_heuristic(problem)
    assert [kind for kind, _ in runs] == [SelectionMethod.ESW, SelectionMethod.ASW]
    assert calls == [(3, 2000, 1375)]
    assert (runs[0][1].subsets, runs[1][1].subsets, runs[1][1].capacity) == (((), (0, 2)), ((), ()), 0.0)
    assert (result.subsets, result.capacity, result.spend) == (best.subsets, best.capacity, best.spend)
    calls.clear()
    frozen = reference_subset_shared_overall(SelectionProblem(problem.offers, 2.75))
    assert calls == [(3, 2000, 1375), (2, 1750, 1747)]
    assert frozen == (result.subsets, result.capacity, result.spend)


def reference_reused(solved, cap, units, n, counts):
    """Frozen copy of the hand-off lookup the nearest-cap rule replaced: the
    first entry, in the order the splits solved them, at this cap or at a
    wider cap whose subset's units fit this one.  Each entry is
    [cap, subset, the subset's units or None until needed, its exact term].
    `counts` tallies the lookups that meet two entries at caps >= this one,
    where the first answer and the nearest entry could differ, and the
    answers from a wider cap."""
    counts["two wider"] += sum(bool(cap <= entry[0]) for entry in solved) > 1
    for entry in solved:
        solved_cap, subset, used, _ = entry
        if cap == solved_cap:
            return entry
        if cap < solved_cap:
            if used is None:
                used = entry[2] = float(units[subset, n].sum())
            if used <= cap:
                counts["wider"] += 1
                return entry
    return None


def reference_handoff_split(problem, kind, *, floor=-math.inf, _solved=None, counts):
    """Frozen copy of `weighted_split_selection` with its earlier hand-off:
    `reference_reused`, and a scan that lowers each term to the least exact
    term solved there at a cap at or above the split's.  It calls
    `knapsack_01` through the module, as the split does."""
    row = selection_module._split_row(kind)
    kind = selection_module._SPLIT_KINDS[row]
    offers, stage, plan = problem.offers, problem._split_caps, problem._split_plan
    if plan.bounds[row] == -math.inf:
        raise ValueError(f"{kind.value} budget weights overflow: their sum is inf")
    resolution, sub_budgets, caps = problem.resolution, stage.sub_budgets[row], stage.caps[row]
    units, usable = plan.units, plan.usable[row]
    fits = ~(np.where(usable, units, 0.0).sum(axis=0) > caps)
    running = np.where(usable, offers.snr, 0.0).cumsum(axis=0)
    taken = usable & fits
    taken[1:] &= running[1:] > running[:-1]
    subsets = [[] for _ in range(offers.n)]
    rows, cols = np.nonzero(taken)
    for m, n in zip(rows.tolist(), cols.tolist()):
        subsets[n].append(m)
    terms = plan.terms[row].tolist()
    solve = np.flatnonzero(~fits)
    if solve.size > 1:
        solve = solve[np.argsort(plan.estimates[row, solve] - plan.terms[row, solve], kind="stable")]
    solve = solve.tolist()
    if _solved:
        for n in solve:
            for solved_cap, _, _, term in _solved.get(n, ()):
                if solved_cap >= caps[n] and term < terms[n]:
                    terms[n] = term
                    counts["lowered"] += 1
    bound = reference_sequential_sum(terms)
    for n in solve:
        if bound * (1.0 + 1e-9) + 1e-9 < floor:
            break
        cap = caps[n]
        entry = None if _solved is None else reference_reused(_solved.setdefault(n, []), cap, units, n, counts)
        if entry is None:
            snr_col = offers.snr[:, n]
            subset = selection_module.knapsack_01(snr_col, offers.transfer[:, n], sub_budgets[n], resolution)
            entry = [cap, subset, None, math.log2(1.0 + reference_sequential_sum(snr_col[subset].tolist()))]
            if _solved is not None:
                _solved[n].append(entry)
        subsets[n] = entry[1]
        bound += entry[3] - terms[n]
    return selection_module._result(offers, subsets, kind)


def tie_heavy_problem(rng):
    """Small offers with integer prices and few distinct SNRs, so offers,
    subsets and caps tie often, at 1, 10 or 1000 money units per 1.0."""
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    snr = rng.choice([0.0, 1.0, 2.0, 2.0, 3.0, 5.0], size=(m, n))
    transfer = np.where(snr > 0.0, rng.integers(0, 4, size=(m, n)), 0).astype(float)
    budget = float(rng.integers(0, 2 * m * n + 2)) * float(rng.choice([0.25, 0.5, 1.0]))
    return SelectionProblem(OfferMatrix(snr, transfer), budget, int(rng.choice([1, 10, 1000])))


def test_nearest_cap_hand_off_matches_the_frozen_first_answer_hand_off(monkeypatch):
    # Each instance runs `overall_heuristic` with the library's splits and
    # with the frozen ones, then the three splits in a drawn order sharing
    # one hand-off, without a floor, where every later split meets the
    # knapsacks of both earlier ones.  Knapsack calls (arguments and
    # order) and results must be the same.
    calls = []
    original_knapsack = selection_module.knapsack_01

    def recording(snr_col, transfer_col, sub_budget, resolution):
        calls.append((snr_col.tobytes(), transfer_col.tobytes(), float(sub_budget).hex(), resolution))
        return original_knapsack(snr_col, transfer_col, sub_budget, resolution)

    monkeypatch.setattr(selection_module, "knapsack_01", recording)
    library = selection_module.weighted_split_selection
    counts = {"two wider": 0, "wider": 0, "lowered": 0}

    def frozen(problem, kind, **kwargs):
        return reference_handoff_split(problem, kind, counts=counts, **kwargs)

    def run(split, problem, order):
        calls.clear()
        monkeypatch.setattr(selection_module, "weighted_split_selection", split)
        overall = overall_heuristic(problem)
        solved = {}
        chain = [split(problem, selection_module._SPLIT_KINDS[row], _solved=solved) for row in order]
        return calls[:], overall, chain

    rng = np.random.default_rng(2828)
    for _ in range(2400):
        problem = tie_heavy_problem(rng)
        order = rng.permutation(3).tolist()
        assert run(library, problem, order) == run(frozen, problem, order)
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("budget", [math.inf, math.nan, -1.0])
def test_knapsack_refuses_a_non_finite_or_negative_sub_budget(budget):
    with pytest.raises(ValueError, match="sub-budget must be finite and non-negative"):
        knapsack_01(np.array([5.0]), np.array([1.0]), budget, 1000)


@pytest.mark.parametrize("budget, resolution", [(1e308, 1000), (1e300, 1000), (np.float64(1e308), 1000), (2.0**53, 1)])
def test_knapsack_refuses_a_sub_budget_of_2_to_the_53_units_or_more(budget, resolution):
    # 1e308 * 1000 overflows to inf units, which raised a bare OverflowError;
    # 1e300 printed a 301-digit unit count.  Each is refused by name, as such
    # prices are, without a numpy warning.
    message = re.escape(f"sub-budget {budget:g} at resolution {resolution} is 2**53 money units or more")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            knapsack_01(np.array([5.0]), np.array([1.0]), budget, resolution)
        # One unit below 2**53 is a width the table refuses.
        with pytest.raises(ValueError, match="1 usable offers x 9007199254740992 money units"):
            knapsack_01(np.array([5.0]), np.array([1.0]), 2.0**53 - 1, 1)


@pytest.mark.parametrize("resolution", [0, -3, 2**53])
def test_knapsack_refuses_a_resolution_outside_1_to_2_to_the_53(resolution):
    # At resolution 0 a priced offer costs 0 units and was bought for free.
    with pytest.raises(ValueError, match=r"resolution must be a unit count in \[1, 2\*\*53\)"):
        knapsack_01(np.array([5.0]), np.array([1.0]), 1.0, resolution)
    assert knapsack_01(np.array([5.0]), np.array([1.0]), 1.0, 1) == [0]


def test_knapsack_refuses_a_table_above_the_memory_cap():
    with pytest.raises(ValueError, match="1 usable offers x 20000001 money units"):
        knapsack_01(np.array([5.0, 1.0]), np.array([1.0, 3e7]), 2.0, 10**7)


def assert_overdraw_within_the_snap(result, problem):
    """The spend exceeds the budget by at most 1e-9 money units per offer
    bought plus 1e-9 per subcarrier share, (bought + N) * 1e-9 / resolution
    of money, plus float rounding: a few ulps of the budget per term."""
    terms = sum(map(len, result.subsets)) + problem.offers.n
    rounding = 4 * terms * np.finfo(float).eps * max(problem.budget, result.spend)
    assert result.spend - problem.budget <= terms * 1e-9 / problem.resolution + rounding


def test_selection_overdraws_the_budget_by_at_most_the_unit_snap():
    # 0.005000000001 * 1000 less the 1e-9 snap is 5 units, the cap of budget
    # 0.005, so every split buys the 3: Overall spends 1e-12 over the budget,
    # and its capacity, 2, exceeds the relaxed bound by less than 1e-6.
    offers = offers_from_csv("m,n,gamma_linear,transfer\n0,0,3,0.005000000001\n1,0,2,0.005000000002\n")
    problem = SelectionProblem(offers, 0.005)
    result = overall_heuristic(problem)
    assert result.subsets == ((0,),) and result.spend == 0.005000000001 > problem.budget
    assert_overdraw_within_the_snap(result, problem)
    relaxed = relaxed_upper_bound(problem)
    assert relaxed < result.capacity == 2.0 <= relaxed + 1e-6
    assert sscpa(problem).subsets == best_snr_baseline(problem).subsets == ((),)
    # Prices a fraction of the snap above whole units, on many subcarriers.
    rng = np.random.default_rng(5151)
    for _ in range(200):
        m, n, resolution = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.choice([1, 10, 1000]))
        snr = rng.uniform(0.5, 50.0, (m, n))
        transfer = (rng.integers(1, 6, (m, n)) + rng.uniform(0.0, 1e-9, (m, n))) / resolution
        problem = SelectionProblem(OfferMatrix(snr, transfer), float(rng.integers(1, 4 * n)) / resolution, resolution)
        for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
            assert_overdraw_within_the_snap(weighted_split_selection(problem, kind), problem)
        assert_overdraw_within_the_snap(overall_heuristic(problem), problem)


def test_split_needs_no_table_where_every_offer_fits():
    # At the split's share, capped at the offer's price, the DP would need
    # 3e8 columns; with room for the one offer the split builds no table.
    problem = SelectionProblem(offers_1d([5.0], [30.0]), 100.0, 10**7)
    assert weighted_split_selection(problem, SelectionMethod.ESW).subsets == ((0,),)
    with pytest.raises(ValueError, match="1 usable offers x 300000001 money units"):
        knapsack_01(np.array([5.0]), np.array([30.0]), 30.0, 10**7)


def test_split_prices_many_offers_near_2_to_the_53_units_without_wrapping():
    # 2048 prices of 2**52 units add up to 2**63, past int64: the split must
    # see a knapsack too wide for the memory cap, not a negative budget.
    offers = OfferMatrix(np.ones((2048, 1)), np.full((2048, 1), float(2**52)))
    problem = SelectionProblem(offers, 3.0 * 2**52, 1)
    with pytest.raises(ValueError, match="2048 usable offers x 13510798882111489 money units"):
        weighted_split_selection(problem, SelectionMethod.ESW)


def test_selection_problem_rejects_prices_of_2_to_the_53_units():
    offers = OfferMatrix(np.array([[10.0], [6.0]]), np.array([[1e17], [1.0]]))
    with pytest.raises(ValueError, match=r"offer \(0, 0\) transfer 1e\+17 at resolution 1000"):
        SelectionProblem(offers, 2.0)
    limit = OfferMatrix(np.array([[1.0]]), np.array([[float(2**53 - 1)]]))
    SelectionProblem(limit, 2.0, 1)
    with pytest.raises(ValueError, match="transfer 9.0072e\\+15 at resolution 2"):
        SelectionProblem(limit, 2.0, 2)
    with pytest.raises(ValueError, match="resolution must be"):
        SelectionProblem(offers_1d([1.0], [0.5]), 2.0, 2**53)
    # A price whose units overflow to inf is refused by name, without a warning,
    # and the first of two equal largest prices is named; so with a NumPy resolution.
    huge = OfferMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.5, 1e306], [1e306, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for resolution in (1000, np.int64(1000)):
            with pytest.raises(ValueError, match=r"offer \(0, 1\) transfer 1e\+306 at resolution 1000 "):
                SelectionProblem(huge, 2.0, resolution)



def test_overflowing_efficiency_and_weights_are_named_errors():
    with pytest.raises(ValueError, match=r"offer \(0, 0\) SNR per unit transfer overflows"):
        offers_1d([1.0], [2.2e-311])
    # Two offers of 1e308 on one subcarrier overflow its SNR sum, which every
    # method takes; on two subcarriers only the budget weights overflow.
    with pytest.raises(ValueError, match="offers overflow at subcarrier 0: its SNR sum is inf"):
        offers_1d([1e308, 1e308], [1.0, 1.0])
    huge = SelectionProblem(OfferMatrix(np.array([[1e308, 1e308]]), np.array([[1.0, 1.0]])), 1.0)
    for kind in (SelectionMethod.ASW, SelectionMethod.NSW):
        with np.errstate(over="raise"), pytest.raises(ValueError, match=f"{kind.value} budget weights overflow"):
            weighted_split_selection(huge, kind)
    with pytest.raises(ValueError, match="subcarrier 1: its running total transfer is inf"):
        OfferMatrix(np.array([[5.0, 5.0]]), np.array([[1e308, 1e308]]))


def test_overall_drops_the_splits_whose_weights_overflow():
    # SNR per unit price 1e308 on two subcarriers: ASW's and NSW's weights
    # sum to inf, ESW's are ones.
    offers = OfferMatrix(np.array([[1e300, 1e300]]), np.array([[1e-8, 1e-8]]))
    problem = SelectionProblem(offers, 1.0)
    for kind in (SelectionMethod.ASW, SelectionMethod.NSW):
        with pytest.raises(ValueError, match=f"{kind.value} budget weights overflow"):
            weighted_split_selection(problem, kind)
    esw = weighted_split_selection(problem, SelectionMethod.ESW)
    result = overall_heuristic(problem)
    assert result.subsets == esw.subsets == ((0,), (0,))
    assert result.capacity == max(esw.capacity, sscpa(problem).capacity)
    assert result.method is SelectionMethod.OVERALL


def test_overall_runs_only_the_splits_whose_weights_sum(monkeypatch):
    # The overflowing problem above: ASW and NSW have bound -inf, so only ESW runs.
    kinds = []
    original = selection_module.weighted_split_selection

    def wrapper(problem, kind, **kwargs):
        kinds.append(kind)
        return original(problem, kind, **kwargs)

    monkeypatch.setattr(selection_module, "weighted_split_selection", wrapper)
    offers = OfferMatrix(np.array([[1e300, 1e300]]), np.array([[1e-8, 1e-8]]))
    assert overall_heuristic(SelectionProblem(offers, 1.0)).subsets == ((0,), (0,))
    assert kinds == [SelectionMethod.ESW]


# -- fused offer checks and the caps stage -----------------------------------


def reference_efficiency(snr, transfer):
    """Frozen copy of the checked OfferMatrix build: each check in turn, then
    the efficiency and its order."""
    snr = np.ascontiguousarray(snr, dtype=float)
    transfer = np.ascontiguousarray(transfer, dtype=float)
    if not np.all((snr >= 0.0) & (snr < np.inf) & (transfer >= 0.0) & (transfer < np.inf)):
        raise ValueError("offers must be finite and non-negative")
    if np.any((snr == 0.0) & (transfer > 0.0)):
        raise ValueError("null offers must carry zero transfer")
    with np.errstate(over="ignore"):
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
    return ratio, np.argsort(-ratio, axis=0, kind="stable")


def assert_offers_build_as_checked(snr, transfer):
    """OfferMatrix raises the checked build's error, or builds its efficiency
    and order bit for bit; either way without a warning.  Returns the offers
    or None."""
    try:
        ratio, order = reference_efficiency(snr, transfer)
    except ValueError as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                OfferMatrix(snr, transfer)
        assert str(raised.value) == str(exc)
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        offers = OfferMatrix(snr, transfer)
    assert offers.efficiency.tobytes() == ratio.tobytes()
    assert offers.efficiency_order.tobytes() == order.tobytes()
    return offers


_EDGE_SNR = st.one_of(st.floats(0.5, 200.0), st.sampled_from([0.0, 0.0, 1e-17, 3.0, 1e300]))
_EDGE_TRANSFER = st.one_of(st.floats(1e-3, 3.0), st.sampled_from([0.0, 1.0, 1e-8]))


@st.composite
def caps_edge_problems(draw):
    """Problems at the caps stage's edges, at resolutions 1, 10 and 1000:
    free offers, all-free offers whose ASW and NSW weights sum to zero (NaN
    caps), SNRs of 1e300 at a price of 1e-8 whose ASW and NSW weights
    overflow, and budgets of 1e300 and 1e306 whose shares reach inf caps."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    snr = np.array(draw(st.lists(_EDGE_SNR, min_size=m * n, max_size=m * n)), dtype=float).reshape(m, n)
    transfer = np.array(draw(st.lists(_EDGE_TRANSFER, min_size=m * n, max_size=m * n)), dtype=float)
    transfer = transfer.reshape(m, n)
    shape = draw(st.integers(0, 4))
    if shape == 0:  # every offer free
        transfer = np.zeros_like(transfer)
    elif shape == 1 and m:  # relay 0 offers SNR 1e308 per unit price everywhere
        snr[0], transfer[0] = 1e300, 1e-8
    transfer[snr == 0.0] = 0.0
    budget = draw(st.one_of(
        st.floats(0.0, 20.0),
        st.sampled_from([0.0, 1e300, 1e306]),
        st.floats(0.0, 1.5).map(lambda share: share * float(transfer.sum())),
    ))
    return snr, transfer, budget, draw(st.sampled_from([1, 10, 1000]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(caps_edge_problems())
def test_property_offers_and_caps_stage_match_the_checked_build_and_the_plan(case):
    snr, transfer, budget, resolution = case
    offers = assert_offers_build_as_checked(snr, transfer)
    problem = SelectionProblem(offers, budget, resolution)
    result = overall_heuristic(problem)
    sequential = sscpa(problem)
    # The plan is built exactly where the proof fails or SSCPA's capacity is 0.0.
    skipped = problem._split_caps.nothing_fits and sequential.capacity > 0.0
    assert ("_split_plan" in vars(problem)) != skipped
    if skipped:
        assert (result.subsets, result.capacity, result.spend) == (
            sequential.subsets, sequential.capacity, sequential.spend
        )
    assert_bounds_dominate_splits(problem)


@pytest.mark.parametrize("snr, transfer, message", [
    pytest.param([[math.nan]], [[1.0]], "offers must be finite and non-negative", id="nan-snr"),
    pytest.param([[1.0]], [[math.nan]], "offers must be finite and non-negative", id="nan-transfer"),
    pytest.param([[math.inf]], [[1.0]], "offers must be finite and non-negative", id="inf-snr"),
    pytest.param([[1.0]], [[-math.inf]], "offers must be finite and non-negative", id="minus-inf-transfer"),
    pytest.param([[-math.inf, 0.0]], [[0.0, 1.0]], "offers must be finite and non-negative", id="first-check-first"),
    pytest.param([[0.0, 1.0]], [[1.0, 2.2e-311]], "null offers must carry zero transfer", id="null-before-ratio"),
    pytest.param([[1.0]], [[2.2e-311]], r"offer (0, 0) SNR per unit transfer overflows: 1 / 2.2e-311", id="ratio"),
    pytest.param([[1e308], [1e308]], [[1.0], [1.0]], "offers overflow at subcarrier 0: its SNR sum is inf",
                 id="snr-sum"),
    pytest.param([[5.0, 5.0]], [[1e308, 1e308]], "offers overflow at subcarrier 1: its running total transfer is inf",
                 id="price-total"),
])
def test_offers_that_leave_the_fast_path_raise_their_named_error(snr, transfer, message):
    snr, transfer = np.array(snr), np.array(transfer)
    assert selection_module._fast_efficiency(snr, transfer) is None
    with pytest.raises(ValueError, match=re.escape(message)):
        reference_efficiency(snr, transfer)
    assert assert_offers_build_as_checked(snr, transfer) is None


@pytest.mark.parametrize("snr, transfer", [
    pytest.param(np.zeros((0, 3)), np.zeros((0, 3)), id="empty"),
    pytest.param([[1e308]], [[1.0]], id="snr-sum-near-the-largest-float"),
    pytest.param([[1.0, 5.0]], [[1e308, 0.5]], id="price-total-near-the-largest-float"),
    pytest.param([[1e300, 1.0]], [[1.0, 1e-10]], id="ratio-bound-overflows-each-ratio-finite"),
])
def test_valid_offers_that_leave_the_fast_path_build_as_checked(snr, transfer):
    snr, transfer = np.array(snr, dtype=float), np.array(transfer, dtype=float)
    assert selection_module._fast_efficiency(snr, transfer) is None
    assert assert_offers_build_as_checked(snr, transfer) is not None


def test_overall_builds_no_split_plan_where_no_offer_fits_and_sscpa_buys_capacity(monkeypatch):
    # Every share is 1.0, and each offer costs 1.01, so no split can use
    # one.  SSCPA buys the offer on subcarrier 0.
    plans = []
    original = selection_module._plan_splits

    def counting_plan(problem):
        plans.append(problem)
        return original(problem)

    monkeypatch.setattr(selection_module, "_plan_splits", counting_plan)
    problem = SelectionProblem(OfferMatrix(np.array([[100.0, 100.0]]), np.array([[1.01, 1.01]])), 2.0)
    result = overall_heuristic(problem)
    best = sscpa(problem)
    assert problem._split_caps.nothing_fits and best.capacity > 0.0
    assert plans == []
    assert (result.subsets, result.capacity, result.method) == (best.subsets, best.capacity, SelectionMethod.OVERALL)
    # An offer that fits a cap builds the plan, once; so it does where SSCPA
    # buys log2(32) and an offer of SNR 4.2e-9 that no share reaches, and
    # each plan bound equals SSCPA's capacity.
    problem = SelectionProblem(OfferMatrix(np.array([[100.0, 100.0]]), np.array([[1.0, 1.01]])), 2.0)
    overall_heuristic(problem)
    assert not problem._split_caps.nothing_fits
    equal = SelectionProblem(OfferMatrix(np.array([[31.0, 4.158883126770264e-09]]), np.array([[0.5, 1.2]])), 2.0)
    result = overall_heuristic(equal)
    assert equal._split_plan.bounds == [sscpa(equal).capacity] * 3 == [result.capacity] * 3
    assert plans == [problem, equal]


@pytest.mark.parametrize("lines, budget, proved, bought", [
    # SSCPA buys the 1e-17 offer at 0.407, capacity 0.0; the ASW and NSW
    # caps of 500 on subcarrier 1 keep the proof from holding.
    pytest.param(["0,0,1e-17,0.407", "0,1,47.7,1.135", "0,2,0,0"], 0.5, False, True, id="asw-cap-fits"),
    pytest.param(["0,0,1e-17,0.407", "0,1,47.7,1.135", "0,2,0,0"], 0.3, True, False, id="nothing-affordable"),
    # Every cap is 250 units and the offers cost 407: the proof holds, and
    # SSCPA still buys an offer whose log2(1 + SNR) is 0.0.
    pytest.param(["0,0,1e-17,0.407", "0,1,1e-17,0.407"], 0.5, True, True, id="proof-holds-sscpa-buys-zero"),
])
def test_overall_keeps_the_empty_esw_selection_where_sscpa_ties_at_zero(lines, budget, proved, bought):
    offers = offers_from_csv("m,n,gamma_linear,transfer\n" + "\n".join(lines) + "\n")
    problem = SelectionProblem(offers, budget)
    sequential = sscpa(problem)
    assert problem._split_caps.nothing_fits is proved
    assert sequential.capacity == 0.0 and (sequential.spend > 0.0) is bought
    result = overall_heuristic(problem)
    assert (result.subsets, result.capacity, result.spend) == (((),) * offers.n, 0.0, 0.0)


# -- the cheapest offer: SSCPA, the greedy and the caps stage stop there ------


def reference_sscpa_walk(problem):
    """Frozen copy of the cursor walk before it stopped at the cheapest
    offer: it passes over the live columns until none is left."""
    offers = problem.offers
    order, size = offers.efficiency_order, offers.m
    at = order * offers.n + np.arange(offers.n)
    prices = np.where(offers.snr.take(at) > 0.0, offers.transfer.take(at), math.inf).T.tolist()
    relays = order.T.tolist()
    cursors = [0] * offers.n
    remaining = problem.budget
    subsets = [[] for _ in range(offers.n)]
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
                i += 1
                if i < size:
                    kept.append(n)
            cursors[n] = i
        live = kept
    return [tuple(sorted(sub)) for sub in subsets]


def reference_best_snr_baseline(problem):
    """Frozen copy of the best-SNR greedy before it stopped at the cheapest
    offer: it visits every offer with positive SNR."""
    offers = problem.offers
    ms, ns = np.nonzero(offers.snr > 0.0)
    order = np.lexsort((ms, ns, -offers.snr[ms, ns]))
    ms, ns = ms[order], ns[order]
    remaining = problem.budget
    subsets = [[] for _ in range(offers.n)]
    for m, n, t in zip(ms.tolist(), ns.tolist(), offers.transfer[ms, ns].tolist()):
        if t <= remaining:
            subsets[n].append(m)
            remaining -= t
    return [tuple(sorted(sub)) for sub in subsets]


def independent_cheapest(offers):
    positive = offers.transfer[offers.snr > 0.0]
    return float(positive.min()) if positive.size else math.inf


_WALK_SNR = st.one_of(st.integers(0, 4).map(float), st.floats(0.5, 200.0), st.sampled_from([0.0, 1e-17]))
_WALK_PRICE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]), st.floats(1e-3, 3.0))


@st.composite
def walk_problems(draw):
    """Declined, free and 1e-17 offers with exact SNR and efficiency ties
    (small integers, dyadic prices), and budgets of 0, of the cheapest
    price, and of the cheapest price plus up to four offers' prices, which
    a walk can spend down to exactly the cheapest price."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    snr = np.array(draw(st.lists(_WALK_SNR, min_size=m * n, max_size=m * n)), dtype=float).reshape(m, n)
    transfer = np.array(draw(st.lists(_WALK_PRICE, min_size=m * n, max_size=m * n)), dtype=float)
    transfer = transfer.reshape(m, n)
    transfer[snr == 0.0] = 0.0
    prices = transfer[snr > 0.0].tolist() or [0.0]
    cheapest = min(prices)
    budget = draw(st.one_of(
        st.just(0.0),
        st.just(cheapest),
        st.lists(st.sampled_from(prices), max_size=4).map(
            lambda extra: reference_sequential_sum([cheapest, *extra])
        ),
        st.floats(0.0, 12.0),
    ))
    return SelectionProblem(OfferMatrix(snr, transfer), budget)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(walk_problems())
def test_property_walks_that_stop_at_the_cheapest_offer_match_their_frozen_copies(problem):
    offers = problem.offers
    assert offers.cheapest == independent_cheapest(offers)
    assert_same_totals(sscpa(problem), offers, reference_sscpa_walk(problem))
    assert_same_totals(sscpa(problem), offers, reference_sscpa(problem))
    assert_same_totals(best_snr_baseline(problem), offers, reference_best_snr_baseline(problem))


def test_walks_keep_going_while_the_money_left_equals_the_cheapest_price():
    # The cheapest price is 0.25.  At budget 0.75, SSCPA and the greedy buy
    # 0.5 on subcarrier 0, which leaves exactly 0.25, then buy that too.
    offers = OfferMatrix(np.array([[4.0, 3.0, 0.0]]), np.array([[0.5, 0.25, 0.0]]))
    assert offers.cheapest == 0.25
    for budget, bought in ((0.75, ((0,), (0,), ())), (0.25, ((), (0,), ())), (0.5, ((0,), (), ()))):
        problem = SelectionProblem(offers, budget)
        assert sscpa(problem).subsets == best_snr_baseline(problem).subsets == bought
    below = SelectionProblem(offers, math.nextafter(0.25, 0.0))
    assert sscpa(below).subsets == best_snr_baseline(below).subsets == ((), (), ())
    # A free offer makes the cheapest price 0: a budget of 0 still takes it.
    free = SelectionProblem(OfferMatrix(np.array([[4.0, 3.0]]), np.array([[0.5, 0.0]])), 0.0)
    assert free.offers.cheapest == 0.0
    assert sscpa(free).subsets == best_snr_baseline(free).subsets == ((), (0,))


def reference_cap_splits(problem):
    """Frozen copy of the full caps stage: shares, caps, price units and the
    usable offers in efficiency and relay order, all built on every problem.
    Weights come from the module's `weight_profile`, so a test can replace it."""
    offers, resolution = problem.offers, problem.resolution
    units = np.ceil(offers.transfer * resolution - _UNIT_SNAP)
    order = offers.efficiency_order, np.arange(offers.n)
    snr = offers.snr[order]
    with np.errstate(over="ignore", invalid="ignore"):
        kinds = (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)
        weights = np.array([selection_module.weight_profile(offers, kind) for kind in kinds])
        weight_sums = weights.sum(axis=1)
        sub_budgets = weights * problem.budget / weight_sums[:, None]
        caps = np.floor(sub_budgets * resolution + _UNIT_SNAP)
        ordered = (snr > 0.0) & (units[order] <= caps[:, None, :])
        usable = (offers.snr > 0.0) & (units <= caps[:, None, :])
    return {"weight_sums": weight_sums, "sub_budgets": sub_budgets, "caps": caps, "units": units,
            "ordered": ordered, "usable": usable, "snr": snr}


def assert_caps_stage_matches_the_full_stage(problem):
    """The caps stage's weight sums, shares and caps equal the frozen full
    stage bit for bit, without a warning.  Its proof holds exactly where the
    cheapest offer, less the unit snap, lies above every non-NaN cap, and
    there the full stage finds no usable offer.  The plan, built after,
    holds the frozen units, usable masks and SNRs either way.  Returns
    whether the proof holds."""
    want = reference_cap_splits(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stage = selection_module._cap_splits(problem)
    caps = want["caps"][~np.isnan(want["caps"])]
    top = float(caps.max()) if caps.size else -math.inf
    proved = independent_cheapest(problem.offers) * problem.resolution - _UNIT_SNAP > top
    assert type(stage.nothing_fits) is bool and stage.nothing_fits == proved
    if proved:
        assert not want["ordered"].any()
    for name in ("weight_sums", "sub_budgets", "caps"):
        assert getattr(stage, name).tobytes() == want[name].tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = problem._split_plan
    order = problem.offers.efficiency_order, np.arange(problem.offers.n)
    assert plan.usable[:, order[0], order[1]].tobytes() == want["ordered"].tobytes()
    for name in ("units", "usable"):
        assert getattr(plan, name).tobytes() == want[name].tobytes()
    return proved


def assert_a_standalone_split_takes_what_the_frozen_split_takes(problem):
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        fresh = SelectionProblem(problem.offers, problem.budget, problem.resolution)
        try:
            result = weighted_split_selection(fresh, kind)
        except ValueError as exc:
            assert "budget weights overflow" in str(exc)
            continue
        assert_same_totals(result, fresh.offers, reference_split(fresh, kind))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(caps_edge_problems())
def test_property_caps_stage_proves_every_split_empty_only_where_no_offer_fits(case):
    snr, transfer, budget, resolution = case
    offers = OfferMatrix(snr, transfer)
    assert offers.cheapest == independent_cheapest(offers)
    problem = SelectionProblem(offers, budget, resolution)
    if assert_caps_stage_matches_the_full_stage(problem):
        assert_a_standalone_split_takes_what_the_frozen_split_takes(problem)


# 0.005000000001 * 1000 - 1e-9 is exactly 5.0, the cap of a budget of 0.005
# at resolution 1000; the next float up lies above it.
_AT_CAP_5 = 0.005000000001


@pytest.mark.parametrize("snr, transfer, budget, resolution, proved", [
    pytest.param([[3.0]], [[_AT_CAP_5]], 0.005, 1000, False, id="cheapest-less-snap-equals-the-cap"),
    pytest.param([[3.0]], [[math.nextafter(_AT_CAP_5, 1.0)]], 0.005, 1000, True, id="one-float-above-the-cap"),
    pytest.param([[3.0, 2.0]], [[0.5, 0.7]], 1e306, 1000, False, id="infinite-caps"),
    pytest.param(np.zeros((0, 4)), np.zeros((0, 4)), 2.0, 10, True, id="no-relays"),
    pytest.param([[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], 0.0, 1000, False, id="one-free-offer"),
    pytest.param([[3.0, 5.0]], [[0.0, 4.0]], 2.0, 1, False, id="a-free-offer-and-a-dear-one"),
    pytest.param([[0.0, 0.0]], [[0.0, 0.0]], 1.0, 1000, True, id="all-declined"),
])
def test_caps_stage_proof_at_its_edges(snr, transfer, budget, resolution, proved):
    problem = SelectionProblem(OfferMatrix(np.array(snr, dtype=float), np.array(transfer, dtype=float)), budget, resolution)
    assert assert_caps_stage_matches_the_full_stage(problem) is proved
    if proved:
        assert_a_standalone_split_takes_what_the_frozen_split_takes(problem)
    if budget * resolution >= 2.0**53:  # the frozen knapsack cannot price the shares
        return
    # `overall_heuristic` on a fresh problem returns the best of its four candidates run in full.
    fresh = SelectionProblem(problem.offers, budget, resolution)
    kinds = (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW)
    candidates = [reference_split(fresh, kind) for kind in kinds] + [reference_sscpa(fresh)]
    best = max(candidates, key=lambda subsets: reference_totals(fresh.offers, subsets)[0])
    assert_same_totals(overall_heuristic(fresh), fresh.offers, best)


def test_caps_stage_proof_where_every_cap_is_nan(monkeypatch):
    # Budget weights that all sum to zero make every cap NaN, which makes
    # nothing usable, not even a free offer: no cap is left to compare.
    monkeypatch.setattr(selection_module, "weight_profile", lambda offers, kind: np.zeros(offers.n))
    offers = OfferMatrix(np.array([[3.0, 2.0], [1.0, 0.0]]), np.array([[0.0, 0.5], [0.2, 0.0]]))
    problem = SelectionProblem(offers, 1.0)
    assert offers.cheapest == 0.0
    assert assert_caps_stage_matches_the_full_stage(problem)
    assert np.isnan(problem._split_caps.caps).all() and problem._split_caps.nothing_fits
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        result = weighted_split_selection(problem, kind)
        assert (result.subsets, result.capacity, result.spend) == (((), ()), 0.0, 0.0)
    assert problem._split_plan.usable.tobytes() == np.zeros((3, 2, 2), dtype=bool).tobytes()


def test_a_fine_quant_round_prices_only_the_cheapest_offer_and_builds_no_plan(monkeypatch):
    # Rounds as the fine_quant benchmark plays them: K = 300, 32 subcarriers,
    # 3 relays and budget 1 at resolution 1000.  Each split's cap is at most
    # 46 money units and the cheapest offer costs over 100, so the caps
    # stage proves every split empty and SSCPA is the result.
    priced = []
    original = selection_module._price_units
    monkeypatch.setattr(selection_module, "_price_units", lambda t, r: priced.append(np.shape(t)) or original(t, r))
    config = ExperimentConfig(quant=300, subcarriers=32, relays=3, budget=1.0, trials=1)
    menu = broadcast_menu(config)
    for seed in range(12):
        types = sample_type_vector(config.dist, 96, np.random.default_rng(seed)).reshape(3, 32)
        problem = SelectionProblem(accepted_offers(menu, types), 1.0, 1000)
        result = overall_heuristic(problem)
        stage = problem._split_caps
        assert stage.nothing_fits and result.capacity > 0.0
        assert "_split_plan" not in vars(problem)
        assert np.nanmax(stage.caps) <= 46.0 and problem.offers.cheapest > 0.1
        assert_same_totals(result, problem.offers, reference_sscpa_walk(problem))
        assert_same_totals(best_snr_baseline(problem), problem.offers, reference_best_snr_baseline(problem))
    assert priced == [()] * 12  # the one price of the proof per round, no (M, N) units


# The largest price below 2**53 money units at resolution 1000.
_BELOW_2_53_UNITS = math.nextafter(2.0**53 / 1000, 0.0)


@pytest.mark.parametrize("snr, transfer, cheapest", [
    pytest.param(np.zeros((0, 3)), np.zeros((0, 3)), math.inf, id="empty"),
    pytest.param(np.zeros((2, 3)), np.zeros((2, 3)), math.inf, id="all-declined"),
    pytest.param(np.full((2, 3), 4.0), np.zeros((2, 3)), 0.0, id="all-free"),
    pytest.param([[1e-300, 2.0]], [[5e-324, 1.0]], 5e-324, id="price-5e-324"),
    pytest.param([[1.0, 2.0]], [[_BELOW_2_53_UNITS, 3.0]], 3.0, id="a-price-just-below-2**53-units"),
    pytest.param([[1.0]], [[_BELOW_2_53_UNITS]], _BELOW_2_53_UNITS, id="cheapest-just-below-2**53-units"),
])
def test_the_cheapest_offer_is_found_and_used_without_a_warning(snr, transfer, cheapest):
    snr, transfer = np.array(snr, dtype=float), np.array(transfer, dtype=float)
    assert _BELOW_2_53_UNITS * 1000 < 2.0**53
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        offers = OfferMatrix(snr, transfer)
        for budget in (0.0, 1.0, cheapest if cheapest < math.inf else 2.0):
            problem = SelectionProblem(offers, budget, 1000)
            overall_heuristic(problem), best_snr_baseline(problem)
            assert_caps_stage_matches_the_full_stage(problem)
    assert type(offers.cheapest) is float and offers.cheapest == cheapest


# -- property tests against the reference copies ------------------------------

_finite_snr = st.one_of(
    st.integers(0, 4).map(float),
    st.floats(0.5, 200.0),
    st.sampled_from([0.0, 1e-17]),
)
_finite_transfer = st.one_of(
    st.integers(0, 3).map(float),
    st.floats(1e-3, 3.0),
    st.just(0.0),
)


@st.composite
def selection_problems(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    snr = np.array(draw(st.lists(_finite_snr, min_size=m * n, max_size=m * n)), dtype=float)
    transfer = np.array(
        draw(st.lists(_finite_transfer, min_size=m * n, max_size=m * n)), dtype=float
    )
    snr, transfer = snr.reshape(m, n), transfer.reshape(m, n)
    transfer[snr == 0.0] = 0.0
    budget = draw(
        st.one_of(
            st.floats(0.0, 20.0),
            st.integers(0, 8).map(float),
            st.floats(0.0, 1.5).map(lambda share: share * float(transfer.sum())),
        )
    )
    resolution = draw(st.one_of(st.sampled_from([1, 10, 1000]), st.integers(1, 5000)))
    return SelectionProblem(OfferMatrix(snr, transfer), budget, resolution)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(selection_problems())
def test_property_selection_matches_reference_copies(problem):
    offers = problem.offers
    candidates = []
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        candidates.append(reference_split(problem, kind))
        assert_same_totals(weighted_split_selection(problem, kind), offers, candidates[-1])
    candidates.append(reference_sscpa(problem))
    assert_same_totals(sscpa(problem), offers, candidates[-1])
    # The first maximum in ESW, ASW, NSW, SSCPA order.
    best = max(candidates, key=lambda subsets: reference_totals(offers, subsets)[0])
    assert_same_totals(overall_heuristic(problem), offers, best)
    assert_same_totals(best_snr_baseline(problem), offers, reference_best_snr(problem))
    assert_bounds_dominate_splits(problem)
    assert_within_bisection(problem)
    assert_spends_the_budget(problem)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(selection_problems())
def test_property_a_split_with_a_floor_stops_only_below_it(problem):
    sequential = sscpa(problem).capacity
    for kind in (SelectionMethod.ESW, SelectionMethod.ASW, SelectionMethod.NSW):
        full = weighted_split_selection(problem, kind)
        below, above = math.nextafter(full.capacity, -math.inf), math.nextafter(full.capacity, math.inf)
        for floor in (full.capacity, above, below, sequential):
            result = weighted_split_selection(problem, kind, floor=floor)
            if floor <= full.capacity:
                assert result == full
            else:
                # A stopped split keeps each subcarrier's subset or leaves it empty.
                assert result.method is kind and result.capacity < floor
                assert all(sub in (kept, ()) for sub, kept in zip(result.subsets, full.subsets))


@st.composite
def traceback_columns(draw):
    """A knapsack column priced in whole units at resolution 1, 10 or 1000,
    with tied SNRs and prices, 1e-17 SNRs and zero prices, and a cap in units."""
    resolution = draw(st.sampled_from([1, 10, 1000]))
    m = draw(st.integers(1, 7))
    snr = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1e-17, 2.0, 5.0]), st.floats(0.5, 200.0)), min_size=m, max_size=m
    ))
    units = draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    for i in range(1, m):
        if draw(st.booleans()):  # ties an earlier offer's SNR and price
            j = draw(st.integers(0, i - 1))
            snr[i], units[i] = snr[j], units[j]
    cap = draw(st.integers(0, sum(units) + 5))
    return np.array(snr), np.array(units, dtype=float) / resolution, cap, resolution


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(traceback_columns())
def test_property_knapsack_returns_its_subset_at_every_cap_down_to_its_units(column):
    # The rule the splits of one overall call share their knapsacks by.
    snr, transfer, cap, resolution = column
    subset = knapsack_01(snr, transfer, cap / resolution, resolution)
    used = int(np.ceil(transfer[subset] * resolution - _UNIT_SNAP).sum())
    assert used <= cap
    for units in range(used, cap + 1):
        assert math.floor(units / resolution * resolution + _UNIT_SNAP) == units
        assert knapsack_01(snr, transfer, units / resolution, resolution) == subset


# -- frozen offers parser -----------------------------------------------------
# Verbatim copy of the line loop that read every offers CSV before plain
# chunks got an array parse.  The library must give tobytes()-equal
# matrices, or raise a ValueError with the same message.

_CSV_HUGE_INDEX = 2**30
_CSV_CHUNK = 1 << 16
_MAX_OFFER_BYTES = 2**28


def reference_nonblank_lines(text: str):
    """(number, line) of each non-blank line as `text.splitlines()` numbers
    them, split a chunk at a time; a cut after a newline is a line boundary."""
    lineno = begin = 0
    while begin < len(text):
        cut = text.find("\n", begin + _CSV_CHUNK) + 1 or len(text)
        for line in text[begin:cut].splitlines():
            lineno += 1
            if line.strip():
                yield lineno, line
        begin = cut


def reference_cells(ms: array, ns: array) -> tuple[int, np.ndarray]:
    """Width n_span and flat index m * n_span + n of each parsed entry."""
    n_span = int(np.frombuffer(ns, dtype=np.int64).max(initial=0)) + 1
    cells = np.frombuffer(ms, dtype=np.int64) * n_span
    cells += np.frombuffer(ns, dtype=np.int64)
    return n_span, cells


def reference_repeat_error(text: str, n_span: int, cells: np.ndarray) -> ValueError | None:
    """The error for the first entry whose cell an earlier one has, if any."""
    order = np.argsort(cells, kind="stable")  # each cell's entries in file order
    ordered = cells[order]
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
    if repeats.size == 0:
        return None
    repeat = int(order[repeats + 1].min())
    first = int(order[np.searchsorted(ordered, cells[repeat])])
    first_line, repeat_line = (
        next(itertools.islice(reference_nonblank_lines(text), entry + 1, None))[0]
        for entry in (first, repeat)
    )
    m, n = divmod(int(cells[repeat]), n_span)
    return ValueError(f"line {repeat_line}: offer ({m}, {n}) repeats line {first_line}")


def reference_offers_from_csv(text: str) -> OfferMatrix:
    """Parse the offers wire format; raises ValueError naming the bad line.

    Entries go into flat arrays.  A stable sort of their cells finds a
    repeated offer, and one scatter fills each matrix.  Errors come in line
    order, and the size cap is checked last, before allocating.
    """
    lines = reference_nonblank_lines(text)
    if next(lines, (0, ""))[1].strip() != "m,n,gamma_linear,transfer":
        raise ValueError("line 1: expected header 'm,n,gamma_linear,transfer'")
    ms, ns, gs, ts = array("q"), array("q"), array("d"), array("d")
    m_max = n_max = 0
    try:
        for lineno, line in lines:
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
    except ValueError as exc:  # unless the entries above it already repeat a cell
        raise reference_repeat_error(text, *reference_cells(ms, ns)) or exc from None
    n_span, cells = reference_cells(ms, ns)
    del ms, ns
    error = reference_repeat_error(text, n_span, cells)
    if error is not None:
        raise error
    if 2 * 8 * m_max * n_max > _MAX_OFFER_BYTES:
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


def parse_both(text):
    """Each parser's outcome: (shape, snr bytes, transfer bytes) or the message."""
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parse in (offers_from_csv, reference_offers_from_csv):
            try:
                offers = parse(text)
            except ValueError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((offers.snr.shape, offers.snr.tobytes(), offers.transfer.tobytes()))
    return outcomes


_HEADER = "m,n,gamma_linear,transfer\n"


@pytest.mark.parametrize(
    "body, plain, expected",
    [
        pytest.param("0,0,0x1p3,1\n", False, "line 2: could not convert string to float: '0x1p3'", id="hex-float"),
        pytest.param("0,3.0,1,1\n", False, "line 2: invalid literal for int() with base 10: '3.0'", id="index-3.0"),
        pytest.param("0,3e0,1,1\n", False, "line 2: invalid literal for int() with base 10: '3e0'", id="index-3e0"),
        pytest.param("0,+3,1,1\n", False, ([[0, 0, 0, 1.0]], [[0, 0, 0, 1.0]]), id="index-+3"),
        pytest.param("0,007,1,1\n", True, ([[0] * 7 + [1.0]], [[0] * 7 + [1.0]]), id="index-007"),
        pytest.param("0,0,1_0,1\n", False, ([[10.0]], [[1.0]]), id="underscore"),
        pytest.param(
            "0,0,1\u20032,1\n", False, "line 2: could not convert string to float: '1\\u20032'",
            id="em-space-inside",
        ),
        pytest.param("0,\u20031,2,1\n", False, ([[0, 2.0]], [[0, 1.0]]), id="em-space-leading"),
        pytest.param("0,0,1,1\r\n0,1,2,1\r\n", False, ([[1.0, 2.0]], [[1.0, 1.0]]), id="crlf"),
        pytest.param("0,0,1,1\x0c0,0,2,1\n", False, "line 3: offer (0, 0) repeats line 2", id="form-feed"),
        pytest.param("\n0,0,1,1\n\n0,0,2,1\n", False, "line 5: offer (0, 0) repeats line 3", id="blank-lines"),
        pytest.param("0,0,1,1\n0,1,2,1", False, ([[1.0, 2.0]], [[1.0, 1.0]]), id="no-final-newline"),
        pytest.param(
            "0,1000000000,1,1\n", False,
            "offers span 1 relays x 1000000001 subcarriers: their SNR and transfer arrays would exceed 2**28 bytes",
            id="index-10-digits",
        ),
        pytest.param(
            "0,999999999,1,1\n", True,
            "offers span 1 relays x 1000000000 subcarriers: their SNR and transfer arrays would exceed 2**28 bytes",
            id="index-9-digits",
        ),
        pytest.param("0,0,-0,-0\n", True, ([[-0.0]], [[-0.0]]), id="minus-zero"),
        pytest.param("0,0,1,1e-400\n", True, ([[1.0]], [[0.0]]), id="underflow"),
        pytest.param("0,0,1e400,1\n", True, "offers must be finite and non-negative", id="overflow"),
        pytest.param("0,0,nan,1\n", False, "offers must be finite and non-negative", id="nan"),
        pytest.param("0,0,1,inf\n", False, "offers must be finite and non-negative", id="inf"),
    ],
)
def test_offers_csv_edge_cases_read_as_the_reference_loop_reads_them(body, plain, expected):
    # `plain` pins which path reads the body: the array parse or the line loop.
    assert (selection_module._plain_columns(body) is not None) == plain
    new, reference = parse_both(_HEADER + body)
    assert new == reference
    if isinstance(expected, str):
        assert reference == expected
    else:
        snr, transfer = (np.array(rows, dtype=float) for rows in expected)
        assert reference == (snr.shape, snr.tobytes(), transfer.tobytes())


def plain_lines(count):
    """`count` distinct plain offer lines of 19 characters each."""
    return [f"{i // 100:03d},{i % 100:02d},1.25,0.5e-1\n" for i in range(count)]


def spy_plain_columns(monkeypatch):
    """Record whether each chunk `offers_from_csv` tries is read as arrays."""
    plain, read = [], selection_module._plain_columns

    def spy(chunk):
        columns = read(chunk)
        plain.append(columns is not None)
        return columns

    monkeypatch.setattr(selection_module, "_plain_columns", spy)
    return plain


def test_offers_csv_names_a_bad_line_in_the_second_chunk(monkeypatch):
    lines = plain_lines(8000)  # about 152 000 characters: three chunks
    lines[5000] = "50,0,1.25,x\n"  # line 5002, past the first 65 536 characters
    text = _HEADER + "".join(lines)
    plain = spy_plain_columns(monkeypatch)
    with pytest.raises(ValueError) as caught:
        offers_from_csv(text)
    assert str(caught.value) == "line 5002: could not convert string to float: 'x'"
    assert plain == [True, False]  # the loop raises in the second chunk
    monkeypatch.undo()
    assert parse_both(text)[1] == str(caught.value)


def test_offers_csv_names_a_repeat_that_spans_two_chunks(monkeypatch):
    lines = plain_lines(8000)
    lines[6000] = lines[2]  # line 6002 repeats line 4, both read as arrays
    text = _HEADER + "".join(lines)
    plain = spy_plain_columns(monkeypatch)
    with pytest.raises(ValueError) as caught:
        offers_from_csv(text)
    assert str(caught.value) == "line 6002: offer (0, 2) repeats line 4"
    assert plain == [True, True, True]
    monkeypatch.undo()
    assert parse_both(text)[1] == str(caught.value)


def test_plain_offers_csv_is_read_as_arrays_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(1111)
    snr = rng.uniform(0.0, 200.0, (40, 64)) * (rng.random((40, 64)) > 0.3)
    transfer = rng.uniform(0.05, 1.3, (40, 64)) * (snr > 0.0)
    text = offers_to_csv(OfferMatrix(snr, transfer))
    plain = spy_plain_columns(monkeypatch)
    offers = offers_from_csv(text)
    assert plain == [True, True]
    assert offers.snr.tobytes() == snr.tobytes() and offers.transfer.tobytes() == transfer.tobytes()


# Characters at and just past the edges of the plain whitelist `0-9 . e E + - , LF`,
# the line breaks str.splitlines honours, and texts strtod and int/float read
# differently.
_EDGE_TEXTS = [
    *"/:09.eE+-,\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " ",
    "\u2003", "\u2028", "\t", "_", "x", "p", "d", "D", "f", "F", "n", "i", "\x00", "\u0663",
    "\uff10", "\xe9", "nan", "inf", "0x1p3", "1e400", "1e-400", "-0", "", "e5", "1,1",
]
_PLAIN_FIELD = st.one_of(
    st.integers(0, 12).map(str),
    st.floats(0.0, 1e6).map(repr),
    st.text(st.sampled_from(list("0123456789.eE+-")), max_size=4),
)


@st.composite
def mutated_offers_csv(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    snr_value = st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, 5e-324, 1e-17, 1.5]))
    price = st.one_of(st.floats(1e-3, 3.0), st.sampled_from([0.0, 1.0, 0.1]))
    snr = np.array(draw(st.lists(snr_value, min_size=m * n, max_size=m * n)), dtype=float)
    transfer = np.array(draw(st.lists(price, min_size=m * n, max_size=m * n)), dtype=float)
    transfer[snr == 0.0] = 0.0
    text = offers_to_csv(OfferMatrix(snr.reshape(m, n), transfer.reshape(m, n)))
    for _ in range(draw(st.integers(0, 3))):
        begin = draw(st.integers(0, len(text)))
        end = draw(st.integers(begin, min(len(text), begin + 3)))
        text = text[:begin] + draw(st.sampled_from(_EDGE_TEXTS)) + text[end:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    text=st.one_of(
        st.text(max_size=80),
        st.text(max_size=80).map(_HEADER.__add__),
        st.lists(st.lists(_PLAIN_FIELD, min_size=3, max_size=5).map(",".join), max_size=6).map(
            lambda lines: _HEADER + "".join(line + "\n" for line in lines)
        ),
        mutated_offers_csv(),
    ),
    chunk=st.sampled_from([1 << 16, 1, 9, 40]),
)
def test_property_offers_csv_reads_as_the_reference_loop(text, chunk):
    # Small chunks mix array-read and loop-read chunks within one text.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection_module, "_CSV_CHUNK", chunk)
        new, reference = parse_both(text)
    assert new == reference
