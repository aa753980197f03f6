import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from relaycontracts import (
    ContractMenu,
    ContractPair,
    ExperimentConfig,
    Information,
    MenuKind,
    OfferMatrix,
    RoundResult,
    SelectionProblem,
    TypeDistribution,
    TypeGrid,
    accepted_offers,
    broadcast_menu,
    efficient_offers,
    first_best_contract,
    first_best_menu,
    knapsack_01,
    overall_heuristic,
    quantize_types,
    reproduce_table3,
    run_experiment,
    sample_type_vector,
    second_best_menu,
    select_best_contract,
    simulate_round,
    table3_to_csv,
)


def small_config(**overrides):
    defaults = dict(relays=4, budget=4.0, trials=5, subcarriers=4, seed=7)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_round_with_no_relays_has_zero_capacity():
    res = simulate_round(small_config(relays=0), np.random.default_rng(1))
    assert res.capacity_heuristic == 0.0
    assert res.capacity_best_snr == 0.0
    assert res.capacity_relaxed == pytest.approx(0.0, abs=1e-9)
    assert res.offers_accepted == 0


def test_round_with_zero_budget():
    res = simulate_round(small_config(budget=0.0), np.random.default_rng(1))
    assert res.capacity_heuristic == 0.0
    assert res.capacity_best_snr == 0.0
    assert res.spend == 0.0


def test_round_rejects_sweep_config():
    with pytest.raises(ValueError):
        simulate_round(small_config(relays=(2, 4)), np.random.default_rng(1))


@pytest.mark.parametrize("relays, budget", [((4,), 4.0), (4, [4.0]), ([4], (4.0,))])
def test_round_accepts_one_value_sweeps(relays, budget):
    scalar = simulate_round(small_config(), np.random.default_rng(3))
    assert simulate_round(small_config(relays=relays, budget=budget), np.random.default_rng(3)) == scalar
    with pytest.raises(ValueError, match="1 relay counts x 2 budgets given"):
        simulate_round(small_config(relays=relays, budget=(4.0, 8.0)), np.random.default_rng(3))


def test_forced_top_type_saturates_menu(table3_menu):
    n = table3_menu.grid.n
    types = np.full((1, n), 299.0)
    offers = accepted_offers(table3_menu, types)
    top = table3_menu.pairs[-1]
    assert np.allclose(offers.snr, top.snr)
    assert np.allclose(offers.transfer, top.transfer)
    problem = SelectionProblem(offers, n * top.transfer + 1.0)
    res = overall_heuristic(problem)
    assert res.capacity == pytest.approx(n * math.log2(1.0 + top.snr), abs=1e-9)


def test_accepted_offers_respect_expost_rationality(table3_menu):
    rng = np.random.default_rng(3)
    types = rng.uniform(50.0, 300.0, (8, 16))
    offers = accepted_offers(table3_menu, types)
    utilities = offers.transfer - offers.snr / types
    assert np.all(utilities >= -1e-9)
    # with types on [50, 300] every relay accepts something on every subcarrier
    assert np.all(offers.snr > 0.0)


def test_efficient_offers_extract_all_surplus():
    types = np.array([[60.0, 120.0], [250.0, 77.7]])
    offers = efficient_offers(types, 1.0)
    assert np.allclose(offers.transfer, offers.snr / types)
    twoln2 = 2.0 * math.log(2.0)
    assert np.allclose(offers.snr, types / twoln2 - 1.0)


def test_accepted_offers_agree_with_select_best_contract(table3_menu):
    ties = ContractMenu(
        [0.0, 2.0, 2.0, 6.0],
        [0.0, 1.0, 1.0, 2.0],
        TypeGrid(np.array([1.0, 2.0, 3.0, 4.0]), np.full((4, 1), 0.25)),
        1.0,
    )
    fine = TypeGrid.from_distribution(TypeDistribution.uniform(50.0, 300.0), 1000, 4)
    # K=1000 menus answer accepted_offers through their bracket windows.
    menus = (table3_menu, first_best_menu(table3_menu.grid, 1.0), ties,
             second_best_menu(fine, 1.0), first_best_menu(fine, 1.0))
    for menu in menus:
        deltas = menu.grid.deltas
        types = np.concatenate([
            deltas, np.nextafter(deltas, 0.0), np.nextafter(deltas, np.inf),
            [0.5, 1.0, 2.0, 4.0, 40.0, 1e6],
            np.random.default_rng(5).uniform(0.5, 350.0, 200),
        ])[None, :]
        offers, pairs = accepted_offers(menu, types), menu.pairs
        for j, theta in enumerate(types[0]):
            best = select_best_contract(menu, float(theta))
            pair = ContractPair(0.0, 0.0) if best is None else pairs[best]
            assert (offers.snr[0, j], offers.transfer[0, j]) == (pair.snr, pair.transfer)
    # exact ties go to the lowest index: pairs 1 and 2 at 3.0, pairs 0-2 at 2.0
    assert select_best_contract(ties, 3.0) == 1
    assert select_best_contract(ties, 2.0) == 0
    assert select_best_contract(table3_menu, 40.0) is None


def test_accepted_offers_reject_non_positive_types(table3_menu):
    for bad in (0.0, -5.0, math.nan):
        types = np.full((2, 3), 100.0)
        types[1, 2] = bad
        with pytest.raises(ValueError, match="positive"):
            accepted_offers(table3_menu, types)


def test_best_response_fills_one_utility_buffer():
    # At K=1000, M=3, N=32 the (M, N, K) utilities are 750 KiB; the best
    # response builds them in that one buffer, so the call's peak stays
    # well below two of them.
    m, n, k = 3, 32, 1000
    dist = TypeDistribution.uniform(50.0, 300.0)
    menu = second_best_menu(TypeGrid.from_distribution(dist, k, n), 1.0)
    types = dist.ppf(np.random.default_rng(5).random((m, n)))
    accepted_offers(menu, types)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    accepted_offers(menu, types)
    peak = tracemalloc.get_traced_memory()[1] - before
    if not tracing:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * m * n * k


def test_best_response_on_fine_grids_scores_a_window_per_type():
    # At K=1000, M=3, N=32 a menu with a bracket table scores five pairs per
    # relay and subcarrier, so the call peaks far below the (M, N, K)
    # utilities; a menu without one (two pairs swapped) stays within the
    # one-buffer gate above.
    m, n, k = 3, 32, 1000
    dist = TypeDistribution.uniform(50.0, 300.0)
    grid = TypeGrid.from_distribution(dist, k, n)
    second = second_best_menu(grid, 1.0)
    swapped = second.snrs.copy(), second.transfers.copy()
    for values in swapped:
        values[[500, 501]] = values[[501, 500]]
    types = dist.ppf(np.random.default_rng(5).random((m, n)))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for menu, share in (
            (second, 1 / 8), (first_best_menu(grid, 1.0), 1 / 8), (ContractMenu(*swapped, grid, 1.0), 1.5),
        ):
            accepted_offers(menu, types)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            accepted_offers(menu, types)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < share * 8 * m * n * k
    finally:
        if not tracing:
            tracemalloc.stop()


def test_efficient_offers_match_first_best_contract_bitwise(table3_grid):
    types = np.random.default_rng(11).uniform(0.5, 400.0, (6, 16))
    types[0, :3] = (1.0, 2.0 * math.log(2.0), 50.0)
    for cost in (1.0, 2.5):
        offers = efficient_offers(types, cost)
        for (m, n), theta in np.ndenumerate(types):
            pair = first_best_contract(float(theta), cost)
            assert (offers.snr[m, n], offers.transfer[m, n]) == (pair.snr, pair.transfer)
        menu = first_best_menu(table3_grid, cost)
        for delta, snr, transfer in zip(table3_grid.deltas, menu.snrs, menu.transfers):
            pair = first_best_contract(float(delta), cost)
            assert (snr, transfer) == (pair.snr, pair.transfer)


def test_efficient_offers_name_bad_costs_and_types():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cost in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="cost coefficient must be finite and positive"):
                efficient_offers([[100.0, 200.0]], cost)
        for bad in (0.0, -5.0, math.nan):
            with pytest.raises(ValueError, match="relay type must be positive"):
                efficient_offers([[100.0, bad]], 1.0)
        # 1e-320 is subnormal: its nearest float prints as 9.99989e-321.
        with pytest.raises(ValueError, match="relay type 9.99989e-321 is too small .* c/theta overflows"):
            efficient_offers([[1e-320]], 1.0)


def test_round_result_guards_bound_violation():
    with pytest.raises(ValueError):
        RoundResult(5.0, 1.0, 4.0, 0.5, 3)


def test_experiment_is_deterministic():
    config = small_config(trials=10)
    a = run_experiment(config).to_csv()
    b = run_experiment(config).to_csv()
    assert a == b


def test_experiment_sweep_layout():
    config = small_config(relays=(2, 4), budget=(1.0, 2.0), trials=2)
    table = run_experiment(config)
    assert len(table.rows) == 4 * 3
    row = table.get(2, 1.0, "Overall")
    assert row.mean_spend is not None and row.mean_spend <= 1.0
    assert table.get(4, 2.0, "Relaxed").mean_spend is None
    csv = table.to_csv()
    assert csv.startswith("M,budget,method,mean_capacity_per_subcarrier,stderr,mean_spend")


def test_heuristic_beats_baseline_on_average():
    config = ExperimentConfig(relays=10, budget=16.0, trials=150, seed=11)
    table = run_experiment(config)
    heur = table.get(10, 16.0, "Overall")
    base = table.get(10, 16.0, "BestSNR")
    relaxed = table.get(10, 16.0, "Relaxed")
    assert heur.mean_capacity_per_subcarrier > base.mean_capacity_per_subcarrier
    assert relaxed.mean_capacity_per_subcarrier >= heur.mean_capacity_per_subcarrier


def test_first_best_menu_capacity_invariant_in_relay_count():
    # Every relay picks the bottom first-best pair, so beyond a single relay
    # the offer pool the budget can buy does not change with M.
    config = ExperimentConfig(
        relays=(2, 10, 18),
        budget=16.0,
        trials=30,
        seed=5,
        menu_kind=MenuKind.FIRST_BEST,
    )
    table = run_experiment(config)
    means = [table.get(m, 16.0, "Overall").mean_capacity_per_subcarrier for m in (2, 10, 18)]
    ses = [table.get(m, 16.0, "Overall").stderr for m in (2, 10, 18)]
    spread = max(means) - min(means)
    assert spread <= 3.0 * max(max(ses), 1e-12) + 1e-9


def test_stderr_shrinks_like_root_trials():
    small = run_experiment(ExperimentConfig(relays=6, budget=8.0, trials=200, seed=17))
    large = run_experiment(ExperimentConfig(relays=6, budget=8.0, trials=800, seed=17))
    se_small = small.get(6, 8.0, "Overall").stderr
    se_large = large.get(6, 8.0, "Overall").stderr
    assert 1.6 <= se_small / se_large <= 2.5


def test_reproduce_table3_rows():
    rows = reproduce_table3(1.0)
    assert len(rows) == 10
    r1, r5, r10 = rows[0], rows[4], rows[9]
    assert r1.fb_snr_db == pytest.approx(15.4490, abs=1e-3)
    assert r1.fb_transfer == pytest.approx(0.7013, abs=5e-4)
    assert r1.sb_snr_db == pytest.approx(9.0401, abs=1e-3)
    assert r1.sb_transfer == pytest.approx(0.1603, abs=5e-4)
    assert r1.rent == pytest.approx(0.0, abs=1e-9)
    assert r5.sb_snr_db == pytest.approx(17.9322, abs=1e-3)
    assert r5.rent == pytest.approx(0.2271, abs=5e-4)
    assert r10.fb_snr_db == r10.sb_snr_db  # no distortion at the top


def test_table3_csv_layout():
    text = table3_to_csv(reproduce_table3(1.0))
    lines = text.strip().split("\n")
    assert lines[0] == "k,delta,pi,fb_gamma_db,fb_transfer,sb_gamma_db,sb_transfer,rent"
    assert lines[1].startswith("1,50,0.1,15.4490,0.7013,")
    assert len(lines) == 11


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(quant=0)
    with pytest.raises(ValueError):
        ExperimentConfig(budget=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(relays=(4, -1))
    list_config = ExperimentConfig(relays=[2, 4], budget=[1.0])
    assert list_config.relay_sweep == (2, 4)
    assert list_config.budget_sweep == (1.0,)


def test_config_stores_list_and_array_sweeps_as_tuples():
    configs = [
        ExperimentConfig(relays=np.array([2, 3]), budget=np.array([8.0, 16.0])) for _ in range(2)
    ]
    assert configs[0] == configs[1] and hash(configs[0]) == hash(configs[1])
    assert configs[0].relays == (2, 3) and configs[0].budget == (8.0, 16.0)
    assert configs[0] == ExperimentConfig(relays=[2, 3], budget=[8.0, 16.0])
    assert configs[0].relay_sweep == (2, 3) and configs[0].budget_sweep == (8.0, 16.0)


@pytest.mark.parametrize("budget", [np.float32(2.5), np.array(2.5), np.int64(3)])
def test_config_takes_a_numpy_scalar_budget_as_one_cell(budget):
    config = ExperimentConfig(budget=budget)
    assert config.budget_sweep == (float(budget),) and float(config.budget) == float(budget)
    assert hash(config) == hash(ExperimentConfig(budget=budget))


@pytest.mark.parametrize("budget", ["12", True, np.bool_(False), ("1", 2.0), [8.0, True]])
def test_config_refuses_a_str_or_bool_budget(budget):
    with pytest.raises(ValueError, match="budget must be a number, got"):
        ExperimentConfig(budget=budget)


@pytest.mark.parametrize("field, value", [
    ("budget", math.nan),
    ("budget", math.inf),
    ("budget", (1.0, math.inf)),
    ("cost_coeff", math.inf),
    ("cost_coeff", math.nan),
])
def test_config_rejects_non_finite_budget_and_cost(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("build, kwargs, message", [
    pytest.param(ExperimentConfig, {"quant": 2.5}, "quant must be an integer", id="quant"),
    pytest.param(ExperimentConfig, {"quant": True}, "quant must be an integer", id="quant-bool"),
    pytest.param(ExperimentConfig, {"subcarriers": 2.5}, "subcarriers must be an integer", id="subcarriers"),
    pytest.param(ExperimentConfig, {"trials": 1.5}, "trials must be an integer", id="trials"),
    pytest.param(ExperimentConfig, {"seed": 1.5}, "seed must be an integer", id="seed"),
    pytest.param(ExperimentConfig, {"relays": (2.5,)}, "relay count must be an integer", id="relays"),
    pytest.param(ExperimentConfig, {"relays": True}, "relay count must be an integer", id="relays-bool"),
    pytest.param(ExperimentConfig, {"resolution": 2.5}, "resolution must be an integer", id="resolution"),
    pytest.param(ExperimentConfig, {"resolution": 2**53}, r"resolution must be a unit count in \[1, 2\*\*53\)",
                 id="resolution-2**53"),
    pytest.param(quantize_types, {"dist": TypeDistribution.uniform(50.0, 300.0), "k": 2.5},
                 "quantization factor must be an integer", id="quantize_types"),
    *(pytest.param(sample_type_vector, {"dist": TypeDistribution.uniform(50.0, 300.0), "n": n,
                                        "rng": np.random.default_rng(0)},
                   "subcarrier count must be an integer", id=f"sample_type_vector-{n!r}")
      for n in (2.5, True, np.float64(3.0))),
    pytest.param(SelectionProblem, {"offers": OfferMatrix(np.ones((1, 1)), np.ones((1, 1))), "budget": 1.0,
                                    "resolution": 2.5}, "resolution must be an integer", id="problem"),
    pytest.param(knapsack_01, {"snr_col": np.ones(1), "transfer_col": np.ones(1), "sub_budget": 1.0,
                               "resolution": 1000.0}, "resolution must be an integer", id="knapsack"),
])
def test_counts_must_be_integers(build, kwargs, message):
    with pytest.raises(ValueError, match=message):
        build(**kwargs)


@pytest.mark.parametrize("field", ["quant", "subcarriers", "trials", "seed", "resolution", "relays"])
def test_config_takes_numpy_integer_counts(field):
    config = small_config(trials=2, quant=3)
    numpy_config = replace(config, **{field: np.int64(getattr(config, field))})
    assert run_experiment(numpy_config).to_csv() == run_experiment(config).to_csv()


def test_string_config_enums_run_the_enum_configs():
    # A string menu kind or information regime once fell through every `is`
    # check to the second-best asymmetric round.
    base = dict(relays=2, budget=4.0, trials=3, subcarriers=4, quant=4)
    default = run_experiment(ExperimentConfig(**base)).to_csv()
    for menu_kind in MenuKind:
        for information in Information:
            text = ExperimentConfig(menu_kind=menu_kind.value, information=information.value, **base)
            enum = ExperimentConfig(menu_kind=menu_kind, information=information, **base)
            assert text == enum and (text.menu_kind, text.information) == (menu_kind, information)
            assert type(text.menu_kind) is MenuKind and type(text.information) is Information
            csv = run_experiment(text).to_csv()
            assert csv == run_experiment(enum).to_csv()
            assert (csv == default) == ((menu_kind, information) == (MenuKind.SECOND_BEST, Information.ASYMMETRIC))
    with pytest.raises(ValueError, match="'third_best' is not a valid MenuKind"):
        ExperimentConfig(menu_kind="third_best")
    with pytest.raises(ValueError, match="'partial' is not a valid Information"):
        ExperimentConfig(information="partial")


@pytest.mark.parametrize("kind", list(MenuKind))
def test_round_with_given_menu_matches_round_without(kind):
    config = small_config(relays=5, budget=3.0, menu_kind=kind)
    menu = broadcast_menu(config)
    for seed in range(5):
        with_menu = simulate_round(config, np.random.default_rng(seed), menu=menu)
        assert with_menu == simulate_round(config, np.random.default_rng(seed))


def test_round_uses_distribution_from_config():
    dist = TypeDistribution.uniform(100.0, 200.0)
    config = ExperimentConfig(
        dist=dist, relays=3, budget=6.0, trials=1, subcarriers=4, seed=9
    )
    res = simulate_round(config, np.random.default_rng(9))
    assert res.offers_accepted == 3 * 4  # all types >= 100 accept something


def test_complete_information_dominates_asymmetric():
    base = dict(relays=6, budget=8.0, trials=60, seed=23)
    complete = run_experiment(
        ExperimentConfig(information=Information.COMPLETE, **base)
    ).get(6, 8.0, "Overall")
    asym = run_experiment(ExperimentConfig(**base)).get(6, 8.0, "Overall")
    assert complete.mean_capacity_per_subcarrier >= asym.mean_capacity_per_subcarrier
