import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relaycontracts.contracts as contracts_module
from relaycontracts import (
    ContractMenu,
    ContractPair,
    TypeDistribution,
    TypeGrid,
    first_best_contract,
    first_best_menu,
    information_rent,
    relay_utility,
    second_best_menu,
    select_best_contract,
    snr_to_db,
    verify_menu,
)
from relaycontracts.contracts import MenuAudit, _best_response, _pava_nonincreasing, _respond

TWO_LN2 = 2.0 * math.log(2.0)

# Printed contract table at c=1 on the uniform [50, 300] grid, K=10.
TABLE3_FB_DB = [15.4490, 17.2510, 18.5208, 19.5021, 20.3020,
                20.9773, 21.5615, 22.0764, 22.5367, 22.9528]
TABLE3_FB_T = [0.7013, 0.7080, 0.7113, 0.7133, 0.7147,
               0.7156, 0.7163, 0.7169, 0.7173, 0.7177]
TABLE3_SB_DB = [9.0401, 12.3131, 14.6324, 16.4428, 17.9322,
                19.1990, 20.3020, 21.2794, 22.1564, 22.9528]
TABLE3_SB_T = [0.1603, 0.2806, 0.4008, 0.5210, 0.6412,
               0.7615, 0.8817, 1.0019, 1.1221, 1.2424]
TABLE3_RENT = [0.0, 0.0534, 0.1102, 0.1683, 0.2271,
               0.2863, 0.3457, 0.4052, 0.4649, 0.5246]


def eq23_objective(grid, c, k, gammas):
    """Literal per-subcarrier reduced objective sum_n pi_kn * g_n(gamma)."""
    gammas = np.asarray(gammas, dtype=float)
    utility = 0.5 * np.log2(1.0 + gammas)
    d = grid.deltas
    total = np.zeros_like(gammas)
    for n in range(grid.n):
        if k < grid.k - 1:
            hazard = (1.0 - grid.probs[: k + 1, n].sum()) / grid.probs[k, n]
            g_n = utility - c * gammas / d[k] - c * gammas * (1.0 / d[k] - 1.0 / d[k + 1]) * hazard
        else:
            g_n = utility - c * gammas / d[k]
        total += grid.probs[k, n] * g_n
    return total


def test_relay_utility_examples(table3_menu):
    pair1 = table3_menu.pairs[0]
    assert relay_utility(pair1, 50.0, 1.0) == pytest.approx(0.0, abs=1e-3)
    assert relay_utility(ContractPair(0.0, 0.0), 123.4, 1.0) == 0.0
    pair2 = table3_menu.pairs[1]
    assert relay_utility(pair2, 75.0, 1.0) == pytest.approx(0.0534, abs=1e-3)
    with pytest.raises(ValueError):
        relay_utility(pair1, 0.0, 1.0)
    with pytest.raises(ValueError):
        relay_utility(pair1, -3.0, 1.0)
    with pytest.raises(ValueError, match="relay type must be positive"):
        relay_utility(pair1, math.nan, 1.0)


def test_first_best_closed_form():
    pair = first_best_contract(50.0, 1.0)
    assert snr_to_db(pair.snr) == pytest.approx(15.4490, abs=1e-3)
    assert pair.transfer == pytest.approx(0.7013, abs=5e-4)
    assert pair.snr == pytest.approx(50.0 / TWO_LN2 - 1.0, abs=1e-9)

    pair = first_best_contract(275.0, 1.0)
    assert snr_to_db(pair.snr) == pytest.approx(22.9528, abs=1e-3)
    assert pair.transfer == pytest.approx(0.7177, abs=5e-4)


def test_first_best_clamps_to_null_at_breakeven_type():
    for c in (0.3, 1.0, 4.2):
        pair = first_best_contract(2.0 * c * math.log(2.0), c)
        assert pair.snr == 0.0
        assert pair.transfer == 0.0


def test_first_best_rejects_bad_arguments():
    with pytest.raises(ValueError):
        first_best_contract(-1.0, 1.0)
    with pytest.raises(ValueError):
        first_best_contract(50.0, 0.0)
    with pytest.raises(ValueError, match="relay type must be positive"):
        first_best_contract(math.nan, 1.0)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="cost coefficient must be finite and positive"):
            first_best_contract(50.0, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="first-best SNR overflows"):
            first_best_contract(50.0, 1e-320)


def test_a_vanishing_type_and_a_float32_pair_give_the_right_answer_without_a_warning(table3_menu):
    # c*snr/theta overflows at a type of 5e-324: every pair's utility is
    # -inf, and the relay keeps the null contract.  A float32 SNR is
    # computed in float64: 1 - 2.5e300, not float32's -inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert select_best_contract(table3_menu, 5e-324) is None
        assert _best_response(table3_menu.snrs, table3_menu.transfers, 1.0, [5e-324, 300.0]).tolist() == [-1, 9]
        utility = relay_utility(ContractPair(np.float32(2.5), 1.0), 1e-300, 1.0)
    assert type(utility) is float and utility == 1.0 - 2.5 / 1e-300


def test_types_whose_marginal_cost_overflows_are_named_errors():
    # c/theta = 1e310 overflows: the type is at fault, not the cost.
    grid = TypeGrid(np.array([1e-310, 5e-310]), np.full((2, 2), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (
            lambda: first_best_contract(1e-310, 1.0),
            lambda: first_best_menu(grid, 1.0),
            lambda: second_best_menu(grid, 1.0),
        ):
            with pytest.raises(ValueError, match="relay type 1e-310 is too small for cost coefficient 1: its c/theta"):
                build()
        # c/theta = 1e308 is finite, but the hazard weight 2/theta is not.
        band = TypeGrid(np.array([1e-308, 2e-308]), np.full((2, 2), 0.5))
        assert first_best_menu(band, 1.0).snrs.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="relay type 1e-308 is too small .* virtual marginal cost"):
            second_best_menu(band, 1.0)


def test_second_best_matches_printed_table(table3_grid, table3_menu):
    for i, pair in enumerate(table3_menu.pairs):
        assert snr_to_db(pair.snr) == pytest.approx(TABLE3_SB_DB[i], abs=1e-3)
        assert pair.transfer == pytest.approx(TABLE3_SB_T[i], abs=5e-4)
    assert not table3_menu.pooled


def test_no_distortion_at_top_is_bitwise(table3_grid, table3_menu):
    top = first_best_contract(float(table3_grid.deltas[-1]), 1.0)
    assert table3_menu.pairs[-1].snr == top.snr


def test_single_type_menu_is_first_best():
    grid = TypeGrid(np.array([80.0]), np.ones((1, 3)))
    menu = second_best_menu(grid, 2.5)
    fb = first_best_contract(80.0, 2.5)
    assert menu.pairs[0].snr == fb.snr
    assert menu.pairs[0].transfer == fb.transfer


def test_pointwise_maximizers_match_grid_search(table3_grid, table3_menu):
    top = first_best_contract(float(table3_grid.deltas[-1]), 1.0).snr
    gammas = np.linspace(0.0, 2.0 * top, 1_000_001)
    step = gammas[1] - gammas[0]
    for k in (0, 2, 5, 9):
        values = eq23_objective(table3_grid, 1.0, k, gammas)
        best = gammas[int(np.argmax(values))]
        assert abs(table3_menu.pairs[k].snr - best) <= step + 1e-9


def test_select_best_contract_bracket_and_null(table3_menu):
    # delta_2 = 75 <= 80 < 100 = delta_3
    assert select_best_contract(table3_menu, 80.0) == 1
    # theta below the menu: every pair loses money (checked by brute force)
    utilities = [relay_utility(p, 40.0, 1.0) for p in table3_menu.pairs]
    assert max(utilities) < 0.0
    assert select_best_contract(table3_menu, 40.0) is None


def test_first_best_menu_collapses_selection(table3_grid):
    menu = first_best_menu(table3_grid, 1.0)
    assert select_best_contract(menu, 300.0) == 0
    for theta in table3_grid.deltas:
        assert select_best_contract(menu, float(theta)) == 0


def test_bracket_selection_property(table3_menu):
    deltas = table3_menu.grid.deltas
    rng = np.random.default_rng(99)
    thetas = rng.uniform(50.0, 300.0, 2000)
    expected = np.searchsorted(deltas, thetas, side="right") - 1
    got = [select_best_contract(table3_menu, float(t)) for t in thetas]
    assert np.array_equal(np.array(got), expected)


def test_verify_menu_passes_on_second_best(table3_menu):
    audit = verify_menu(table3_menu)
    assert audit.all_ok
    assert audit.ir_binding_at_bottom
    assert all(audit.adjacent_ic_binding)
    assert audit.ic_matrix.shape == (10, 10)


def test_verify_menu_fails_on_first_best(table3_grid):
    audit = verify_menu(first_best_menu(table3_grid, 1.0))
    assert not bool(audit.ic_matrix.all())
    assert audit.monotone  # SNRs still increase; only IC breaks


def test_verify_menu_flags_decreasing_snr():
    grid = TypeGrid(np.array([1.0, 2.0]), np.full((2, 1), 0.5))
    menu = ContractMenu([2.0, 1.0], [1.0, 1.0], grid, 1.0)
    assert not verify_menu(menu).monotone


def test_information_rent_matches_table(table3_menu):
    rents = information_rent(table3_menu)
    assert np.allclose(rents, TABLE3_RENT, atol=1e-3)
    assert rents[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(rents) >= 0.0)


def test_information_rent_single_type():
    grid = TypeGrid(np.array([70.0]), np.ones((1, 1)))
    rents = information_rent(second_best_menu(grid, 1.0))
    assert rents[0] == pytest.approx(0.0, abs=1e-12)


def test_rent_difference_identity(table3_menu):
    # rent_k - rent_{k-1} = c * gamma_{k-1} * (1/delta_{k-1} - 1/delta_k)
    rents = information_rent(table3_menu)
    deltas = table3_menu.grid.deltas
    gammas = table3_menu.snrs
    diff = rents[1] - rents[0]
    identity = gammas[0] * (1.0 / deltas[0] - 1.0 / deltas[1])
    assert diff == pytest.approx(identity, abs=1e-9)
    assert diff == pytest.approx(0.0534, abs=1e-3)


def test_transfer_recursion_binding(table3_menu, grid_factory):
    rng = np.random.default_rng(21)
    menus = [table3_menu] + [
        second_best_menu(grid_factory(rng), rng.uniform(0.1, 10.0)) for _ in range(20)
    ]
    for menu in menus:
        g, t, d = menu.snrs, menu.transfers, menu.grid.deltas
        c = menu.cost_coeff
        for k in range(1, len(d)):
            lhs = t[k] - c * g[k] / d[k]
            rhs = t[k - 1] - c * g[k - 1] / d[k]
            assert abs(lhs - rhs) <= 1e-9


def test_distortion_below_top(table3_grid, table3_menu):
    for k, delta in enumerate(table3_grid.deltas[:-1]):
        fb = first_best_contract(float(delta), 1.0)
        assert table3_menu.pairs[k].snr <= fb.snr


def test_randomized_grids_audit_clean(grid_factory):
    rng = np.random.default_rng(17)
    for _ in range(30):
        grid = grid_factory(rng)
        menu = second_best_menu(grid, float(rng.uniform(0.1, 10.0)))
        assert verify_menu(menu).all_ok


def test_non_monotone_pointwise_maxima_get_pooled():
    # A nearly massless middle type inflates its virtual cost far above the
    # bottom type's, so the raw pointwise maximizers would decrease.
    grid = TypeGrid(
        np.array([50.0, 100.0, 150.0]),
        np.tile(np.array([[0.495], [0.01], [0.495]]), (1, 2)),
    )
    menu = second_best_menu(grid, 1.0)
    assert menu.pooled
    assert verify_menu(menu).all_ok
    gammas = menu.snrs
    assert gammas[0] == pytest.approx(gammas[1], abs=1e-12)

    # Independent oracle: maximize the separable reduced objective over the
    # monotone cone by dynamic programming on a fine grid.
    vals = np.linspace(0.0, 250.0, 25_001)
    running = eq23_objective(grid, 1.0, 0, vals)
    for k in range(1, grid.k):
        running = np.maximum.accumulate(running) + eq23_objective(grid, 1.0, k, vals)
    grid_best = float(running.max())
    menu_value = float(
        sum(eq23_objective(grid, 1.0, k, np.array([gammas[k]]))[0] for k in range(grid.k))
    )
    assert menu_value >= grid_best - 1e-9


def test_zero_mass_rows_duplicate_lower_pair():
    # A type the distribution never produces still gets a pair, but it is a
    # copy of the pair below so it costs the source nothing extra.
    probs = np.array([[0.6], [0.0], [0.4]])
    grid = TypeGrid(np.array([50.0, 100.0, 150.0]), probs)
    menu = second_best_menu(grid, 1.0)
    assert menu.pairs[1] == menu.pairs[0]
    assert verify_menu(menu).all_ok


def test_menu_validation():
    grid = TypeGrid(np.array([1.0, 2.0]), np.full((2, 1), 0.5))
    with pytest.raises(ValueError):
        ContractMenu([1.0], [1.0], grid, 1.0)  # wrong length
    with pytest.raises(ValueError):
        ContractMenu([1.0, 2.0], [1.0, 2.0], grid, 0.0)
    with pytest.raises(ValueError, match="cost coefficient must be finite and positive"):
        ContractMenu([1.0, 2.0], [1.0, 2.0], grid, math.nan)
    with pytest.raises(ValueError):
        ContractPair(-1.0, 0.0)


def test_pairs_and_menus_refuse_nan_negative_and_misshapen_values():
    grid = TypeGrid(np.array([1.0, 2.0]), np.full((2, 1), 0.5))
    for snr, transfer in ((math.nan, 1.0), (1.0, math.nan), (-1.0, 0.0), (0.0, -1.0)):
        with pytest.raises(ValueError, match="must be non-negative"):
            ContractPair(snr, transfer)
        with pytest.raises(ValueError, match="must be non-negative"):
            ContractMenu([1.0, snr], [1.0, transfer], grid, 1.0)
    for snrs in ([[1.0, 2.0]], [1.0, 2.0, 3.0], 1.0):
        with pytest.raises(ValueError, match="menu has snrs of shape"):
            ContractMenu(snrs, [1.0, 2.0], grid, 1.0)


def test_menu_arrays_are_built_once_and_read_only(table3_menu):
    for name, field in (("snrs", "snr"), ("transfers", "transfer")):
        values = getattr(table3_menu, name)
        assert getattr(table3_menu, name) is values
        assert not values.flags.writeable
        assert values.tolist() == [getattr(p, field) for p in table3_menu.pairs]


# Frozen copies of the two-temporary best response, the pooling loop and
# the two-temporary audit: the library's versions must match them bit for bit.
def reference_best_response(snrs, transfers, cost_coeff, types):
    types = np.asarray(types, dtype=float)
    if not np.all(types > 0.0):
        raise ValueError("relay type must be positive")
    utilities = transfers - cost_coeff * snrs / types[..., None]
    best = utilities.argmax(axis=-1)
    keep = np.take_along_axis(utilities, best[..., None], axis=-1)[..., 0] >= 0.0
    return np.where(keep, best, -1)


def reference_pava(weights_num, weights_den):
    blocks = []

    def ratio(b):
        return b[0] / b[1] if b[1] > 0.0 else math.inf

    for num, den in zip(weights_num, weights_den):
        blocks.append([num, den, 1])
        while len(blocks) >= 2 and ratio(blocks[-2]) < ratio(blocks[-1]):
            num2, den2, cnt2 = blocks.pop()
            blocks[-1][0] += num2
            blocks[-1][1] += den2
            blocks[-1][2] += cnt2
    return [ratio(b) for b in blocks], [b[2] for b in blocks]


def reference_verify_menu(menu, tol=1e-9):
    gammas, transfers, deltas, c = menu.snrs, menu.transfers, menu.grid.deltas, menu.cost_coeff
    utilities = transfers[None, :] - c * gammas[None, :] / deltas[:, None]
    own = np.diag(utilities)
    ir = own >= -tol
    ic = own[:, None] >= utilities - tol
    np.fill_diagonal(ic, True)
    adjacent = np.abs(own[1:] - utilities[np.arange(1, len(deltas)), np.arange(len(deltas) - 1)]) <= tol
    return MenuAudit(
        ir_satisfied=tuple(bool(x) for x in ir),
        ir_binding_at_bottom=bool(abs(own[0]) <= tol),
        ic_matrix=ic,
        adjacent_ic_binding=tuple(bool(x) for x in adjacent),
        monotone=bool(np.all(np.diff(gammas) >= 0.0)),
    )


# Few distinct values, so exact utility ties and exact zeros come up often.
_MONEY = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0]),
    st.floats(0.0, 1e4, allow_subnormal=False),
)
_TYPES = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.floats(1e-3, 1e4))


@st.composite
def best_response_cases(draw):
    k = draw(st.integers(1, 6))
    snrs = np.array(draw(st.lists(_MONEY, min_size=k, max_size=k)))
    transfers = np.array(draw(st.lists(_MONEY, min_size=k, max_size=k)))
    cost = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3)))
    shape = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    size = int(np.prod(shape, dtype=int))
    types = np.array(draw(st.lists(_TYPES, min_size=size, max_size=size))).reshape(shape)
    return snrs, transfers, cost, types


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(best_response_cases())
@example((np.array([1.0, 2.0, 2.0]), np.array([0.5, 1.0, 1.0]), 1.0, np.array([2.0, 4.0])))  # ties, exact 0
@example((np.array([0.0]), np.array([-0.0]), 1.0, np.array(3.0)))  # K = 1, 0-d types, -0.0 utility
@example((np.array([4.0, 0.0]), np.array([1.0, 0.0]), 1.0, np.array([1.0, 4.0])))  # -3.0 vs 0.0
def test_best_response_matches_two_temporary_form_bitwise(case):
    snrs, transfers, cost, types = case
    got = _best_response(snrs, transfers, cost, types)
    want = reference_best_response(snrs, transfers, cost, types)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def monotone_menu(rng, k, cost):
    """A random menu whose thresholds increase, with runs of equal pairs."""
    steps = rng.uniform(0.1, 5.0, k) * (rng.random(k) > 0.2)  # zero steps repeat a pair
    steps[0] = rng.uniform(0.0, 2.0)
    thresholds = np.cumsum(rng.uniform(0.5, 3.0, k))
    snrs = np.cumsum(steps)
    transfers = np.cumsum(cost * steps / thresholds)
    return ContractMenu(snrs, transfers, TypeGrid(thresholds, np.full((k, 1), 1.0 / k)), cost)


def respond_menus():
    """(menu, has a bracket table) over the window path's inputs and its refusals."""
    rng = np.random.default_rng(1919)
    uniform = TypeDistribution.uniform(50.0, 300.0)
    exponential = TypeDistribution.truncated_exponential(50.0, 300.0, 0.02)
    pooled = TypeDistribution.empirical([[50, 0], [100, 0.49], [200, 0.5], [300, 1]])
    menus = []
    for dist, k, n, cost in (
        (uniform, 64, 1, 1.0), (uniform, 300, 4, 0.3), (uniform, 1000, 32, 1.0), (uniform, 2000, 2, 2.5),
        (exponential, 64, 3, 1.0), (exponential, 1500, 1, 0.3),
        (pooled, 100, 2, 1.0), (pooled, 1000, 1, 2.5),
    ):
        grid = TypeGrid.from_distribution(dist, k, n)
        # First-best menus are single-crossing too: each threshold lies above
        # every grid type, so every type takes the first pair.
        menus += [(second_best_menu(grid, cost), True), (first_best_menu(grid, cost), True)]
    assert menus[-4][0].pooled and menus[-2][0].pooled
    menus += [(monotone_menu(rng, k, cost), True) for k, cost in ((64, 1.0), (500, 0.7), (2000, 3.0))]
    single = TypeGrid(np.array([120.0]), np.ones((1, 2)))
    menus += [(second_best_menu(single, 1.0), True), (ContractMenu([0.0], [0.0], single, 1.0), True)]
    # Refused tables: swapped pairs, a transfer step with no SNR step, and
    # thresholds that fall.
    base = second_best_menu(TypeGrid.from_distribution(uniform, 300, 2), 1.0)
    swapped = base.snrs.copy(), base.transfers.copy()
    for values in swapped:
        values[[100, 101]] = values[[101, 100]]
    flat = base.snrs.copy()
    flat[151] = flat[150]
    falling = np.cumsum(rng.uniform(0.1, 1.0, 300)), np.cumsum(rng.uniform(0.1, 1.0, 300))
    menus += [
        (ContractMenu(*swapped, base.grid, 1.0), False),
        (ContractMenu(flat, base.transfers, base.grid, 1.0), False),
        (ContractMenu(*falling, base.grid, 1.0), False),
    ]
    return menus


def test_respond_matches_the_full_rule_bitwise(monkeypatch):
    # With the size gate at 0, every call on a menu with a table takes the
    # window; the full rule counts the rows it answers in its place.
    monkeypatch.setattr(contracts_module, "_WINDOW_MIN_VALUES", 0)
    fallback = []
    full_rule = contracts_module._best_response

    def counting(snrs, transfers, cost_coeff, types):
        fallback.append(np.size(types))
        return full_rule(snrs, transfers, cost_coeff, types)

    monkeypatch.setattr(contracts_module, "_best_response", counting)

    def check(menu, types):
        got = _respond(menu, types)
        want = reference_best_response(menu.snrs, menu.transfers, menu.cost_coeff, types)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    for menu, certified in respond_menus():
        brackets = menu._brackets
        assert (brackets is not None) == certified
        deltas = menu.grid.deltas
        edges = np.concatenate([deltas, [] if brackets is None else brackets.thresholds])
        types = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf),
            [deltas[0] / 2, np.nextafter(deltas[0], 0.0) / 3, deltas[-1] * 2, deltas[-1] + 1e6],
            np.random.default_rng(menu.grid.k).uniform(deltas[0] / 2, deltas[-1] * 2, 200),
        ])
        types = np.resize(types, (-(-types.size // 64), 64))  # (M, N), the tail wrapping round
        fallback.clear()
        for chunk in np.array_split(types, -(-types.size // 1024)):  # reference buffers of <= 16 MiB
            check(menu, chunk)
        if certified:  # the window answered almost every row
            assert sum(fallback) < types.size / 100
        for theta in (deltas[0], deltas[-1], np.nextafter(deltas[-1], math.inf), 1e300):
            check(menu, np.float64(theta))  # 0-d
        # Extreme types: 1e-300 widens the margin past most windows, so their
        # rows fall back, and 1e-310 makes c*snr/theta overflow, which sends
        # the whole call to the full rule.
        check(menu, np.array([[1e-300, 1e300, deltas[0]], [deltas[-1], 1.0, 1e6]]))
        with np.errstate(over="ignore"):
            check(menu, np.array([1e-310, deltas[0], 1e300]))
    # Utilities flat within rounding over more than five pairs: exact SNRs
    # near 2**52, 8 + j apart, and transfers near 2**46, 2**-6 apart.  The
    # table holds, but most rows miss the margin and the full rule answers.
    j = np.arange(64.0)
    flat = ContractMenu(
        2.0**52 + np.cumsum(8.0 + j), 2.0**46 + j * 2.0**-6, TypeGrid(64.0 * (8 + j), np.full((64, 1), 1 / 64)), 1.0
    )
    assert flat._brackets is not None
    fallback.clear()
    types = np.random.default_rng(3).uniform(500.0, 5000.0, (40, 50))
    check(flat, types)
    assert sum(fallback) > types.size / 2
    with pytest.raises(ValueError, match="relay type must be positive"):
        _respond(flat, np.array([100.0, -1.0, 200.0]))


def test_only_large_calls_build_the_bracket_table():
    # Below _WINDOW_MIN_VALUES values the full rule runs and no table is built.
    uniform = TypeDistribution.uniform(50.0, 300.0)
    paper = second_best_menu(TypeGrid.from_distribution(uniform, 10, 16), 1.0)
    fine = second_best_menu(TypeGrid.from_distribution(uniform, 300, 32), 1.0)
    types = np.full((18, 16), 120.0)  # the paper sweep's largest round: 2,880 values
    _respond(paper, types)
    _respond(fine, np.float64(120.0))
    assert "_brackets" not in vars(paper) and "_brackets" not in vars(fine)
    _respond(fine, np.full((3, 32), 120.0))  # a fine-grid round: 28,800 values
    assert vars(fine)["_brackets"] is fine._brackets is not None


@st.composite
def pava_inputs(draw):
    n = draw(st.integers(0, 12))
    den = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=n, max_size=n))
    num = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=n, max_size=n))
    order = draw(st.sampled_from(["as drawn", "non-increasing", "increasing"]))
    if order != "as drawn":  # unit denominators, so the ratios are the sorted numerators
        num = sorted(num, reverse=order == "non-increasing")
        den = [1.0] * n
    return np.array(num, dtype=float), np.array(den, dtype=float)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(pava_inputs())
@example((np.array([]), np.array([])))
@example((np.array([2.0]), np.array([0.0])))
@example((np.array([5.0, 1.0, 3.0]), np.array([0.0, 1.0, 1.0])))  # inf head, then a pool
@example((np.array([3.0, 2.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0, 1.0])))  # monotone with a tie
@example((np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0])))  # increasing: one block
def test_pava_matches_frozen_loop_bitwise(case):
    num, den = case
    ratios, lengths = _pava_nonincreasing(num, den)
    want_ratios, want_lengths = reference_pava(num, den)
    assert np.asarray(ratios, dtype=float).tobytes() == np.array(want_ratios, dtype=float).tobytes()
    assert np.asarray(lengths).tolist() == want_lengths


def test_verify_menu_matches_two_temporary_form(grid_factory):
    rng = np.random.default_rng(29)
    pooled = TypeGrid(np.array([50.0, 100.0, 150.0]), np.tile([[0.495], [0.01], [0.495]], (1, 2)))
    grids = [pooled, *(grid_factory(rng) for _ in range(20))]
    for grid in grids:
        for menu in (second_best_menu(grid, 1.5), first_best_menu(grid, 0.7)):
            got, want = verify_menu(menu), reference_verify_menu(menu)
            assert got.ic_matrix.tobytes() == want.ic_matrix.tobytes()
            assert (got.ir_satisfied, got.ir_binding_at_bottom, got.adjacent_ic_binding, got.monotone) == (
                want.ir_satisfied, want.ir_binding_at_bottom, want.adjacent_ic_binding, want.monotone
            )
