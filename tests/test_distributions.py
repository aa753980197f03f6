import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import relaycontracts.distributions as distributions_module
from relaycontracts import (
    DistributionKind,
    TypeDistribution,
    TypeGrid,
    quantize_types,
    sample_type_vector,
    type_probabilities,
)


def test_quantize_reference_grid():
    dist = TypeDistribution.uniform(50, 300)
    deltas = quantize_types(dist, 10)
    assert np.allclose(deltas, np.arange(50, 300, 25))


def test_quantize_single_point_collapses_to_lower_edge():
    dist = TypeDistribution.uniform(50, 300)
    assert quantize_types(dist, 1).tolist() == [50.0]


def test_quantize_equidistant_from_zero():
    dist = TypeDistribution.uniform(0.0, 1.0)
    assert np.allclose(quantize_types(dist, 4), [0.0, 0.25, 0.5, 0.75])


def test_quantize_rejects_zero_levels():
    dist = TypeDistribution.uniform(50, 300)
    with pytest.raises(ValueError):
        quantize_types(dist, 0)


def test_quantize_spacing_constant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        low = rng.uniform(0, 10)
        high = low + rng.uniform(0.5, 200)
        k = int(rng.integers(2, 40))
        deltas = quantize_types(TypeDistribution.uniform(low, high), k)
        steps = np.diff(deltas)
        assert deltas.size == k
        assert np.all(steps > 0)
        assert np.all(np.abs(steps - steps[0]) < 1e-12)


def test_degenerate_support_rejected():
    with pytest.raises(ValueError):
        TypeDistribution.uniform(5.0, 5.0)


def test_probabilities_uniform_reference_matrix():
    dist = TypeDistribution.uniform(50, 300)
    probs = type_probabilities(dist, quantize_types(dist, 10), 16)
    assert probs.shape == (10, 16)
    assert np.allclose(probs, 0.1, atol=1e-12)


def test_probabilities_symmetric_split():
    dist = TypeDistribution.uniform(0, 1)
    probs = type_probabilities(dist, np.array([0.0, 0.5]), 1)
    assert np.allclose(probs[:, 0], [0.5, 0.5])


def test_probabilities_truncated_exponential_against_quadrature():
    dist = TypeDistribution.truncated_exponential(0.0, 2.0, 1.0)
    probs = type_probabilities(dist, np.array([0.0, 1.0]), 1)
    # closed form of the two cell masses
    expected = np.array(
        [
            (1 - math.exp(-1)) / (1 - math.exp(-2)),
            (math.exp(-1) - math.exp(-2)) / (1 - math.exp(-2)),
        ]
    )
    assert np.allclose(probs[:, 0], expected, atol=1e-12)
    # independent quadrature of the density e^-x / (1 - e^-2) over each cell
    for cell, (a, b) in enumerate([(0.0, 1.0), (1.0, 2.0)]):
        mass, _ = integrate.quad(lambda x: math.exp(-x) / -math.expm1(-2.0), a, b)
        assert probs[cell, 0] == pytest.approx(mass, abs=1e-9)


def test_probabilities_columns_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(30):
        low = rng.uniform(0.1, 5)
        high = low + rng.uniform(1, 50)
        kind = rng.integers(0, 3)
        if kind == 0:
            dist = TypeDistribution.uniform(low, high)
        elif kind == 1:
            dist = TypeDistribution.truncated_exponential(
                low, high, rng.uniform(-2, 2) or 0.5
            )
        else:
            inner = np.sort(rng.uniform(low, high, 3))
            cdf_vals = np.sort(rng.uniform(0.05, 0.95, 3))
            pts = [(low, 0.0)] + list(zip(inner, cdf_vals)) + [(high, 1.0)]
            dist = TypeDistribution.empirical(pts)
        k = int(rng.integers(1, 15))
        probs = type_probabilities(dist, quantize_types(dist, k), 4)
        assert np.all(probs >= -1e-15)
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)


def test_probabilities_rejects_deltas_outside_support():
    dist = TypeDistribution.uniform(50, 300)
    with pytest.raises(ValueError):
        type_probabilities(dist, np.array([40.0, 100.0]), 1)
    with pytest.raises(ValueError):
        type_probabilities(dist, np.array([50.0, 301.0]), 1)


def test_heterogeneous_marginals_one_column_each():
    low, high = 1.0, 3.0
    dists = [
        TypeDistribution.uniform(low, high),
        TypeDistribution.truncated_exponential(low, high, 1.5),
    ]
    deltas = np.array([1.0, 2.0])
    probs = type_probabilities(dists, deltas, 2)
    for col, dist in enumerate(dists):
        expected = type_probabilities(dist, deltas, 1)[:, 0]
        assert np.allclose(probs[:, col], expected)


def test_sampling_is_deterministic_for_fixed_seed():
    dist = TypeDistribution.uniform(50, 300)
    a = sample_type_vector(dist, 16, np.random.default_rng(42))
    b = sample_type_vector(dist, 16, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sampling_mean_matches_clt_band():
    dist = TypeDistribution.uniform(50, 300)
    draws = sample_type_vector(dist, 100_000, np.random.default_rng(3))
    assert 173.0 <= draws.mean() <= 177.0


def test_samples_stay_in_support():
    for dist in (
        TypeDistribution.uniform(50, 300),
        TypeDistribution.truncated_exponential(2.0, 9.0, 0.7),
        TypeDistribution.empirical([(1.0, 0.0), (2.0, 0.6), (4.0, 1.0)]),
    ):
        draws = dist.sample(5000, np.random.default_rng(5))
        assert np.all(draws >= dist.low)
        assert np.all(draws <= dist.high)


@pytest.mark.parametrize("dist", [
    TypeDistribution.uniform(50, 300),
    TypeDistribution.truncated_exponential(2.0, 9.0, 0.7),
    TypeDistribution.truncated_exponential(50, 300, -50.0),  # the mirrored form
    TypeDistribution.empirical([(1.0, 0.0), (2.0, 0.6), (4.0, 1.0)]),
], ids=["uniform", "exponential", "mirrored-exponential", "empirical"])
def test_sample_is_ppf_of_the_same_uniform_draws_bit_for_bit(dist):
    # `sample` skips `ppf`'s range check, as rng.random lies in [0, 1).
    draws = dist.sample(1000, np.random.default_rng(17))
    assert draws.tobytes() == dist.ppf(np.random.default_rng(17).random(1000)).tobytes()
    assert sample_type_vector(dist, 96, np.random.default_rng(2)).tobytes() == dist.ppf(
        np.random.default_rng(2).random(96)
    ).tobytes()
    assert type(dist.ppf(0.5)) is float and dist.ppf(0.0) == dist.low
    for outside in (-1e-300, math.nextafter(1.0, 2.0), [0.5, -1.0]):
        with pytest.raises(ValueError, match=r"quantile argument must lie in \[0, 1\]"):
            dist.ppf(outside)


@pytest.mark.parametrize("count", [2**53, 2**62, np.int64(2**61)])
def test_counts_past_the_array_cap_are_refused_before_allocating(count):
    # 8 bytes a value: numpy would be asked for 64 PiB or more, and 8 times
    # the int64 count wraps, so only a check on a Python int refuses these.
    dist = TypeDistribution.uniform(50.0, 300.0)
    with pytest.raises(ValueError, match=rf"type grid of {count} types exceeds 2\*\*28 bytes"):
        quantize_types(dist, count)
    with pytest.raises(ValueError, match=rf"type vector of {count} draws exceeds 2\*\*28 bytes"):
        sample_type_vector(dist, count, np.random.default_rng(0))


def test_the_array_cap_counts_8_bytes_a_value(monkeypatch):
    monkeypatch.setattr(distributions_module, "_MAX_ARRAY_BYTES", 80)
    dist = TypeDistribution.uniform(50.0, 300.0)
    assert quantize_types(dist, 10).size == sample_type_vector(dist, 10, np.random.default_rng(0)).size == 10
    with pytest.raises(ValueError, match="type grid of 11 types exceeds"):
        quantize_types(dist, 11)
    with pytest.raises(ValueError, match="type vector of 11 draws exceeds"):
        sample_type_vector(dist, 11, np.random.default_rng(0))
    with pytest.raises(ValueError, match="type grid of 5 types x 3 subcarriers exceeds"):
        TypeGrid.from_distribution(dist, 5, 3)


@pytest.mark.parametrize("count", [2.5, True, np.float64(3.0)])
def test_type_probabilities_refuses_a_subcarrier_count_that_is_not_an_integer(count):
    dist = TypeDistribution.uniform(50.0, 300.0)
    with pytest.raises(ValueError, match="subcarrier count must be an integer"):
        type_probabilities(dist, quantize_types(dist, 4), count)


def test_type_probabilities_takes_a_numpy_count_and_refuses_one_past_the_cap(monkeypatch):
    dist = TypeDistribution.uniform(50.0, 300.0)
    deltas = quantize_types(dist, 4)
    want = type_probabilities(dist, deltas, 3)
    assert type_probabilities(dist, deltas, np.int64(3)).tobytes() == want.tobytes()
    assert type_probabilities([dist] * 3, deltas, np.int64(3)).tobytes() == want.tobytes()
    # A count past the cap is refused before the matrix, or a list of one
    # distribution per subcarrier, is built.
    tracemalloc.start()
    try:
        for count in (2**40, np.int64(2**62)):
            with pytest.raises(ValueError, match=f"type grid of 4 types x {count} subcarriers exceeds 2\\*\\*28 bytes"):
                type_probabilities(dist, deltas, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(distributions_module, "_MAX_ARRAY_BYTES", 96)
    assert type_probabilities(dist, deltas, 3).shape == (4, 3)
    with pytest.raises(ValueError, match="type grid of 4 types x 4 subcarriers exceeds"):
        type_probabilities(dist, deltas, 4)


def test_a_cdf_whose_rate_times_the_span_overflows_is_right_without_a_warning():
    # rate 1e308 puts all the mass on the bottom type; rate * 250 is -inf in the exponent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = TypeGrid.from_distribution(TypeDistribution.truncated_exponential(50, 300, 1e308), 3, 2)
    assert grid.probs.tolist() == [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("rate", [-2.9, -50.0, -1e10, -1e300, -1e308])
def test_a_negative_rate_whose_normaliser_overflows_is_mirrored_without_a_warning(rate):
    # |rate| * 250 passes ~709.78, so 1 - exp(-rate * 250) is -inf: the
    # distribution is read as 350 - Y, Y of rate -rate, and its mass sits at the top.
    dist = TypeDistribution.truncated_exponential(50, 300, rate)
    quantiles = np.array([0.0, 1e-300, 1e-9, 0.25, 0.5, 0.999, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = TypeGrid.from_distribution(dist, 10, 2)
        draws = dist.ppf(quantiles)
        sampled = sample_type_vector(dist, 500, np.random.default_rng(9))
        tail = dist.cdf(np.array([50.0, 250.0, 299.0, 299.99, 300.0]))
    assert np.all(np.isfinite(grid.probs) & (grid.probs >= 0.0))
    assert np.all(np.abs(grid.probs.sum(axis=0) - 1.0) <= 1e-12)
    assert grid.probs[-1].tolist() == [1.0, 1.0]  # below the top type, [275, 300], lies exp(25 * rate) < 1e-31
    for values in (draws, sampled):
        assert not np.isnan(values).any() and np.all((values >= 50.0) & (values <= 300.0))
    assert draws[0] == 50.0 and draws[-1] == 300.0 and np.all(np.diff(draws) >= 0.0)
    # Away from the ends the cdf is exp(rate * (300 - x)) up to a relative exp(-709).
    expected = [0.0, *(math.exp(rate * (300.0 - x)) for x in (250.0, 299.0, 299.99)), 1.0]
    assert np.allclose(tail, expected, rtol=1e-12, atol=0.0)
    if rate >= -50.0:  # steeper cdfs are inverted only to the float spacing of x near 300
        assert np.allclose(dist.cdf(draws), quantiles, rtol=0.0, atol=1e-9)


def test_a_negative_rate_within_range_keeps_the_direct_form_bit_for_bit():
    # -2.8 * 250 = 700 keeps 1 - exp(700) finite: the cdf and ppf are today's
    # expressions, including where the cdf is a tiny share of a huge normaliser.
    dist = TypeDistribution.truncated_exponential(50, 300, -2.8)
    x, q = np.linspace(50.0, 300.0, 41), np.linspace(0.0, 1.0, 41)[1:-1]
    scale = -np.expm1(2.8 * 250.0)
    assert dist.cdf(x).tobytes() == np.clip(-np.expm1(2.8 * (x - 50.0)) / scale, 0.0, 1.0).tobytes()
    assert dist.ppf(q).tobytes() == np.clip(50.0 - np.log1p(-q * scale) / -2.8, 50.0, 300.0).tobytes()


def test_empirical_cdf_validation():
    with pytest.raises(ValueError):
        TypeDistribution.empirical([(0.0, 0.0), (1.0, 0.9)])  # cdf not reaching 1
    with pytest.raises(ValueError):
        TypeDistribution.empirical([(0.0, 0.0), (1.0, 0.7), (2.0, 0.4), (3.0, 1.0)])


def test_type_grid_validation():
    with pytest.raises(ValueError):
        TypeGrid(np.array([0.0, 1.0]), np.full((2, 1), 0.5))  # zero type
    with pytest.raises(ValueError):
        TypeGrid(np.array([2.0, 1.0]), np.full((2, 1), 0.5))  # not increasing
    with pytest.raises(ValueError):
        TypeGrid(np.array([1.0, 2.0]), np.array([[0.7], [0.7]]))  # bad column sum
    grid = TypeGrid.from_distribution(TypeDistribution.uniform(50, 300), 10, 16)
    assert grid.k == 10
    assert grid.n == 16


@pytest.mark.parametrize("deltas, probs", [
    ([math.nan, 2.0], [[0.5], [0.5]]),
    ([1.0, math.inf], [[0.5], [0.5]]),
    ([1.0, 2.0], [[math.nan], [0.5]]),
    ([1.0, 2.0], [[math.inf], [0.5]]),
])
def test_type_grid_rejects_non_finite_values(deltas, probs):
    with pytest.raises(ValueError, match="finite"):
        TypeGrid(np.array(deltas), np.array(probs))


def _marginal(kind, low, high, shape):
    if kind == "uniform":
        return TypeDistribution.uniform(low, high)
    if kind == "truncated_exponential":
        return TypeDistribution.truncated_exponential(low, high, shape)
    knee = low + 0.3 * (high - low)
    return TypeDistribution.empirical([(low, 0.0), (knee, min(shape, 1.0)), (high, 1.0)])


@st.composite
def marginal_lists(draw):
    """A support, its grid, and a marginal per subcarrier taken from a small pool.

    The pool holds distinct objects, some of them equal, and subcarriers reuse
    pool members both in runs and apart."""
    low = draw(st.sampled_from([0.0, 1.0, 50.0]))
    high = low + draw(st.sampled_from([0.5, 2.0, 250.0]))
    specs = draw(st.lists(
        st.tuples(st.sampled_from(["uniform", "truncated_exponential", "empirical"]),
                  st.sampled_from([0.3, 0.9, 2.5])),
        min_size=1, max_size=3,
    ))
    pool = [_marginal(kind, low, high, shape) for kind, shape in specs + specs[:1]]
    n = draw(st.integers(1, 9))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    k = draw(st.integers(1, 60))
    return pool, [pool[i] for i in picks], quantize_types(pool[0], k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(marginal_lists())
def test_probabilities_match_per_column_evaluation_bitwise(case):
    pool, dists, deltas = case
    n = len(dists)
    edges = np.append(deltas, pool[0].high)

    def per_column(marginals):
        return np.column_stack([np.diff(f.cdf(edges)) for f in marginals])

    cases = [
        (pool[0], [pool[0]] * n),  # one distribution
        ([pool[0]] * n, [pool[0]] * n),  # a list repeating one object
        ([pool[0], pool[-1]] * n, [pool[0], pool[-1]] * n),  # distinct equal objects
        (dists, dists),
    ]
    for given_marginals, columns in cases:
        got = type_probabilities(given_marginals, deltas, len(columns))
        want = per_column(columns)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_distribution_kind_given_as_its_string_is_the_enum():
    uniform = TypeDistribution("uniform", 50.0, 300.0)
    assert uniform == TypeDistribution.uniform(50.0, 300.0) and uniform.kind is DistributionKind.UNIFORM
    assert uniform.cdf(100.0) == TypeDistribution.uniform(50.0, 300.0).cdf(100.0) == 0.2
    expo = TypeDistribution("truncated_exponential", 50.0, 300.0, 0.01)
    assert expo.cdf(120.0) == TypeDistribution.truncated_exponential(50.0, 300.0, 0.01).cdf(120.0)
    with pytest.raises(ValueError, match="'normal' is not a valid DistributionKind"):
        TypeDistribution("normal", 50.0, 300.0)


@pytest.mark.parametrize("build, message", [
    (lambda: type_probabilities(TypeDistribution.uniform(50, 300), np.array([50.0, np.nan]), 1),
     "deltas must be strictly increasing"),
    (lambda: type_probabilities(TypeDistribution.uniform(50, 300), np.array([np.nan]), 1),
     "deltas must lie inside the distribution support"),
    (lambda: TypeDistribution.empirical([(1, 0), (math.nan, 0.5), (3, 1)]),
     "cdf point gains must be strictly increasing"),
    (lambda: TypeDistribution.empirical([(1, 0), (2, math.nan), (3, 1)]), "cdf must be non-decreasing"),
    (lambda: TypeDistribution.empirical([(1, math.nan), (3, 1)]), "cdf must run from 0 at low to 1 at high"),
    (lambda: TypeDistribution.empirical([(1, 0), (3, math.nan)]), "cdf must run from 0 at low to 1 at high"),
], ids=["delta", "lone-delta", "gain", "inner-cdf", "cdf-at-low", "cdf-at-high"])
def test_nan_fails_the_distribution_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
