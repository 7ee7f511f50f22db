from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from fieldest import (
    GAUSSIAN_BELL,
    BitMapper,
    Quantizer,
    SolverConfig,
    amplify_forward,
    bits_of_level,
    em_estimate_batch,
    fisher_analog,
    fisher_quantized_series,
    fisher_quantized_simpson,
    lambda_term,
    level_probabilities,
    loglik_analog,
    loglik_quantized,
    make_uniform_quantizer,
    newton_ml_analog_batch,
    nr_estimate_quantized_batch,
    quantize,
    quantize_forward,
    sample_observations,
)

from conftest import make_network


# ------------------------------------------------------------- quantizer


def test_uniform_quantizer_m4():
    q = make_uniform_quantizer(4, 0.0, 12.0)
    assert q.m == 4
    np.testing.assert_allclose(q.boundaries[1:-1], [3.0, 6.0, 9.0])
    assert np.isneginf(q.boundaries[0]) and np.isposinf(q.boundaries[-1])
    np.testing.assert_allclose(q.reproduction, [1.5, 4.5, 7.5, 10.5])


@pytest.mark.parametrize("bad_m", [0, 1, 3, 6, -4])
def test_uniform_quantizer_rejects_bad_m(bad_m):
    with pytest.raises(ValueError):
        make_uniform_quantizer(bad_m, 0.0, 12.0)


def test_uniform_quantizer_rejects_bad_range():
    with pytest.raises(ValueError):
        make_uniform_quantizer(4, 5.0, 5.0)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer(np.array([0.0, 1.0]), np.array([0.5]))  # edges not infinite
    with pytest.raises(ValueError):
        Quantizer(np.array([-np.inf, 2.0, 1.0, np.inf]), np.array([0.0, 1.5, 3.0]))
    # the degenerate single-cell quantizer is allowed (calibration checks)
    q1 = Quantizer(np.array([-np.inf, np.inf]), np.array([3.0]))
    assert q1.m == 1


def test_quantize_cells_are_right_open():
    q = make_uniform_quantizer(4, 0.0, 12.0)
    # a reading exactly on an interior boundary belongs to the upper cell
    assert quantize(q, 3.0) == 2
    assert quantize(q, 2.999999) == 1
    assert quantize(q, -50.0) == 1
    assert quantize(q, 50.0) == 4
    np.testing.assert_array_equal(quantize(q, np.array([0.5, 3.0, 8.9, 9.0])), [1, 2, 3, 4])


@given(r=st.floats(-100, 100), m_exp=st.integers(1, 4))
@settings(deadline=None, max_examples=200)
def test_quantize_cell_contains_reading(r, m_exp):
    q = make_uniform_quantizer(2**m_exp, 0.0, 12.0)
    j = quantize(q, r)
    assert 1 <= j <= q.m
    assert q.boundaries[j - 1] <= r < q.boundaries[j]


# ------------------------------------------------------------ bit mapper


def test_bitmapper_codebook_msb_first():
    bm = BitMapper(3)
    assert bm.m == 8
    book = bm.codebook
    assert book.shape == (8, 3)
    # level 1 -> 000, level 2 -> 001, level 8 -> 111
    np.testing.assert_array_equal(book[0], [0, 0, 0])
    np.testing.assert_array_equal(book[1], [0, 0, 1])
    np.testing.assert_array_equal(book[5], [1, 0, 1])
    np.testing.assert_array_equal(book[7], [1, 1, 1])
    assert set(np.unique(book)) <= {0.0, 1.0}
    # all words distinct
    assert len({tuple(row) for row in book}) == 8


def test_bitmapper_m2():
    bm = BitMapper(1)
    np.testing.assert_array_equal(bm.codebook, [[0.0], [1.0]])
    with pytest.raises(ValueError):
        BitMapper(0)


def test_bits_of_level_round_trip():
    bm = BitMapper(4)
    for j in range(1, 17):
        word = bits_of_level(bm, j)
        assert int("".join(str(int(b)) for b in word), 2) == j - 1
    np.testing.assert_array_equal(bits_of_level(bm, np.array([1, 16]))[:, 0], [0, 1])
    with pytest.raises(ValueError):
        bits_of_level(bm, 0)
    with pytest.raises(ValueError):
        bits_of_level(bm, 17)


# ------------------------------------------------- level probabilities


def test_level_probabilities_against_normal_cdf():
    q = make_uniform_quantizer(8, 0.0, 12.0)
    g, sigma = 5.3, 0.8
    p = level_probabilities(q, g, sigma)
    direct = norm.cdf((q.boundaries[1:] - g) / sigma) - norm.cdf((q.boundaries[:-1] - g) / sigma)
    np.testing.assert_allclose(p, direct, atol=1e-14)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [2, 16])
def test_level_probabilities_keep_relative_accuracy_in_the_far_tails(m):
    """Cells far from g keep their tiny probabilities to 1e-12 relative: each
    cell is a difference of right tails (norm.sf) above g and of left tails
    (norm.cdf) at or below it.  g sits far below the quantizer range, far
    above it, and on a boundary, where the cell above it straddles g."""
    q = make_uniform_quantizer(m, 0.0, 12.0)
    sigma = 0.5
    interior = q.boundaries[1:-1]
    g = np.array([-6.0, 18.0, interior[0], interior[-1], interior[len(interior) // 2]])
    p = level_probabilities(q, g, sigma)
    a = (q.boundaries[None, :-1] - g[:, None]) / sigma
    b = (q.boundaries[None, 1:] - g[:, None]) / sigma
    wholly_below = b <= 0.0
    ref = np.where(wholly_below, norm.cdf(b) - norm.cdf(a), norm.sf(a) - norm.sf(b))
    assert 0.0 < p.min() < 1e-100  # the far cells are deep in the tails, not zero
    np.testing.assert_allclose(p, ref, rtol=1e-12, atol=0.0)
    # on a boundary g belongs to the cell above it, which takes Q(0) = 1/2 at
    # its lower edge
    for row, j in ((2, 1), (3, m - 1), (4, len(interior) // 2 + 1)):
        assert a[row, j] == 0.0 and not wholly_below[row, j]
        assert p[row, j] == pytest.approx(0.5 - norm.sf(b[row, j]), rel=1e-12)


def test_level_probabilities_batch_shape():
    q = make_uniform_quantizer(4, 0.0, 12.0)
    g = np.array([0.0, 4.0, 11.0])
    p = level_probabilities(q, g, 0.7)
    assert p.shape == (3, 4)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    # per-sensor sigma broadcasting
    p2 = level_probabilities(q, g, np.array([0.5, 1.0, 2.0]))
    np.testing.assert_allclose(p2.sum(axis=1), 1.0, atol=1e-12)


@given(
    g=st.floats(-30.0, 40.0),
    sigma=st.floats(0.05, 8.0),
    m_exp=st.integers(1, 4),
)
@settings(deadline=None, max_examples=300)
def test_level_probabilities_normalized_and_nonnegative(g, sigma, m_exp):
    """The cell probabilities of any reading distribution form a distribution."""
    q = make_uniform_quantizer(2**m_exp, 0.0, 12.0)
    p = level_probabilities(q, g, sigma)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_level_probabilities_matches_empirical_frequencies():
    q = make_uniform_quantizer(4, 0.0, 12.0)
    g, sigma = 6.2, 1.4
    rng = np.random.default_rng(2024)
    draws = g + sigma * rng.standard_normal(200_000)
    counts = np.bincount(quantize(q, draws) - 1, minlength=4) / draws.size
    np.testing.assert_allclose(level_probabilities(q, g, sigma), counts, atol=4e-3)


def test_level_probabilities_rejects_bad_sigma():
    q = make_uniform_quantizer(2, 0.0, 12.0)
    with pytest.raises(ValueError):
        level_probabilities(q, 1.0, 0.0)
    with pytest.raises(ValueError):
        level_probabilities(q, np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            level_probabilities(q, np.array([1.0, 2.0]), np.array([1.0, bad]))


# ------------------------------------------------------------- channels


def test_amplify_forward_statistics():
    r = np.full(50_000, 3.7)
    eta2 = 0.6
    out = amplify_forward(r, eta2, np.random.SeedSequence(5))
    assert out.shape == r.shape
    noise = out - r
    assert noise.mean() == pytest.approx(0.0, abs=0.02)
    assert noise.var() == pytest.approx(eta2, rel=0.03)


def test_amplify_forward_deterministic():
    r = np.array([1.0, 2.0, 3.0])
    a = amplify_forward(r, 0.5, np.random.SeedSequence(11))
    b = amplify_forward(r, 0.5, np.random.SeedSequence(11))
    np.testing.assert_array_equal(a, b)
    c = amplify_forward(r, 0.5, np.random.SeedSequence(12))
    assert not np.array_equal(a, c)


def test_quantize_forward_words_and_noise():
    q = make_uniform_quantizer(8, 0.0, 12.0)
    bm = BitMapper(3)
    r = np.array([0.2, 4.9, 11.8, 6.01])
    expected_words = bm.codebook[quantize(q, r) - 1]
    out = quantize_forward(r, q, bm, 1e-18, np.random.SeedSequence(3))
    assert out.shape == (4, 3)
    # with (numerically) no channel noise, the received rows are the words
    np.testing.assert_allclose(out, expected_words, atol=1e-7)


def test_quantize_forward_noise_variance_per_bit():
    q = make_uniform_quantizer(2, 0.0, 12.0)
    bm = BitMapper(1)
    r = np.full(60_000, 2.0)  # all in cell 1, word = [0]
    eta2 = 0.8
    out = quantize_forward(r, q, bm, eta2, np.random.SeedSequence(9))
    noise = out[:, 0]
    assert noise.mean() == pytest.approx(0.0, abs=0.02)
    assert noise.var() == pytest.approx(eta2, rel=0.03)


def test_quantize_forward_bits_independent():
    q = make_uniform_quantizer(4, 0.0, 12.0)
    bm = BitMapper(2)
    r = np.full(60_000, 7.0)  # cell 3, word = [1, 0]
    out = quantize_forward(r, q, bm, 0.5, np.random.SeedSequence(21))
    n0 = out[:, 0] - 1.0
    n1 = out[:, 1] - 0.0
    corr = np.corrcoef(n0, n1)[0, 1]
    assert abs(corr) < 0.02  # independent noise on the parallel bit channels


def test_quantize_forward_level_mismatch():
    q = make_uniform_quantizer(4, 0.0, 12.0)
    with pytest.raises(ValueError):
        quantize_forward(np.zeros(3), q, BitMapper(3), 0.5, np.random.SeedSequence(0))


@pytest.fixture(scope="module")
def one_trial(truth, area):
    """A six-sensor network at the default truth with one analog and one
    quantized (M = 4) received trial, both sent at a valid eta2."""
    net = make_network(6, area, 0.3937, seed=4)
    obs = sample_observations(net, GAUSSIAN_BELL, truth, np.random.SeedSequence(5))
    q, bm = make_uniform_quantizer(4, 0.0, 12.0), BitMapper(2)
    return SimpleNamespace(
        truth=truth, net=net, obs=obs, q=q, bm=bm,
        za=amplify_forward(obs, 0.4, np.random.SeedSequence(6)),
        zq=quantize_forward(obs, q, bm, 0.4, np.random.SeedSequence(7)),
    )


# every public entry point that takes the channel variance eta2
_ETA2_ENTRY_POINTS = {
    "amplify_forward": lambda t, e: amplify_forward(t.obs, e, np.random.SeedSequence(8)),
    "quantize_forward": lambda t, e: quantize_forward(t.obs, t.q, t.bm, e, np.random.SeedSequence(8)),
    "loglik_analog": lambda t, e: loglik_analog(t.za, t.net, GAUSSIAN_BELL, t.truth, e),
    "loglik_quantized": lambda t, e: loglik_quantized(
        t.zq, t.net, t.q, t.bm, GAUSSIAN_BELL, t.truth, e
    ),
    "newton_ml_analog_batch": lambda t, e: newton_ml_analog_batch(
        [t.za], [t.net], GAUSSIAN_BELL, e, [t.truth], SolverConfig()
    ),
    "nr_estimate_quantized_batch": lambda t, e: nr_estimate_quantized_batch(
        [t.zq], [t.net], t.q, t.bm, GAUSSIAN_BELL, e, [t.truth], SolverConfig()
    ),
    "em_estimate_batch": lambda t, e: em_estimate_batch(
        [t.zq], [t.net], t.q, t.bm, GAUSSIAN_BELL, e, [t.truth], SolverConfig()
    ),
    "fisher_analog": lambda t, e: fisher_analog(t.net, GAUSSIAN_BELL, t.truth, e),
    "fisher_quantized_series": lambda t, e: fisher_quantized_series(
        t.net, GAUSSIAN_BELL, t.truth, t.q, t.bm, e, 2
    ),
    "fisher_quantized_simpson": lambda t, e: fisher_quantized_simpson(
        t.net, GAUSSIAN_BELL, t.truth, t.q, t.bm, e, nodes=21
    ),
    "lambda_term": lambda t, e: lambda_term(np.zeros(t.bm.m), 1, 2, t.bm, e),
}


@pytest.mark.parametrize("eta2", [-0.5, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(_ETA2_ENTRY_POINTS))
def test_a_bad_channel_variance_is_refused_where_it_is_used(one_trial, entry, eta2):
    """A channel variance that is not one finite, positive number is refused
    with one message by every function that takes it, rather than producing
    a bound, an estimate or a likelihood from it.  Every sensor shares one
    eta2, so an array is refused too, even one of valid per-sensor values."""
    call = _ETA2_ENTRY_POINTS[entry]
    call(one_trial, 0.4)  # the same call at a valid eta2 runs
    for bad in (eta2, np.array([0.4, 0.4, eta2, 0.4, 0.4, 0.4]), np.full(6, 0.4)):
        with pytest.raises(ValueError, match="channel variances must be finite and positive"):
            call(one_trial, bad)
