"""Tests for classical field ensembles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopslab.classical import (
    FieldEnsemble,
    FixedAmplitude,
    HopsEnsembleSpec,
    OrdinaryEnsembleSpec,
    RayleighAmplitude,
    UndefinedIndexError,
    _hops_chunks,
    classical_hidden,
    classical_stokes,
    hidden_index,
    hops_statistics,
    polarization_index,
    sample_hops,
    sample_ordinary,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
POLAR_ANGLES = st.floats(min_value=0.05, max_value=math.pi - 0.05)
PHASE_ANGLES = st.floats(min_value=-math.pi + 1e-6, max_value=math.pi)


def test_angle_range_validation():
    with pytest.raises(ValueError):
        HopsEnsembleSpec(chi_h=-0.1, delta_h=0.0)
    with pytest.raises(ValueError):
        HopsEnsembleSpec(chi_h=math.pi + 0.1, delta_h=0.0)
    with pytest.raises(ValueError):
        HopsEnsembleSpec(chi_h=1.0, delta_h=-math.pi)
    with pytest.raises(ValueError):
        OrdinaryEnsembleSpec(chi=1.0, delta=4.0)
    with pytest.raises(ValueError):
        FixedAmplitude(0.0)
    with pytest.raises(ValueError):
        RayleighAmplitude(-1.0)


def test_sample_count_validation():
    spec = HopsEnsembleSpec(chi_h=1.0, delta_h=0.0)
    with pytest.raises(ValueError):
        sample_hops(spec, 0, seed=1)
    with pytest.raises(ValueError):
        classical_stokes(sample_hops(spec, 1, seed=1))


@given(chi_h=POLAR_ANGLES, delta_h=PHASE_ANGLES, seed=SEEDS)
def test_hidden_index_exact_per_sample(chi_h, delta_h, seed):
    spec = HopsEnsembleSpec(chi_h=chi_h, delta_h=delta_h)
    ensemble = sample_hops(spec, 50, seed=seed)
    expected = math.tan(0.5 * chi_h) * np.exp(1j * delta_h)
    ratios = ensemble.amp_y / np.conj(ensemble.amp_x)
    np.testing.assert_allclose(ratios, expected, atol=1e-12)


@given(chi_h=POLAR_ANGLES, seed=SEEDS)
def test_total_intensity_is_pythagorean(chi_h, seed):
    spec = HopsEnsembleSpec(chi_h=chi_h, delta_h=0.5,
                            amplitude=FixedAmplitude(1.7))
    ensemble = sample_hops(spec, 50, seed=seed)
    total = np.abs(ensemble.amp_x) ** 2 + np.abs(ensemble.amp_y) ** 2
    np.testing.assert_allclose(total, 1.7**2, atol=1e-12)


def test_degenerate_angles():
    flat = sample_hops(HopsEnsembleSpec(chi_h=0.0, delta_h=0.3), 20, seed=5)
    np.testing.assert_array_equal(flat.amp_y, 0.0)
    balanced = sample_hops(
        HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0), 20, seed=5)
    np.testing.assert_allclose(
        balanced.amp_y, np.conj(balanced.amp_x), atol=1e-12)


def test_seed_reproducibility():
    spec = HopsEnsembleSpec(chi_h=1.2, delta_h=0.4,
                            amplitude=RayleighAmplitude(0.8))
    first = sample_hops(spec, 1000, seed=42)
    second = sample_hops(spec, 1000, seed=42)
    np.testing.assert_array_equal(first.amp_x, second.amp_x)
    np.testing.assert_array_equal(first.amp_y, second.amp_y)
    third = sample_hops(spec, 1000, seed=43)
    assert not np.array_equal(first.amp_x, third.amp_x)


def test_ensemble_sequence_protocol():
    # an ensemble is two read-only amplitude arrays of its length
    spec = HopsEnsembleSpec(chi_h=1.0, delta_h=0.0)
    ensemble = sample_hops(spec, 10, seed=0)
    assert len(ensemble) == 10
    for amp in (ensemble.amp_x, ensemble.amp_y):
        assert amp.shape == (10,)
        assert not amp.flags.writeable
    with pytest.raises(ValueError):
        FieldEnsemble(np.ones(3), np.ones(4))


def test_hops_stokes_vanish_but_hidden_survive():
    spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.7)
    ensemble = sample_hops(spec, 200_000, seed=11)
    stokes = classical_stokes(ensemble)
    hidden = classical_hidden(ensemble)
    scale = stokes.values["s0"]
    assert stokes.values["s0"] == pytest.approx(1.0, abs=1e-12)
    for name in ("s2", "s3"):
        assert abs(stokes.values[name]) < 5 / math.sqrt(len(ensemble)) * scale
    # s1 = -A0^2 cos(chi_h) vanishes identically at chi_h = pi/2
    assert abs(stokes.values["s1"]) < 1e-12
    # phase-sum statistics are exact per sample at fixed amplitude
    expected = np.sin(0.5 * math.pi) * np.exp(1j * 0.7)
    assert hidden.values["h2"] == pytest.approx(expected.real, abs=1e-12)
    assert hidden.values["h3"] == pytest.approx(expected.imag, abs=1e-12)


def test_hidden_coincides_with_stokes_on_first_two():
    spec = HopsEnsembleSpec(chi_h=1.1, delta_h=-0.3,
                            amplitude=RayleighAmplitude(1.0))
    ensemble = sample_hops(spec, 5000, seed=3)
    stokes = classical_stokes(ensemble)
    hidden = classical_hidden(ensemble)
    assert hidden.values["h0"] == stokes.values["s0"]
    assert hidden.values["h1"] == stokes.values["s1"]
    assert hidden.std_errors["h0"] == stokes.std_errors["s0"]


def test_tilted_ensemble_keeps_s1():
    # away from chi_h = pi/2 only s2, s3 average to zero
    spec = HopsEnsembleSpec(chi_h=1.0, delta_h=0.0)
    ensemble = sample_hops(spec, 100_000, seed=7)
    stokes = classical_stokes(ensemble)
    assert stokes.values["s1"] == pytest.approx(-math.cos(1.0), abs=1e-12)
    assert abs(stokes.values["s2"]) < 5 / math.sqrt(len(ensemble))


def test_ordinary_ensemble_hidden_parameters_vanish():
    spec = OrdinaryEnsembleSpec(chi=0.5 * math.pi, delta=0.4)
    ensemble = sample_ordinary(spec, 200_000, seed=19)
    stokes = classical_stokes(ensemble)
    hidden = classical_hidden(ensemble)
    # fixed phase difference: ordinary cross terms are exact per sample
    expected = np.sin(0.5 * math.pi) * np.exp(-1j * 0.4)
    assert stokes.values["s2"] == pytest.approx(expected.real, abs=1e-12)
    assert stokes.values["s3"] == pytest.approx(expected.imag, abs=1e-12)
    for name in ("h2", "h3"):
        assert abs(hidden.values[name]) < 5 / math.sqrt(len(ensemble))


def test_standard_errors_shrink_like_root_n():
    spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0,
                            amplitude=RayleighAmplitude(1.0))
    small = classical_stokes(sample_hops(spec, 10_000, seed=23))
    large = classical_stokes(sample_hops(spec, 160_000, seed=23))
    for name in ("s0", "s2"):
        ratio = small.std_errors[name] / large.std_errors[name]
        # 16x samples should shrink errors about 4x
        assert 2.0 < ratio < 8.0


def test_chunked_draws_reproduce_the_one_shot_ensemble():
    spec = HopsEnsembleSpec(chi_h=1.2, delta_h=0.4,
                            amplitude=RayleighAmplitude(0.8))
    count = 1001
    rng = np.random.default_rng(42)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    a0 = rng.rayleigh(0.8, count)
    amp_x = a0 * math.cos(0.6) * np.exp(1j * (phi + 0.2))
    amp_y = a0 * math.sin(0.6) * np.exp(1j * (-phi + 0.2))
    ensemble = sample_hops(spec, count, seed=42)
    np.testing.assert_array_equal(ensemble.amp_x, amp_x)
    np.testing.assert_array_equal(ensemble.amp_y, amp_y)
    chunks = list(_hops_chunks(spec, count, 42, 64))
    assert len(chunks) == 16
    np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks]), amp_x)
    np.testing.assert_array_equal(np.concatenate([c[1] for c in chunks]), amp_y)


def test_streamed_statistics_match_one_shot():
    # 300001 samples: batches of 548, five chunks of 119 batches each
    spec = HopsEnsembleSpec(chi_h=1.1, delta_h=-0.3,
                            amplitude=RayleighAmplitude(1.0))
    ensemble = sample_hops(spec, 300_001, seed=5)
    streamed = hops_statistics(spec, 300_001, seed=5)
    assert streamed.sample_count == 300_001
    for want in (classical_stokes(ensemble), classical_hidden(ensemble)):
        for name, value in want.values.items():
            assert streamed.std_errors[name] == want.std_errors[name]
            assert streamed.values[name] == pytest.approx(value, rel=0,
                                                          abs=1e-14)
    assert set(streamed.values) == {"s0", "s1", "s2", "s3",
                                    "h0", "h1", "h2", "h3"}
    with pytest.raises(ValueError):
        hops_statistics(spec, 1, seed=5)


def test_overflowing_statistics_raise():
    # |amplitude|^2 overflows to inf, and inf - inf gives NaN components
    for amplitude in (FixedAmplitude(1e200), RayleighAmplitude(1e300)):
        spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0,
                                amplitude=amplitude)
        with pytest.raises(ValueError, match="not finite"):
            hops_statistics(spec, 100, seed=0)
        ensemble = sample_hops(spec, 100, seed=0)
        for stats in (classical_stokes, classical_hidden):
            with pytest.raises(ValueError, match="not finite"):
                stats(ensemble)
    # large but representable amplitudes still give finite statistics;
    # at 1e100 the squared batch-mean deviations (1e400) would overflow
    for a0 in (1e50, 1e100):
        spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0,
                                amplitude=FixedAmplitude(a0))
        stats = hops_statistics(spec, 100, seed=0)
        assert all(math.isfinite(v) for v in stats.values.values())
        assert all(math.isfinite(e) for e in stats.std_errors.values())


def test_polarization_index_trivial_cases():
    assert polarization_index(1.0, 0.0) == 0.0
    assert polarization_index(0.7, 0.7) == pytest.approx(1.0)
    assert polarization_index(0.5, 0.5j) == pytest.approx(1j)
    # on arrays, one index per sample: each ensemble's own index is exact
    ordinary = sample_ordinary(OrdinaryEnsembleSpec(chi=1.0, delta=0.4),
                               50, seed=3)
    np.testing.assert_allclose(
        polarization_index(ordinary.amp_x, ordinary.amp_y),
        math.tan(0.5) * np.exp(0.4j), rtol=1e-12)
    hidden = sample_hops(HopsEnsembleSpec(chi_h=1.0, delta_h=0.4), 50, seed=3)
    np.testing.assert_allclose(
        hidden_index(hidden.amp_x, hidden.amp_y),
        math.tan(0.5) * np.exp(0.4j), rtol=1e-12)


def test_undefined_indices():
    with pytest.raises(UndefinedIndexError):
        polarization_index(0.0, 1.0)
    with pytest.raises(UndefinedIndexError):
        hidden_index(0.0, 1.0)
    # one vanishing A_x leaves the index of an array undefined
    with pytest.raises(UndefinedIndexError):
        polarization_index(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert hidden_index(1.0, 1.0j) == pytest.approx(1.0j)
    with pytest.raises(ValueError):
        hidden_index(1.0, math.inf)
