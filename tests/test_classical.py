"""Tests for classical field ensembles."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopslab import classical
from hopslab.classical import (
    FieldEnsemble,
    FixedAmplitude,
    HopsEnsembleSpec,
    MIN_AMPLITUDE,
    OrdinaryEnsembleSpec,
    RayleighAmplitude,
    UndefinedIndexError,
    _draw_chunks,
    _scaled_phasors,
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
    # the streamed table shares the intensities between the two sets
    streamed = hops_statistics(spec, 5000, seed=3)
    for shared, ordinary in (("h0", "s0"), ("h1", "s1")):
        assert streamed.values[shared] == streamed.values[ordinary]
        assert streamed.std_errors[shared] == streamed.std_errors[ordinary]


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


def _ensemble_rows(ensemble):
    return np.stack([ensemble.amp_x.real, ensemble.amp_x.imag,
                     ensemble.amp_y.real, ensemble.amp_y.imag])


def test_chunked_draws_reproduce_the_one_shot_ensemble():
    spec = HopsEnsembleSpec(chi_h=1.2, delta_h=0.4,
                            amplitude=RayleighAmplitude(0.8))
    count = 1001
    rng = np.random.default_rng(42)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    a0 = rng.rayleigh(0.8, count)
    # the stream formula in the draw's own arithmetic: from
    # t = tan(phi/2), p = a0 cos phi and q = a0 sin phi, then each row
    # of z = (Re A_x, Im A_x, Re A_y, Im A_y) is a fixed mix of p and q
    t = np.tan(0.5 * phi)
    u = 1.0 + t * t
    k = a0 / u
    p, q = (2.0 - u) * k, 2.0 * t * k
    s_x = math.cos(0.6) * cmath.exp(0.2j)
    s_y = math.sin(0.6) * cmath.exp(0.2j)
    rows = np.array([s_x.real * p - s_x.imag * q, s_x.imag * p + s_x.real * q,
                     s_y.real * p + s_y.imag * q, s_y.imag * p - s_y.real * q])
    ensemble = sample_hops(spec, count, seed=42)
    np.testing.assert_array_equal(_ensemble_rows(ensemble), rows)
    # and the exponential form, to round-off in units of a0
    within = 2e-15 * a0
    assert np.all(np.abs(ensemble.amp_x - a0 * math.cos(0.6)
                         * np.exp(1j * (phi + 0.2))) <= within)
    assert np.all(np.abs(ensemble.amp_y - a0 * math.sin(0.6)
                         * np.exp(1j * (-phi + 0.2))) <= within)
    chunks = list(_draw_chunks(spec, count, 42, 64))
    assert len(chunks) == 16
    np.testing.assert_array_equal(np.concatenate(chunks, axis=1), rows)


def test_ordinary_draws_share_the_chunked_stream():
    spec = OrdinaryEnsembleSpec(chi=1.2, delta=-2.1,
                                amplitude=RayleighAmplitude(0.8))
    count = 1001
    rng = np.random.default_rng(42)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    a0 = rng.rayleigh(0.8, count)
    # the one-generator formula in the draw's row arithmetic: A_x is
    # cos(chi/2) e^{i phi}, A_y is sin(chi/2) e^{i delta} e^{i phi}
    t = np.tan(0.5 * phi)
    u = 1.0 + t * t
    k = a0 / u
    p, q = (2.0 - u) * k, 2.0 * t * k
    s_x = math.cos(0.6)
    s_y = math.sin(0.6) * complex(math.cos(-2.1), math.sin(-2.1))
    rows = np.array([s_x * p, s_x * q, s_y.real * p - s_y.imag * q,
                     s_y.imag * p + s_y.real * q])
    ensemble = sample_ordinary(spec, count, seed=42)
    np.testing.assert_array_equal(_ensemble_rows(ensemble), rows)
    chunks = list(_draw_chunks(spec, count, 42, 64))
    assert len(chunks) == 16
    np.testing.assert_array_equal(np.concatenate(chunks, axis=1), rows)
    # both samplers state the count rule once, in the shared draw
    for sample, spec in ((sample_ordinary, spec),
                         (sample_hops, HopsEnsembleSpec(1.2, 0.4))):
        with pytest.raises(ValueError, match="count"):
            sample(spec, 0, seed=42)


@pytest.mark.parametrize("spec", [HopsEnsembleSpec(1.2, 0.4),
                                  OrdinaryEnsembleSpec(1.2, -2.1)])
@pytest.mark.parametrize("amplitude", [FixedAmplitude(1.7),
                                       RayleighAmplitude(0.8)])
def test_draw_keeps_the_seeds_stream(monkeypatch, spec, amplitude):
    # the phases are the seed's first draws, halved, and a Rayleigh a0
    # follows them in the same stream, in one chunk or in sixteen
    count = 1001
    rng = np.random.default_rng(42)
    half = rng.uniform(0.0, 2.0 * math.pi, count) / 2
    if isinstance(amplitude, RayleighAmplitude):
        a0 = rng.rayleigh(amplitude.scale, count)
    else:
        a0 = np.full(count, amplitude.a0)
    spec = dataclasses.replace(spec, amplitude=amplitude)
    seen = []
    scaled_phasors = classical._scaled_phasors

    def record(half, a0, out):
        seen.append((half.copy(), a0.copy()))
        return scaled_phasors(half, a0, out)

    monkeypatch.setattr(classical, "_scaled_phasors", record)
    for chunk, chunks in ((count, 1), (64, 16)):
        seen.clear()
        assert len(list(_draw_chunks(spec, count, 42, chunk))) == chunks
        np.testing.assert_array_equal(np.concatenate([h for h, _ in seen]),
                                      half)
        np.testing.assert_array_equal(np.concatenate([a for _, a in seen]),
                                      a0)


@given(chi=POLAR_ANGLES, delta=PHASE_ANGLES, seed=SEEDS,
       amplitude=st.sampled_from([FixedAmplitude(1.7),
                                  RayleighAmplitude(0.8)]))
def test_one_phasor_draws_match_the_exponential_form(chi, delta, seed,
                                                     amplitude):
    count = 200
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    a0 = amplitude.draw(rng, count)
    within = 2e-15 * a0
    hidden = HopsEnsembleSpec(chi_h=chi, delta_h=delta, amplitude=amplitude)
    z = next(_draw_chunks(hidden, count, seed, count))
    amp_x, amp_y = z[0] + 1j * z[1], z[2] + 1j * z[3]
    total = np.abs(amp_x) ** 2 + np.abs(amp_y) ** 2
    np.testing.assert_allclose(total, a0**2, rtol=4e-15)
    assert np.all(np.abs(amp_x - a0 * math.cos(0.5 * chi)
                         * np.exp(1j * (phi + 0.5 * delta))) <= within)
    assert np.all(np.abs(amp_y - a0 * math.sin(0.5 * chi)
                         * np.exp(1j * (-phi + 0.5 * delta))) <= within)
    ordinary = sample_ordinary(
        OrdinaryEnsembleSpec(chi=chi, delta=delta, amplitude=amplitude),
        count, seed)
    assert np.all(np.abs(ordinary.amp_x - a0 * math.cos(0.5 * chi)
                         * np.exp(1j * phi)) <= within)
    assert np.all(np.abs(ordinary.amp_y - a0 * math.sin(0.5 * chi)
                         * np.exp(1j * (phi + delta))) <= within)


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


def test_one_batch_chunks_keep_only_their_means(monkeypatch):
    # a chunk of one batch, as above 2**30 samples: 500 chunks of 500.
    # The batch means fill one (components, batches) array; kept as a
    # list of per-chunk arrays they traced 1.2 kB a batch, 586 kB here
    spec = HopsEnsembleSpec(chi_h=1.1, delta_h=-0.3,
                            amplitude=RayleighAmplitude(1.0))
    whole = hops_statistics(spec, 250_000, seed=5)
    monkeypatch.setattr(classical, "ENSEMBLE_CHUNK", 1)
    tracemalloc.start()
    try:
        stats = hops_statistics(spec, 250_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200e3
    # the batch means do not depend on the chunking, and the shared
    # intensities are one reduction: h0 is s0 and h1 is s1, exactly
    assert stats.std_errors == whole.std_errors
    for name in ("0", "1"):
        assert stats.values["h" + name] == stats.values["s" + name]
        assert stats.std_errors["h" + name] == stats.std_errors["s" + name]


def test_streamed_draw_traces_little_memory():
    # chunks of 2**15 samples as (4, n) rows: the chunk being drawn, the
    # one last reduced and two n-long temporaries traced 2.87 MB; the
    # (n, 2) complex chunks of 2**16 samples they replaced traced 4.87 MB
    spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.7,
                            amplitude=RayleighAmplitude(1.0))
    hops_statistics(spec, 1000, seed=0)
    tracemalloc.start()
    try:
        hops_statistics(spec, 1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


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


def _direct_stats(ensemble):
    """Estimates and batch-means errors from per-sample components."""
    amp_x, amp_y = ensemble.amp_x, ensemble.amp_y
    ix = amp_x.real ** 2 + amp_x.imag ** 2
    iy = amp_y.real ** 2 + amp_y.imag ** 2
    stokes = 2.0 * np.conj(amp_y) * amp_x
    hidden = 2.0 * amp_y * amp_x
    components = {"s0": ix + iy, "s1": iy - ix, "s2": stokes.real,
                  "s3": stokes.imag, "h0": ix + iy, "h1": iy - ix,
                  "h2": hidden.real, "h3": hidden.imag}
    batches = max(2, math.isqrt(len(ensemble)))
    size = len(ensemble) // batches
    values, errors = {}, {}
    for name, v in components.items():
        means = v[:batches * size].reshape(batches, size).mean(axis=1)
        values[name] = v.mean()
        errors[name] = np.std(means, ddof=1) / math.sqrt(batches)
    return values, errors


@pytest.mark.parametrize("amplitude", [FixedAmplitude(1.7),
                                       RayleighAmplitude(0.8)])
def test_gram_reduce_matches_the_per_sample_components(amplitude):
    # 10007 samples: 100 batches of 100 and 7 beyond the last batch
    count = 10_007
    hidden = HopsEnsembleSpec(chi_h=1.1, delta_h=-0.3, amplitude=amplitude)
    ordinary = OrdinaryEnsembleSpec(chi=0.9, delta=2.0, amplitude=amplitude)
    cases = [(sample_hops(hidden, count, seed=9), classical_stokes),
             (sample_hops(hidden, count, seed=9), classical_hidden),
             (sample_ordinary(ordinary, count, seed=9), classical_stokes),
             (sample_ordinary(ordinary, count, seed=9), classical_hidden)]
    tables = [(_direct_stats(ensemble), reduce(ensemble))
              for ensemble, reduce in cases]
    tables.append((_direct_stats(sample_hops(hidden, count, seed=9)),
                   hops_statistics(hidden, count, seed=9)))
    for (values, errors), stats in tables:
        scale = values["s0"]
        for name, value in stats.values.items():
            assert abs(value - values[name]) <= 1e-14 * scale, name
            error = stats.std_errors[name]
            if errors[name] > 1e-14 * scale:
                assert error == pytest.approx(errors[name], rel=1e-12), name


def test_tangent_phasors_stay_finite_at_the_edge_phases():
    phi = np.array([0.0, math.pi, np.nextafter(math.pi, 0.0),
                    np.nextafter(math.pi, 4.0), 0.5 * math.pi,
                    1.5 * math.pi, np.nextafter(2.0 * math.pi, 0.0)])
    cos = np.empty(phi.shape)
    sin = _scaled_phasors(0.5 * phi, np.ones(phi.shape), cos)
    phasor = cos + 1j * sin
    assert np.all(np.isfinite(phasor))
    assert np.all(np.abs(phasor - np.exp(1j * phi)) <= 2e-15)
    np.testing.assert_allclose(np.abs(phasor), 1.0, rtol=0, atol=1e-15)


def test_amplitudes_too_small_to_square_are_rejected():
    # a0^2 below the least normal double would read s0 = 0.0 +- 0.0
    for amplitude in (FixedAmplitude, RayleighAmplitude):
        with pytest.raises(ValueError, match="underflows"):
            amplitude(1e-170)
        with pytest.raises(ValueError, match="underflows"):
            amplitude(np.nextafter(MIN_AMPLITUDE, 0.0))
        assert amplitude(MIN_AMPLITUDE).draw(
            np.random.default_rng(0), 3).shape == (3,)
    spec = HopsEnsembleSpec(chi_h=1.0, delta_h=0.0,
                            amplitude=FixedAmplitude(MIN_AMPLITUDE))
    assert hops_statistics(spec, 5, seed=0).values["s0"] > 0.0


def test_non_finite_amplitudes_are_rejected_at_construction():
    for amp_x, amp_y in (([1, math.nan, 1j], [1, 1, 1]),
                         ([1, 1], [math.inf, 1]),
                         ([1, 1], [1, complex(0, -math.inf)])):
        with pytest.raises(ValueError, match="must be finite"):
            FieldEnsemble(amp_x, amp_y)


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
