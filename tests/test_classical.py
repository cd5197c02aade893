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
    FixedAmplitude,
    HopsEnsembleSpec,
    MIN_AMPLITUDE,
    RayleighAmplitude,
    _chunk_stats,
    _draw_chunks,
    _scaled_phasors,
    hops_statistics,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
POLAR_ANGLES = st.floats(min_value=0.05, max_value=math.pi - 0.05)
PHASE_ANGLES = st.floats(min_value=-math.pi + 1e-6, max_value=math.pi)


def hidden_map(spec):
    """The (4, 2) map from (p, q) to z of a hidden-polarized sample.

    A_x = s_x e^{i phi} and A_y = s_y e^{-i phi}, with
    s_x = cos(chi_h/2) e^{i delta_h/2} and
    s_y = sin(chi_h/2) e^{i delta_h/2}.
    """
    half = 0.5 * spec.delta_h
    tilt = complex(math.cos(half), math.sin(half))
    s_x = math.cos(0.5 * spec.chi_h) * tilt
    s_y = math.sin(0.5 * spec.chi_h) * tilt
    return np.array([[s_x.real, -s_x.imag], [s_x.imag, s_x.real],
                     [s_y.real, s_y.imag], [s_y.imag, -s_y.real]])


def ordinary_map(chi, delta):
    """The (4, 2) map from (p, q) to z of an ordinary-polarized sample.

    One common phase: A_x = cos(chi/2) e^{i phi} and
    A_y = sin(chi/2) e^{i delta} e^{i phi}, with a fixed difference delta.
    """
    s_x = math.cos(0.5 * chi)
    s_y = math.sin(0.5 * chi) * complex(math.cos(delta), math.sin(delta))
    return np.array([[s_x, 0.0], [0.0, s_x],
                     [s_y.real, -s_y.imag], [s_y.imag, s_y.real]])


def ordinary_components(chi, delta):
    """`ordinary_map`'s (6, 3) map from the three sums to the components.

    The sums are (sum p^2, sum pq, sum q^2) and the rows s0, s1, s2,
    s3, h2, h3, as in the spec's `_component_map`. With w = p + iq:
    s0 = |w|^2, s1 = -cos(chi) |w|^2,
    s2 + i*s3 = sin(chi) e^{-i delta} |w|^2 and
    h2 + i*h3 = sin(chi) e^{i delta} w^2.
    """
    c, s = math.cos(chi), math.sin(chi)
    re, im = s * math.cos(delta), s * math.sin(delta)
    return np.array([[1.0, 0.0, 1.0], [-c, 0.0, -c], [re, 0.0, re],
                     [-im, 0.0, -im], [re, -2.0 * im, -re],
                     [im, 2.0 * re, -im]])


def amplitudes(spec, count, seed, mapping=None):
    """(A_x, A_y) of the draw's samples, one array each.

    The draw's (p, q) in one chunk, mapped row by row to
    z = (Re A_x, Im A_x, Re A_y, Im A_y) = R (p, q) by `hidden_map` or
    by `mapping`. The draw reads only `spec.amplitude`.
    """
    p, q = next(_draw_chunks(spec, count, seed, count))
    r = hidden_map(spec) if mapping is None else mapping
    z = r[:, :1] * p + r[:, 1:] * q
    return np.ascontiguousarray(z.T).view(complex).T


def test_angle_range_validation():
    with pytest.raises(ValueError):
        HopsEnsembleSpec(chi_h=-0.1, delta_h=0.0)
    with pytest.raises(ValueError):
        HopsEnsembleSpec(chi_h=math.pi + 0.1, delta_h=0.0)
    with pytest.raises(ValueError):
        HopsEnsembleSpec(chi_h=1.0, delta_h=-math.pi)
    with pytest.raises(ValueError):
        FixedAmplitude(0.0)
    with pytest.raises(ValueError):
        RayleighAmplitude(-1.0)


def test_sample_count_validation():
    # one rule, stated where the batches are laid out
    spec = HopsEnsembleSpec(chi_h=1.0, delta_h=0.0)
    for count in (-1, 0, 1):
        with pytest.raises(ValueError, match="2 samples"):
            hops_statistics(spec, count, seed=1)


@given(chi_h=POLAR_ANGLES, delta_h=PHASE_ANGLES, seed=SEEDS)
def test_hidden_index_exact_per_sample(chi_h, delta_h, seed):
    spec = HopsEnsembleSpec(chi_h=chi_h, delta_h=delta_h)
    amp_x, amp_y = amplitudes(spec, 50, seed=seed)
    expected = math.tan(0.5 * chi_h) * np.exp(1j * delta_h)
    ratios = amp_y / np.conj(amp_x)
    np.testing.assert_allclose(ratios, expected, atol=1e-12)


@given(chi_h=POLAR_ANGLES, seed=SEEDS)
def test_total_intensity_is_pythagorean(chi_h, seed):
    spec = HopsEnsembleSpec(chi_h=chi_h, delta_h=0.5,
                            amplitude=FixedAmplitude(1.7))
    amp_x, amp_y = amplitudes(spec, 50, seed=seed)
    total = np.abs(amp_x) ** 2 + np.abs(amp_y) ** 2
    np.testing.assert_allclose(total, 1.7**2, atol=1e-12)


def test_degenerate_angles():
    _, flat_y = amplitudes(HopsEnsembleSpec(chi_h=0.0, delta_h=0.3), 20,
                           seed=5)
    np.testing.assert_array_equal(flat_y, 0.0)
    amp_x, amp_y = amplitudes(
        HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0), 20, seed=5)
    np.testing.assert_allclose(amp_y, np.conj(amp_x), atol=1e-12)


def test_seed_reproducibility():
    spec = HopsEnsembleSpec(chi_h=1.2, delta_h=0.4,
                            amplitude=RayleighAmplitude(0.8))
    first = amplitudes(spec, 1000, seed=42)
    second = amplitudes(spec, 1000, seed=42)
    np.testing.assert_array_equal(first, second)
    third = amplitudes(spec, 1000, seed=43)
    assert not np.array_equal(first[0], third[0])


def test_hops_stokes_vanish_but_hidden_survive():
    spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.7)
    stats = hops_statistics(spec, 200_000, seed=11)
    scale = stats.values["s0"]
    assert stats.values["s0"] == pytest.approx(1.0, abs=1e-12)
    for name in ("s2", "s3"):
        assert abs(stats.values[name]) < 5 / math.sqrt(200_000) * scale
    # s1 = -A0^2 cos(chi_h) vanishes identically at chi_h = pi/2
    assert abs(stats.values["s1"]) < 1e-12
    # phase-sum statistics are exact per sample at fixed amplitude
    expected = np.sin(0.5 * math.pi) * np.exp(1j * 0.7)
    assert stats.values["h2"] == pytest.approx(expected.real, abs=1e-12)
    assert stats.values["h3"] == pytest.approx(expected.imag, abs=1e-12)


def test_hidden_coincides_with_stokes_on_first_two():
    spec = HopsEnsembleSpec(chi_h=1.1, delta_h=-0.3,
                            amplitude=RayleighAmplitude(1.0))
    # the streamed table shares the intensities between the two sets
    streamed = hops_statistics(spec, 5000, seed=3)
    for shared, ordinary in (("h0", "s0"), ("h1", "s1")):
        assert streamed.values[shared] == streamed.values[ordinary]
        assert streamed.std_errors[shared] == streamed.std_errors[ordinary]


def test_tilted_ensemble_keeps_s1():
    # away from chi_h = pi/2 only s2, s3 average to zero
    spec = HopsEnsembleSpec(chi_h=1.0, delta_h=0.0)
    stats = hops_statistics(spec, 100_000, seed=7)
    assert stats.values["s1"] == pytest.approx(-math.cos(1.0), abs=1e-12)
    assert abs(stats.values["s2"]) < 5 / math.sqrt(100_000)


@given(chi_h=st.floats(min_value=0.0, max_value=math.pi),
       delta_h=PHASE_ANGLES, seed=SEEDS)
def test_phase_sum_components_are_exact_at_fixed_amplitude(chi_h, delta_h,
                                                           seed):
    # s0, s1 and h0..h3 take one value on every sample, so their
    # estimates are exact and their errors round-off. 100003 samples:
    # 316 batches of 316 in four chunks, and 147 beyond the last batch
    a0 = 1.7
    spec = HopsEnsembleSpec(chi_h, delta_h, FixedAmplitude(a0))
    stats = hops_statistics(spec, 100_003, seed)
    tilt = -math.cos(chi_h)
    pair = math.sin(chi_h) * cmath.exp(1j * delta_h)
    expected = {"s0": 1.0, "s1": tilt, "h0": 1.0, "h1": tilt,
                "h2": pair.real, "h3": pair.imag}
    scale = a0**2
    for name, value in expected.items():
        assert abs(stats.values[name] - scale * value) <= 1e-14 * scale, name
        assert stats.std_errors[name] < 1e-14 * scale, name


def test_ordinary_ensemble_hidden_parameters_vanish():
    # the same draw mapped by an ordinary map (one common phase), and
    # reduced both per sample and by the streamed three-sum reduction
    spec = HopsEnsembleSpec(chi_h=1.0, delta_h=0.0)
    mapping = ordinary_map(0.5 * math.pi, 0.4)
    values, _ = _direct_stats(*amplitudes(spec, 200_000, 19, mapping))
    chunks = _draw_chunks(spec, 200_000, 19, 200_000)
    streamed = _chunk_stats(chunks, 200_000,
                            ordinary_components(0.5 * math.pi, 0.4)).values
    # fixed phase difference: ordinary cross terms are exact per sample
    expected = np.sin(0.5 * math.pi) * np.exp(-1j * 0.4)
    for table in (values, streamed):
        assert table["s2"] == pytest.approx(expected.real, abs=1e-12)
        assert table["s3"] == pytest.approx(expected.imag, abs=1e-12)
        for name in ("h2", "h3"):
            assert abs(table[name]) < 5 / math.sqrt(200_000)


def test_standard_errors_shrink_like_root_n():
    spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0,
                            amplitude=RayleighAmplitude(1.0))
    small = hops_statistics(spec, 10_000, seed=23)
    large = hops_statistics(spec, 160_000, seed=23)
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
    amp_x, amp_y = amplitudes(spec, count, seed=42)
    np.testing.assert_array_equal(
        [amp_x.real, amp_x.imag, amp_y.real, amp_y.imag], rows)
    # and the exponential form, to round-off in units of a0
    within = 2e-15 * a0
    assert np.all(np.abs(amp_x - a0 * math.cos(0.6)
                         * np.exp(1j * (phi + 0.2))) <= within)
    assert np.all(np.abs(amp_y - a0 * math.sin(0.6)
                         * np.exp(1j * (-phi + 0.2))) <= within)
    # a chunk is the (p, q) pair, two contiguous rows, in one chunk or 16
    for chunk, chunks in ((count, 1), (64, 16)):
        drawn = list(_draw_chunks(spec, count, 42, chunk))
        assert len(drawn) == chunks
        assert all(c.shape[0] == 2 and c.flags.c_contiguous for c in drawn)
        np.testing.assert_array_equal(np.concatenate(drawn, axis=1),
                                      np.array([p, q]))


def test_ordinary_draws_share_the_chunked_stream():
    # the draw reads only the amplitude: specs of any angles give one
    # (p, q), and the ordinary map takes it to the ordinary sample
    amplitude = RayleighAmplitude(0.8)
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
    for spec in (HopsEnsembleSpec(1.2, 0.4, amplitude),
                 HopsEnsembleSpec(0.0, math.pi, amplitude)):
        amp_x, amp_y = amplitudes(spec, count, 42, ordinary_map(1.2, -2.1))
        np.testing.assert_array_equal(
            [amp_x.real, amp_x.imag, amp_y.real, amp_y.imag], rows)
        chunks = list(_draw_chunks(spec, count, 42, 64))
        assert len(chunks) == 16
        np.testing.assert_array_equal(np.concatenate(chunks, axis=1),
                                      np.array([p, q]))


@pytest.mark.parametrize("spec", [HopsEnsembleSpec(1.2, 0.4),
                                  HopsEnsembleSpec(0.0, math.pi)])
@pytest.mark.parametrize("amplitude", [FixedAmplitude(1.7),
                                       RayleighAmplitude(0.8)])
def test_draw_keeps_the_seeds_stream(monkeypatch, spec, amplitude):
    # the phases are the seed's first draws, halved, and a Rayleigh a0
    # follows them in the same stream, in one chunk or in sixteen; the
    # spec's angles do not enter the draw
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
    # the chunk is (p, q) in the tangent arithmetic, exactly
    t = np.tan(0.5 * phi)
    u = 1.0 + t * t
    k = a0 / u
    hidden = HopsEnsembleSpec(chi_h=chi, delta_h=delta, amplitude=amplitude)
    chunk = next(_draw_chunks(hidden, count, seed, count))
    np.testing.assert_array_equal(chunk, [(2.0 - u) * k, 2.0 * t * k])
    amp_x, amp_y = amplitudes(hidden, count, seed)
    total = np.abs(amp_x) ** 2 + np.abs(amp_y) ** 2
    np.testing.assert_allclose(total, a0**2, rtol=4e-15)
    assert np.all(np.abs(amp_x - a0 * math.cos(0.5 * chi)
                         * np.exp(1j * (phi + 0.5 * delta))) <= within)
    assert np.all(np.abs(amp_y - a0 * math.sin(0.5 * chi)
                         * np.exp(1j * (-phi + 0.5 * delta))) <= within)
    amp_x, amp_y = amplitudes(hidden, count, seed, ordinary_map(chi, delta))
    assert np.all(np.abs(amp_x - a0 * math.cos(0.5 * chi)
                         * np.exp(1j * phi)) <= within)
    assert np.all(np.abs(amp_y - a0 * math.sin(0.5 * chi)
                         * np.exp(1j * (phi + delta))) <= within)


def test_streamed_statistics_match_one_shot():
    # 300001 samples: batches of 548, five chunks of 119 batches each
    spec = HopsEnsembleSpec(chi_h=1.1, delta_h=-0.3,
                            amplitude=RayleighAmplitude(1.0))
    # The stream reduces each batch to (sum p^2, sum pq, sum q^2) and
    # maps those by the spec's 6 x 3 K; the per-sample components differ
    # from that at round-off, so errors agree by the rule of
    # test_gram_reduce_matches_the_per_sample_components
    values, errors = _direct_stats(*amplitudes(spec, 300_001, seed=5))
    streamed = hops_statistics(spec, 300_001, seed=5)
    assert streamed.sample_count == 300_001
    scale = streamed.values["s0"]
    for name, value in values.items():
        if errors[name] > 1e-14 * scale:
            assert streamed.std_errors[name] == pytest.approx(
                errors[name], rel=1e-12), name
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
    # chunks of 2**15 samples as (2, n) rows (p, q): the chunk being
    # drawn, the one last reduced and the n-long amplitudes traced
    # 1.33 MB; as (4, n) rows z with two temporaries they traced 2.87 MB,
    # and as (n, 2) complex chunks of 2**16 samples 4.87 MB
    spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.7,
                            amplitude=RayleighAmplitude(1.0))
    hops_statistics(spec, 1000, seed=0)
    tracemalloc.start()
    try:
        hops_statistics(spec, 1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.4e6


def test_overflowing_statistics_raise():
    # |amplitude|^2 overflows to inf, and inf - inf gives NaN components
    for amplitude in (FixedAmplitude(1e200), RayleighAmplitude(1e300)):
        spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0,
                                amplitude=amplitude)
        with pytest.raises(ValueError, match="not finite"):
            hops_statistics(spec, 100, seed=0)
    # large but representable amplitudes still give finite statistics;
    # at 1e100 the squared batch-mean deviations (1e400) would overflow
    for a0 in (1e50, 1e100):
        spec = HopsEnsembleSpec(chi_h=0.5 * math.pi, delta_h=0.0,
                                amplitude=FixedAmplitude(a0))
        stats = hops_statistics(spec, 100, seed=0)
        assert all(math.isfinite(v) for v in stats.values.values())
        assert all(math.isfinite(e) for e in stats.std_errors.values())


def _direct_stats(amp_x, amp_y):
    """Estimates and batch-means errors from per-sample components."""
    ix = amp_x.real ** 2 + amp_x.imag ** 2
    iy = amp_y.real ** 2 + amp_y.imag ** 2
    stokes = 2.0 * np.conj(amp_y) * amp_x
    hidden = 2.0 * amp_y * amp_x
    components = {"s0": ix + iy, "s1": iy - ix, "s2": stokes.real,
                  "s3": stokes.imag, "h0": ix + iy, "h1": iy - ix,
                  "h2": hidden.real, "h3": hidden.imag}
    batches = max(2, math.isqrt(amp_x.size))
    size = amp_x.size // batches
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
    # the hidden draw, and the same draw under an ordinary map
    hidden = HopsEnsembleSpec(chi_h=1.1, delta_h=-0.3, amplitude=amplitude)
    ordinary = ordinary_map(0.9, 2.0)
    tables = [(_direct_stats(*amplitudes(hidden, count, seed=9)),
               hops_statistics(hidden, count, seed=9)),
              (_direct_stats(*amplitudes(hidden, count, 9, ordinary)),
               _chunk_stats(_draw_chunks(hidden, count, 9, count), count,
                            ordinary_components(0.9, 2.0)))]
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
