"""Classical stochastic field ensembles and polarization indices.

A hidden-polarized ensemble distributes a random phase phi with opposite
signs across the two field components, so phase-difference statistics
(the ordinary Stokes parameters apart from s0, s1) average to zero while
phase-sum statistics survive. Sampling here is vectorized over numpy
arrays; FieldEnsemble exposes the samples as a sequence for callers that
want them one at a time, and `hops_statistics` draws and reduces a
hidden-polarized ensemble in chunks without holding it.

Estimates come with batch-means standard errors: the stream is cut into
about sqrt(N) batches and the spread of batch means estimates the error
of the grand mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

ENSEMBLE_CHUNK = 1 << 16   # samples drawn and reduced at a time by hops_statistics


class UndefinedIndexError(ArithmeticError):
    """A polarization index with a vanishing reference amplitude."""


@dataclass(frozen=True)
class ClassicalFieldSample:
    """One realization of the transverse analytic signal."""

    amp_x: complex
    amp_y: complex

    def __post_init__(self) -> None:
        if not (np.isfinite(self.amp_x) and np.isfinite(self.amp_y)):
            raise ValueError("field amplitudes must be finite")


@dataclass(frozen=True)
class FixedAmplitude:
    """Deterministic overall amplitude A0."""

    a0: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a0) and self.a0 > 0):
            raise ValueError("amplitude must be positive and finite")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, float(self.a0))


@dataclass(frozen=True)
class RayleighAmplitude:
    """Rayleigh-distributed overall amplitude (thermal-like intensity)."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.rayleigh(self.scale, count)


def _check_angles(chi: float, delta: float) -> None:
    if not 0.0 <= chi <= math.pi:
        raise ValueError("polar angle must lie in [0, pi]")
    if not -math.pi < delta <= math.pi:
        raise ValueError("phase angle must lie in (-pi, pi]")


@dataclass(frozen=True)
class HopsEnsembleSpec:
    """Hidden-polarized ensemble: opposite random phases in the two modes.

    Component phases are phi_x = phi + delta_h/2 and
    phi_y = -phi + delta_h/2 with phi uniform on [0, 2*pi), so the ratio
    amp_y / conj(amp_x) = tan(chi_h/2) e^{i delta_h} holds exactly for
    every sample, not merely on average.
    """

    chi_h: float
    delta_h: float
    amplitude: FixedAmplitude | RayleighAmplitude = field(
        default_factory=FixedAmplitude)

    def __post_init__(self) -> None:
        _check_angles(self.chi_h, self.delta_h)


@dataclass(frozen=True)
class OrdinaryEnsembleSpec:
    """Ordinary-polarized ensemble: one common random phase.

    The phase difference between components is the fixed delta, so the
    ordinary index tan(chi/2) e^{i delta} is exact per sample while
    phase-sum statistics average away.
    """

    chi: float
    delta: float
    amplitude: FixedAmplitude | RayleighAmplitude = field(
        default_factory=FixedAmplitude)

    def __post_init__(self) -> None:
        _check_angles(self.chi, self.delta)


@dataclass(frozen=True)
class FieldEnsemble:
    """Sequence of field samples backed by flat amplitude arrays."""

    amp_x: np.ndarray
    amp_y: np.ndarray

    def __post_init__(self) -> None:
        ax = np.array(self.amp_x, dtype=complex)
        ay = np.array(self.amp_y, dtype=complex)
        if ax.ndim != 1 or ax.shape != ay.shape:
            raise ValueError("amplitude arrays must be equal-length vectors")
        ax.setflags(write=False)
        ay.setflags(write=False)
        object.__setattr__(self, "amp_x", ax)
        object.__setattr__(self, "amp_y", ay)

    def __len__(self) -> int:
        return self.amp_x.shape[0]

    def __getitem__(self, idx: int) -> ClassicalFieldSample:
        return ClassicalFieldSample(
            complex(self.amp_x[idx]), complex(self.amp_y[idx]))


def _hops_chunks(
    spec: HopsEnsembleSpec, count: int, seed: int, chunk: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The amplitudes of `sample_hops`, `chunk` samples at a time.

    The phases are the seed's first `count` uniform draws and the
    amplitudes follow them in the same stream. A uniform double takes
    exactly one 64-bit draw, so a second generator advanced by `count`
    draws yields the amplitudes alongside the phases, and the samples
    do not depend on `chunk`.
    """
    phases = np.random.default_rng(seed)
    amplitudes = np.random.default_rng(seed)
    amplitudes.bit_generator.advance(count)
    half = 0.5 * spec.delta_h
    for start in range(0, count, chunk):
        n = min(chunk, count - start)
        phi = phases.uniform(0.0, 2.0 * math.pi, n)
        a0 = spec.amplitude.draw(amplitudes, n)
        yield (a0 * math.cos(0.5 * spec.chi_h) * np.exp(1j * (phi + half)),
               a0 * math.sin(0.5 * spec.chi_h) * np.exp(1j * (-phi + half)))


def sample_hops(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw a hidden-polarized ensemble, bit-reproducible per seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return FieldEnsemble(*next(_hops_chunks(spec, count, seed, count)))


def sample_ordinary(
    spec: OrdinaryEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw an ordinary-polarized ensemble (common random phase)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    a0 = spec.amplitude.draw(rng, count)
    amp_x = a0 * math.cos(0.5 * spec.chi) * np.exp(1j * phi)
    amp_y = a0 * math.sin(0.5 * spec.chi) * np.exp(1j * (phi + spec.delta))
    return FieldEnsemble(amp_x, amp_y)


@dataclass(frozen=True)
class EnsembleStats:
    """Component estimates with batch-means standard errors."""

    values: dict[str, float]
    std_errors: dict[str, float]
    sample_count: int


def _amplitude_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(samples, FieldEnsemble):
        return samples.amp_x, samples.amp_y
    amp_x = np.array([s.amp_x for s in samples], dtype=complex)
    amp_y = np.array([s.amp_y for s in samples], dtype=complex)
    return amp_x, amp_y


def _batch_layout(count: int) -> tuple[int, int]:
    """(batches, size): the first batches * size samples form the batches."""
    if count < 2:
        raise ValueError("need at least 2 samples for error estimates")
    batches = max(2, math.isqrt(count))
    return batches, count // batches


def _stokes_components(amp_x, amp_y) -> dict[str, np.ndarray]:
    ix = np.abs(amp_x) ** 2
    iy = np.abs(amp_y) ** 2
    cross = 2.0 * np.conj(amp_y) * amp_x
    return {"s0": iy + ix, "s1": iy - ix, "s2": cross.real, "s3": cross.imag}


def _hidden_components(amp_x, amp_y) -> dict[str, np.ndarray]:
    ix = np.abs(amp_x) ** 2
    iy = np.abs(amp_y) ** 2
    pair = 2.0 * amp_y * amp_x
    return {"h0": iy + ix, "h1": iy - ix, "h2": pair.real, "h3": pair.imag}


def _chunk_stats(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], count: int,
    components: Callable[..., dict[str, np.ndarray]],
) -> EnsembleStats:
    """Statistics of `components(amp_x, amp_y)` over a stream of samples.

    `chunks` yields (amp_x, amp_y) pairs, `count` samples in all; every
    chunk but the last holds whole batches (`_batch_layout`), so the
    batch means, and hence the errors, do not depend on the chunking.
    Raises ValueError when an estimate or an error is not finite, as
    when the amplitudes are large enough to overflow the components.
    """
    batches, size = _batch_layout(count)
    sums: dict[str, float] = {}
    means: dict[str, list[np.ndarray]] = {}
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for amp_x, amp_y in chunks:
            whole = min(max(batches * size - start, 0), amp_x.shape[0])
            for name, v in components(amp_x, amp_y).items():
                sums[name] = sums.get(name, 0.0) + np.sum(v)
                means.setdefault(name, []).append(
                    v[:whole].reshape(-1, size).mean(axis=1))
            start += amp_x.shape[0]
        errors = {k: float(np.std(np.concatenate(m), ddof=1)
                           / math.sqrt(batches))
                  for k, m in means.items()}
    values = {k: float(s / count) for k, s in sums.items()}
    for name in values:
        if not (math.isfinite(values[name]) and math.isfinite(errors[name])):
            raise ValueError(
                f"ensemble {name} is not finite; the amplitudes overflow")
    return EnsembleStats(values, errors, count)


def classical_stokes(samples) -> EnsembleStats:
    """Ensemble Stokes estimates: s2 + i*s3 = 2<conj(A_y) A_x>."""
    amp_x, amp_y = _amplitude_arrays(samples)
    return _chunk_stats([(amp_x, amp_y)], amp_x.shape[0], _stokes_components)


def classical_hidden(samples) -> EnsembleStats:
    """Ensemble hidden estimates: h2 + i*h3 = 2<A_y A_x> (no conjugation)."""
    amp_x, amp_y = _amplitude_arrays(samples)
    return _chunk_stats([(amp_x, amp_y)], amp_x.shape[0], _hidden_components)


def hops_statistics(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> EnsembleStats:
    """s0..s3 and h0..h3 of sample_hops(spec, count, seed) in one table.

    The same numbers as classical_stokes and classical_hidden of that
    ensemble, but the samples are drawn and reduced in chunks of whole
    batches, about ENSEMBLE_CHUNK samples each, and never held at once;
    beyond one chunk only the ~sqrt(count) batch means are kept. The
    errors are equal; the estimates agree to summation round-off.
    """
    _, size = _batch_layout(count)
    chunk = size * max(1, ENSEMBLE_CHUNK // size)
    return _chunk_stats(
        _hops_chunks(spec, count, seed, chunk), count,
        lambda x, y: {**_stokes_components(x, y), **_hidden_components(x, y)})


def polarization_index(
    sample: ClassicalFieldSample,
    basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> complex:
    """Amplitude ratio of the field in an orthonormal basis pair.

    Projects onto (e, e_perp) and returns A_perp / A_e. The default
    basis is the linear (x, y) pair. The pair must satisfy
    conj(e).e = conj(e_perp).e_perp = 1 and conj(e).e_perp = 0.
    """
    if basis is None:
        e = np.array([1.0, 0.0], dtype=complex)
        e_perp = np.array([0.0, 1.0], dtype=complex)
    else:
        e = np.asarray(basis[0], dtype=complex)
        e_perp = np.asarray(basis[1], dtype=complex)
    if e.shape != (2,) or e_perp.shape != (2,):
        raise ValueError("basis vectors must be complex pairs")
    gram = (abs(np.vdot(e, e) - 1.0), abs(np.vdot(e_perp, e_perp) - 1.0),
            abs(np.vdot(e, e_perp)))
    if max(gram) > 1e-12:
        raise ValueError("basis pair is not orthonormal")
    amp = np.array([sample.amp_x, sample.amp_y])
    along = np.vdot(e, amp)
    across = np.vdot(e_perp, amp)
    if abs(along) == 0.0:
        raise UndefinedIndexError("reference amplitude vanishes")
    return complex(across / along)


def hidden_index(sample: ClassicalFieldSample) -> complex:
    """Phase-sum analogue of the polarization index: A_y / conj(A_x)."""
    if abs(sample.amp_x) == 0.0:
        raise UndefinedIndexError("reference amplitude vanishes")
    return complex(sample.amp_y / np.conj(sample.amp_x))
