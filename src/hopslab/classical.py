"""Classical stochastic field ensembles and polarization indices.

A hidden-polarized ensemble distributes a random phase phi with opposite
signs across the two field components, so phase-difference statistics
(the ordinary Stokes parameters apart from s0, s1) average to zero while
phase-sum statistics survive. An ensemble is a pair of flat amplitude
arrays (FieldEnsemble), and every statistic and index here is
vectorized over them; `hops_statistics` draws and reduces a
hidden-polarized ensemble in chunks without holding it.

Both ensembles come from one draw (`_draw_chunks`): one unit phasor
e^{i phi} per sample, from one cos and one sin of the phase, and a
spec's `_draw_rule` for amp_y's phasor (the conjugate, or the product
with e^{i delta}) and two constant factors. The stream is fixed per
seed: the phases are its first `count` uniform draws and the amplitudes
follow, so the samples do not depend on how they are chunked.

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

    def _draw_rule(self) -> tuple[Callable, complex, complex]:
        """amp_y's phasor is amp_x's conjugate; both take e^{i delta_h/2}."""
        tilt = complex(math.cos(0.5 * self.delta_h),
                       math.sin(0.5 * self.delta_h))
        return (np.conj, math.cos(0.5 * self.chi_h) * tilt,
                math.sin(0.5 * self.chi_h) * tilt)


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

    def _draw_rule(self) -> tuple[Callable, float, float]:
        """amp_y's phasor is amp_x's times e^{i delta}."""
        turn = complex(math.cos(self.delta), math.sin(self.delta))
        return (lambda phasor: phasor * turn, math.cos(0.5 * self.chi),
                math.sin(0.5 * self.chi))


@dataclass(frozen=True)
class FieldEnsemble:
    """Field samples as flat amplitude arrays, one entry per sample."""

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


def _unit_phasors(phi: np.ndarray) -> np.ndarray:
    """e^{i phi} as one complex array: cos and sin written into its parts."""
    phasor = np.empty(phi.shape, dtype=complex)
    np.cos(phi, out=phasor.real)
    np.sin(phi, out=phasor.imag)
    return phasor


def _draw_chunks(
    spec: HopsEnsembleSpec | OrdinaryEnsembleSpec, count: int, seed: int,
    chunk: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """An ensemble's amplitudes, `chunk` samples at a time.

    The one draw of `sample_hops`, `sample_ordinary` and
    `hops_statistics`. The phases are the seed's first `count` uniform
    draws and the amplitudes follow them in the same stream. A uniform
    double takes exactly one 64-bit draw, so a second generator
    advanced by `count` draws yields the amplitudes alongside the
    phases, and the samples do not depend on `chunk`. amp_x is one unit
    phasor e^{i phi} per sample; the spec's `_draw_rule` gives amp_y's
    phasor from it and two constant factors, which scale the pair in
    place, as the amplitude a0 then does.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    follow, scale_x, scale_y = spec._draw_rule()
    phases = np.random.default_rng(seed)
    amplitudes = np.random.default_rng(seed)
    amplitudes.bit_generator.advance(count)
    for start in range(0, count, chunk):
        n = min(chunk, count - start)
        amp_x = _unit_phasors(phases.uniform(0.0, 2.0 * math.pi, n))
        amp_y = follow(amp_x)
        a0 = spec.amplitude.draw(amplitudes, n)
        for amp, scale in ((amp_x, scale_x), (amp_y, scale_y)):
            amp *= scale
            amp *= a0
        yield amp_x, amp_y


def sample_hops(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw a hidden-polarized ensemble, bit-reproducible per seed."""
    return FieldEnsemble(*next(_draw_chunks(spec, count, seed, count)))


def sample_ordinary(
    spec: OrdinaryEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw an ordinary-polarized ensemble (common random phase)."""
    return FieldEnsemble(*next(_draw_chunks(spec, count, seed, count)))


@dataclass(frozen=True)
class EnsembleStats:
    """Component estimates with batch-means standard errors."""

    values: dict[str, float]
    std_errors: dict[str, float]
    sample_count: int


def _batch_layout(count: int) -> tuple[int, int]:
    """(batches, size): the first batches * size samples form the batches."""
    if count < 2:
        raise ValueError("need at least 2 samples for error estimates")
    batches = max(2, math.isqrt(count))
    return batches, count // batches


def _components(amp_x, amp_y, sets: str) -> list[np.ndarray]:
    """Distinct per-sample components of the sets named in `sets`.

    `sets` is "s", "h" or both; `_component_rows(sets)` names the rows.
    Each intensity is computed once, as re^2 + im^2, and the two sets
    share them: s0 = h0 and s1 = h1 are the first two rows. The sets
    differ only in the correlation, s2 + i*s3 = 2 conj(A_y) A_x and
    h2 + i*h3 = 2 A_y A_x, two rows per set.
    """
    ix = amp_x.real ** 2 + amp_x.imag ** 2
    iy = amp_y.real ** 2 + amp_y.imag ** 2
    columns = [iy + ix, iy - ix]
    for name in sets:
        pair = 2.0 * (np.conj(amp_y) if name == "s" else amp_y) * amp_x
        columns += [pair.real, pair.imag]
    return columns


def _component_rows(sets: str) -> dict[str, int]:
    """Each component's row in `_components(..., sets)`, in table order."""
    rows: dict[str, int] = {}
    for k, name in enumerate(sets):
        rows.update({name + "0": 0, name + "1": 1,
                     name + "2": 2 + 2 * k, name + "3": 3 + 2 * k})
    return rows


def _spread(means: np.ndarray) -> float:
    """np.std(means, ddof=1), taken at a power-of-two scale (exact)."""
    _, exponent = math.frexp(max(means.max(), -means.min()))
    return float(np.ldexp(np.std(np.ldexp(means, -exponent), ddof=1),
                          exponent))


def _chunk_stats(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], count: int,
    sets: str,
) -> EnsembleStats:
    """Statistics of the component `sets` (`_components`) over a stream.

    `chunks` yields (amp_x, amp_y) pairs, `count` samples in all; every
    chunk but the last holds whole batches (`_batch_layout`), so the
    batch means, and hence the errors, do not depend on the chunking.
    Each distinct component is summed and batch-averaged once, so h0
    and h1 are s0 and s1 exactly, and the batch means fill one array
    of ~sqrt(count) columns, allocated before the first chunk.
    Raises ValueError when an estimate or an error is not finite, as
    when the amplitudes are large enough to overflow the components.
    The batch means are scaled by a power of two before their spread
    is taken, so the error overflows only where an estimate would.
    """
    batches, size = _batch_layout(count)
    rows = _component_rows(sets)
    sums = np.zeros(2 + 2 * len(sets))
    means = np.empty((sums.size, batches))  # one row per distinct component
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for amp_x, amp_y in chunks:
            whole = min(max(batches * size - start, 0), amp_x.shape[0])
            done = start // size
            for row, v in enumerate(_components(amp_x, amp_y, sets)):
                sums[row] += np.sum(v)
                np.mean(v[:whole].reshape(-1, size), axis=1,
                        out=means[row, done:done + whole // size])
            start += amp_x.shape[0]
        spreads = [_spread(m) / math.sqrt(batches) for m in means]
    values = {name: float(sums[row] / count) for name, row in rows.items()}
    errors = {name: spreads[row] for name, row in rows.items()}
    for name in values:
        if not (math.isfinite(values[name]) and math.isfinite(errors[name])):
            raise ValueError(
                f"ensemble {name} is not finite; the amplitudes overflow")
    return EnsembleStats(values, errors, count)


def classical_stokes(ensemble: FieldEnsemble) -> EnsembleStats:
    """Ensemble Stokes estimates: s2 + i*s3 = 2<conj(A_y) A_x>."""
    return _chunk_stats([(ensemble.amp_x, ensemble.amp_y)], len(ensemble),
                        "s")


def classical_hidden(ensemble: FieldEnsemble) -> EnsembleStats:
    """Ensemble hidden estimates: h2 + i*h3 = 2<A_y A_x> (no conjugation)."""
    return _chunk_stats([(ensemble.amp_x, ensemble.amp_y)], len(ensemble),
                        "h")


def hops_statistics(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> EnsembleStats:
    """s0..s3 and h0..h3 of sample_hops(spec, count, seed) in one table.

    The same numbers as classical_stokes and classical_hidden of that
    ensemble, but the samples are drawn and reduced in chunks of whole
    batches and never held at once; beyond one chunk only the
    ~sqrt(count) batch means are kept. A chunk is about ENSEMBLE_CHUNK
    samples, or one batch of ~sqrt(count) samples once a batch is
    larger (count above ENSEMBLE_CHUNK**2). The errors are equal; the
    estimates agree to summation round-off.
    """
    _, size = _batch_layout(count)
    chunk = size * max(1, ENSEMBLE_CHUNK // size)
    return _chunk_stats(_draw_chunks(spec, count, seed, chunk), count, "sh")


def _index(amp, reference) -> complex | np.ndarray:
    amp = np.asarray(amp, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if not (np.isfinite(amp).all() and np.isfinite(reference).all()):
        raise ValueError("field amplitudes must be finite")
    if np.any(reference == 0.0):
        raise UndefinedIndexError("reference amplitude vanishes")
    ratio = amp / reference
    return complex(ratio) if ratio.ndim == 0 else ratio


def polarization_index(amp_x, amp_y) -> complex | np.ndarray:
    """Ordinary polarization index A_y / A_x in the linear (x, y) basis.

    Amplitudes are scalars or arrays (an ensemble's amp_x, amp_y).
    Raises UndefinedIndexError where A_x vanishes.
    """
    return _index(amp_y, amp_x)


def hidden_index(amp_x, amp_y) -> complex | np.ndarray:
    """Phase-sum analogue of the polarization index: A_y / conj(A_x)."""
    return _index(amp_y, np.conj(amp_x))
