"""Classical stochastic field ensembles and polarization indices.

A hidden-polarized ensemble distributes a random phase phi with opposite
signs across the two field components, so phase-difference statistics
(the ordinary Stokes parameters apart from s0, s1) average to zero while
phase-sum statistics survive. An ensemble is a pair of flat amplitude
arrays (FieldEnsemble), and every statistic and index here is
vectorized over them; `hops_statistics` draws and reduces a
hidden-polarized ensemble in chunks without holding it.

Both ensembles come from one draw (`_draw_chunks`): one unit phasor
e^{i phi} per sample, from one tangent of the half angle, and a spec's
`_draw_rule` for amp_y's phasor (amp_x's own, or its conjugate) and
two constant factors. A chunk is one (n, 2) complex array whose columns
are amp_x and amp_y. The stream is fixed per seed: the phases are its
first `count` uniform draws and the amplitudes follow, so the samples
do not depend on how they are chunked.

Every component is a fixed sum of entries of the Gram matrix
G = sum z z^T of z = (Re A_x, Im A_x, Re A_y, Im A_y), so a batch is
reduced by one 4 x 4 product. Estimates come with batch-means standard
errors: the stream is cut into about sqrt(N) batches and the spread of
batch means estimates the error of the grand mean.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

ENSEMBLE_CHUNK = 1 << 16   # samples drawn and reduced at a time by hops_statistics
# the least amplitude whose square is a normal double (about 1.49e-154)
MIN_AMPLITUDE = math.sqrt(sys.float_info.min)


class UndefinedIndexError(ArithmeticError):
    """A polarization index with a vanishing reference amplitude."""


@dataclass(frozen=True)
class FixedAmplitude:
    """Deterministic overall amplitude A0."""

    a0: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a0) and self.a0 > 0):
            raise ValueError("amplitude must be positive and finite")
        if self.a0 < MIN_AMPLITUDE:
            raise ValueError(
                f"amplitude must be at least {MIN_AMPLITUDE:.3g}; "
                "its square underflows")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, float(self.a0))


@dataclass(frozen=True)
class RayleighAmplitude:
    """Rayleigh-distributed overall amplitude (thermal-like intensity)."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        if self.scale < MIN_AMPLITUDE:
            raise ValueError(
                f"scale must be at least {MIN_AMPLITUDE:.3g}; "
                "its square underflows")

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

    def _draw_rule(self) -> tuple[Callable, float, complex]:
        """amp_y's phasor is amp_x's; amp_y alone takes e^{i delta}."""
        turn = complex(math.cos(self.delta), math.sin(self.delta))
        return (np.positive, math.cos(0.5 * self.chi),
                math.sin(0.5 * self.chi) * turn)


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
        if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
            raise ValueError("field amplitudes must be finite")
        ax.setflags(write=False)
        ay.setflags(write=False)
        object.__setattr__(self, "amp_x", ax)
        object.__setattr__(self, "amp_y", ay)

    def __len__(self) -> int:
        return self.amp_x.shape[0]


def _unit_phasors(phi: np.ndarray, out: np.ndarray) -> None:
    """Write e^{i phi} into `out` from one tangent of the half angle.

    With t = tan(phi/2), cos phi = (1 - t^2)/(1 + t^2) and
    sin phi = 2t/(1 + t^2); phi is overwritten. A drawn phase halves to
    [0, pi], where the tangent of a double stays below 1.7e16 in size
    (pi/2 is not a double), so every phasor is finite.
    """
    t = np.tan(np.multiply(phi, 0.5, out=phi), out=phi)
    np.multiply(t, 2.0, out=out.imag)
    np.square(t, out=t)
    np.subtract(1.0, t, out=out.real)
    t += 1.0
    np.divide(out.real, t, out=out.real)
    np.divide(out.imag, t, out=out.imag)


def _draw_chunks(
    spec: HopsEnsembleSpec | OrdinaryEnsembleSpec, count: int, seed: int,
    chunk: int,
) -> Iterator[np.ndarray]:
    """An ensemble's amplitudes, `chunk` samples at a time.

    The one draw of `sample_hops`, `sample_ordinary` and
    `hops_statistics`. The phases are the seed's first `count` uniform
    draws and the amplitudes follow them in the same stream. A uniform
    double takes exactly one 64-bit draw, so a second generator
    advanced by `count` draws yields the amplitudes alongside the
    phases, and the samples do not depend on `chunk`. Each chunk is an
    (n, 2) complex array, columns amp_x and amp_y: amp_x is one unit
    phasor e^{i phi} per sample, the spec's `_draw_rule` writes amp_y's
    phasor from it and gives two constant factors, which scale the
    columns in place, as the amplitude a0 then does.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    follow, scale_x, scale_y = spec._draw_rule()
    scales = np.array([scale_x, scale_y])
    phases = np.random.default_rng(seed)
    amplitudes = np.random.default_rng(seed)
    amplitudes.bit_generator.advance(count)
    for start in range(0, count, chunk):
        n = min(chunk, count - start)
        amps = np.empty((n, 2), dtype=complex)
        _unit_phasors(phases.uniform(0.0, 2.0 * math.pi, n), amps[:, 0])
        follow(amps[:, 0], out=amps[:, 1])
        amps *= scales
        amps *= spec.amplitude.draw(amplitudes, n)[:, None]
        yield amps


def sample_hops(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw a hidden-polarized ensemble, bit-reproducible per seed."""
    amps = next(_draw_chunks(spec, count, seed, count))
    return FieldEnsemble(amps[:, 0], amps[:, 1])


def sample_ordinary(
    spec: OrdinaryEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw an ordinary-polarized ensemble (common random phase)."""
    amps = next(_draw_chunks(spec, count, seed, count))
    return FieldEnsemble(amps[:, 0], amps[:, 1])


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


def _gram_components(grams: np.ndarray, sets: str, out: np.ndarray) -> None:
    """Write the distinct components of `sets` from stacked Gram matrices.

    `grams` is (b, 4, 4): per batch, G = sum z z^T over its samples,
    z = (Re A_x, Im A_x, Re A_y, Im A_y). `out` is (rows, b), in the
    rows of `_component_rows(sets)`; `sets` is "s", "h" or both. The
    two sets share the intensities: s0 = h0 = G00 + G11 + G22 + G33 and
    s1 = h1 = G22 + G33 - G00 - G11 are rows 0 and 1. They differ only
    in the correlation, two rows per set:
    s2 + i*s3 = 2 conj(A_y) A_x = 2(G02 + G13) + 2i(G12 - G03) and
    h2 + i*h3 = 2 A_y A_x = 2(G02 - G13) + 2i(G12 + G03).
    Every entry is summed element by element, so a batch's components
    do not depend on the other batches in the stack.
    """
    g = grams.reshape(-1, 16).T
    ix = g[0] + g[5]
    iy = g[10] + g[15]
    np.add(iy, ix, out=out[0])
    np.subtract(iy, ix, out=out[1])
    for k, name in enumerate(sets):
        sign = 1.0 if name == "s" else -1.0
        np.add(g[2], sign * g[7], out=out[2 + 2 * k])
        np.subtract(g[6], sign * g[3], out=out[3 + 2 * k])
    out[2:] *= 2.0


def _component_rows(sets: str) -> dict[str, int]:
    """Each component's row in `_gram_components`, in table order."""
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


def _chunk_stats(chunks: Iterable[np.ndarray], count: int,
                 sets: str) -> EnsembleStats:
    """Statistics of the component `sets` (`_gram_components`) over a stream.

    `chunks` yields (n, 2) complex arrays, columns amp_x and amp_y,
    `count` samples in all; every chunk but the last holds whole
    batches (`_batch_layout`), so the batch means, and hence the
    errors, do not depend on the chunking. A chunk's batches are
    reduced by one stacked Gram product of its (n, 4) float view, and
    their components go straight into one array of batch means, one
    row per distinct component and ~sqrt(count) columns, allocated
    before the first chunk; h0 and h1 are s0 and s1 exactly. The
    totals are the summed batch Grams plus the Gram of the samples
    beyond the last batch.
    Raises ValueError when an estimate or an error is not finite, as
    when the amplitudes are large enough to overflow the components.
    The batch means are scaled by a power of two before their spread
    is taken, so the error overflows only where an estimate would.
    """
    batches, size = _batch_layout(count)
    rows = _component_rows(sets)
    gram = np.zeros((1, 4, 4))
    means = np.empty((2 + 2 * len(sets), batches))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for amps in chunks:
            z = amps.view(float)
            whole = min(max(batches * size - start, 0), z.shape[0])
            done = start // size
            stack = z[:whole].reshape(-1, size, 4)
            grams = np.matmul(stack.transpose(0, 2, 1), stack)
            _gram_components(grams, sets,
                             means[:, done:done + stack.shape[0]])
            gram += grams.sum(axis=0)
            gram += z[whole:].T @ z[whole:]
            start += z.shape[0]
        means /= size
        totals = np.empty((means.shape[0], 1))
        _gram_components(gram, sets, totals)
        totals /= count
        spreads = [_spread(m) / math.sqrt(batches) for m in means]
    values = {name: float(totals[row, 0]) for name, row in rows.items()}
    errors = {name: spreads[row] for name, row in rows.items()}
    for name in values:
        if not (math.isfinite(values[name]) and math.isfinite(errors[name])):
            raise ValueError(
                f"ensemble {name} is not finite; the amplitudes overflow")
    return EnsembleStats(values, errors, count)


def _columns(ensemble: FieldEnsemble) -> list[np.ndarray]:
    """An ensemble as one chunk of the draw's (n, 2) layout."""
    return [np.stack([ensemble.amp_x, ensemble.amp_y], axis=1)]


def classical_stokes(ensemble: FieldEnsemble) -> EnsembleStats:
    """Ensemble Stokes estimates: s2 + i*s3 = 2<conj(A_y) A_x>."""
    return _chunk_stats(_columns(ensemble), len(ensemble), "s")


def classical_hidden(ensemble: FieldEnsemble) -> EnsembleStats:
    """Ensemble hidden estimates: h2 + i*h3 = 2<A_y A_x> (no conjugation)."""
    return _chunk_stats(_columns(ensemble), len(ensemble), "h")


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
