"""Classical stochastic field ensembles and polarization indices.

A hidden-polarized ensemble distributes a random phase phi with opposite
signs across the two field components, so phase-difference statistics
(the ordinary Stokes parameters apart from s0, s1) average to zero while
phase-sum statistics survive. An ensemble is a pair of flat amplitude
arrays (FieldEnsemble), and every statistic and index here is
vectorized over them; `hops_statistics` draws and reduces a
hidden-polarized ensemble in chunks without holding it.

Both ensembles come from one draw (`_draw_chunks`): one tangent of the
half angle per sample gives (p, q) = (a0 cos phi, a0 sin phi), and a
spec's real 4 x 2 `_draw_map` R takes that pair to the sample's four
real coordinates z = R (p, q) = (Re A_x, Im A_x, Re A_y, Im A_y). A
chunk is one C-contiguous (2, n) float array whose rows are p and q;
the samplers map it once into the rows z. The stream is fixed per
seed: the phases are its first `count` uniform draws and the
amplitudes follow, so the samples do not depend on how they are
chunked.

Every component is a fixed sum of entries of the Gram matrix
G = sum z z^T. For a draw G = R P R^T, with P = sum (p, q)(p, q)^T,
so a batch is reduced to its 2 x 2 Gram P and lifted by R; the four
rows z are never formed. Estimates come with batch-means standard
errors: the stream is cut into about sqrt(N) batches and the spread
of batch means estimates the error of the grand mean.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

ENSEMBLE_CHUNK = 1 << 15   # samples drawn and reduced at a time by hops_statistics
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

    def _draw_map(self) -> np.ndarray:
        """The (4, 2) map R from (a0 cos phi, a0 sin phi) to z.

        A_x = s_x e^{i phi} and A_y = s_y e^{-i phi}, with
        s_x = cos(chi_h/2) e^{i delta_h/2} and
        s_y = sin(chi_h/2) e^{i delta_h/2}.
        """
        tilt = complex(math.cos(0.5 * self.delta_h),
                       math.sin(0.5 * self.delta_h))
        s_x = math.cos(0.5 * self.chi_h) * tilt
        s_y = math.sin(0.5 * self.chi_h) * tilt
        return np.array([[s_x.real, -s_x.imag], [s_x.imag, s_x.real],
                         [s_y.real, s_y.imag], [s_y.imag, -s_y.real]])


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

    def _draw_map(self) -> np.ndarray:
        """The (4, 2) map R from (a0 cos phi, a0 sin phi) to z.

        A_x = s_x e^{i phi} and A_y = s_y e^{i phi}, with
        s_x = cos(chi/2) and s_y = sin(chi/2) e^{i delta}.
        """
        s_x = math.cos(0.5 * self.chi)
        s_y = math.sin(0.5 * self.chi) * complex(math.cos(self.delta),
                                                 math.sin(self.delta))
        return np.array([[s_x, 0.0], [0.0, s_x],
                         [s_y.real, -s_y.imag], [s_y.imag, s_y.real]])


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


def _scaled_phasors(half: np.ndarray, a0: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """Write a0 cos phi into `out`; return a0 sin phi in `half`'s buffer.

    `half` holds phi/2 and `a0` the amplitudes; both are overwritten
    (a0 by a0/u). With t = tan(phi/2) and u = 1 + t^2,
    a0 cos phi = (2 - u) a0/u and a0 sin phi = 2t a0/u. A drawn phase
    halves to [0, pi], where the tangent of a double stays below 1.7e16
    in size (pi/2 is not a double), so every value is finite.
    """
    t = np.tan(half, out=half)
    u = np.square(t, out=out)
    u += 1.0
    k = np.divide(a0, u, out=a0)
    np.subtract(2.0, u, out=out)
    out *= k
    t *= 2.0
    t *= k
    return t


def _draw_chunks(
    spec: HopsEnsembleSpec | OrdinaryEnsembleSpec, count: int, seed: int,
    chunk: int,
) -> Iterator[np.ndarray]:
    """An ensemble's rows p = a0 cos phi and q = a0 sin phi, in chunks.

    The one draw of `sample_hops`, `sample_ordinary` and
    `hops_statistics`; the spec's `_draw_map` R takes (p, q) to the
    rows z. The phases are the seed's first `count` uniform draws and
    the amplitudes follow them in the same stream. A uniform double
    takes exactly one 64-bit draw, so a second generator advanced by
    `count` draws yields the amplitudes alongside the phases, and the
    samples do not depend on `chunk`. Each chunk is a C-contiguous
    (2, n) float array: the half angles phi/2 are drawn on [0, pi)
    into row q (the same doubles as half of a draw on [0, 2 pi)), and
    `_scaled_phasors` writes p and q in place; a chunk holds its two
    rows and one n-long temporary, the amplitudes.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    phases = np.random.default_rng(seed)
    amplitudes = np.random.default_rng(seed)
    amplitudes.bit_generator.advance(count)
    for start in range(0, count, chunk):
        n = min(chunk, count - start)
        pq = np.empty((2, n))
        half = phases.random(out=pq[1])
        half *= math.pi
        _scaled_phasors(half, spec.amplitude.draw(amplitudes, n), pq[0])
        yield pq


def _sample(
    spec: HopsEnsembleSpec | OrdinaryEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """The draw in one chunk, mapped to its rows z (exact).

    Row i of z is R[i, 0] p + R[i, 1] q for the spec's `_draw_map` R.
    """
    p, q = next(_draw_chunks(spec, count, seed, count))
    z = np.empty((4, count))
    for row, (r_p, r_q) in zip(z, spec._draw_map()):
        np.multiply(p, r_p, out=row)
        row += q * r_q
    amps = np.empty((2, count), dtype=complex)
    amps.real = z[0::2]
    amps.imag = z[1::2]
    return FieldEnsemble(amps[0], amps[1])


def sample_hops(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw a hidden-polarized ensemble, bit-reproducible per seed."""
    return _sample(spec, count, seed)


def sample_ordinary(
    spec: OrdinaryEnsembleSpec, count: int, seed: int,
) -> FieldEnsemble:
    """Draw an ordinary-polarized ensemble (common random phase)."""
    return _sample(spec, count, seed)


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


def _lift(grams: np.ndarray, mapping: np.ndarray | None) -> np.ndarray:
    """R g R^T for each k x k Gram g, or the Grams themselves if no map."""
    return grams if mapping is None else mapping @ grams @ mapping.T


def _chunk_stats(chunks: Iterable[np.ndarray], count: int, sets: str,
                 mapping: np.ndarray | None = None) -> EnsembleStats:
    """Statistics of the component `sets` (`_gram_components`) over a stream.

    `chunks` yields (k, n) float arrays of `count` samples in all: the
    rows z = (Re A_x, Im A_x, Re A_y, Im A_y) themselves (k = 4, no
    `mapping`), or k rows that the (4, k) `mapping` R takes to z, as a
    draw's (p, q). Every chunk but the last holds whole batches
    (`_batch_layout`), so the batch means, and hence the errors, do
    not depend on the chunking. A chunk's batches are a (b, k, size)
    view of its rows, reduced by one stacked product to their k x k
    Grams g and lifted to G = R g R^T, and their components go
    straight into one array of batch means, one row per distinct
    component and ~sqrt(count) columns, allocated before the first
    chunk; h0 and h1 are s0 and s1 exactly. The totals are the lift
    of the summed batch Grams plus the Gram of the samples beyond the
    last batch.
    Raises ValueError when an estimate or an error is not finite, as
    when the amplitudes are large enough to overflow the components.
    The batch means are scaled by a power of two before their spread
    is taken, so the error overflows only where an estimate would.
    """
    batches, size = _batch_layout(count)
    rows = _component_rows(sets)
    gram = 0.0
    means = np.empty((2 + 2 * len(sets), batches))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            k, n = chunk.shape
            whole = min(max(batches * size - start, 0), n)
            done = start // size
            stack = chunk[:, :whole].reshape(k, -1, size).transpose(1, 0, 2)
            grams = np.einsum("bki,bli->bkl", stack, stack)
            _gram_components(_lift(grams, mapping), sets,
                             means[:, done:done + stack.shape[0]])
            gram += grams.sum(axis=0)
            gram += chunk[:, whole:] @ chunk[:, whole:].T
            start += n
        means /= size
        totals = np.empty((means.shape[0], 1))
        _gram_components(_lift(gram, mapping), sets, totals)
        totals /= count
        spreads = [_spread(m) / math.sqrt(batches) for m in means]
    values = {name: float(totals[row, 0]) for name, row in rows.items()}
    errors = {name: spreads[row] for name, row in rows.items()}
    for name in values:
        if not (math.isfinite(values[name]) and math.isfinite(errors[name])):
            raise ValueError(
                f"ensemble {name} is not finite; the amplitudes overflow")
    return EnsembleStats(values, errors, count)


def _rows(ensemble: FieldEnsemble) -> list[np.ndarray]:
    """An ensemble as one chunk of its (4, n) rows z."""
    return [np.stack([ensemble.amp_x.real, ensemble.amp_x.imag,
                      ensemble.amp_y.real, ensemble.amp_y.imag])]


def classical_stokes(ensemble: FieldEnsemble) -> EnsembleStats:
    """Ensemble Stokes estimates: s2 + i*s3 = 2<conj(A_y) A_x>."""
    return _chunk_stats(_rows(ensemble), len(ensemble), "s")


def classical_hidden(ensemble: FieldEnsemble) -> EnsembleStats:
    """Ensemble hidden estimates: h2 + i*h3 = 2<A_y A_x> (no conjugation)."""
    return _chunk_stats(_rows(ensemble), len(ensemble), "h")


def hops_statistics(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> EnsembleStats:
    """s0..s3 and h0..h3 of sample_hops(spec, count, seed) in one table.

    The same numbers as classical_stokes and classical_hidden of that
    ensemble, to round-off, but the samples are drawn and reduced in
    chunks of whole batches and never held at once; beyond one chunk
    only the ~sqrt(count) batch means are kept. A chunk is the draw's
    (p, q) rows, reduced through the spec's `_draw_map` R
    (`_chunk_stats`), so no chunk is mapped to the four rows z. It is
    about ENSEMBLE_CHUNK samples, or one batch of ~sqrt(count) samples
    once a batch is larger (count above ENSEMBLE_CHUNK**2).
    """
    _, size = _batch_layout(count)
    chunk = size * max(1, ENSEMBLE_CHUNK // size)
    return _chunk_stats(_draw_chunks(spec, count, seed, chunk), count, "sh",
                        spec._draw_map())


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
