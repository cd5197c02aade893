"""Classical hidden-polarized field ensembles and their statistics.

A hidden-polarized ensemble distributes a random phase phi with opposite
signs across the two field components, so phase-difference statistics
(the ordinary Stokes parameters apart from s0, s1) average to zero while
phase-sum statistics survive. `hops_statistics` draws such an ensemble
and reduces it in chunks to s0..s3 and h0..h3 without holding it.

The draw (`_draw_chunks`) takes one tangent of the half angle per
sample, which gives (p, q) = (a0 cos phi, a0 sin phi); the spec's real
4 x 2 `_draw_map` R takes that pair to the sample's four real
coordinates z = R (p, q) = (Re A_x, Im A_x, Re A_y, Im A_y). A chunk is
one C-contiguous (2, n) float array whose rows are p and q. The stream
is fixed per seed: the phases are its first `count` uniform draws and
the amplitudes follow, so the samples do not depend on how they are
chunked.

Every component is a fixed sum of entries of the Gram matrix
G = sum z z^T, and G = R P R^T with P = sum (p, q)(p, q)^T, so a batch
is reduced to its 2 x 2 Gram P and lifted by R; the four rows z are
never formed. Estimates come with batch-means standard errors: the
stream is cut into about sqrt(N) batches and the spread of batch means
estimates the error of the grand mean.
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
        if not 0.0 <= self.chi_h <= math.pi:
            raise ValueError("polar angle must lie in [0, pi]")
        if not -math.pi < self.delta_h <= math.pi:
            raise ValueError("phase angle must lie in (-pi, pi]")

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
    spec: HopsEnsembleSpec, count: int, seed: int, chunk: int,
) -> Iterator[np.ndarray]:
    """An ensemble's rows p = a0 cos phi and q = a0 sin phi, in chunks.

    The draw of `hops_statistics`; it reads only `spec.amplitude`, and
    the spec's `_draw_map` R takes (p, q) to the rows z. The phases
    are the seed's first `count` uniform draws and the amplitudes
    follow them in the same stream. A uniform double takes exactly one
    64-bit draw, so a second generator advanced by `count` draws yields
    the amplitudes alongside the phases, and the samples do not depend
    on `chunk`. Each chunk is a C-contiguous (2, n) float array: the
    half angles phi/2 are drawn on [0, pi) into row q (the same doubles
    as half of a draw on [0, 2 pi)), and `_scaled_phasors` writes p and
    q in place; a chunk holds its two rows and one n-long temporary,
    the amplitudes.
    """
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


# each component's row in `_gram_components`, in table order
_COMPONENT_ROWS = {"s0": 0, "s1": 1, "s2": 2, "s3": 3,
                   "h0": 0, "h1": 1, "h2": 4, "h3": 5}


def _gram_components(grams: np.ndarray, out: np.ndarray) -> None:
    """Write the six distinct components from stacked Gram matrices.

    `grams` is (b, 4, 4): per batch, G = sum z z^T over its samples,
    z = (Re A_x, Im A_x, Re A_y, Im A_y). `out` is (6, b), in the rows
    of `_COMPONENT_ROWS`. The two sets share the intensities:
    s0 = h0 = G00 + G11 + G22 + G33 and s1 = h1 = G22 + G33 - G00 - G11
    are rows 0 and 1. They differ only in the correlation:
    s2 + i*s3 = 2 conj(A_y) A_x = 2(G02 + G13) + 2i(G12 - G03) in rows
    2 and 3, and h2 + i*h3 = 2 A_y A_x = 2(G02 - G13) + 2i(G12 + G03)
    in rows 4 and 5.
    Every entry is summed element by element, so a batch's components
    do not depend on the other batches in the stack.
    """
    g = grams.reshape(-1, 16).T
    ix = g[0] + g[5]
    iy = g[10] + g[15]
    np.add(iy, ix, out=out[0])
    np.subtract(iy, ix, out=out[1])
    np.add(g[2], g[7], out=out[2])
    np.subtract(g[6], g[3], out=out[3])
    np.subtract(g[2], g[7], out=out[4])
    np.add(g[6], g[3], out=out[5])
    out[2:] *= 2.0


def _spread(means: np.ndarray) -> float:
    """np.std(means, ddof=1), taken at a power-of-two scale (exact)."""
    _, exponent = math.frexp(max(means.max(), -means.min()))
    return float(np.ldexp(np.std(np.ldexp(means, -exponent), ddof=1),
                          exponent))


def _chunk_stats(chunks: Iterable[np.ndarray], count: int,
                 mapping: np.ndarray) -> EnsembleStats:
    """s0..s3 and h0..h3 (`_gram_components`) over a stream of draws.

    `chunks` yields a draw's (2, n) rows (p, q), `count` samples in
    all, and the (4, 2) `mapping` R takes them to
    z = (Re A_x, Im A_x, Re A_y, Im A_y). Every chunk but the last
    holds whole batches (`_batch_layout`), so the batch means, and
    hence the errors, do not depend on the chunking. A chunk's batches
    are a (b, 2, size) view of its rows, reduced by one stacked product
    to their 2 x 2 Grams P and lifted to G = R P R^T, and their
    components go straight into one array of batch means, one row per
    distinct component and ~sqrt(count) columns, allocated before the
    first chunk; h0 and h1 are s0 and s1 exactly. The totals are the
    lift of the summed batch Grams plus the Gram of the samples beyond
    the last batch.
    Raises ValueError when an estimate or an error is not finite, as
    when the amplitudes are large enough to overflow the components.
    The batch means are scaled by a power of two before their spread
    is taken, so the error overflows only where an estimate would.
    """
    batches, size = _batch_layout(count)
    gram = 0.0
    means = np.empty((6, batches))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            n = chunk.shape[1]
            whole = min(max(batches * size - start, 0), n)
            done = start // size
            stack = chunk[:, :whole].reshape(2, -1, size).transpose(1, 0, 2)
            grams = np.einsum("bki,bli->bkl", stack, stack)
            _gram_components(mapping @ grams @ mapping.T,
                             means[:, done:done + stack.shape[0]])
            gram += grams.sum(axis=0)
            gram += chunk[:, whole:] @ chunk[:, whole:].T
            start += n
        means /= size
        totals = np.empty((6, 1))
        _gram_components(mapping @ gram @ mapping.T, totals)
        totals /= count
        spreads = [_spread(m) / math.sqrt(batches) for m in means]
    values = {name: float(totals[row, 0])
              for name, row in _COMPONENT_ROWS.items()}
    errors = {name: spreads[row] for name, row in _COMPONENT_ROWS.items()}
    for name in values:
        if not (math.isfinite(values[name]) and math.isfinite(errors[name])):
            raise ValueError(
                f"ensemble {name} is not finite; the amplitudes overflow")
    return EnsembleStats(values, errors, count)


def hops_statistics(
    spec: HopsEnsembleSpec, count: int, seed: int,
) -> EnsembleStats:
    """s0..s3 and h0..h3 of `count` samples of `spec`, with their errors.

    Bit-reproducible per seed. The samples are drawn and reduced in
    chunks of whole batches and never held at once; beyond one chunk
    only the ~sqrt(count) batch means are kept. A chunk is the draw's
    (p, q) rows, reduced through the spec's `_draw_map` R
    (`_chunk_stats`), so no chunk is mapped to the four rows z. It is
    about ENSEMBLE_CHUNK samples, or one batch of ~sqrt(count) samples
    once a batch is larger (count above ENSEMBLE_CHUNK**2).
    """
    _, size = _batch_layout(count)
    chunk = size * max(1, ENSEMBLE_CHUNK // size)
    return _chunk_stats(_draw_chunks(spec, count, seed, chunk), count,
                        spec._draw_map())
