"""Classical hidden-polarized field ensembles and their statistics.

A hidden-polarized ensemble distributes a random phase phi with opposite
signs across the two field components, so phase-difference statistics
(the ordinary Stokes parameters apart from s0, s1) average to zero while
phase-sum statistics survive. `hops_statistics` draws such an ensemble
and reduces it in chunks to s0..s3 and h0..h3 without holding it.

The draw (`_draw_chunks`) takes one tangent of the half angle per
sample, which gives (p, q) = (a0 cos phi, a0 sin phi). A chunk is one
C-contiguous (2, n) float array whose rows are p and q. The stream is
fixed per seed: the phases are its first `count` uniform draws and the
amplitudes follow, so the samples do not depend on how they are
chunked.

Per sample, s0 = h0 = a0^2 = p^2 + q^2, s1 = h1 = -cos(chi_h) a0^2,
h2 + i*h3 = sin(chi_h) e^{i delta_h} a0^2 and
s2 + i*s3 = sin(chi_h) (p + i q)^2, so every component is one row of
the spec's 6 x 3 `_component_map` K applied to the three sums
(sum p^2, sum pq, sum q^2). A batch is reduced to its three sums and
mapped by K; the field amplitudes are never formed. Estimates come with
batch-means standard errors: the stream is cut into about sqrt(N)
batches and the spread of batch means estimates the error of the grand
mean.
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


def _check_amplitude(name: str, value: float) -> None:
    """An amplitude law's parameter is positive, finite and squarable."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")
    if value < MIN_AMPLITUDE:
        raise ValueError(f"{name} must be at least {MIN_AMPLITUDE:.3g}; "
                         "its square underflows")


@dataclass(frozen=True)
class FixedAmplitude:
    """Deterministic overall amplitude A0."""

    a0: float = 1.0

    def __post_init__(self) -> None:
        _check_amplitude("amplitude", self.a0)

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, float(self.a0))


@dataclass(frozen=True)
class RayleighAmplitude:
    """Rayleigh-distributed overall amplitude (thermal-like intensity)."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        _check_amplitude("scale", self.scale)

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

    def _component_map(self) -> np.ndarray:
        """The (6, 3) map K from (sum p^2, sum pq, sum q^2) to components.

        Its rows are s0, s1, s2, s3, h2, h3 (`_COMPONENT_ROWS`), from
        A_x = s_x a0 e^{i phi} and A_y = s_y a0 e^{-i phi} with
        s_x = cos(chi_h/2) e^{i delta_h/2} and
        s_y = sin(chi_h/2) e^{i delta_h/2}: 2 conj(s_y) s_x = sin(chi_h)
        and 2 s_y s_x = sin(chi_h) e^{i delta_h}.
        """
        c, s = math.cos(self.chi_h), math.sin(self.chi_h)
        h2, h3 = s * math.cos(self.delta_h), s * math.sin(self.delta_h)
        return np.array([[1.0, 0.0, 1.0], [-c, 0.0, -c], [s, 0.0, -s],
                         [0.0, 2.0 * s, 0.0], [h2, 0.0, h2], [h3, 0.0, h3]])


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
    the spec's `_component_map` K takes their sums to the components.
    The phases are the seed's first `count` uniform draws and the
    amplitudes follow them in the same stream. A uniform double takes
    exactly one 64-bit draw, so a second generator advanced by `count`
    draws yields the amplitudes alongside the phases, and the samples
    do not depend on `chunk`. Each chunk is a C-contiguous (2, n) float
    array: the half angles phi/2 are drawn on [0, pi) into row q (the
    same doubles as half of a draw on [0, 2 pi)), and `_scaled_phasors`
    writes p and q in place; a chunk holds its two rows and one n-long
    temporary, the amplitudes.
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


# each component's row of `HopsEnsembleSpec._component_map`, in table order
_COMPONENT_ROWS = {"s0": 0, "s1": 1, "s2": 2, "s3": 3,
                   "h0": 0, "h1": 1, "h2": 4, "h3": 5}


def _sums(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(sum p^2, sum pq, sum q^2) along the last axis, stacked first."""
    return np.array([np.einsum("...i,...i", u, v)
                     for u, v in ((p, p), (p, q), (q, q))])


def _spread(means: np.ndarray) -> float:
    """np.std(means, ddof=1), taken at a power-of-two scale (exact)."""
    _, exponent = math.frexp(max(means.max(), -means.min()))
    return float(np.ldexp(np.std(np.ldexp(means, -exponent), ddof=1),
                          exponent))


def _chunk_stats(chunks: Iterable[np.ndarray], count: int,
                 mapping: np.ndarray) -> EnsembleStats:
    """s0..s3 and h0..h3 over a stream of draws, with their errors.

    `chunks` yields a draw's (2, n) rows (p, q), `count` samples in
    all, and the (6, 3) `mapping` K takes the sums
    (sum p^2, sum pq, sum q^2) to the rows of `_COMPONENT_ROWS`. Every
    chunk but the last holds whole batches (`_batch_layout`), so the
    batch means, and hence the errors, do not depend on the chunking.
    A chunk's batches are a (2, b, size) view of its rows, reduced to
    their three sums, and K times those goes straight into one array of
    batch means, one row per distinct component and ~sqrt(count)
    columns, allocated before the first chunk; h0 and h1 are s0 and s1
    exactly. The totals are K times the summed sums, the samples beyond
    the last batch included.
    Raises ValueError when an estimate or an error is not finite, as
    when the amplitudes are large enough to overflow the components.
    The batch means are scaled by a power of two before their spread
    is taken, so the error overflows only where an estimate would.
    """
    batches, size = _batch_layout(count)
    total = np.zeros(3)
    means = np.empty((6, batches))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            n = chunk.shape[1]
            whole = min(max(batches * size - start, 0), n)
            done = start // size
            sums = _sums(*chunk[:, :whole].reshape(2, -1, size))
            np.matmul(mapping, sums, out=means[:, done:done + sums.shape[1]])
            total += sums.sum(axis=1) + _sums(*chunk[:, whole:])
            start += n
        means /= size
        totals = mapping @ total / count
        spreads = [_spread(m) / math.sqrt(batches) for m in means]
    values = {name: float(totals[row])
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
    (p, q) rows, reduced per batch to three sums and mapped by the
    spec's `_component_map` K (`_chunk_stats`). It is about
    ENSEMBLE_CHUNK samples, or one batch of ~sqrt(count) samples once a
    batch is larger (count above ENSEMBLE_CHUNK**2).
    """
    _, size = _batch_layout(count)
    chunk = size * max(1, ENSEMBLE_CHUNK // size)
    return _chunk_stats(_draw_chunks(spec, count, seed, chunk), count,
                        spec._component_map())
