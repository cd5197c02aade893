"""Truncated two-mode Fock space: states, sectors and ladder actions.

The joint space is the tensor product of two truncated oscillators with
dimensions d_x and d_y; the basis state |n_x, n_y> lives at flat index
n_x * d_y + n_y, row-major over x then y.

The amplifier generator and all four hidden-set operators conserve the
imbalance n_x - n_y, so the imbalance sector is the unit of work for
dynamics and moments. `sector_table` stacks, once per cutoff, every
sector's flat indices |lo_x + m, lo_y + m>, the a_y a_x weights along
it, its photon numbers and its edge band, zero-padded to a common
length, plus a flat-index -> sector label. `QuantumState.blocks` holds,
once per state, the sectors it populates as weighted columns, pure or
mixed, in slabs: each slab is one `SectorStack` of consecutive sectors,
at most STACK_SLAB column entries, padded only to its own longest
sector, and computes its populations c_0 once, on first use. The
partition into slabs is made here, once, and nowhere else. Evolution
and its truncation certificate (`dpa`) and the H0..H3 measure
(`polarization.hidden_moments`) iterate over the slabs, as a fixed
number of array operations per slab, whatever the number of sectors.

`require_photon_numbers` (integers >= 0) and `require_occupations`
(finite means >= 0) are the package's one statement of those input
rules; states, closed forms, thermal weights and state models all
call them.

`apply_ladders` serves the remaining state-level computations: a
ladder operator acts on the (d_x, d_y) view of a state vector, or of a
matrix with Fock-indexed rows, as an index shift times a sqrt(n + 1)
weight. No operator is stored as a joint-dimension matrix: the
commutator tables (`polarization`) run on the chains each operator set
conserves. Operations are exact on the truncated space; fidelity to the
infinite-dimensional physics is certified post hoc with
`dpa.boundary_leakage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

ALGEBRA_TOL = 1e-12        # exact-algebra identities (hermiticity, norms)
VARIANCE_FLOOR = -1e-9     # cancellation allowance before clamping to zero
EIGENVALUE_FLOOR = -1e-10  # lowest eigenvalue a density matrix may have

EVOLUTION_MARGIN = 4       # edge band whose population certifies truncation

# Rows per slab of the hermiticity test: its temporaries stay a slab in
# size, not a second and third copy of the matrix
HERMITICITY_SLAB = 64
# Complex column entries per slab of `QuantumState.blocks`: a computation
# that holds a few copies of the columns holds them a slab at a time
STACK_SLAB = 2**14


@dataclass(frozen=True)
class FockCutoff:
    """Truncation of the two-mode Fock space.

    Photon numbers run 0..d_x-1 and 0..d_y-1. The flat basis index of
    |n_x, n_y> is n_x * d_y + n_y; every array in the package uses this
    ordering.
    """

    d_x: int
    d_y: int

    def __post_init__(self) -> None:
        if not (isinstance(self.d_x, Integral) and isinstance(self.d_y, Integral)):
            raise ValueError(f"cutoff dimensions must be integers, got {self}")
        if self.d_x < 2 or self.d_y < 2:
            raise ValueError(f"cutoff must be at least 2 per mode, got {self}")

    @property
    def dim(self) -> int:
        return self.d_x * self.d_y

    def index(self, n_x: int, n_y: int) -> int:
        require_photon_numbers(n_x, n_y)
        if not (n_x < self.d_x and n_y < self.d_y):
            raise ValueError(f"photon numbers outside cutoff {self}")
        return n_x * self.d_y + n_y


@dataclass(frozen=True)
class QuantumState:
    """Pure state vector or density matrix on the joint space.

    Build through from_vector / from_density (or fock_state). Both
    constructors require unit total population (|v|^2 or the trace,
    `require_unit_trace`); from_density also requires hermiticity and
    positivity. Positivity is certified by the sector blocks
    (`blocks`), whose eigendecomposition rejects an eigenvalue below
    EIGENVALUE_FLOOR; only a density with nonzero entries outside its
    populated blocks (inter-sector coherences) also has its full
    spectrum checked, at any size.
    """

    cutoff: FockCutoff
    vector: np.ndarray | None = field(default=None, repr=False)
    density: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_vector(cls, cutoff: FockCutoff, vec: np.ndarray) -> "QuantumState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (cutoff.dim,):
            raise ValueError(f"state vector length {v.size}, expected {cutoff.dim}")
        v = v.copy()
        v.flags.writeable = False
        state = cls(cutoff, vector=v)
        require_unit_trace(state.populations().sum())
        return state

    @classmethod
    def from_density(cls, cutoff: FockCutoff, rho: np.ndarray) -> "QuantumState":
        m = np.asarray(rho, dtype=complex)
        if m.shape != (cutoff.dim, cutoff.dim):
            raise ValueError(f"density matrix has shape {m.shape}, "
                             f"expected {(cutoff.dim, cutoff.dim)}")
        for lo in range(0, cutoff.dim, HERMITICITY_SLAB):
            rows = slice(lo, lo + HERMITICITY_SLAB)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN
                skew = np.max(np.abs(m[rows] - m[:, rows].conj().T))
            if not skew <= ALGEBRA_TOL:  # a NaN or inf entry fails too
                raise ValueError("density matrix is not finite and Hermitian "
                                 "within 1e-12")
        # copied only now, after the check's temporaries are gone;
        # freezing the caller's own array would make it read-only
        m = np.array(m, order="C")
        m.flags.writeable = False
        state = cls(cutoff, density=m)
        require_unit_trace(state.populations().sum())
        # the blocks' eigh certifies positivity unless nonzero entries
        # lie outside them (inter-sector coherences, or a sector with
        # an empty diagonal); then the full spectrum is checked too
        populated = [s for slab in state.blocks for s in slab.positions]
        label = sector_table(cutoff).label
        rows, cols = np.nonzero(m)
        if not (np.array_equal(label[rows], label[cols])
                and np.isin(label[rows], populated).all()):
            _require_positive(np.linalg.eigvalsh(m)[0])
        return state

    @property
    def array(self) -> np.ndarray:
        """The state vector if pure, else the density matrix."""
        return self.vector if self.vector is not None else self.density

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities in the flat Fock basis."""
        if self.vector is not None:
            return np.abs(self.vector) ** 2
        assert self.density is not None
        return np.diag(self.density).real.copy()

    @cached_property
    def blocks(self) -> tuple[SectorStack, ...]:
        """The sectors the state populates, as slabs of weighted columns.

        Built once per state; their arrays are read-only. Every quantity
        that conserves the imbalance (H0..H3 and their products, the
        amplifier evolution, boundary populations) is a sum over these
        slabs; inter-sector coherences of a density never enter, and
        unpopulated sectors of a valid state are zero. A slab is a
        `SectorStack` of consecutive populated sectors, zero-padded to
        its own longest sector, L. Sectors come in delta order, whose
        lengths rise and then fall, so neighbours pad little; a slab
        holds at most STACK_SLAB column entries (S L for a vector,
        S L^2 for a density), or is one sector. A density block is
        decomposed by one `eigh` per populated sector, on the block
        itself rather than a zero-padded copy, whose padding zeros
        would be near-degenerate with tiny weights. Raises ValueError
        when a density block has an eigenvalue below EIGENVALUE_FLOOR.
        """
        table = sector_table(self.cutoff)
        hits = np.bincount(table.label[self.populations() != 0.0],
                           minlength=table.delta.size)
        positions = np.flatnonzero(hits)
        lengths = (table.indices[positions] >= 0).sum(axis=1).tolist()
        bounds, longest = [0], 0
        for s, n in enumerate(lengths):
            longest = max(longest, n)
            ranks = longest if self.vector is None else 1
            if s > bounds[-1] and (s + 1 - bounds[-1]) * longest * ranks \
                    > STACK_SLAB:
                bounds.append(s)
                longest = n
        bounds.append(len(lengths))
        return tuple(self._slab(table, positions[lo:hi],
                                max(lengths[lo:hi], default=1))
                     for lo, hi in zip(bounds, bounds[1:]))

    def _slab(
        self, table: SectorTable, positions: np.ndarray, size: int,
    ) -> SectorStack:
        """The sectors `positions` of `table`, padded to `size` states."""
        indices = table.indices[positions, :size]
        if self.vector is not None:
            columns = np.where(indices >= 0, self.vector[indices],
                               0.0)[:, :, None]
            weights = np.ones((positions.size, 1))
        else:
            columns = np.zeros((positions.size, size, size), dtype=complex)
            weights = np.zeros((positions.size, size))
            for s, row in enumerate(indices):
                sector = row[row >= 0]
                p, g = np.linalg.eigh(self.density[np.ix_(sector, sector)])
                _require_positive(p[0])
                n = sector.size
                weights[s, :n], columns[s, :n, :n] = p, g
        arrays = (indices, columns, weights,
                  table.pair_weights[positions, :size - 1],
                  table.photons[positions, :size], table.delta[positions],
                  table.edge[positions, :size])
        for array in arrays:
            array.setflags(write=False)
        return SectorStack(tuple(positions.tolist()), *arrays)


def require_photon_numbers(*values: int) -> None:
    """Raise unless every value is an integer (`numbers.Integral`) >= 0."""
    for value in values:
        if not (isinstance(value, Integral) and value >= 0):
            raise ValueError(
                f"photon numbers must be non-negative integers, got {value!r}")


def require_occupations(*values: float) -> None:
    """Raise unless every value is a finite mean occupation >= 0."""
    for value in values:
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(
                f"occupations must be finite and non-negative, got {value!r}")


def require_unit_trace(trace: float) -> None:
    """Raise unless a state's `trace`, its total population, is 1.

    The one normalization rule, within ALGEBRA_TOL, for the |v|^2 of a
    vector and the trace of a density alike; a NaN trace fails it.
    """
    if not abs(trace - 1.0) <= ALGEBRA_TOL:
        raise ValueError(
            f"state trace {trace!r} is not 1 within {ALGEBRA_TOL}")


def _require_positive(low: float) -> None:
    """Raise unless the lowest eigenvalue `low` is >= EIGENVALUE_FLOOR."""
    if low < EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix has eigenvalue {low:.3e} below {EIGENVALUE_FLOOR}")


@dataclass(frozen=True, eq=False)
class SectorTable:
    """The imbalance sectors of a cutoff, stacked and zero-padded.

    Row s is the sector n_x - n_y = delta[s], delta ascending. It is
    spanned by |lo_x + m, lo_y + m>, m = 0..L_s-1, with lo_x =
    max(delta, 0) and lo_y = max(-delta, 0), and runs until either mode
    reaches its cutoff, so its last k states are exactly its states
    within k levels of an edge. Rows are padded to the longest sector,
    min(d_x, d_y):

    - `indices[s, m]`: the flat index of |lo_x + m, lo_y + m>, -1 past
      the sector's end;
    - `pair_weights[s, m]`: the a_y a_x element <m|a_y a_x|m+1> =
      sqrt((lo_x+m+1)(lo_y+m+1)), 0 past the end;
    - `photons[s, m]`: n_x + n_y = lo_x + lo_y + 2m, 0 past the end;
    - `edge[s, m]`: True on the sector's last EVOLUTION_MARGIN states.

    `label` maps each flat index to its sector's row.
    """

    delta: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    pair_weights: np.ndarray = field(repr=False)
    photons: np.ndarray = field(repr=False)
    edge: np.ndarray = field(repr=False)
    label: np.ndarray = field(repr=False)


@lru_cache(maxsize=8)
def sector_table(cutoff: FockCutoff) -> SectorTable:
    """Build (once per cutoff) the imbalance-sector table of `cutoff`."""
    d_x, d_y = cutoff.d_x, cutoff.d_y
    delta = np.arange(-(d_y - 1), d_x)
    n_x = np.maximum(delta, 0)[:, None] + np.arange(min(d_x, d_y))
    n_y = n_x - delta[:, None]
    inside = (n_x < d_x) & (n_y < d_y)
    length = inside.sum(axis=1, keepdims=True)
    table = SectorTable(
        delta,
        np.where(inside, n_x * d_y + n_y, -1),
        np.where(inside[:, 1:],
                 np.sqrt((n_x[:, :-1] + 1.0) * (n_y[:, :-1] + 1.0)), 0.0),
        np.where(inside, n_x + n_y, 0).astype(float),
        inside & (np.arange(n_x.shape[1]) >= length - EVOLUTION_MARGIN),
        np.subtract.outer(np.arange(d_x), np.arange(d_y)).ravel() + d_y - 1)
    for array in vars(table).values():
        array.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class SectorStack:
    """One slab of a state's populated sectors, as weighted columns.

    Sector s holds the block G_s diag(p_s) G_s^dag: one column of
    weight 1 for a state vector, the eigenpairs of the principal block
    for a density matrix. The S sectors are consecutive rows
    `positions` of the cutoff's `sector_table`, zero-padded to the
    longest of them, L (`QuantumState.blocks` partitions a state):

    - `columns` G, shape (S, L, r), in each sector's order;
    - `weights` p, shape (S, r);
    - `populations` c_0[s, m] = sum_r p_r |G[s, m, r]|^2, shape (S, L),
      computed once, on first use;
    - the sector constants, gathered from the table once: `indices`
      (S, L), `pair_weights` (S, L - 1), `photons` (S, L), `delta` (S,)
      and the `edge` mask (S, L).

    Padding is zero in G, p, c_0 and every constant but `indices`
    (-1), so a sum over the padded slab is the sum over its sectors.
    The arrays are read-only.
    """

    positions: tuple[int, ...]
    indices: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    pair_weights: np.ndarray = field(repr=False)
    photons: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    edge: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.columns.setflags(write=False)

    @cached_property
    def populations(self) -> np.ndarray:
        """c_0[s, m] = sum_r p_r |G[s, m, r]|^2, computed on first use."""
        populations = ((np.abs(self.columns) ** 2)
                       @ self.weights[:, :, None])[:, :, 0]
        populations.setflags(write=False)
        return populations


def fock_state(cutoff: FockCutoff, n_x: int, n_y: int) -> QuantumState:
    """The basis state |n_x, n_y>."""
    v = np.zeros(cutoff.dim, dtype=complex)
    v[cutoff.index(n_x, n_y)] = 1.0
    return QuantumState.from_vector(cutoff, v)


def apply_ladders(
    array: np.ndarray, cutoff: FockCutoff, k_x: int = 0, k_y: int = 0,
    adjoint: bool = False,
) -> np.ndarray:
    """a_x^{k_x} a_y^{k_y}, or its adjoint, applied to the Fock index.

    `array` is a state vector (dim,) or a matrix (dim, k) with
    Fock-indexed rows. On its (d_x, d_y) view each ladder is a shift by
    one level times a sqrt(n + 1) weight; amplitude raised past the top
    level is dropped, as it is by truncated ladder matrices.
    """
    x = np.asarray(array)
    if x.ndim not in (1, 2) or x.shape[0] != cutoff.dim:
        raise ValueError(
            f"array of shape {x.shape} is not Fock-indexed on {cutoff}")
    if k_x < 0 or k_y < 0:
        raise ValueError("ladder powers must be non-negative")
    d_x, d_y = cutoff.d_x, cutoff.d_y
    block = x.reshape((d_x, d_y) + x.shape[1:])
    out = np.zeros(block.shape, dtype=np.result_type(block, float))
    if k_x < d_x and k_y < d_y:
        low = (slice(0, d_x - k_x), slice(0, d_y - k_y))
        high = (slice(k_x, d_x), slice(k_y, d_y))
        weight = _ladder_weight(d_x, d_y, k_x, k_y).reshape(
            (d_x - k_x, d_y - k_y) + (1,) * (x.ndim - 1))
        if adjoint:
            out[high] = weight * block[low]
        else:
            out[low] = weight * block[high]
    return out.reshape(x.shape)


@lru_cache(maxsize=64)
def _ladder_weight(d_x: int, d_y: int, k_x: int, k_y: int) -> np.ndarray:
    """sqrt((n_x+1)...(n_x+k_x) (n_y+1)...(n_y+k_y)), for n_m < d_m - k_m."""
    rise_x = np.arange(1.0, d_x - k_x + 1.0)[:, None] + np.arange(k_x)
    rise_y = np.arange(1.0, d_y - k_y + 1.0)[:, None] + np.arange(k_y)
    weight = np.sqrt(np.outer(rise_x.prod(axis=1), rise_y.prod(axis=1)))
    weight.setflags(write=False)
    return weight


def random_low_excitation_state(
    cutoff: FockCutoff, max_level: int, rng: np.random.Generator,
) -> QuantumState:
    """Random pure state supported on n_x, n_y <= max_level."""
    if max_level >= min(cutoff.d_x, cutoff.d_y):
        raise ValueError("max_level must sit inside the cutoff")
    v = np.zeros(cutoff.dim, dtype=complex)
    for n_x in range(max_level + 1):
        lo = cutoff.index(n_x, 0)
        v[lo:lo + max_level + 1] = (rng.standard_normal(max_level + 1)
                                    + 1j * rng.standard_normal(max_level + 1))
    v /= np.linalg.norm(v)
    return QuantumState.from_vector(cutoff, v)
