"""Truncated two-mode Fock space: states, sectors and ladder actions.

The joint space is the tensor product of two truncated oscillators with
dimensions d_x and d_y; the basis state |n_x, n_y> lives at flat index
n_x * d_y + n_y, row-major over x then y.

The amplifier generator, all four hidden-set operators and every state
the package builds conserve the imbalance n_x - n_y, so the imbalance
sector is the unit of work. `sector_table` stacks, once per cutoff,
every sector's flat indices |lo_x + m, lo_y + m> and H0..H3 measure
constants (its edge band, photon numbers and a_y a_x weights among
them), zero-padded to a common length, plus a flat-index -> sector
label. A state is the sectors it populates, `QuantumState.blocks`,
which every constructor fills once: columns G sqrt(p) whose outer
product is the block, in slabs of consecutive sectors (`SectorStack`,
cut by `_partition` alone) padded only to their own longest sector,
with the table's constants and, on first use, the amplifier's
eigenbasis (`_chain_eigenpairs`). A mixed state is its sector blocks
and nothing else: `from_density` refuses a density with entries
between sectors. Evolution and its truncation certificate (`dpa`) and
the H0..H3 measure (`polarization.hidden_moments`) iterate over the
slabs, a fixed number of array operations per slab.

`require_photon_numbers` (integers >= 0), `require_occupations`
(finite means >= 0) and `require_kt` (a finite evolution time) are the
package's one statement of those input rules; states, closed forms,
thermal weights, state models and evolution all call them.

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
import os
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

ALGEBRA_TOL = 1e-12        # exact-algebra identities (hermiticity, norms)
VARIANCE_FLOOR = -1e-9     # cancellation allowance before clamping to zero
EIGENVALUE_FLOOR = -1e-10  # lowest eigenvalue a density matrix may have

EVOLUTION_MARGIN = 4       # edge band whose population certifies truncation
TABLE_ENTRY_BYTES = 136    # `sector_table`'s peak per (sector, position) entry

# Complex entries per slab of a temporary (a state's slabs and the rows
# `from_density` checks): a computation that holds a few copies holds
# them a slab at a time
STACK_SLAB = 2**14

Blocks = dict[int, tuple[np.ndarray, np.ndarray]]  # (G, p) by sector delta


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


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure state vector, or a mixed state held as its sector blocks.

    Build through from_vector, from_density or from_blocks (or
    fock_state, or another state's `with_columns`): each fills
    `blocks`, the sectors the state populates as slabs of weighted
    columns, once. A built state has unit total population, the sum
    over its slabs (`require_unit_trace`), and read-only arrays. A
    mixed state's `density` is a read-only view, built on demand.
    """

    cutoff: FockCutoff
    blocks: tuple[SectorStack, ...] = field(repr=False)
    vector: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        require_unit_trace(sum(np.vdot(slab.columns, slab.columns).real
                               for slab in self.blocks))
        if self.vector is not None:
            self.vector.flags.writeable = False

    @classmethod
    def from_vector(cls, cutoff: FockCutoff, vec: np.ndarray) -> "QuantumState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape != (cutoff.dim,):
            raise ValueError(f"state vector length {v.size}, expected {cutoff.dim}")
        table = sector_table(cutoff)
        positions = np.flatnonzero(np.bincount(table.label[v != 0]))
        slabs = tuple(_slab(table, slab, indices, np.where(
            indices >= 0, v[indices], 0.0)[:, :, None])
            for slab, indices in _partition(table, positions, [1] * positions.size))
        return cls(cutoff, slabs, vector=v.copy())

    @classmethod
    def from_density(cls, cutoff: FockCutoff, rho: np.ndarray) -> "QuantumState":
        """`from_blocks` of each populated sector's `eigh`, (G, p).

        A nonzero entry outside those sectors' blocks raises ValueError.
        """
        m = np.asarray(rho, dtype=complex)
        if m.shape != (cutoff.dim, cutoff.dim):
            raise ValueError(f"density matrix has shape {m.shape}, "
                             f"expected {(cutoff.dim, cutoff.dim)}")
        step = max(1, STACK_SLAB // cutoff.dim)
        for lo in range(0, cutoff.dim, step):
            rows = slice(lo, lo + step)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN
                skew = np.max(np.abs(m[rows] - m[:, rows].conj().T))
            if not skew <= ALGEBRA_TOL:  # a NaN or inf entry fails too
                raise ValueError("density matrix is not finite and Hermitian "
                                 "within 1e-12")
        principal = _sector_blocks(cutoff, m)
        # counted without a copy of `m`
        if np.count_nonzero(m) != sum(map(np.count_nonzero, principal.values())):
            raise ValueError("density matrix has entries outside its "
                             "populated sectors' blocks")
        return cls.from_blocks(cutoff, {delta: np.linalg.eigh(block)[::-1]
                                        for delta, block in principal.items()})

    @classmethod
    def from_blocks(cls, cutoff: FockCutoff, blocks: Blocks) -> "QuantumState":
        """The state whose sector n_x - n_y = delta is G diag(p) G^dag.

        `blocks` maps each populated sector's delta to (G, p), G (L, r)
        on its L states in `sector_table` order. A p below
        EIGENVALUE_FLOOR, or a trace sum_r p_r |G_r|^2 other than 1,
        raises ValueError; a p in (EIGENVALUE_FLOOR, 0) clamps to 0 and
        the kept columns scale to keep the trace.
        """
        table = sector_table(cutoff)
        positions = np.array(sorted(blocks), dtype=int) + cutoff.d_y - 1
        columns, dropped = [], 0.0
        for s, delta in zip(positions.tolist(), sorted(blocks)):
            g, p = np.asarray(blocks[delta][0]), np.asarray(blocks[delta][1])
            if not (0 <= s < table.delta.size
                    and g.shape == ((table.indices[s] >= 0).sum(), p.size)):
                raise ValueError(f"block {delta} is not (G, p) of a sector of {cutoff}")
            _require_positive(p.min(initial=0.0))
            dropped += np.minimum(p, 0.0) @ (np.abs(g) ** 2).sum(axis=0)
            columns.append(g * np.sqrt(np.maximum(p, 0.0)))
        kept = sum(np.vdot(c, c).real for c in columns)
        require_unit_trace(kept + dropped)
        if dropped:  # sum p / sum max(p, 0), over every sector
            columns = [c * math.sqrt((kept + dropped) / kept) for c in columns]
        slabs, folded = [], iter(columns)
        for slab, indices in _partition(table, positions, [c.shape[1] for c in columns]):
            part = [next(folded) for _ in slab]
            g = np.zeros((*indices.shape, max(c.shape[1] for c in part)), dtype=complex)
            for s, c in enumerate(part):
                g[s, :c.shape[0], :c.shape[1]] = c
            slabs.append(_slab(table, slab, indices, g))
        return cls(cutoff, tuple(slabs))

    def with_columns(self, columns: list[np.ndarray]) -> "QuantumState":
        """This state with `columns`, one (S, L, R) per slab, in its slabs.

        A vector is scattered back and renormalized (the rounding drift of
        `dpa.evolve`'s U G); a block state keeps its slabs' layout and
        constants.
        """
        slabs = tuple(replace(slab, columns=g)
                      for slab, g in zip(self.blocks, columns, strict=True))
        if self.vector is None:
            return QuantumState(self.cutoff, slabs)
        v = np.zeros(self.cutoff.dim, dtype=complex)
        for slab in slabs:
            real = slab.indices >= 0
            v[slab.indices[real]] = slab.columns[real, 0]
        return self.from_vector(self.cutoff, v / np.linalg.norm(v))

    @property
    def density(self) -> np.ndarray | None:
        """Read-only density matrix, built per call; None if pure."""
        if self.vector is not None:
            return None
        m = np.zeros((self.cutoff.dim, self.cutoff.dim), dtype=complex)
        for slab in self.blocks:
            for row, g in zip(slab.indices, slab.columns):
                g, row = g[row >= 0], row[row >= 0]
                m[np.ix_(row, row)] = g @ g.conj().T
        m.flags.writeable = False
        return m

    def populations(self) -> np.ndarray:
        """Diagonal occupation probabilities in the flat Fock basis."""
        if self.vector is not None:
            return np.abs(self.vector) ** 2
        out = np.zeros(self.cutoff.dim)
        for slab in self.blocks:
            g, real = slab.columns, slab.indices >= 0
            out[slab.indices[real]] = np.einsum("smr,smr->sm", g, g.conj()).real[real]
        return out


def _sector_blocks(cutoff: FockCutoff, m: np.ndarray) -> dict[int, np.ndarray]:
    """The principal block of `m` on each sector with a nonzero diagonal."""
    table = sector_table(cutoff)
    # unpadded: padding zeros would be near-degenerate with tiny weights
    rows = {int(table.delta[s]): table.indices[s][table.indices[s] >= 0]
            for s in np.flatnonzero(np.bincount(table.label[m.diagonal() != 0]))}
    return {delta: m[np.ix_(row, row)] for delta, row in rows.items()}


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


def require_kt(kt: float) -> None:
    """Raise unless the dimensionless evolution time kt is finite."""
    if not math.isfinite(kt):
        raise ValueError(f"kt must be finite, got {kt!r}")


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
    - the constants of the H0..H3 measure (`polarization.hidden_sums`):
      `diagonal`, (5, S, L), the rows whose dot with the populations
      gives the total population, the edge population, <H0>, <H1>
      and <A A^dag + A^dag A> (A = a_y a_x): 1, the edge mask (True
      on the sector's last EVOLUTION_MARGIN states), the photon
      numbers n_x + n_y = lo_x + lo_y + 2m, -delta and
      w_m^2 + w_{m-1}^2, with w_m = <m|a_y a_x|m+1> =
      sqrt((lo_x+m+1)(lo_y+m+1)) the sector's pair weights; `pair`
      2 w_m and `pair_square` 2 w_m w_{m+1}, (S, L), the band weights
      of 2<A> and 2<A^2>; all 0 past the sector's end, the bands from
      its last step on.

    `label` maps each flat index to its sector's row.
    """

    delta: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    label: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    pair: np.ndarray = field(repr=False)
    pair_square: np.ndarray = field(repr=False)


def _physical_memory() -> float:
    """Bytes of physical memory on this machine (inf where unknown)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return float("inf")


@lru_cache(maxsize=8)
def sector_table(cutoff: FockCutoff) -> SectorTable:
    """Build (once per cutoff) the imbalance-sector table of `cutoff`.

    Raises MemoryError before allocating when its TABLE_ENTRY_BYTES per
    entry would not fit in physical memory; numpy would otherwise
    allocate the arrays one by one and exhaust the machine partway.
    """
    d_x, d_y = cutoff.d_x, cutoff.d_y
    needed = TABLE_ENTRY_BYTES * (d_x + d_y - 1) * min(d_x, d_y)
    if needed > _physical_memory():
        raise MemoryError(f"the {cutoff} sector table needs {needed / 1e9:.1f} GB")
    delta = np.arange(-(d_y - 1), d_x)
    n_x = np.maximum(delta, 0)[:, None] + np.arange(min(d_x, d_y))
    n_y = n_x - delta[:, None]
    inside = (n_x < d_x) & (n_y < d_y)
    length = inside.sum(axis=1, keepdims=True)
    w = np.where(inside[:, 1:],
                 np.sqrt((n_x[:, :-1] + 1.0) * (n_y[:, :-1] + 1.0)), 0.0)
    photons = np.where(inside, n_x + n_y, 0).astype(float)
    edge = inside & (np.arange(n_x.shape[1]) >= length - EVOLUTION_MARGIN)
    step = np.pad(w * w, ((0, 0), (0, 1)))
    table = SectorTable(
        delta, np.where(inside, n_x * d_y + n_y, -1),
        np.subtract.outer(np.arange(d_x), np.arange(d_y)).ravel() + d_y - 1,
        np.array([inside, edge, photons, -delta[:, None] * inside,
                  step + np.roll(step, 1, axis=1)], dtype=float),
        # complex, so that a product with complex columns casts nothing
        np.pad(2.0 * w, ((0, 0), (0, 1))).astype(complex),
        np.pad(2.0 * (w[:, :-1] * w[:, 1:]), ((0, 0), (0, 2))).astype(complex))
    for array in vars(table).values():
        array.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class SectorStack:
    """One slab of a state's populated sectors, as weighted columns.

    Sector s holds the block G_s G_s^dag: the columns G sqrt(p) of its
    (G, p) (`QuantumState.from_blocks`), a state vector's amplitude
    slice among them. The S sectors are consecutive rows `positions` of
    the cutoff's `sector_table`, zero-padded to the longest of them, L,
    and to the most columns, R (`_partition` cuts a state):

    - `columns` G, shape (S, L, R), in each sector's order;
    - the sector constants, gathered from the table once: `indices`
      (S, L), `delta` (S,), and the measure's `diagonal` (one row per
      table row, S L), `pair` (S L - 1, 1) and `pair_square` (S L - 2,
      1), flat over the sectors laid end to end, whose zeros at each
      sector's end keep a band inside its sector;
    - the amplifier's eigenbasis on each sector, computed on first
      use and kept as long as the slab: `eigenpairs` (E, V) and
      `eigencolumns` W = V^T G.

    Padding is zero in G, V, W and every constant but `indices` (-1),
    so a sum over the padded slab is the sum over its sectors. The
    arrays are read-only.
    """

    positions: tuple[int, ...]
    indices: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    pair: np.ndarray = field(repr=False)
    pair_square: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.columns.setflags(write=False)

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """H_int's eigenvalues (S, L) and eigenvectors (S, L, L).

        H_int = a_x^dag a_y^dag + a_x a_y, on each sector's chain
        (`_chain_eigenpairs`), which its |delta| and its length fix.
        The padding rows and columns of the eigenvectors are zero, so a
        padded product maps a sector's padding to zero and reads
        nothing from it.
        """
        count, length = self.indices.shape
        values = np.zeros((count, length))
        vectors = np.zeros((count, length, length))
        rises = np.abs(self.delta).tolist()
        lengths = (self.indices >= 0).sum(axis=1).tolist()
        for s, (rise, n) in enumerate(zip(rises, lengths)):
            values[s, :n], vectors[s, :n, :n] = _chain_eigenpairs(rise, n)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    @cached_property
    def eigencolumns(self) -> np.ndarray:
        """W = V^T G, the columns in the eigenbasis, computed on first use.

        V is real, so the product runs on the real and imaginary parts of
        G at once, as one real stack.
        """
        transposed = self.eigenpairs[1].transpose(0, 2, 1)
        moved = (transposed @ self.columns.view(float)).view(complex)
        moved.setflags(write=False)
        return moved


@lru_cache(maxsize=1024)
def _chain_eigenpairs(rise: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of H_int on one sector's chain.

    The sector of imbalance +-`rise` and `length` states, whose a_y a_x
    weights are sqrt((m + 1)(m + rise + 1)), m = 0..length-2. The chain
    depends on nothing else, so sectors delta and -delta share it, and
    so do cutoffs that give a sector the same length.
    """
    m = np.arange(length - 1.0)
    w = np.sqrt((m + 1.0) * (m + rise + 1.0))
    values, vectors = np.linalg.eigh(np.diag(w, 1) + np.diag(w, -1))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def _partition(
    table: SectorTable, positions: np.ndarray, ranks: list[int],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The sector rows `positions`, of `ranks` columns each, in slabs.

    A slab is its rows and their `indices`, padded to its longest sector
    L: S L R <= STACK_SLAB column entries, R its most columns, or one sector.
    """
    lengths = (table.indices[positions] >= 0).sum(axis=1).tolist()
    bounds, longest, widest = [0], 0, 0
    for s, (n, r) in enumerate(zip(lengths, ranks)):
        longest, widest = max(longest, n), max(widest, r)
        if s > bounds[-1] and (s + 1 - bounds[-1]) * longest * widest \
                > STACK_SLAB:
            bounds.append(s)
            longest, widest = n, r
    bounds.append(len(lengths))
    return [(positions[lo:hi],
             table.indices[positions[lo:hi], :max(lengths[lo:hi], default=1)])
            for lo, hi in zip(bounds, bounds[1:])]


def _slab(
    table: SectorTable, positions: np.ndarray, indices: np.ndarray,
    columns: np.ndarray,
) -> SectorStack:
    """The sectors `positions` of `table`, padded as `indices` is."""
    size = indices.shape[1]
    diagonal = table.diagonal[:, positions, :size]
    constants = (table.delta[positions],
                 diagonal.reshape(len(diagonal), -1),
                 table.pair[positions, :size].reshape(-1, 1)[:-1],
                 table.pair_square[positions, :size].reshape(-1, 1)[:-2])
    for array in (indices, *constants):
        array.setflags(write=False)
    return SectorStack(tuple(positions.tolist()), indices, columns,
                       *constants)


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
