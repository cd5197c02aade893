"""Stokes and hidden-polarization operator families and their tests.

Two four-operator families live here. The Stokes set characterizes
ordinary polarization through phase-difference correlations (S2 + iS3 =
2 a_y^dag a_x). The hidden set replaces the conjugated cross term with
the plain pair product (H2 + iH3 = 2 e^{2i w t} a_y a_x), so it picks up
phase-sum correlations instead; states invisible to the Stokes set can
carry full hidden polarization. The module also fits states against
the hidden-polarization criterion and checks the coherence
factorization law that criterion implies.

The hidden-set means and variances (`hidden_moments`, which the
uncertainty products and the dynamics oracle share) are one measure
over a state's slabs of imbalance sectors (`QuantumState.blocks`): H0
and H1 are diagonal on a sector and H2 + iH3 = 2 a_y a_x is a weighted
shift inside it, so each moment is a weighted sum over three bands of
a slab, taken for all its sectors at once (`hidden_sums`), and
combined over the slabs, Var H0 and Var H1 by the parallel-variance
rule. The weights of those sums depend only on the sector: they are
built once per cutoff, in `fock.sector_table`, and each slab gathers
its own, so any set of columns on it, such as the dynamics oracle's
evolved columns at each kt, is measured with no set-up. The
criterion fit, the coherence functions and the factorization check
take one path for every state: ladder shifts (`fock.ladder_block`) of
its blocks (`QuantumState.row_blocks`), compared on the rows two
images share, so no array is d^2 long.

The commutator tables run on the chains each set conserves, both rows
of `fock.sector_table`: imbalance sectors for the hidden set (su(1,1)),
photon-number shells for the Stokes set (su(2)). On every chain a
quadruple is two diagonals and one weighted one-step shift, so
`verify_hidden_commutators(cutoff)` and
`verify_stokes_commutators(cutoff)` evaluate each relation as batched
products of zero-padded (chains, L, L) stacks; no d^2 x d^2 matrix is
formed. Residuals are taken on the interior block (states at least
PROBE_MARGIN below both cutoffs) because truncation necessarily breaks
ladder algebra at the boundary. Where a published relation disagrees in
sign with the constructed algebra, the verdict table reports the printed
form and the corrected form side by side; nothing is silently fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fock import (
    VARIANCE_FLOOR,
    Block,
    FockCutoff,
    QuantumState,
    SectorStack,
    _physical_memory,
    ladder_block,
    sector_table,
)

RELATION_TOL = 1e-10       # interior residual bound for a closing relation
PROBE_MARGIN = 2           # levels the quadratic relations reach past a state
UNCERTAINTY_TOL = 1e-8     # slack scale for the uncertainty inequalities
FACTORIZATION_TOL = 1e-6   # bound on a reduced-form factorization residual
FACTORIZATION_ORDER = 2    # highest total order on each side of a Gamma
FIT_DENOMINATOR_FLOOR = 1e-28
LIVE_STACKS = 8            # complex (chains, L, L) stacks a table holds
TINY = np.finfo(float).tiny  # stands in for a slab's zero population


class FitUndefinedError(ArithmeticError):
    """The criterion fit has a vanishing denominator (no x-quanta to add)."""


def hidden_sums(slab: SectorStack, columns: np.ndarray) -> tuple[float, ...]:
    """Population, edge population and H0..H3 sums of columns, 10 floats.

    `columns` G, (S, L, r), lie on `slab`'s sectors, with block
    G G^dag per sector; the sums run over every sector. In order: the
    population sum_r |G_r|^2, the part of it on the edge mask,
    <H0>..<H3>, the second moments of H0 and H1 about the slab's own
    means (`hidden_moments` combines them across slabs), and <H2^2>,
    <H3^2>. Every H_j conserves the imbalance. On a sector,
    H0 = n_x + n_y is diagonal, H1 = n_y - n_x = -delta is constant,
    and H2 + iH3 = 2A with A = a_y a_x, which maps m + 1 -> m with the
    sector's pair weight w_m. With the bands
    c_k[m] = <m + k|rho|m> = sum_r G[m + k, r] conj(G[m, r]):

        <H2> + i<H3>   = 2 sum_m w_m c_1[m]
        <H2^2>, <H3^2> = <A A^dag + A^dag A> +- 2 Re <A^2>
        <A A^dag + A^dag A> = sum_m (w_m^2 + w_{m-1}^2) c_0[m]
        <A^2>          = sum_m w_m w_{m+1} c_2[m]

    c_0 = sum_r |G_r|^2; the sums diagonal in the sector basis are one
    product of c_0 with the slab's `diagonal`, the centred sums
    (n - mean)^2 c_0 one more, and c_1 and c_2 two band dots over the
    sectors laid end to end, whose weights vanish at each sector's
    end: a fixed number of array operations per slab.
    """
    g = columns.reshape(-1, columns.shape[2])  # the sectors end to end
    c0 = np.square(g.view(float)) @ np.ones(2 * g.shape[1])
    population, edge, h0, h1, symmetric = (slab.diagonal @ c0).tolist()
    mean = np.divide([[h0], [h1]], max(population, TINY))
    central = np.square(slab.diagonal[2:4] - mean) @ c0
    pair = complex(np.vdot(g[:-1] * slab.pair, g[1:]))
    pair_sq = float(np.vdot(g[:-2] * slab.pair_square, g[2:]).real)
    return (population, edge, h0, h1, pair.real, pair.imag,
            *central.tolist(), symmetric + pair_sq, symmetric - pair_sq)


def hidden_moments(
    state: QuantumState | list[tuple[float, ...]],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Means and variances of H0..H3 (interaction picture), as 4-tuples.

    Takes a state, whose slabs of sectors (`QuantumState.blocks`) are
    measured one at a time, or the `hidden_sums` of the slabs of one.
    Var H0 and Var H1 combine the slabs' centred moments M_k by the
    parallel-variance rule, sum_k M_k + pop_k (mean_k - mean)^2, so no
    digits cancel when a variance is small beside its squared mean.
    A variance in (VARIANCE_FLOOR, 0) is cancellation and clamps to 0;
    below that is an error.
    """
    rows = state
    if isinstance(state, QuantumState):
        rows = [hidden_sums(slab, slab.columns) for slab in state.blocks]
    total = [sum(column) for column in zip(*rows)]
    first = total[2:6]
    # pop_k (mean_k - mean)^2 = (h_k - pop_k mean)^2 / pop_k
    spread = [sum((row[j] - row[0] * first[j - 2]) ** 2 / max(row[0], TINY)
                  for row in rows) for j in (2, 3)]
    variances = [total[6] + spread[0], total[7] + spread[1],
                 total[8] - first[2] ** 2, total[9] - first[3] ** 2]
    if min(variances) < VARIANCE_FLOOR:
        raise ArithmeticError(
            f"variance {min(variances):.3e} below the clamping floor")
    return tuple(first), tuple(max(v, 0.0) for v in variances)


@dataclass(frozen=True)
class RelationCheck:
    """One row of a commutation-verdict table.

    `printed` is the relation as published, `adjudicated` the form that
    actually closes numerically (identical strings when they agree).
    Residuals are max-abs over the interior block; a relation passes
    when its residual is below RELATION_TOL.
    """

    name: str
    printed: str
    printed_residual: float
    adjudicated: str
    adjudicated_residual: float

    @property
    def printed_pass(self) -> bool:
        return self.printed_residual < RELATION_TOL

    @property
    def adjudicated_pass(self) -> bool:
        return self.adjudicated_residual < RELATION_TOL


def _chain_tables(
    cutoff: FockCutoff, hidden: bool,
) -> tuple[tuple[np.ndarray, ...], Callable[[np.ndarray], float]]:
    """X0..X3 of one operator set on every chain it conserves.

    Both chain families are the rows of `fock.sector_table`: the
    imbalance sector delta for the hidden set and, with n_y reflected
    to d_y - 1 - n_y, the photon-number shell N = delta + d_y - 1 for
    the Stokes set (same n_x order and length). On a chain,
    X0 = diag(n_y + n_x), X1 = diag(n_y - n_x) and X2 + iX3 = 2W, where
    W maps position k + 1 to k with weight sqrt((n_x+1)(n_y+1)) (a_y a_x)
    or sqrt((n_x+1) n_y) (a_y^dag a_x), (n_x, n_y) taken at k. The
    chains are zero-padded to the table's length L and stacked as
    (chains, L, L) arrays; no weight crosses a chain's end, so batched
    products are the chain blocks of the dense products, which vanish
    between chains.

    Also returns the residual: max |entry| of a stack over row and
    column positions with n_x <= d_x-1-PROBE_MARGIN and
    n_y <= d_y-1-PROBE_MARGIN, the interior block of the dense matrix.
    Raises ValueError when min(d_x, d_y) <= PROBE_MARGIN, which leaves
    the interior empty.

    Raises MemoryError before allocating when LIVE_STACKS such stacks
    would not fit in physical memory; numpy would otherwise allocate
    them lazily and exhaust the machine partway through a table.
    """
    d_x, d_y = cutoff.d_x, cutoff.d_y
    if PROBE_MARGIN >= min(d_x, d_y):
        raise ValueError(
            f"probe margin {PROBE_MARGIN} leaves no interior in {cutoff}")
    needed = LIVE_STACKS * (d_x + d_y - 1) * min(d_x, d_y) ** 2 \
        * np.dtype(complex).itemsize
    if needed > _physical_memory():
        raise MemoryError(f"the {cutoff} tables need {needed / 1e9:.1f} GB")
    indices = sector_table(cutoff).indices
    chains, length = indices.shape
    inside = indices >= 0
    # a padding index, -1, gives n_x = -1: a zero weight, never a NaN
    n_x, n_y = np.divmod(indices, d_y)
    if not hidden:
        n_y = d_y - 1 - n_y
    # zero on every step that leaves the chain
    weights = inside[:, 1:] * np.sqrt(
        (n_x[:, :-1] + 1.0) * (n_y[:, :-1] + float(hidden)))
    diagonal = np.arange(length)
    x0 = np.zeros((chains, length, length), dtype=complex)
    x1 = np.zeros_like(x0)
    shift = np.zeros_like(x0)
    x0[:, diagonal, diagonal] = (n_y + n_x) * inside
    x1[:, diagonal, diagonal] = (n_y - n_x) * inside
    shift[:, diagonal[:-1], diagonal[1:]] = weights
    back = shift.transpose(0, 2, 1)
    x2 = shift + back
    x3 = -1j * (shift - back)
    interior = inside & (n_x <= d_x - 1 - PROBE_MARGIN) \
        & (n_y <= d_y - 1 - PROBE_MARGIN)
    block = interior[:, :, None] & interior[:, None, :]

    def residual(stack: np.ndarray) -> float:
        return float(np.max(np.abs(stack[block])))

    return (x0, x1, x2, x3), residual


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def verify_hidden_commutators(cutoff: FockCutoff) -> list[RelationCheck]:
    """Residual table for the hidden-set su(1,1) relations at `cutoff`.

    Evaluated on the imbalance sectors, which every H_j conserves.
    """
    (h0, h1, h2, h3), res = _chain_tables(cutoff, hidden=True)
    one = np.eye(h0.shape[-1])
    rows: list[RelationCheck] = []

    for name, a, b in (("[H1,H0]", h1, h0), ("[H1,H2]", h1, h2), ("[H1,H3]", h1, h3)):
        r = res(_commutator(a, b))
        rows.append(RelationCheck(name, f"{name} = 0", r, f"{name} = 0", r))

    c02 = _commutator(h0, h2)
    rows.append(RelationCheck(
        "[H0,H2]",
        "[H0,H2] = 2i*H3", res(c02 - 2j * h3),
        "[H0,H2] = -2i*H3", res(c02 + 2j * h3)))

    r03 = res(_commutator(h0, h3) - 2j * h2)
    rows.append(RelationCheck(
        "[H0,H3]", "[H0,H3] = 2i*H2", r03, "[H0,H3] = 2i*H2", r03))

    r23 = res(_commutator(h2, h3) - 2j * (one + h0))
    rows.append(RelationCheck(
        "[H2,H3]", "[H2,H3] = 2i*(1+H0)", r23, "[H2,H3] = 2i*(1+H0)", r23))

    rid = res(h1 @ h1 + h2 @ h2 + h3 @ h3 - h0 @ h0 - 2.0 * (one + h0))
    rows.append(RelationCheck(
        "identity",
        "H1^2+H2^2+H3^2 - H0^2 = 2*(1+H0)", rid,
        "H1^2+H2^2+H3^2 - H0^2 = 2*(1+H0)", rid))
    return rows


def verify_stokes_commutators(cutoff: FockCutoff) -> list[RelationCheck]:
    """Residual table for the Stokes su(2) relations at `cutoff`.

    Evaluated on the photon-number shells, which every S_j conserves.
    The published table's third cyclic entry is garbled (it repeats the
    second with swapped operands, violating antisymmetry); the cyclic
    closure [S3,S1] = 2i*S2 is adjudicated in its place and both forms
    are reported.
    """
    (s0, s1, s2, s3), res = _chain_tables(cutoff, hidden=False)
    rows: list[RelationCheck] = []

    for name, other in (("[S0,S1]", s1), ("[S0,S2]", s2), ("[S0,S3]", s3)):
        r = res(_commutator(s0, other))
        rows.append(RelationCheck(name, f"{name} = 0", r, f"{name} = 0", r))

    r12 = res(_commutator(s1, s2) - 2j * s3)
    rows.append(RelationCheck(
        "[S1,S2]", "[S1,S2] = 2i*S3", r12, "[S1,S2] = 2i*S3", r12))

    r23 = res(_commutator(s2, s3) - 2j * s1)
    rows.append(RelationCheck(
        "[S2,S3]", "[S2,S3] = 2i*S1", r23, "[S2,S3] = 2i*S1", r23))

    printed_garbled = res(_commutator(s3, s2) - 2j * s1)
    cyclic = res(_commutator(s3, s1) - 2j * s2)
    rows.append(RelationCheck(
        "su2 closure", "[S3,S2] = 2i*S1", printed_garbled,
        "[S3,S1] = 2i*S2", cyclic))
    return rows


@dataclass(frozen=True)
class UncertaintyProduct:
    """One variance-product inequality lhs >= rhs."""

    name: str
    lhs: float
    rhs: float

    def satisfied(self) -> bool:
        scale = max(1.0, self.lhs, self.rhs)
        return self.lhs >= self.rhs - UNCERTAINTY_TOL * scale


def uncertainty_products(state: QuantumState) -> list[UncertaintyProduct]:
    """The hidden-set uncertainty products (interaction picture).

    Returns (Var H0 * Var H2, |<H3>|^2), (Var H2 * Var H3, |<H0>|^2),
    (Var H3 * Var H0, |<H2>|^2) and the tight form of the second,
    (Var H2 * Var H3, (1 + <H0>)^2), the Robertson bound of
    [H2, H3] = 2i(1 + H0). Each must satisfy lhs >= rhs within
    UNCERTAINTY_TOL * max(1, lhs, rhs) on any valid state.
    """
    (m0, _, m2, m3), (v0, _, v2, v3) = hidden_moments(state)
    return [
        UncertaintyProduct("VarH0*VarH2 >= |<H3>|^2", v0 * v2, abs(m3) ** 2),
        UncertaintyProduct("VarH2*VarH3 >= |<H0>|^2", v2 * v3, abs(m0) ** 2),
        UncertaintyProduct("VarH3*VarH0 >= |<H2>|^2", v3 * v0, abs(m2) ** 2),
        UncertaintyProduct("VarH2*VarH3 >= (1+<H0>)^2", v2 * v3, (1 + m0) ** 2),
    ]


@dataclass(frozen=True)
class HopsFit:
    """Least-squares fit of the hidden-polarization criterion.

    p_h is the fitted hidden-polarization index; residual is the
    normalized Frobenius misfit of a_y rho = p_h a_x^dag rho. Residual
    near zero certifies the state as hidden-polarized. The residual is
    invariant under global phase and under positive rescaling of rho.
    """

    p_h: complex
    residual: float


def _aligned(a: Block, b: Block) -> np.ndarray:
    """The columns of blocks a and b, zero-filled on their rows' union."""
    # one sort; np.union1d would import numpy.ma on its first call (~12 ms)
    rows, where = np.unique(np.concatenate([a[0], b[0]]), return_inverse=True)
    aligned = np.zeros((2, rows.size, a[1].shape[1]), dtype=complex)
    aligned[0, where[:a[0].size]], aligned[1, where[a[0].size:]] = a[1], b[1]
    return aligned


def fit_hops_criterion(state: QuantumState) -> HopsFit:
    """Fit p_h minimizing ||a_y X - p_h a_x^dag X|| / ||X||.

    X is the state vector of a pure state, else the density matrix
    (Frobenius norm), X = sum C C^dag over the state's blocks (rows, C)
    (`QuantumState.row_blocks`), which share no row. With M = C^dag C,
    T = a_y C and B = a_x^dag C on the union of the rows they reach,

        p_h        = sum tr(B^dag T M) / sum tr(B^dag B M)
        residual^2 = sum tr(E^dag E M) / sum tr(M^2),  E = T - p_h B,

    with E formed, not expanded, so a small residual keeps its digits.
    Two passes over the blocks, one block held at a time: the sums of
    p_h and the norm, then E; a one-block state (every pure state)
    keeps its (M, T, B) from the first pass for the second. Raises
    FitUndefinedError when sum tr(B^dag B M) = ||a_x^dag X||^2 vanishes
    (x-mode saturated at the truncation edge), where no finite p_h is
    meaningful.
    """
    def terms():
        for rows, c in state.row_blocks():
            yield c.conj().T @ c, *_aligned(
                ladder_block(state.cutoff, (rows, c), k_y=1),
                ladder_block(state.cutoff, (rows, c), k_x=1, adjoint=True))

    numer = denom = norm = 0
    for blocks, (m, t, b) in enumerate(terms(), 1):
        denom += np.vdot(b, b @ m).real
        numer += np.vdot(b, t @ m)
        norm += np.vdot(m, m).real
    if denom < FIT_DENOMINATOR_FLOOR:
        raise FitUndefinedError("a_x^dag annihilates the state; fit undefined")
    p = complex(numer / denom)
    second = [(m, t, b)] if blocks == 1 else terms()
    misfit = sum(np.vdot(e := t - p * b, e @ m).real for m, t, b in second)
    return HopsFit(p, float(np.sqrt(misfit / norm)))


def _gram(state: QuantumState, bras: list, kets: list) -> np.ndarray:
    """Tr[rho X^dag Y] for each ladder chain X of `bras` and Y of `kets`.

    A chain is a list of (k_x, k_y, adjoint) steps of `fock.ladder_block`,
    applied in order; its total order may be at most min(d_x, d_y) - 2.
    The trace is the sum over the state's blocks (rows, C) of
    vdot(X C, Y C), on the rows the two images share.
    """
    cut, chains = state.cutoff, bras + kets
    order = max(sum(k_x + k_y for k_x, k_y, _ in chain) for chain in chains)
    if order > min(cut.d_x, cut.d_y) - 2:
        raise ValueError(
            f"coherence order {order} exceeds the safe margin for {cut}")
    gram = np.zeros((len(bras), len(kets)), dtype=complex)
    for block in state.row_blocks():
        images = [block] * len(chains)
        for a, chain in enumerate(chains):
            for step in chain:
                images[a] = ladder_block(cut, images[a], *step)
        gram += [[np.vdot(*_aligned(x, y)) for y in images[len(bras):]]
                 for x in images[:len(bras)]]
    return gram


def coherence_function(
    state: QuantumState, m_x: int, m_y: int, n_x: int, n_y: int,
) -> complex:
    """Normally ordered field moment.

    Gamma^{(m_x, m_y, n_x, n_y)} =
        Tr[rho a_x^dag^{m_x} a_y^dag^{m_y} a_x^{n_x} a_y^{n_y}]
      = sum_C vdot(a_x^{m_x} a_y^{m_y} C, a_x^{n_x} a_y^{n_y} C),

    over the state's blocks (`_gram`). The orders are integers >= 0
    (`fock.require_photon_numbers`), each side's total at most
    min(d_x, d_y) - 2; others raise ValueError.
    """
    bra, ket = [(m_x, m_y, False)], [(n_x, n_y, False)]
    return complex(_gram(state, [bra], [ket])[0, 0])


@dataclass(frozen=True)
class FactorizationCheck:
    """One order of the coherence-factorization comparison.

    `reduced` eliminates the y-mode through the fitted criterion
    (exact for states that satisfy it); `printed` is the published
    combined-order map, reported alongside for adjudication.
    """

    orders: tuple[int, int, int, int]
    gamma: complex
    reduced: complex
    printed: complex
    reduced_residual: float
    printed_residual: float


def factorization_residuals(state: QuantumState) -> list[FactorizationCheck]:
    """Compare coherence functions against both factorized forms.

    Orders m_x + m_y, n_x + n_y <= FACTORIZATION_ORDER. For a state
    obeying a_y rho = p a_x^dag rho (p from `fit_hops_criterion`),
    eliminating every y-ladder gives the exact reduction

        Gamma^{(m_x,m_y,n_x,n_y)} = conj(p)^{m_y} p^{n_y}
            Tr[rho a_x^{m_y} a_x^dag^{m_x} a_x^{n_x} a_x^dag^{n_y}],

    a `_gram` entry like Gamma, with a_x^i a_x^dag^j for a_x^i a_y^j.
    The published map instead reuses the normally ordered single-mode
    Gamma at combined orders; its residual is reported, not asserted.
    """
    p = fit_hops_criterion(state).p_h
    sides = [(k_x, k_y) for k_x in range(FACTORIZATION_ORDER + 1)
             for k_y in range(FACTORIZATION_ORDER + 1 - k_x)]
    plain = [[(i, j, False)] for i, j in sides]
    x_only = [[(j, 0, True), (i, 0, False)] for i, j in sides]
    gammas, xmoments = _gram(state, plain, plain), _gram(state, x_only, x_only)
    rows: list[FactorizationCheck] = []
    for a, (m_x, m_y) in enumerate(sides):
        for b, (n_x, n_y) in enumerate(sides):
            gamma = complex(gammas[a, b])
            scale = (np.conj(p) ** m_y) * (p ** n_y)
            reduced = scale * xmoments[a, b]
            printed = scale * gammas[sides.index((m_x + m_y, 0)),
                                     sides.index((n_x + n_y, 0))]
            rows.append(FactorizationCheck(
                (m_x, m_y, n_x, n_y), gamma, reduced, printed,
                abs(gamma - reduced), abs(gamma - printed)))
    return rows
