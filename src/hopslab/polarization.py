"""Stokes and hidden-polarization operator families and their tests.

Two four-operator families live here. The Stokes set characterizes
ordinary polarization through phase-difference correlations (S2 + iS3 =
2 a_y^dag a_x). The hidden set replaces the conjugated cross term with
the plain pair product (H2 + iH3 = 2 e^{2i w t} a_y a_x), so it picks up
phase-sum correlations instead; states invisible to the Stokes set can
carry full hidden polarization. The module also fits density matrices
against the hidden-polarization criterion and checks the coherence
factorization law that criterion implies.

The hidden-set means and variances (`hidden_moments`, which the
uncertainty products and the dynamics oracle share) are one measure
over imbalance-sector blocks (`fock.sector_blocks`): H0 and H1 are
diagonal on a sector and H2 + iH3 = 2 a_y a_x is a weighted shift
inside it, so each moment is a weighted sum over three bands of a
block. The criterion fit and the coherence functions run on ladder
shifts (`fock.apply_ladders`). Dense d^2 x d^2 matrices are built only
by `build_stokes`/`build_hidden`, for the commutator tables.

Commutation tables are verified on the interior block (indices at least
probe_margin below both cutoffs) because truncation necessarily breaks
ladder algebra at the boundary. Where a published relation disagrees in
sign with the constructed algebra, the verdict table reports the printed
form and the corrected form side by side; nothing is silently fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fock import (
    VARIANCE_FLOOR,
    FockCutoff,
    Operator,
    QuantumState,
    SectorBlock,
    annihilation,
    apply_ladders,
    creation,
    identity,
    interior_indices,
    number_operator,
    pair_annihilation,
    sector_blocks,
)

RELATION_TOL = 1e-10       # interior residual bound for a closing relation
UNCERTAINTY_TOL = 1e-8     # slack scale for the uncertainty inequalities
FIT_DENOMINATOR_FLOOR = 1e-28


class FitUndefinedError(ArithmeticError):
    """The criterion fit has a vanishing denominator (no x-quanta to add)."""


@dataclass(frozen=True)
class StokesSet:
    s0: Operator
    s1: Operator
    s2: Operator
    s3: Operator

    @property
    def cutoff(self) -> FockCutoff:
        return self.s0.cutoff

    def as_tuple(self) -> tuple[Operator, Operator, Operator, Operator]:
        return (self.s0, self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class HiddenSet:
    """H0..H3 with a phase convention.

    omega_t None means interaction picture (the e^{2i w t} factor is 1);
    a float builds the explicit-phase operators, which is only useful for
    spot-checking that reported quantities are picture-invariant.
    """

    h0: Operator
    h1: Operator
    h2: Operator
    h3: Operator
    omega_t: float | None = None

    @property
    def cutoff(self) -> FockCutoff:
        return self.h0.cutoff

    def as_tuple(self) -> tuple[Operator, Operator, Operator, Operator]:
        return (self.h0, self.h1, self.h2, self.h3)


def build_stokes(cutoff: FockCutoff) -> StokesSet:
    """S0 = N_y + N_x, S1 = N_y - N_x, S2 + iS3 = 2 a_y^dag a_x."""
    n_x = number_operator(cutoff, "x")
    n_y = number_operator(cutoff, "y")
    cross = creation(cutoff, "y") @ annihilation(cutoff, "x")
    s2 = cross + cross.dag()
    s3 = -1j * (cross - cross.dag())
    return StokesSet(n_y + n_x, n_y - n_x, s2, s3)


def build_hidden(cutoff: FockCutoff, omega_t: float | None = None) -> HiddenSet:
    """H0 = S0, H1 = S1, H2 + iH3 = 2 e^{2i w t} a_y a_x.

    The interaction picture (omega_t=None) sets the exponential to 1.
    """
    n_x = number_operator(cutoff, "x")
    n_y = number_operator(cutoff, "y")
    pair = pair_annihilation(cutoff)
    phase = 1.0 + 0j if omega_t is None else np.exp(2j * omega_t)
    term = phase * pair
    h2 = term + term.dag()
    h3 = -1j * (term - term.dag())
    return HiddenSet(n_y + n_x, n_y - n_x, h2, h3, omega_t=omega_t)


def hidden_moments(
    state: QuantumState | Iterable[SectorBlock],
) -> tuple[list[float], list[float]]:
    """Means and variances of H0..H3 (interaction picture).

    Takes a state, or the sector blocks of one (`fock.sector_blocks`).
    Every H_j conserves the imbalance, so each moment is a sum over the
    blocks. On a sector, H0 = n_x + n_y is diagonal, H1 = n_y - n_x =
    -delta is constant, and H2 + iH3 = 2A with A = a_y a_x, which maps
    m + 1 -> m with the sector's pair weight w_m. With the bands
    c_k[m] = <m + k|rho|m> of a block:

        <H2> + i<H3>   = 2 sum_m w_m c_1[m]
        <H2^2>, <H3^2> = <A A^dag + A^dag A> +- 2 Re <A^2>
        <A A^dag + A^dag A> = sum_m (w_m^2 + w_{m-1}^2) c_0[m]
        <A^2>          = sum_m w_m w_{m+1} c_2[m]

    A variance in (VARIANCE_FLOOR, 0) is cancellation and clamps to 0;
    below that is an error.
    """
    blocks = sector_blocks(state) if isinstance(state, QuantumState) else state
    first = np.zeros(4)
    second = np.zeros(4)
    for block in blocks:
        sector, x = block.sector, block.array
        c0 = block.populations()
        if x.ndim == 1:
            c1 = x[1:] * x[:-1].conj()
            c2 = x[2:] * x[:-2].conj()
        else:
            c1 = np.diagonal(x, -1)
            c2 = np.diagonal(x, -2)
        w, photons = sector.pair_weights, sector.photons
        population = c0.sum()
        pair = 2.0 * np.dot(w, c1)
        pair_sq = 2.0 * np.dot(w[:-1] * w[1:], c2).real
        symmetric = np.dot(w ** 2, c0[:-1] + c0[1:])
        first += (np.dot(photons, c0), -sector.delta * population,
                  pair.real, pair.imag)
        second += (np.dot(photons ** 2, c0), sector.delta ** 2 * population,
                   symmetric + pair_sq, symmetric - pair_sq)
    variances = second - first * first
    if variances.min() < VARIANCE_FLOOR:
        raise ArithmeticError(
            f"variance {variances.min():.3e} below the clamping floor")
    return first.tolist(), np.maximum(variances, 0.0).tolist()


@dataclass(frozen=True)
class RelationCheck:
    """One row of a commutation-verdict table.

    `printed` is the relation as published, `adjudicated` the form that
    actually closes numerically (identical strings when they agree).
    Residuals are max-abs over the interior block.
    """

    name: str
    printed: str
    printed_residual: float
    adjudicated: str
    adjudicated_residual: float
    tol: float = RELATION_TOL

    @property
    def printed_pass(self) -> bool:
        return self.printed_residual < self.tol

    @property
    def adjudicated_pass(self) -> bool:
        return self.adjudicated_residual < self.tol


def _interior_max(matrix: np.ndarray, cutoff: FockCutoff, margin: int) -> float:
    idx = interior_indices(cutoff, margin)
    return float(np.max(np.abs(matrix[np.ix_(idx, idx)])))


def verify_hidden_commutators(
    hidden: HiddenSet, probe_margin: int = 2,
) -> list[RelationCheck]:
    """Residual table for the hidden-set commutation relations.

    probe_margin >= 2 is required: the quadratic relations reach two
    levels past any state they touch.
    """
    if probe_margin < 2:
        raise ValueError("probe_margin must be at least 2")
    h0, h1, h2, h3 = hidden.as_tuple()
    cut, m = hidden.cutoff, probe_margin
    one = identity(cut)
    rows: list[RelationCheck] = []

    for name, a, b in (("[H1,H0]", h1, h0), ("[H1,H2]", h1, h2), ("[H1,H3]", h1, h3)):
        r = _interior_max(a.commutator(b).matrix, cut, m)
        rows.append(RelationCheck(name, f"{name} = 0", r, f"{name} = 0", r))

    c02 = h0.commutator(h2).matrix
    rows.append(RelationCheck(
        "[H0,H2]",
        "[H0,H2] = 2i*H3", _interior_max(c02 - 2j * h3.matrix, cut, m),
        "[H0,H2] = -2i*H3", _interior_max(c02 + 2j * h3.matrix, cut, m)))

    c03 = h0.commutator(h3).matrix
    r03 = _interior_max(c03 - 2j * h2.matrix, cut, m)
    rows.append(RelationCheck(
        "[H0,H3]", "[H0,H3] = 2i*H2", r03, "[H0,H3] = 2i*H2", r03))

    c23 = h2.commutator(h3).matrix
    r23 = _interior_max(c23 - 2j * (one + h0).matrix, cut, m)
    rows.append(RelationCheck(
        "[H2,H3]", "[H2,H3] = 2i*(1+H0)", r23, "[H2,H3] = 2i*(1+H0)", r23))

    ident = (h1 @ h1 + h2 @ h2 + h3 @ h3 - h0 @ h0 - 2.0 * (one + h0)).matrix
    rid = _interior_max(ident, cut, m)
    rows.append(RelationCheck(
        "identity",
        "H1^2+H2^2+H3^2 - H0^2 = 2*(1+H0)", rid,
        "H1^2+H2^2+H3^2 - H0^2 = 2*(1+H0)", rid))
    return rows


def verify_stokes_commutators(
    stokes: StokesSet, probe_margin: int = 2,
) -> list[RelationCheck]:
    """Residual table for the Stokes su(2) relations.

    The published table's third cyclic entry is garbled (it repeats the
    second with swapped operands, violating antisymmetry); the cyclic
    closure [S3,S1] = 2i*S2 is adjudicated in its place and both forms
    are reported.
    """
    if probe_margin < 2:
        raise ValueError("probe_margin must be at least 2")
    s0, s1, s2, s3 = stokes.as_tuple()
    cut, m = stokes.cutoff, probe_margin
    rows: list[RelationCheck] = []

    for name, other in (("[S0,S1]", s1), ("[S0,S2]", s2), ("[S0,S3]", s3)):
        r = _interior_max(s0.commutator(other).matrix, cut, m)
        rows.append(RelationCheck(name, f"{name} = 0", r, f"{name} = 0", r))

    r12 = _interior_max(s1.commutator(s2).matrix - 2j * s3.matrix, cut, m)
    rows.append(RelationCheck(
        "[S1,S2]", "[S1,S2] = 2i*S3", r12, "[S1,S2] = 2i*S3", r12))

    r23 = _interior_max(s2.commutator(s3).matrix - 2j * s1.matrix, cut, m)
    rows.append(RelationCheck(
        "[S2,S3]", "[S2,S3] = 2i*S1", r23, "[S2,S3] = 2i*S1", r23))

    printed_garbled = _interior_max(
        s3.commutator(s2).matrix - 2j * s1.matrix, cut, m)
    cyclic = _interior_max(s3.commutator(s1).matrix - 2j * s2.matrix, cut, m)
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

    def satisfied(self, tol: float = UNCERTAINTY_TOL) -> bool:
        scale = max(1.0, self.lhs, self.rhs)
        return self.lhs >= self.rhs - tol * scale


def uncertainty_products(state: QuantumState) -> list[UncertaintyProduct]:
    """The three hidden-set uncertainty products (interaction picture).

    Returns (Var H0 * Var H2, |<H3>|^2), (Var H2 * Var H3, |<H0>|^2),
    (Var H3 * Var H0, |<H2>|^2). Each must satisfy lhs >= rhs within
    UNCERTAINTY_TOL * max(1, lhs, rhs) on any valid state.
    """
    (m0, _, m2, m3), (v0, _, v2, v3) = hidden_moments(state)
    return [
        UncertaintyProduct("VarH0*VarH2 >= |<H3>|^2", v0 * v2, abs(m3) ** 2),
        UncertaintyProduct("VarH2*VarH3 >= |<H0>|^2", v2 * v3, abs(m0) ** 2),
        UncertaintyProduct("VarH3*VarH0 >= |<H2>|^2", v3 * v0, abs(m2) ** 2),
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


def fit_hops_criterion(state: QuantumState) -> HopsFit:
    """Fit p_h minimizing ||a_y X - p_h a_x^dag X|| / ||X||.

    X is the state vector of a pure state, else the density matrix
    (Frobenius norm). Raises FitUndefinedError when a_x^dag X vanishes
    (x-mode saturated at the truncation edge), where no finite p_h is
    meaningful.
    """
    x = state.array
    target = apply_ladders(x, state.cutoff, k_y=1)
    basis = apply_ladders(x, state.cutoff, k_x=1, adjoint=True)
    denom = np.vdot(basis, basis).real
    if denom < FIT_DENOMINATOR_FLOOR:
        raise FitUndefinedError("a_x^dag annihilates the state; fit undefined")
    p = complex(np.vdot(basis, target) / denom)
    residual = float(np.linalg.norm(target - p * basis) / np.linalg.norm(x))
    return HopsFit(p, residual)


def _order_guard(cutoff: FockCutoff, *orders: int) -> None:
    for k in orders:
        if k < 0:
            raise ValueError("coherence orders must be non-negative")
    limit = min(cutoff.d_x, cutoff.d_y) - 2
    if max(orders) > limit:
        raise ValueError(
            f"coherence order {max(orders)} exceeds the safe margin for {cutoff}")


def coherence_function(
    state: QuantumState, m_x: int, m_y: int, n_x: int, n_y: int,
) -> complex:
    """Normally ordered field moment.

    Gamma^{(m_x, m_y, n_x, n_y)} =
        Tr[rho a_x^dag^{m_x} a_y^dag^{m_y} a_x^{n_x} a_y^{n_y}].
    """
    cut = state.cutoff
    _order_guard(cut, m_x + m_y, n_x + n_y)
    if state.vector is not None:
        bra_side = apply_ladders(state.vector, cut, m_x, m_y)
        ket_side = apply_ladders(state.vector, cut, n_x, n_y)
        return complex(np.vdot(bra_side, ket_side))
    # with A = a_x^{m_x} a_y^{m_y}, B = a_x^{n_x} a_y^{n_y}:
    # Tr[rho A^dag B] = conj(Tr[A (B rho)^dag])
    b_rho = apply_ladders(state.density, cut, n_x, n_y)
    a_b_rho_dag = apply_ladders(b_rho.conj().T, cut, m_x, m_y)
    return complex(np.trace(a_b_rho_dag)).conjugate()


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


def factorization_residuals(
    state: QuantumState, max_order: int = 2, fit: HopsFit | None = None,
) -> list[FactorizationCheck]:
    """Compare coherence functions against both factorized forms.

    For a pure state obeying a_y|psi> = p a_x^dag|psi>, eliminating every
    y-ladder gives the exact reduction

        Gamma^{(m_x,m_y,n_x,n_y)} = conj(p)^{m_y} p^{n_y}
            <a_x^{m_y} a_x^dag^{m_x} a_x^{n_x} a_x^dag^{n_y}>.

    The published map instead reuses the normally ordered single-mode
    Gamma at combined orders; its residual is reported, not asserted.
    Pure states only.
    """
    if state.vector is None:
        raise ValueError("factorization check is defined for pure states")
    cut = state.cutoff
    p = (fit if fit is not None else fit_hops_criterion(state)).p_h
    rows: list[FactorizationCheck] = []
    for m_x in range(max_order + 1):
        for m_y in range(max_order + 1 - m_x):
            for n_x in range(max_order + 1):
                for n_y in range(max_order + 1 - n_x):
                    gamma = coherence_function(state, m_x, m_y, n_x, n_y)
                    vec = apply_ladders(state.vector, cut, n_y, adjoint=True)
                    vec = apply_ladders(vec, cut, n_x)
                    vec = apply_ladders(vec, cut, m_x, adjoint=True)
                    vec = apply_ladders(vec, cut, m_y)
                    xmoment = complex(np.vdot(state.vector, vec))
                    reduced = (np.conj(p) ** m_y) * (p ** n_y) * xmoment
                    printed = (np.conj(p) ** m_y) * (p ** n_y) * \
                        coherence_function(state, m_x + m_y, 0, n_x + n_y, 0)
                    rows.append(FactorizationCheck(
                        (m_x, m_y, n_x, n_y), gamma, reduced, printed,
                        abs(gamma - reduced), abs(gamma - printed)))
    return rows
