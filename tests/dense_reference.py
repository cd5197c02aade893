"""Dense reference implementations that tests compare the package against.

Operators here are full d^2 x d^2 matrices on the joint truncated
space, built from Kronecker products of single-mode ladder matrices:
the independent construction the package's sector, shell and
ladder-shift computations are checked against. A few small state and
claim-table accessors that only tests need live here too, among them
`from_density`, which builds a mixed state from a dense matrix.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from hopslab import fock
from hopslab.fock import (
    ALGEBRA_TOL,
    VARIANCE_FLOOR,
    FockCutoff,
    QuantumState,
    sector_table,
)

UNITARITY_TOL = 1e-10      # default tolerance for exp(anti-Hermitian) checks
HERMITICITY_TOL = 1e-10    # operators fed to variance must be this Hermitian
BOGOLIUBOV_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live on different Fock cutoffs."""


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix on the joint truncated space.

    Immutable. Algebra is spelled with the usual Python operators: `+`,
    `-`, scalar `*`, matrix `@`, plus .dag(). Mixing operators from
    different cutoffs raises DimensionMismatchError.
    """

    cutoff: FockCutoff
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, order="C")
        dim = self.cutoff.dim
        if m.shape != (dim, dim):
            raise ValueError(
                f"operator matrix has shape {m.shape}, expected {(dim, dim)}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def _require_same_cutoff(self, other: "Operator") -> None:
        if self.cutoff != other.cutoff:
            raise DimensionMismatchError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def dag(self) -> "Operator":
        return Operator(self.cutoff, self.matrix.conj().T)

    def __add__(self, other: "Operator") -> "Operator":
        self._require_same_cutoff(other)
        return Operator(self.cutoff, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._require_same_cutoff(other)
        return Operator(self.cutoff, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.cutoff, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._require_same_cutoff(other)
        return Operator(self.cutoff, self.matrix @ other.matrix)

    def is_hermitian(self, tol: float = ALGEBRA_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)


def is_pure(state: QuantumState) -> bool:
    return state.vector is not None


def density_matrix(state: QuantumState) -> np.ndarray:
    """The state's density matrix; a vector's outer product with itself."""
    if state.vector is not None:
        return np.outer(state.vector, state.vector.conj())
    return state.density


def from_density(cutoff: FockCutoff, rho: np.ndarray) -> QuantumState:
    """`QuantumState.from_blocks` of each populated sector's `eigh`, (G, p).

    Hermiticity is checked `fock.STACK_SLAB` entries of rows at a time.
    A nonzero entry outside the populated sectors' blocks raises
    ValueError before any block is decomposed.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (cutoff.dim, cutoff.dim):
        raise ValueError(f"density matrix has shape {m.shape}, "
                         f"expected {(cutoff.dim, cutoff.dim)}")
    step = max(1, fock.STACK_SLAB // cutoff.dim)
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
    return QuantumState.from_blocks(
        cutoff, {delta: np.linalg.eigh(block)[::-1]
                 for delta, block in principal.items()})


def _sector_blocks(cutoff: FockCutoff, m: np.ndarray) -> dict[int, np.ndarray]:
    """The principal block of `m` on each sector with a nonzero diagonal."""
    table = sector_table(cutoff)
    # unpadded: padding zeros would be near-degenerate with tiny weights
    rows = {int(table.delta[s]): table.indices[s][table.indices[s] >= 0]
            for s in np.flatnonzero(np.bincount(table.label[m.diagonal() != 0]))}
    return {delta: m[np.ix_(row, row)] for delta, row in rows.items()}


def populations(state: QuantumState) -> np.ndarray:
    """Diagonal occupation probabilities in the flat Fock basis."""
    if state.vector is not None:
        return np.abs(state.vector) ** 2
    out = np.zeros(state.cutoff.dim)
    for slab in state.blocks:
        g, real = slab.columns, slab.indices >= 0
        out[slab.indices[real]] = np.einsum("smr,smr->sm", g, g.conj()).real[real]
    return out


def pinched(cutoff: FockCutoff, rho: np.ndarray) -> np.ndarray:
    """rho with its entries between imbalance sectors zeroed.

    Its diagonal and sector blocks are kept, so are its trace and
    positivity: a density `from_density` accepts.
    """
    label = sector_table(cutoff).label
    return np.where(label[:, None] == label[None, :], rho, 0.0)


def one_sector_state(
    cutoff: FockCutoff, delta: int, rng: np.random.Generator,
) -> QuantumState:
    """A random pure state on the sector n_x - n_y = delta alone.

    Its projector is one sector's block, so it is also a density.
    """
    row = sector_table(cutoff).indices[delta + cutoff.d_y - 1]
    row = row[row >= 0]
    v = np.zeros(cutoff.dim, dtype=complex)
    v[row] = rng.standard_normal(2 * row.size).view(complex)
    return QuantumState.from_vector(cutoff, v / np.linalg.norm(v))


def claim_row(table, name: str):
    """The `ClaimVerdict` row of a `MomentClaimTable` called `name`."""
    for row in table.rows:
        if row.name == name:
            return row
    raise KeyError(name)


def verdict_counts(table) -> dict[str, int]:
    """How many rows of a `MomentClaimTable` carry each verdict."""
    counts: dict[str, int] = {}
    for row in table.rows:
        if row.verdict is not None:
            counts[row.verdict] = counts.get(row.verdict, 0) + 1
    return counts


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def number_diagonals(cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of N_x and N_y in the flat basis."""
    n_x = np.repeat(np.arange(cutoff.d_x, dtype=float), cutoff.d_y)
    n_y = np.tile(np.arange(cutoff.d_y, dtype=float), cutoff.d_x)
    return n_x, n_y


def _ladder(d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[np.arange(d - 1), np.arange(1, d)] = np.sqrt(np.arange(1, d))
    return m


def annihilation(cutoff: FockCutoff, mode: str) -> Operator:
    """a_x or a_y: a_x|n_x, n_y> = sqrt(n_x) |n_x - 1, n_y>, likewise y.

    Columns at the truncation boundary are simply cut; the algebra is
    exact away from the top levels.
    """
    if mode == "x":
        m = np.kron(_ladder(cutoff.d_x), np.eye(cutoff.d_y))
    elif mode == "y":
        m = np.kron(np.eye(cutoff.d_x), _ladder(cutoff.d_y))
    else:
        raise ValueError(f"mode must be 'x' or 'y', got {mode!r}")
    return Operator(cutoff, m)


def creation(cutoff: FockCutoff, mode: str) -> Operator:
    return annihilation(cutoff, mode).dag()


def number_operator(cutoff: FockCutoff, mode: str) -> Operator:
    if mode not in ("x", "y"):
        raise ValueError(f"mode must be 'x' or 'y', got {mode!r}")
    n_x, n_y = number_diagonals(cutoff)
    return Operator(cutoff, np.diag(n_x if mode == "x" else n_y))


def pair_annihilation(cutoff: FockCutoff) -> Operator:
    """a_y a_x = kron(ladder_x, ladder_y), without a joint-dimension product."""
    return Operator(cutoff, np.kron(_ladder(cutoff.d_x), _ladder(cutoff.d_y)))


def ladder_rows(
    cutoff: FockCutoff, k_x: int, k_y: int, m: np.ndarray,
    adjoint: bool = False,
) -> np.ndarray:
    """(a_x^k_x a_y^k_y) m, or its adjoint times m, for Fock-indexed rows.

    The product kron(ladder_x^k_x, ladder_y^k_y) acts on the (d_x, d_y)
    axes of m's rows, without being formed.
    """
    lower = [np.linalg.matrix_power(_ladder(d), k)
             for d, k in ((cutoff.d_x, k_x), (cutoff.d_y, k_y))]
    if adjoint:
        lower = [factor.conj().T for factor in lower]
    rows = np.asarray(m).reshape(cutoff.d_x, cutoff.d_y, -1)
    out = np.einsum("ij,kl,jlc->ikc", *lower, rows, optimize=True)
    return out.reshape(np.shape(m))


def dense_fit(cutoff: FockCutoff, rho: np.ndarray) -> tuple[complex, float]:
    """(p, residual) minimizing ||a_y rho - p a_x^dag rho|| / ||rho||."""
    target = ladder_rows(cutoff, 0, 1, rho)
    basis = ladder_rows(cutoff, 1, 0, rho, adjoint=True)
    p = complex(np.vdot(basis, target) / np.vdot(basis, basis).real)
    return p, float(np.linalg.norm(target - p * basis) / np.linalg.norm(rho))


def dense_coherence(
    cutoff: FockCutoff, rho: np.ndarray, m_x: int, m_y: int, n_x: int, n_y: int,
) -> complex:
    """Tr[rho a_x^dag^{m_x} a_y^dag^{m_y} a_x^{n_x} a_y^{n_y}].

    With A = a_x^{m_x} a_y^{m_y} and B = a_x^{n_x} a_y^{n_y}, it is
    Tr[B rho A^dag] = conj(Tr[A (B rho)^dag]).
    """
    b_rho = ladder_rows(cutoff, n_x, n_y, rho)
    return complex(np.trace(ladder_rows(cutoff, m_x, m_y, b_rho.conj().T))).conjugate()


def interior_indices(cutoff: FockCutoff, margin: int) -> np.ndarray:
    """Flat indices of states at least `margin` levels below both cutoffs."""
    if not (1 <= margin < min(cutoff.d_x, cutoff.d_y)):
        raise ValueError(f"margin {margin} out of range for {cutoff}")
    n_x, n_y = number_diagonals(cutoff)
    keep = (n_x <= cutoff.d_x - 1 - margin) & (n_y <= cutoff.d_y - 1 - margin)
    return np.nonzero(keep)[0]


@dataclass(frozen=True)
class StokesSet:
    s0: Operator
    s1: Operator
    s2: Operator
    s3: Operator

    def as_tuple(self) -> tuple[Operator, Operator, Operator, Operator]:
        return (self.s0, self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class HiddenSet:
    h0: Operator
    h1: Operator
    h2: Operator
    h3: Operator

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

    omega_t None is the interaction picture (the exponential is 1); a
    float builds the explicit-phase operators, for checking that the
    package's interaction-picture moments are picture-invariant.
    """
    n_x = number_operator(cutoff, "x")
    n_y = number_operator(cutoff, "y")
    phase = 1.0 if omega_t is None else np.exp(2j * omega_t)
    term = phase * pair_annihilation(cutoff)
    h2 = term + term.dag()
    h3 = -1j * (term - term.dag())
    return HiddenSet(n_y + n_x, n_y - n_x, h2, h3)


def matrix_exponential(op: Operator, tol: float = UNITARITY_TOL) -> Operator:
    """exp(op) via scaling-and-squaring (scipy's Pade implementation).

    For anti-Hermitian input the result is checked to be unitary within
    tol, element-wise on U^dag U - I.
    """
    if not np.all(np.isfinite(op.matrix)):
        raise ValueError("matrix exponential of non-finite entries")
    e = scipy.linalg.expm(op.matrix)
    anti = np.max(np.abs(op.matrix + op.matrix.conj().T))
    if anti <= tol:
        dev = np.max(np.abs(e.conj().T @ e - np.eye(op.cutoff.dim)))
        if dev > tol:
            raise ArithmeticError(
                f"exp(anti-Hermitian) failed unitarity: deviation {dev:.3e} > {tol:.1e}")
    return Operator(op.cutoff, e)


def expectation(op: Operator, state: QuantumState) -> complex:
    """<psi|O|psi> for pure states, Tr(rho O) for mixed ones."""
    if op.cutoff != state.cutoff:
        raise DimensionMismatchError(
            f"cutoff mismatch: {op.cutoff} vs {state.cutoff}")
    if state.vector is not None:
        return complex(np.vdot(state.vector, op.matrix @ state.vector))
    assert state.density is not None
    # Tr(rho O) as an elementwise sum, avoids the full matrix product
    return complex(np.sum(state.density * op.matrix.T))


def variance(op: Operator, state: QuantumState) -> float:
    """<O^2> - <O>^2 for a Hermitian operator.

    Cancellation on near-eigenstates can leave a tiny negative value;
    anything in (VARIANCE_FLOOR, 0) clamps to 0, below that is an error.
    """
    if not op.is_hermitian(HERMITICITY_TOL):
        raise ValueError("variance requires a Hermitian operator within 1e-10")
    if op.cutoff != state.cutoff:
        raise DimensionMismatchError(
            f"cutoff mismatch: {op.cutoff} vs {state.cutoff}")
    if state.vector is not None:
        ov = op.matrix @ state.vector
        mean = np.vdot(state.vector, ov).real
        second = np.vdot(ov, ov).real
    else:
        assert state.density is not None
        prod = op.matrix @ state.density
        mean = np.trace(prod).real
        # <O^2> = Tr((O rho) O) without forming O^2
        second = np.sum(prod * op.matrix.T).real
    v = second - mean * mean
    if v < VARIANCE_FLOOR:
        raise ArithmeticError(f"variance {v:.3e} below the clamping floor")
    return max(v, 0.0)


def interaction_hamiltonian(cutoff: FockCutoff) -> Operator:
    """H_int = a_x^dag a_y^dag + a_x a_y (coupling absorbed into kt)."""
    pair = pair_annihilation(cutoff)
    return pair + pair.dag()


@dataclass(frozen=True)
class HeisenbergSolution:
    """Bogoliubov coefficients of the closed-form mode transformation.

    a_x(t) = C a_x - i S a_y^dag with C = cosh 2kt, S = sinh 2kt.
    Intended for moderate kt where the hyperbolic identity is
    representable; the constructor enforces it to BOGOLIUBOV_TOL.
    """

    C: float
    S: float

    def __post_init__(self) -> None:
        defect = abs(self.C**2 - self.S**2 - 1.0)
        if defect > BOGOLIUBOV_TOL:
            raise ValueError(f"C^2 - S^2 = 1 violated by {defect:.3e}")

    @classmethod
    def from_kt(cls, kt: float) -> "HeisenbergSolution":
        return cls(math.cosh(2.0 * kt), math.sinh(2.0 * kt))
