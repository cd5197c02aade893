"""Dense reference implementations that tests compare the package against."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from hopslab.fock import (
    VARIANCE_FLOOR,
    DimensionMismatchError,
    FockCutoff,
    Operator,
    QuantumState,
    pair_annihilation,
)

UNITARITY_TOL = 1e-10      # default tolerance for exp(anti-Hermitian) checks
HERMITICITY_TOL = 1e-10    # operators fed to variance must be this Hermitian
BOGOLIUBOV_TOL = 1e-12


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
