"""Dense reference implementations that tests compare the package against."""

import numpy as np
import scipy.linalg

from hopslab.fock import Operator

UNITARITY_TOL = 1e-10      # default tolerance for exp(anti-Hermitian) checks


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
