"""Squeezing analysis: thermal weights, claimed moment forms, onset times.

The squeezing function Sq(kt, N_x, N_y) = 1 + 2 N_x N_y / (1 + N_x + N_y)
- sinh 4kt crosses zero exactly once in kt; squeezing is declared once it
turns negative, and the crossing has the closed form
kt = (1/4) asinh(1 + 2 N_x N_y / (1 + N_x + N_y)). Because the
occupation-dependent term is bounded by 1 on [0,1]^2, the onset is
pinned near 0.22 regardless of intensity, which is the headline effect
this module quantifies. Since Sq is strictly decreasing in kt with
Sq(0) >= 1, a sweep's onset is this closed form whenever it lies on the
swept range. `onset_by_bisection` finds the same crossing
independently, on a bracket grown from [0, 1], as a cross-check.

`claimed_moments` transcribes a set of published closed-form moment
expressions verbatim so they can be adjudicated against the exact
dynamics; their verdicts (matches / sign_flip / mismatch) are computed,
never asserted. The effective occupations N are deliberately
model-dependent: the source material is ambiguous about whether a
thermal mixture, a single Fock projector, or a scalar thermal weight is
intended, so all three state models are provided (`STATE_MODELS`), and
every curve records the model, oracle cutoff and leakage_tol it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .dpa import (
    DEFAULT_LEAKAGE_TOL,
    MOMENT_NAMES,
    DpaConfig,
    MomentReport,
    heisenberg_moments,
    oracle_moments,
    suggest_cutoff,
    thermal_heisenberg_moments,
)
from .fock import (
    FockCutoff,
    QuantumState,
    fock_state,
    require_kt,
    require_occupations,
    require_photon_numbers,
    sector_table,
)

CLAIM_MATCH_TOL = 1e-6       # relative deviation below which values agree
ONSET_XTOL = 1e-12
THERMAL_TAIL = 1e-9          # per-mode weight beyond the kept levels


def thermal_weight(n_bar: float, n: int) -> float:
    """Geometric occupation weight n_bar^n / (1 + n_bar)^(1 + n).

    Computed in log space so large n stays finite.
    """
    require_occupations(n_bar)
    require_photon_numbers(n)
    if n_bar == 0.0:
        return 1.0 if n == 0 else 0.0
    log_w = n * math.log(n_bar) - (1 + n) * math.log1p(n_bar)
    return math.exp(log_w)


def thermal_state(
    cutoff: FockCutoff, nbar_x: float, nbar_y: float,
) -> QuantumState:
    """Two-mode thermal state, renormalized on the truncation: G = I blocks."""
    w_x = np.array([thermal_weight(nbar_x, n) for n in range(cutoff.d_x)])
    w_y = np.array([thermal_weight(nbar_y, n) for n in range(cutoff.d_y)])
    weights = np.kron(w_x, w_y)
    weights /= weights.sum()
    table = sector_table(cutoff)
    return QuantumState.from_blocks(cutoff, {
        delta: (np.eye(p.size), p) for delta, row in zip(table.delta.tolist(), table.indices)
        if (p := weights[row[row >= 0]]).any()})


def _occupation_term(n_x: float, n_y: float) -> float:
    """2 N_x N_y / (1 + N_x + N_y); OverflowError when it is not finite."""
    require_occupations(n_x, n_y)
    term = 2.0 * n_x * n_y / (1.0 + n_x + n_y)
    if not math.isfinite(term):
        raise OverflowError(
            "occupation term 2 N_x N_y / (1 + N_x + N_y) overflows")
    return term


def squeezing_function(kt: float, n_x: float, n_y: float) -> float:
    """Sq = 1 + 2 N_x N_y / (1 + N_x + N_y) - sinh 4kt; negative = squeezed.

    A NaN or infinite kt raises ValueError.
    """
    require_kt(kt)
    return 1.0 + _occupation_term(n_x, n_y) - math.sinh(4.0 * kt)


def onset_time(n_x: float, n_y: float) -> float:
    """Closed-form zero of the squeezing function in kt."""
    return 0.25 * math.asinh(1.0 + _occupation_term(n_x, n_y))


def onset_by_bisection(n_x: float, n_y: float) -> float:
    """Independent root of Sq(kt) = 0 to ONSET_XTOL; checks the closed form.

    Sq(0) >= 1, so the bracket [0, hi] starts at hi = 1 and hi doubles
    until Sq(hi) <= 0. An occupation term that overflows raises
    OverflowError, as in onset_time.
    """
    lo, hi = 0.0, 1.0
    while squeezing_function(hi, n_x, n_y) > 0.0:
        hi *= 2.0
    while hi - lo > ONSET_XTOL:
        mid = 0.5 * (lo + hi)
        if squeezing_function(mid, n_x, n_y) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def claimed_moments(
    n_x: float, n_y: float, kt: float,
) -> tuple[float, ...]:
    """The published closed forms, verbatim, in `MOMENT_NAMES` order."""
    return ((n_y + n_x) * math.cosh(4 * kt) + 2.0 * math.sinh(2 * kt) ** 2,
            n_y - n_x,
            0.0,
            (1.0 + n_y + n_x) * math.sinh(4 * kt),
            (math.sinh(4 * kt) ** 2
             + 2.0 * math.cosh(8 * kt) * (n_y * n_x)
             - (1.0 - 2.0 * math.cosh(4 * kt)) * (n_y + n_x)
             - math.cosh(4 * kt) ** 2 * (n_y + n_x) ** 2),
            n_y * (1.0 - n_y) + n_x * (1.0 - n_x),
            1.0 + n_y + n_x + 2.0 * n_y * n_x,
            (math.cosh(4 * kt) ** 2
             + math.cosh(8 * kt) * (n_y + n_x + 2.0 * n_y * n_x)
             - math.sinh(4 * kt) ** 2 * (n_y + n_x) ** 2))


@dataclass(frozen=True)
class ClaimVerdict:
    """Published expression vs exact dynamics for one moment."""

    name: str
    claimed: float
    reference: float | None
    verdict: str | None
    deviation: float | None


@dataclass(frozen=True)
class MomentClaimTable:
    """All eight claimed closed forms with computed verdicts.

    `reference` is the report the verdicts were computed against (closed
    form or oracle), None when the occupations admit no reference.
    """

    n_x: float
    n_y: float
    kt: float
    rows: tuple[ClaimVerdict, ...]
    reference: MomentReport | None


def _classify(claimed: float, reference: float) -> tuple[str, float]:
    scale = max(1.0, abs(claimed), abs(reference))
    deviation = abs(claimed - reference) / scale
    if deviation < CLAIM_MATCH_TOL:
        return "matches", deviation
    if abs(abs(claimed) - abs(reference)) / scale < CLAIM_MATCH_TOL:
        return "sign_flip", deviation
    return "mismatch", deviation


def claimed_moment_table(
    n_x: float, n_y: float, kt: float,
    cutoff: FockCutoff | None = None,
) -> MomentClaimTable:
    """Evaluate the claimed forms; adjudicate when occupations are integers.

    Integer (n_x, n_y) admit an exact reference under the Fock reading:
    by default the closed Heisenberg forms (themselves oracle-validated
    in the dynamics tests). Passing a cutoff switches the reference to
    the brute-force oracle evolved from |n_x, n_y> at that truncation;
    the caller must size it so truncation error stays safely below the
    verdict threshold. Non-integer occupations leave the verdict fields
    empty, since no definite quantum state is specified. Raises
    ValueError on negative or non-finite occupations, a non-finite kt,
    or a cutoff with non-integer occupations (no state to evolve).
    """
    require_occupations(n_x, n_y)
    require_kt(kt)
    integer_point = float(n_x).is_integer() and float(n_y).is_integer()
    if cutoff is not None and not integer_point:
        raise ValueError("a cutoff sizes the oracle, which needs integer "
                         f"occupations, got ({n_x!r}, {n_y!r})")
    reference: MomentReport | None = None
    if cutoff is not None:
        reference = oracle_moments(
            fock_state(cutoff, int(n_x), int(n_y)), DpaConfig(kt=kt))
    elif integer_point:
        reference = heisenberg_moments(int(n_x), int(n_y), kt)
    values = (reference.means + reference.variances if reference is not None
              else (None,) * len(MOMENT_NAMES))
    rows = []
    for name, claimed, value in zip(MOMENT_NAMES,
                                    claimed_moments(n_x, n_y, kt), values):
        verdict, deviation = ((None, None) if value is None
                              else _classify(claimed, value))
        rows.append(ClaimVerdict(name, claimed, value, verdict, deviation))
    return MomentClaimTable(n_x, n_y, kt, tuple(rows), reference)


def _store_occupations(model) -> None:
    """Check a model's nbar_x, nbar_y and store them as floats.

    An integer occupation is stored, and echoed by `curve_csv`, as the
    float a replay of that echo parses.
    """
    require_occupations(model.nbar_x, model.nbar_y)
    for name in ("nbar_x", "nbar_y"):
        object.__setattr__(model, name, float(getattr(model, name)))


class _BareProjector:
    """Oracle and closed-form rows of the bare projector |n_x, n_y>."""

    def peak_level(self) -> int:
        return max(self.n_x, self.n_y)

    def initial_state(self, cutoff: FockCutoff) -> QuantumState:
        return fock_state(cutoff, self.n_x, self.n_y)

    def closed_report(self, kt: float) -> MomentReport:
        return heisenberg_moments(self.n_x, self.n_y, kt)


@dataclass(frozen=True)
class FockModel(_BareProjector):
    """Pure |n_x, n_y> initial state; occupations are the photon numbers."""

    n_x: int = 0
    n_y: int = 0

    label = "fock"

    def __post_init__(self) -> None:
        require_photon_numbers(self.n_x, self.n_y)

    def effective_occupations(self) -> tuple[float, float]:
        return float(self.n_x), float(self.n_y)


@dataclass(frozen=True)
class ThermalMixtureModel:
    """Proper two-mode thermal density matrix with means (nbar_x, nbar_y)."""

    nbar_x: float = 0.5
    nbar_y: float = 0.5

    label = "thermal"

    def __post_init__(self) -> None:
        _store_occupations(self)

    def effective_occupations(self) -> tuple[float, float]:
        return self.nbar_x, self.nbar_y

    def peak_level(self) -> int:
        # levels needed before the geometric tail drops below THERMAL_TAIL
        levels = 0
        for nbar in (self.nbar_x, self.nbar_y):
            if nbar > 0:
                ratio = nbar / (1.0 + nbar)
                if ratio == 1.0:
                    raise ValueError(f"thermal occupation {nbar!r} is too "
                                     "large: nbar/(1+nbar) rounds to 1")
                levels = max(levels,
                             math.ceil(math.log(THERMAL_TAIL) / math.log(ratio)))
        return levels

    def initial_state(self, cutoff: FockCutoff) -> QuantumState:
        return thermal_state(cutoff, self.nbar_x, self.nbar_y)

    def closed_report(self, kt: float) -> MomentReport:
        return thermal_heisenberg_moments(self.nbar_x, self.nbar_y, kt)


@dataclass(frozen=True)
class WeightedProjectorModel(_BareProjector):
    """Scalar thermal weights as effective occupations.

    The occupations fed to the squeezing function are the geometric
    weights w(nbar, n) themselves; oracle rows evolve the bare projector
    |n_x, n_y>. This is the reading that reproduces the published
    figures (e.g. w(10, 10) = 0.035).
    """

    nbar_x: float = 10.0
    n_x: int = 10
    nbar_y: float = 10.0
    n_y: int = 10

    label = "weighted"

    def __post_init__(self) -> None:
        _store_occupations(self)
        require_photon_numbers(self.n_x, self.n_y)

    def effective_occupations(self) -> tuple[float, float]:
        return (thermal_weight(self.nbar_x, self.n_x),
                thermal_weight(self.nbar_y, self.n_y))


StateModel = Union[FockModel, ThermalMixtureModel, WeightedProjectorModel]
STATE_MODELS = {model.label: model for model in get_args(StateModel)}


@dataclass(frozen=True)
class SqueezingCurve:
    """One squeezing sweep: grid, Sq values, moment rows, located onset.

    It records its inputs: the model, the cutoff its oracle rows used
    (passed or suggested; None for closed-form rows) and leakage_tol.
    """

    kt_grid: tuple[float, ...]
    sq_values: tuple[float, ...]
    moment_rows: tuple[MomentReport, ...]
    onset: float | None
    model: StateModel
    cutoff: FockCutoff | None
    leakage_tol: float

    def __post_init__(self) -> None:
        if list(self.kt_grid) != sorted(self.kt_grid):
            raise ValueError("kt grid must ascend")


def sweep(
    model: StateModel,
    kt_max: float,
    steps: int,
    with_oracle: bool = False,
    cutoff: FockCutoff | None = None,
    leakage_tol: float = DEFAULT_LEAKAGE_TOL,
) -> SqueezingCurve:
    """Uniform kt sweep of the squeezing function under one state model.

    Moment rows come from the closed Heisenberg forms, or from the
    brute-force oracle when with_oracle is set (rows whose leakage
    exceeds the budget are flagged invalid and the sweep continues).
    The onset is the closed form `onset_time` when it lies within
    kt_max, else None. leakage_tol must lie in (0, 1), as in DpaConfig,
    whether or not oracle rows use it; a cutoff sizes oracle rows only,
    so passing one without with_oracle raises ValueError; without one,
    oracle rows use `suggest_cutoff`'s.
    """
    if not (math.isfinite(kt_max) and kt_max > 0):
        raise ValueError("kt_max must be positive and finite")
    try:
        # the largest term the closed-form rows evaluate
        math.sinh(4.0 * kt_max) ** 2
    except OverflowError:
        raise ValueError(f"kt_max {kt_max!r} overflows sinh(4 kt)^2") from None
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if cutoff is not None and not with_oracle:
        raise ValueError("a cutoff sizes oracle rows only; closed-form "
                         "rows use none")
    # DpaConfig owns the leakage_tol rule; closed-form sweeps obey it too
    DpaConfig(kt=kt_max, leakage_tol=leakage_tol)
    kt_grid = np.linspace(0.0, kt_max, steps)
    occ_x, occ_y = model.effective_occupations()
    sq_values = [squeezing_function(kt, occ_x, occ_y) for kt in kt_grid]

    if with_oracle:
        if cutoff is None:
            cutoff = suggest_cutoff(model.peak_level(), kt_max)
        initial = model.initial_state(cutoff)
        rows = [oracle_moments(
            initial, DpaConfig(kt=float(kt), leakage_tol=leakage_tol))
            for kt in kt_grid]
    else:
        rows = [model.closed_report(float(kt)) for kt in kt_grid]

    onset = onset_time(occ_x, occ_y)
    return SqueezingCurve(
        kt_grid=tuple(float(kt) for kt in kt_grid),
        sq_values=tuple(float(s) for s in sq_values),
        moment_rows=tuple(rows),
        onset=onset if onset <= kt_max else None,
        model=model,
        cutoff=cutoff,
        leakage_tol=leakage_tol,
    )
