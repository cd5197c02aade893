"""Tests for parametric-amplifier evolution and moment oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopslab.dpa import (
    DpaConfig,
    MomentReport,
    TruncationError,
    evolve,
    heisenberg_moments,
    oracle_moments,
    suggest_cutoff,
    thermal_heisenberg_moments,
)
from hopslab.fock import (
    FockCutoff,
    QuantumState,
    boundary_leakage,
    fock_state,
    random_low_excitation_state,
    sector_table,
)
from hopslab.polarization import fit_hops_criterion
from hopslab.squeezing import thermal_state
from dense_reference import (
    HeisenbergSolution,
    build_hidden,
    expectation,
    interaction_hamiltonian,
    matrix_exponential,
    number_operator,
    variance,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SMALL_KT = st.floats(min_value=0.0, max_value=0.3)

VACUUM_MEAN_NX_KT022 = 0.2064206545246978  # sinh(0.44)^2, frozen


def test_config_validation():
    with pytest.raises(ValueError):
        DpaConfig(kt=math.inf)
    with pytest.raises(ValueError):
        DpaConfig(kt=0.1, leakage_tol=0.0)
    with pytest.raises(ValueError):
        DpaConfig(kt=0.1, leakage_tol=1.5)
    # the truncation is the state's, and must exceed EVOLUTION_MARGIN levels
    for cut in (FockCutoff(4, 4), FockCutoff(9, 4)):
        for run in (evolve, oracle_moments):
            with pytest.raises(ValueError, match="exceed 4 levels"):
                run(fock_state(cut, 0, 0), DpaConfig(kt=0.1))


def test_interaction_hamiltonian_elements():
    cut = FockCutoff(6, 6)
    h_int = interaction_hamiltonian(cut)
    assert h_int.is_hermitian()
    m = h_int.matrix
    assert m[cut.index(0, 0), cut.index(1, 1)] == pytest.approx(1.0)
    assert m[cut.index(1, 1), cut.index(2, 2)] == pytest.approx(2.0)
    assert np.all(np.abs(np.diag(m)) == 0.0)


def test_zero_time_is_identity():
    cut = FockCutoff(10, 10)
    rng = np.random.default_rng(5)
    state = random_low_excitation_state(cut, 4, rng)
    frozen = evolve(state, DpaConfig(kt=0.0))
    np.testing.assert_allclose(frozen.vector, state.vector, atol=1e-13)


def test_vacuum_mean_occupation_at_reference_time():
    cut = FockCutoff(40, 40)
    evolved = evolve(fock_state(cut, 0, 0), DpaConfig(kt=0.22))
    mean_nx = expectation(number_operator(cut, "x"), evolved).real
    assert mean_nx == pytest.approx(VACUUM_MEAN_NX_KT022, abs=1e-9)
    assert mean_nx == pytest.approx(math.sinh(2 * 0.22) ** 2, abs=1e-9)


def test_reversibility():
    cut = FockCutoff(28, 28)
    rng = np.random.default_rng(12)
    state = random_low_excitation_state(cut, 3, rng)
    there = evolve(state, DpaConfig(kt=0.25))
    back = evolve(there, DpaConfig(kt=-0.25))
    np.testing.assert_allclose(back.vector, state.vector, atol=1e-10)


def test_block_propagator_matches_dense_exponential():
    cut = FockCutoff(8, 8)
    kt = 0.17
    rng = np.random.default_rng(3)
    state = random_low_excitation_state(cut, 3, rng)
    config = DpaConfig(kt=kt, leakage_tol=0.9)
    fast = evolve(state, config)
    u = matrix_exponential((-2j * kt) * interaction_hamiltonian(cut))
    slow = u.matrix @ state.vector
    np.testing.assert_allclose(fast.vector, slow, atol=1e-12)


def _rectangular_mixture():
    # d_x != d_y, so a mix-up of the two mode axes cannot cancel out
    cut = FockCutoff(7, 10)
    rng = np.random.default_rng(4)
    rho = sum(w * random_low_excitation_state(cut, 3, rng).density_matrix()
              for w in (0.5, 0.3, 0.2))
    config = DpaConfig(kt=0.13, leakage_tol=0.999)
    return QuantumState.from_density(cut, rho), config


def test_density_evolution_matches_dense_exponential():
    state, config = _rectangular_mixture()
    evolved = evolve(state, config)
    u = matrix_exponential(
        (-2j * config.kt) * interaction_hamiltonian(state.cutoff)).matrix
    np.testing.assert_allclose(
        evolved.density, u @ state.density @ u.conj().T, rtol=0, atol=1e-13)


def test_density_oracle_matches_dense_hidden_set():
    state, config = _rectangular_mixture()
    report = oracle_moments(state, config)
    evolved = evolve(state, config)
    hidden = build_hidden(state.cutoff).as_tuple()
    for op, mean, var in zip(hidden, report.means, report.variances):
        assert mean == pytest.approx(expectation(op, evolved).real, abs=1e-12)
        assert var == pytest.approx(variance(op, evolved), abs=1e-12)


def test_moderate_time_keeps_leakage_small():
    cut = FockCutoff(40, 40)
    evolved = evolve(fock_state(cut, 0, 0), DpaConfig(kt=0.3))
    assert boundary_leakage(evolved, 4) < 1e-8


def test_truncation_error_carries_leakage():
    cut = FockCutoff(6, 6)
    config = DpaConfig(kt=0.8)
    with pytest.raises(TruncationError) as excinfo:
        evolve(fock_state(cut, 0, 0), config)
    assert excinfo.value.leakage > config.leakage_tol
    assert excinfo.value.cutoff == cut


def test_mode_imbalance_is_conserved():
    cut = FockCutoff(24, 24)
    config = DpaConfig(kt=0.3)
    report = oracle_moments(fock_state(cut, 2, 1), config)
    assert report.mean_h1 == pytest.approx(-1.0, abs=1e-9)
    assert report.var_h1 == pytest.approx(0.0, abs=1e-9)
    assert heisenberg_moments(2, 1, 0.3).mean_h1 == -1.0


def test_vacuum_pair_variance_is_unit():
    cut = FockCutoff(24, 24)
    report = oracle_moments(fock_state(cut, 0, 0), DpaConfig(kt=0.1))
    assert report.var_h2 == pytest.approx(1.0, abs=1e-9)


def test_oracle_matches_closed_forms_on_fock_grid():
    cut = FockCutoff(40, 40)
    for kt in (0.1, 0.3):
        config = DpaConfig(kt=kt)
        for n_x in range(3):
            for n_y in range(3):
                numeric = oracle_moments(fock_state(cut, n_x, n_y), config)
                assert numeric.valid
                closed = heisenberg_moments(n_x, n_y, kt)
                tol = max(1e-8, 10.0 * numeric.leakage)
                for got, want in zip(
                        numeric.means + numeric.variances,
                        closed.means + closed.variances):
                    assert abs(got - want) < tol, (n_x, n_y, kt, got, want)


def test_thermal_closed_forms_match_mixed_oracle():
    cut = FockCutoff(20, 20)
    nbar_x, nbar_y, kt = 0.3, 0.15, 0.15
    # truncated geometric occupation, renormalized; tail < 1e-12
    wx = (nbar_x / (1 + nbar_x)) ** np.arange(cut.d_x) / (1 + nbar_x)
    wy = (nbar_y / (1 + nbar_y)) ** np.arange(cut.d_y) / (1 + nbar_y)
    weights = np.kron(wx, wy)
    rho = np.diag(weights / weights.sum()).astype(complex)
    state = QuantumState.from_density(cut, rho)
    numeric = oracle_moments(state, DpaConfig(kt=kt))
    closed = thermal_heisenberg_moments(nbar_x, nbar_y, kt)
    assert numeric.valid
    for got, want in zip(numeric.means + numeric.variances,
                         closed.means + closed.variances):
        assert got == pytest.approx(want, abs=1e-7)


def test_thermal_forms_reduce_to_fock_at_zero_width():
    closed = thermal_heisenberg_moments(0.0, 0.0, 0.27)
    pure = heisenberg_moments(0, 0, 0.27)
    assert closed.means == pure.means
    assert closed.variances == pure.variances


def test_bogoliubov_identity():
    for kt in (0.05, 0.1, 0.22, 0.3, 0.5):
        sol = HeisenbergSolution.from_kt(kt)
        assert abs(sol.C**2 - sol.S**2 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        HeisenbergSolution(C=2.0, S=1.0)


def test_evolved_vacuum_satisfies_hidden_criterion():
    cut = FockCutoff(40, 40)
    kt = 0.22
    evolved = evolve(fock_state(cut, 0, 0), DpaConfig(kt=kt))
    fit = fit_hops_criterion(evolved)
    assert fit.residual < 1e-10
    assert fit.p_h == pytest.approx(-1j * math.tanh(2 * kt), abs=1e-8)


def test_moment_report_rejects_negative_variance():
    with pytest.raises(ValueError):
        MomentReport(kt=0.0, mean_h0=0, mean_h1=0, mean_h2=0, mean_h3=0,
                     var_h0=-0.1, var_h1=0, var_h2=1, var_h3=1, leakage=0.0)


def test_moment_report_rejects_non_finite_moments():
    # nbar (1 + nbar) overflows the variances while the means stay finite
    with pytest.raises(ValueError, match="not finite"):
        thermal_heisenberg_moments(1e300, 0.5, 0.1)
    with pytest.raises(ValueError, match="not finite"):
        MomentReport(kt=0.0, mean_h0=math.nan, mean_h1=0, mean_h2=0,
                     mean_h3=0, var_h0=1, var_h1=0, var_h2=1, var_h3=1,
                     leakage=0.0)


def test_oracle_flags_instead_of_raising():
    cut = FockCutoff(6, 6)
    config = DpaConfig(kt=0.8)
    report = oracle_moments(fock_state(cut, 0, 0), config)
    assert not report.valid
    assert report.leakage > config.leakage_tol


def test_suggest_cutoff_grows_with_time():
    small = suggest_cutoff(2, 0.1)
    large = suggest_cutoff(2, 0.8)
    assert small.d_x >= 2 + 17
    assert large.d_x > small.d_x


@given(seed=SEEDS, kt=SMALL_KT)
def test_evolution_composes_over_time(seed, kt):
    cut = FockCutoff(12, 12)
    rng = np.random.default_rng(seed)
    state = random_low_excitation_state(cut, 3, rng)
    loose = dict(leakage_tol=0.9)
    once = evolve(state, DpaConfig(kt=kt, **loose))
    half = evolve(state, DpaConfig(kt=0.5 * kt, **loose))
    twice = evolve(half, DpaConfig(kt=0.5 * kt, **loose))
    np.testing.assert_allclose(twice.vector, once.vector, atol=1e-10)


@given(seed=SEEDS)
def test_oracle_agrees_between_vector_and_density_forms(seed):
    cut = FockCutoff(12, 12)
    rng = np.random.default_rng(seed)
    state = random_low_excitation_state(cut, 2, rng)
    config = DpaConfig(kt=0.2, leakage_tol=0.9)
    pure = oracle_moments(state, config)
    mixed = oracle_moments(
        QuantumState.from_density(cut, state.density_matrix()), config)
    for got, want in zip(pure.means + pure.variances,
                         mixed.means + mixed.variances):
        assert got == pytest.approx(want, abs=1e-9)


def test_oracle_forms_no_full_size_array():
    # the 1024 x 1024 evolved density alone would be 16.8 MB; the sector
    # blocks of a thermal state are a few hundred kB
    cut = FockCutoff(32, 32)
    state = thermal_state(cut, 0.5, 0.5)
    config = DpaConfig(kt=0.3)
    oracle_moments(state, config)  # warm the sector and eigenpair caches
    tracemalloc.start()
    try:
        oracle_moments(state, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("make_state", [
    lambda cut: fock_state(cut, 2, 1),
    lambda cut: thermal_state(cut, 0.3, 0.6),
], ids=["fock", "thermal"])
def test_oracle_rows_obey_casimir_identity(make_state):
    # H1^2 + H2^2 + H3^2 - H0^2 = 2 (1 + H0) away from the cutoff
    cut = FockCutoff(32, 40)
    state = make_state(cut)
    for kt in (0.0, 0.1, 0.2):
        report = oracle_moments(state, DpaConfig(kt=kt))
        second = [v + m * m for m, v in zip(report.means, report.variances)]
        residual = sum(second[1:]) - second[0] - 2.0 * (1.0 + report.mean_h0)
        assert abs(residual) <= 1e-9 * max(1.0, *second), (kt, residual)


def test_oracle_ignores_inter_sector_coherences():
    state, config = _rectangular_mixture()
    label = sector_table(state.cutoff).label
    dephased = np.where(label[:, None] == label[None, :], state.density, 0.0)
    assert np.count_nonzero(dephased) < np.count_nonzero(state.density)
    assert oracle_moments(state, config) == oracle_moments(
        QuantumState.from_density(state.cutoff, dephased), config)
