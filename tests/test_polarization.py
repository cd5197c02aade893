"""Tests for the Stokes and hidden operator families."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopslab.fock import (
    FockCutoff,
    QuantumState,
    fock_state,
    random_low_excitation_state,
    sector_table,
)
from hopslab.polarization import (
    FitUndefinedError,
    _chain_tables,
    coherence_function,
    factorization_residuals,
    fit_hops_criterion,
    uncertainty_products,
    verify_hidden_commutators,
    verify_stokes_commutators,
)
from dense_reference import (
    build_hidden,
    build_stokes,
    density_matrix,
    expectation,
    interior_indices,
    number_diagonals,
    one_sector_state,
    pair_annihilation,
    variance,
)

PROPERTY_EXAMPLES = 40
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PHASES = st.floats(min_value=0.0, max_value=2.0 * np.pi,
                   allow_nan=False, allow_infinity=False)

CUT8 = FockCutoff(8, 8)
CUT12 = FockCutoff(12, 12)


def _free_evolve(state, omega_t):
    # free evolution is diagonal: each |n_x, n_y> picks up e^{-i w t (n_x+n_y)}
    n_x, n_y = number_diagonals(state.cutoff)
    phased = np.exp(-1j * omega_t * (n_x + n_y)) * state.vector
    return QuantumState.from_vector(state.cutoff, phased)


def test_all_eight_operators_hermitian():
    stokes = build_stokes(CUT8)
    hidden = build_hidden(CUT8)
    for op in (*stokes.as_tuple(), *hidden.as_tuple()):
        assert op.is_hermitian()


def test_shared_first_two_components():
    stokes = build_stokes(CUT8)
    hidden = build_hidden(CUT8)
    np.testing.assert_array_equal(stokes.s0.matrix, hidden.h0.matrix)
    np.testing.assert_array_equal(stokes.s1.matrix, hidden.h1.matrix)


def test_hidden_cross_term_is_pair_product():
    hidden = build_hidden(CUT8)
    combined = hidden.h2.matrix + 1j * hidden.h3.matrix
    np.testing.assert_allclose(
        combined, 2.0 * pair_annihilation(CUT8).matrix, atol=1e-14)


def test_explicit_phase_cross_term():
    omega_t = 0.37
    hidden = build_hidden(CUT8, omega_t=omega_t)
    combined = hidden.h2.matrix + 1j * hidden.h3.matrix
    expected = 2.0 * np.exp(2j * omega_t) * pair_annihilation(CUT8).matrix
    np.testing.assert_allclose(combined, expected, atol=1e-14)


def test_pair_correlated_state_has_unit_h2():
    # (|0,0> + |1,1>)/sqrt(2): <2 a_y a_x> = 1, entirely along H2
    cut = FockCutoff(4, 4)
    vec = np.zeros(cut.dim, dtype=complex)
    vec[cut.index(0, 0)] = 1.0 / np.sqrt(2.0)
    vec[cut.index(1, 1)] = 1.0 / np.sqrt(2.0)
    state = QuantumState.from_vector(cut, vec)
    hidden = build_hidden(cut)
    assert expectation(hidden.h2, state).real == pytest.approx(1.0, abs=1e-12)
    assert abs(expectation(hidden.h3, state)) < 1e-12
    # the same state carries no ordinary cross polarization
    stokes = build_stokes(cut)
    assert abs(expectation(stokes.s2, state)) < 1e-12
    assert abs(expectation(stokes.s3, state)) < 1e-12


def test_single_quantum_superposition_has_unit_s2():
    cut = FockCutoff(4, 4)
    vec = np.zeros(cut.dim, dtype=complex)
    vec[cut.index(1, 0)] = 1.0 / np.sqrt(2.0)
    vec[cut.index(0, 1)] = 1.0 / np.sqrt(2.0)
    state = QuantumState.from_vector(cut, vec)
    stokes = build_stokes(cut)
    assert expectation(stokes.s2, state).real == pytest.approx(1.0, abs=1e-12)


def test_hidden_commutator_table_verdicts():
    rows = {r.name: r for r in verify_hidden_commutators(CUT12)}
    assert set(rows) == {
        "[H1,H0]", "[H1,H2]", "[H1,H3]", "[H0,H2]", "[H0,H3]",
        "[H2,H3]", "identity",
    }
    for row in rows.values():
        assert row.adjudicated_pass, (row.name, row.adjudicated_residual)
    # the published sign of [H0,H2] does not close; everything else does
    assert not rows["[H0,H2]"].printed_pass
    assert rows["[H0,H2]"].printed_residual > 1.0
    for name in ("[H1,H0]", "[H1,H2]", "[H1,H3]", "[H0,H3]", "[H2,H3]",
                 "identity"):
        assert rows[name].printed_pass, (name, rows[name].printed_residual)


def test_quadratic_identity_residual_small():
    rows = {r.name: r
            for r in verify_hidden_commutators(FockCutoff(16, 16))}
    assert rows["identity"].adjudicated_residual < 1e-10


def test_stokes_commutator_table_verdicts():
    rows = {r.name: r for r in verify_stokes_commutators(CUT12)}
    assert set(rows) == {
        "[S0,S1]", "[S0,S2]", "[S0,S3]", "[S1,S2]", "[S2,S3]", "su2 closure",
    }
    for row in rows.values():
        assert row.adjudicated_pass, (row.name, row.adjudicated_residual)
    # the garbled third relation contradicts antisymmetry; cyclic form closes
    assert not rows["su2 closure"].printed_pass
    assert rows["su2 closure"].printed_residual > 1.0


def test_probe_margin_validation():
    # PROBE_MARGIN = 2: an empty interior is an error, not a vacuous pass
    for verify in (verify_hidden_commutators, verify_stokes_commutators):
        for cut in (FockCutoff(2, 2), FockCutoff(2, 9), FockCutoff(9, 2)):
            with pytest.raises(ValueError, match="no interior"):
                verify(cut)
        # three levels per mode leave the interior state |0, 0>
        assert all(row.adjudicated_pass for row in verify(FockCutoff(3, 3)))


def _shells(cut):
    # photon-number shells n_x + n_y = N, N ascending, each by n_x ascending
    return [np.array([cut.index(n_x, n - n_x)
                      for n_x in range(max(0, n - cut.d_y + 1),
                                       min(n, cut.d_x - 1) + 1)])
            for n in range(cut.d_x + cut.d_y - 1)]


@pytest.mark.parametrize("cut", [FockCutoff(7, 10), FockCutoff(12, 9)],
                         ids=["7x10", "12x9"])
def test_chain_tables_match_dense_operators(cut):
    sectors = [row[row >= 0] for row in sector_table(cut).indices]
    hidden_set, stokes_set = build_hidden(cut), build_stokes(cut)
    for hidden, dense, chains in ((True, hidden_set, sectors),
                                  (False, stokes_set, _shells(cut))):
        stacks, _ = _chain_tables(cut, hidden)
        assert len(chains) == stacks[0].shape[0]
        inside = np.zeros((cut.dim, cut.dim), dtype=bool)
        for idx in chains:
            inside[np.ix_(idx, idx)] = True
        for stack, op in zip(stacks, dense.as_tuple()):
            for block, idx in zip(stack, chains):
                size = idx.size
                np.testing.assert_allclose(
                    block[:size, :size], op.matrix[np.ix_(idx, idx)],
                    rtol=0, atol=1e-12)
                assert not block[size:].any() and not block[:, size:].any()
            assert not op.matrix[~inside].any()

    # the nonzero printed residuals exercise the interior mask
    idx = interior_indices(cut, 2)

    def interior_max(m):
        return np.max(np.abs(m[np.ix_(idx, idx)]))

    h0, _, h2, h3 = (op.matrix for op in hidden_set.as_tuple())
    _, s1, s2, s3 = (op.matrix for op in stokes_set.as_tuple())
    hidden_rows = {r.name: r for r in verify_hidden_commutators(cut)}
    stokes_rows = {r.name: r for r in verify_stokes_commutators(cut)}
    assert hidden_rows["[H0,H2]"].printed_residual == pytest.approx(
        interior_max(h0 @ h2 - h2 @ h0 - 2j * h3), abs=1e-12)
    assert stokes_rows["su2 closure"].printed_residual == pytest.approx(
        interior_max(s3 @ s2 - s2 @ s3 - 2j * s1), abs=1e-12)


@given(omega_t=PHASES, seed=SEEDS)
def test_hidden_moments_are_picture_invariant(omega_t, seed):
    # explicit-phase operators on the freely evolved state must reproduce
    # the interaction-picture numbers on the initial state
    cut = FockCutoff(7, 7)
    rng = np.random.default_rng(seed)
    state = random_low_excitation_state(cut, 4, rng)
    evolved = _free_evolve(state, omega_t)
    fixed = build_hidden(cut)
    rotating = build_hidden(cut, omega_t=omega_t)
    for still, moving in zip(fixed.as_tuple(), rotating.as_tuple()):
        before = expectation(still, state)
        after = expectation(moving, evolved)
        assert abs(before - after) < 1e-10
        assert abs(variance(still, state) - variance(moving, evolved)) < 1e-10


def test_vacuum_uncertainty_products():
    cut = FockCutoff(6, 6)
    state = fock_state(cut, 0, 0)
    products = uncertainty_products(state)
    assert all(p.satisfied() for p in products)
    by_name = {p.name: p for p in products}
    # vacuum: Var H2 = Var H3 = 1, Var H0 = 0, all means vanish
    assert by_name["VarH2*VarH3 >= |<H0>|^2"].lhs == pytest.approx(1.0, abs=1e-12)
    assert by_name["VarH0*VarH2 >= |<H3>|^2"].lhs == pytest.approx(0.0, abs=1e-12)


@given(seed=SEEDS)
def test_uncertainty_products_hold_on_random_states(seed):
    cut = FockCutoff(7, 7)
    rng = np.random.default_rng(seed)
    # level cap keeps quadratic operators exact within the truncation
    state = random_low_excitation_state(cut, 4, rng)
    for product in uncertainty_products(state):
        assert product.satisfied(), (product.name, product.lhs, product.rhs)


def test_fit_on_vacuum():
    fit = fit_hops_criterion(fock_state(CUT8, 0, 0))
    assert fit.p_h == 0
    assert fit.residual == pytest.approx(0.0, abs=1e-15)


def test_fit_rejects_uncorrelated_state():
    # |1,1>: a_y|1,1> = |1,0> is orthogonal to a_x^dag|1,1>, so the best
    # fit is p_h = 0 with residual 1
    fit = fit_hops_criterion(fock_state(CUT8, 1, 1))
    assert abs(fit.p_h) < 1e-14
    assert fit.residual == pytest.approx(1.0, abs=1e-12)
    assert fit.residual > 1e-3


def test_fit_undefined_at_saturated_mode():
    cut = FockCutoff(5, 5)
    with pytest.raises(FitUndefinedError):
        fit_hops_criterion(fock_state(cut, 4, 0))


@given(seed=SEEDS, phase=PHASES)
def test_fit_invariant_under_global_phase(seed, phase):
    cut = FockCutoff(7, 7)
    rng = np.random.default_rng(seed)
    state = random_low_excitation_state(cut, 4, rng)
    rotated = QuantumState.from_vector(cut, np.exp(1j * phase) * state.vector)
    fit_a = fit_hops_criterion(state)
    fit_b = fit_hops_criterion(rotated)
    assert abs(fit_a.p_h - fit_b.p_h) < 1e-12
    assert abs(fit_a.residual - fit_b.residual) < 1e-12


@given(seed=SEEDS)
def test_fit_agrees_between_vector_and_density_forms(seed):
    # a pure state on one sector, whose projector is a density
    cut = FockCutoff(6, 6)
    rng = np.random.default_rng(seed)
    state = one_sector_state(cut, int(rng.integers(-2, 3)), rng)
    as_density = QuantumState.from_density(cut, density_matrix(state))
    fit_vec = fit_hops_criterion(state)
    fit_rho = fit_hops_criterion(as_density)
    assert abs(fit_vec.p_h - fit_rho.p_h) < 1e-10
    assert abs(fit_vec.residual - fit_rho.residual) < 1e-10


def _geometric_pair_state(cut, lam):
    # sum_n lam^n |n,n>, the finite-cutoff stand-in for an exactly
    # hidden-polarized state; truncation leaves an O(lam^(d-1)) misfit
    vec = np.zeros(cut.dim, dtype=complex)
    for n in range(min(cut.d_x, cut.d_y)):
        vec[cut.index(n, n)] = lam**n
    return QuantumState.from_vector(cut, vec / np.linalg.norm(vec))


def test_fit_recovers_geometric_pair_index():
    lam = 0.2
    state = _geometric_pair_state(CUT12, lam)
    fit = fit_hops_criterion(state)
    assert fit.p_h == pytest.approx(lam, abs=1e-6)
    assert fit.residual < 1e-6


def test_coherence_function_known_values():
    state = fock_state(FockCutoff(6, 6), 2, 1)
    assert coherence_function(state, 0, 0, 0, 0) == pytest.approx(1.0)
    assert coherence_function(state, 1, 0, 1, 0) == pytest.approx(2.0)
    assert coherence_function(state, 0, 1, 0, 1) == pytest.approx(1.0)
    assert coherence_function(state, 1, 1, 1, 1) == pytest.approx(2.0)
    # annihilating past the occupation gives zero
    assert coherence_function(state, 0, 2, 0, 2) == pytest.approx(0.0)


@given(seed=SEEDS)
def test_coherence_pure_and_density_paths_agree(seed):
    # a pure state on one sector, whose projector is a density
    cut = FockCutoff(6, 6)
    rng = np.random.default_rng(seed)
    state = one_sector_state(cut, int(rng.integers(-2, 3)), rng)
    as_density = QuantumState.from_density(cut, density_matrix(state))
    for orders in ((1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 2), (2, 0, 0, 0)):
        pure = coherence_function(state, *orders)
        mixed = coherence_function(as_density, *orders)
        assert abs(pure - mixed) < 1e-10


def test_coherence_order_guard():
    state = fock_state(FockCutoff(6, 6), 0, 0)
    with pytest.raises(ValueError):
        coherence_function(state, 5, 0, 0, 0)
    with pytest.raises(ValueError):
        coherence_function(state, 0, 0, 3, 2)
    with pytest.raises(ValueError):
        coherence_function(state, -1, 0, 0, 0)


def test_factorization_reduction_on_pair_state():
    state = _geometric_pair_state(CUT12, 0.2)
    rows = factorization_residuals(state)
    orders_seen = {row.orders for row in rows}
    assert (0, 0, 0, 0) in orders_seen
    assert (2, 0, 0, 2) in orders_seen
    worst_reduced = max(row.reduced_residual for row in rows)
    assert worst_reduced < 5e-5
    # the combined-order map disagrees at cross orders by far more than
    # the truncation floor
    printed_dev = {row.orders: row.printed_residual for row in rows}
    assert printed_dev[(0, 1, 0, 1)] > 1e-3


def test_factorization_requires_pure_state():
    cut = FockCutoff(5, 5)
    rho = np.zeros((cut.dim, cut.dim), dtype=complex)
    rho[cut.index(0, 0), cut.index(0, 0)] = 0.5
    rho[cut.index(1, 1), cut.index(1, 1)] = 0.5
    mixed = QuantumState.from_density(cut, rho)
    with pytest.raises(ValueError):
        factorization_residuals(mixed)
