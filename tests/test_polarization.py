"""Tests for the Stokes and hidden operator families."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hopslab
from hopslab.dpa import DpaConfig, evolve
from hopslab.fock import (
    ALGEBRA_TOL,
    FockCutoff,
    QuantumState,
    fock_state,
    random_low_excitation_state,
    sector_table,
)
from hopslab.polarization import (
    FACTORIZATION_TOL,
    FitUndefinedError,
    _chain_tables,
    coherence_function,
    factorization_residuals,
    fit_hops_criterion,
    uncertainty_products,
    verify_hidden_commutators,
    verify_stokes_commutators,
)
from hopslab.squeezing import thermal_state
from dense_reference import (
    build_hidden,
    build_stokes,
    dense_coherence,
    dense_fit,
    density_matrix,
    ladder_rows,
    expectation,
    from_density,
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


@pytest.mark.parametrize("kt", [0.1, 0.22, 0.3])
def test_evolved_vacua_saturate_the_tight_uncertainty_product(kt):
    # [H2, H3] = 2i(1 + H0): Var H2 Var H3 >= (1 + <H0>)^2, with equality
    # on the two-mode squeezed vacuum
    evolved = evolve(fock_state(FockCutoff(40, 40), 0, 0), DpaConfig(kt=kt))
    products = uncertainty_products(evolved)
    assert [p.name for p in products[:3]] == [
        "VarH0*VarH2 >= |<H3>|^2", "VarH2*VarH3 >= |<H0>|^2",
        "VarH3*VarH0 >= |<H2>|^2"]
    tight = products[3]
    assert tight.name == "VarH2*VarH3 >= (1+<H0>)^2"
    assert tight.satisfied()
    assert abs(tight.lhs / tight.rhs - 1.0) <= 1e-12
    assert tight.rhs > products[1].rhs


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
    as_density = from_density(cut, density_matrix(state))
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
    as_density = from_density(cut, density_matrix(state))
    for orders in ((1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 0, 2), (2, 0, 0, 0)):
        pure = coherence_function(state, *orders)
        mixed = coherence_function(as_density, *orders)
        assert abs(pure - mixed) < 1e-10


MIXED_STATES = {
    # d_x != d_y, so a mix-up of the two mode axes cannot cancel
    "thermal-10x12": lambda: thermal_state(FockCutoff(10, 12), 0.5, 0.3),
    "evolved-30x30": lambda: evolve(
        thermal_state(FockCutoff(30, 30), 0.5, 0.3), DpaConfig(kt=0.2)),
}
ORDERS = [(m_x, m_y) for m_x in range(3) for m_y in range(3 - m_x)]


@pytest.mark.parametrize("name", MIXED_STATES)
def test_mixed_fit_and_coherences_match_the_dense_reference(name):
    state = MIXED_STATES[name]()
    cut, rho = state.cutoff, density_matrix(state)
    fit = fit_hops_criterion(state)
    p, residual = dense_fit(cut, rho)
    assert abs(fit.p_h - p) <= ALGEBRA_TOL * max(1.0, abs(p))
    assert abs(fit.residual - residual) <= ALGEBRA_TOL
    for bra in ORDERS:
        for ket in ORDERS:
            want = dense_coherence(cut, rho, *bra, *ket)
            got = coherence_function(state, *bra, *ket)
            assert abs(got - want) <= ALGEBRA_TOL * max(1.0, abs(want)), \
                (bra, ket)


def test_mixed_fit_and_coherence_build_no_dense_array():
    # the d^2 x d^2 density of a 40 x 40 state is 41 MB; read through it,
    # the fit traced 205 MB and the coherence 162 MB, and through d^2-tall
    # sector blocks 6.4 MB and 4.3 MB
    state = thermal_state(FockCutoff(40, 40), 0.5, 0.3)
    for call in (lambda: fit_hops_criterion(state),
                 lambda: coherence_function(state, 1, 1, 1, 1)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6


def test_mixed_fit_holds_one_block_at_a_time():
    # kept for every block until p_h was known, the fit's (M, T, B)
    # traced 7.15 MB here; one walk that holds one block at a time and
    # keeps only its sums (d_k, n_k, q_k, r_k, tr M^2) traces 0.76 MB
    state = thermal_state(FockCutoff(60, 60), 0.5, 0.3)
    tracemalloc.start()
    try:
        fit = fit_hops_criterion(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert fit.p_h == 0 and fit.residual > 0


def test_factorization_aligns_only_chains_that_meet():
    # the 12 chains move a sector block to five sectors; aligned on one
    # union of rows, about 80% of the stack was zeros and the check
    # traced 8.27 MB here, aligned per sector 2.9 MB
    state = thermal_state(FockCutoff(60, 60), 0.5, 0.3)
    tracemalloc.start()
    try:
        factorization_residuals(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_one_block_fit_builds_its_images_once(monkeypatch):
    # one walk over the blocks: each block's a_y C and a_x^dag C are built
    # once, and the blocks pool by the parallel rule, so a pure state (one
    # block) and a state of several blocks alike make 2 calls per block
    # (a second pass that formed E = T - p_h B rebuilt them, 4 per block)
    calls = []
    ladder_block = hopslab.polarization.ladder_block

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return ladder_block(*args, **kwargs)

    monkeypatch.setattr(hopslab.polarization, "ladder_block", counted)
    fit_hops_criterion(fock_state(FockCutoff(40, 40), 3, 2))
    assert len(calls) == 2
    calls.clear()
    state = thermal_state(FockCutoff(8, 8), 0.5, 0.3)
    fit_hops_criterion(state)
    assert len(calls) == 2 * len(list(state.row_blocks())) > 4


def test_factorization_check_walks_the_blocks_twice(monkeypatch):
    # the fit walks the blocks once and one Gram of the plain and x-only
    # chains once more (three walks when the Gammas and the x-moments were
    # two Grams); a sector block's images are aligned by n_x, with no
    # sort, and a vector's one block across sectors with one sort per walk
    walks, sorts = [], []
    row_blocks, unique = QuantumState.row_blocks, np.unique

    def counted_walk(self):
        walks.append(self)
        return row_blocks(self)

    def counted_sort(*args, **kwargs):
        sorts.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(QuantumState, "row_blocks", counted_walk)
    monkeypatch.setattr(np, "unique", counted_sort)
    state = thermal_state(FockCutoff(8, 9), 0.5, 0.3)
    blocks = len(list(state.row_blocks()))
    walks.clear()
    factorization_residuals(state)
    assert len(walks) == 2
    assert sorts == [] and blocks > 2
    factorization_residuals(
        random_low_excitation_state(FockCutoff(8, 9), 3, np.random.default_rng(2)))
    assert len(walks) == 4
    assert len(sorts) == 2


def test_mixed_hops_state_satisfies_the_criterion():
    # evolved |0,0> and |1,0> both obey a_y psi = p a_x^dag psi with
    # p = -i tanh 2kt; their 50/50 mixture of two sector blocks obeys
    # a_y rho = p a_x^dag rho, so the pooled fit finds the shared p
    cut, kt = FockCutoff(56, 56), 0.22
    pure = [evolve(fock_state(cut, n_x, 0), DpaConfig(kt=kt)) for n_x in (0, 1)]
    state = QuantumState.from_blocks(cut, {
        int(s.blocks[0].delta[0]): (s.blocks[0].columns[0], np.array([0.5]))
        for s in pure})
    assert state.vector is None and len(list(state.row_blocks())) == 2
    fit = fit_hops_criterion(state)
    assert abs(fit.p_h - (-1j * np.tanh(2 * kt))) < 1e-12
    assert fit.residual < 1e-12
    rows = factorization_residuals(state)
    assert max(row.reduced_residual for row in rows) < FACTORIZATION_TOL


def test_fit_and_coherences_load_no_masked_arrays():
    # np.union1d, and np.unique without return_inverse, import numpy.ma on
    # their first call: about 12 ms of every fresh `hopslab verify`
    source = str(Path(hopslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    probe = ("import sys\n"
             "from hopslab.fock import FockCutoff\n"
             "from hopslab.polarization import factorization_residuals\n"
             "from hopslab.squeezing import thermal_state\n"
             "factorization_residuals(thermal_state(FockCutoff(6, 7), 0.5, 0.3))\n"
             "print('numpy.ma' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_coherence_order_guard():
    state = fock_state(FockCutoff(6, 6), 0, 0)
    with pytest.raises(ValueError):
        coherence_function(state, 5, 0, 0, 0)
    with pytest.raises(ValueError):
        coherence_function(state, 0, 0, 3, 2)
    with pytest.raises(ValueError):
        coherence_function(state, -1, 0, 0, 0)


def test_coherence_orders_are_integers():
    # 1.5 raised a bare TypeError; a non-integer power is no ladder chain
    state = fock_state(FockCutoff(6, 6), 1, 0)
    for orders in ((1.5, 0, 0, 0), (0, 0, 0, 1.5), (0, -1, 1, 0)):
        with pytest.raises(ValueError, match="non-negative integers"):
            coherence_function(state, *orders)


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


@pytest.mark.parametrize("name", MIXED_STATES)
def test_factorization_matches_the_dense_reference(name):
    # the x-moment Tr[rho a_x^{m_y} a_x^dag^{m_x} a_x^{n_x} a_x^dag^{n_y}],
    # applied right to left to the dense rho
    state = MIXED_STATES[name]()
    cut, rho = state.cutoff, density_matrix(state)
    p, _ = dense_fit(cut, rho)
    rows = factorization_residuals(state)
    assert len(rows) == len(ORDERS) ** 2
    for row in rows:
        m_x, m_y, n_x, n_y = row.orders
        chain = ladder_rows(cut, n_y, 0, rho, adjoint=True)
        chain = ladder_rows(cut, n_x, 0, chain)
        chain = ladder_rows(cut, m_x, 0, chain, adjoint=True)
        chain = ladder_rows(cut, m_y, 0, chain)
        scale = np.conj(p) ** m_y * p ** n_y
        want = {
            "gamma": dense_coherence(cut, rho, m_x, m_y, n_x, n_y),
            "reduced": scale * np.trace(chain),
            "printed": scale * dense_coherence(cut, rho, m_x + m_y, 0,
                                               n_x + n_y, 0),
        }
        for field, value in want.items():
            got = getattr(row, field)
            assert abs(got - value) <= ALGEBRA_TOL * max(1.0, abs(value)), \
                (row.orders, field, got, value)
        assert row.reduced_residual == abs(row.gamma - row.reduced)
        assert row.printed_residual == abs(row.gamma - row.printed)
