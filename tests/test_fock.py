import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopslab import fock
from hopslab.dpa import boundary_leakage
from hopslab.fock import (
    FockCutoff,
    QuantumState,
    apply_ladders,
    fock_state,
    random_low_excitation_state,
    sector_table,
)
from dense_reference import (
    DimensionMismatchError,
    Operator,
    annihilation,
    commutator,
    creation,
    density_matrix,
    expectation,
    interior_indices,
    is_pure,
    matrix_exponential,
    number_operator,
    one_sector_state,
    pair_annihilation,
    pinched,
    variance,
)

COHERENCE = "entries outside its populated sectors' blocks"

PROPERTY_EXAMPLES = 40


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockCutoff(1, 4)
    with pytest.raises(ValueError):
        FockCutoff(4, 0)
    with pytest.raises(ValueError, match="integers"):
        FockCutoff(2.5, 3)
    cut = FockCutoff(3, 5)
    assert cut.dim == 15
    assert cut.index(2, 4) == 2 * 5 + 4
    assert cut.index(np.int64(2), 4) == 2 * 5 + 4
    for n_x in (1.5, 1.0):
        with pytest.raises(ValueError, match="integers"):
            cut.index(n_x, 0)
        with pytest.raises(ValueError, match="integers"):
            fock_state(cut, n_x, 0)
    with pytest.raises(ValueError, match="non-negative integers"):
        cut.index(-1, 0)


def test_fock_state_uses_row_major_index():
    cut = FockCutoff(4, 3)
    psi = fock_state(cut, 2, 1)
    assert psi.vector is not None
    nz = np.nonzero(psi.vector)[0]
    assert list(nz) == [2 * 3 + 1]


def test_annihilation_lowers_by_sqrt_n():
    cut = FockCutoff(4, 4)
    a_x = annihilation(cut, "x")
    lowered = a_x.matrix @ fock_state(cut, 1, 0).vector
    target = fock_state(cut, 0, 0).vector
    assert np.allclose(lowered, target)
    for k in range(4):
        assert np.allclose(a_x.matrix @ fock_state(cut, 0, k).vector, 0.0)
    two = a_x.matrix @ fock_state(cut, 2, 3).vector
    assert np.allclose(two, np.sqrt(2) * fock_state(cut, 1, 3).vector)


def test_number_operator_matches_ladder_product():
    cut = FockCutoff(5, 4)
    for mode in ("x", "y"):
        a = annihilation(cut, mode)
        built = a.dag() @ a
        assert np.allclose(built.matrix, number_operator(cut, mode).matrix)
    assert expectation(number_operator(cut, "x"), fock_state(cut, 2, 0)) == pytest.approx(2)


def test_pair_annihilation_equals_operator_product():
    cut = FockCutoff(5, 6)
    a_x, a_y = annihilation(cut, "x"), annihilation(cut, "y")
    assert np.allclose(pair_annihilation(cut).matrix, (a_y @ a_x).matrix)


def test_independent_modes_commute_exactly():
    cut = FockCutoff(4, 5)
    a_x, a_y = annihilation(cut, "x"), annihilation(cut, "y")
    assert np.max(np.abs(commutator(a_x, a_y).matrix)) == 0.0
    assert np.max(np.abs(commutator(a_x, a_y.dag()).matrix)) == 0.0


def test_canonical_commutator_is_identity_on_interior():
    cut = FockCutoff(6, 6)
    for mode in ("x", "y"):
        a = annihilation(cut, mode)
        comm = commutator(a, a.dag()).matrix
        idx = interior_indices(cut, 1)
        block = comm[np.ix_(idx, idx)]
        assert np.max(np.abs(block - np.eye(idx.size))) < 1e-12


def test_adjoint_is_involution():
    cut = FockCutoff(3, 3)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    op = Operator(cut, m)
    assert np.array_equal(op.dag().dag().matrix, op.matrix)


def test_cutoff_mismatch_raises():
    a = annihilation(FockCutoff(3, 3), "x")
    b = annihilation(FockCutoff(3, 4), "x")
    with pytest.raises(DimensionMismatchError):
        _ = a + b
    with pytest.raises(DimensionMismatchError):
        _ = a @ b
    with pytest.raises(DimensionMismatchError):
        expectation(a, fock_state(FockCutoff(3, 4), 0, 0))


def test_expectation_of_annihilation_on_fock_state_vanishes():
    cut = FockCutoff(4, 4)
    assert expectation(annihilation(cut, "x"), fock_state(cut, 2, 1)) == 0


def test_expectation_mixed_matches_pure():
    cut = FockCutoff(3, 3)
    rng = np.random.default_rng(3)
    psi = one_sector_state(cut, 0, rng)
    rho = QuantumState.from_density(cut, density_matrix(psi))
    op = number_operator(cut, "y")
    assert expectation(op, rho) == pytest.approx(expectation(op, psi), abs=1e-12)


def test_variance_zero_on_eigenstate():
    cut = FockCutoff(4, 4)
    assert variance(number_operator(cut, "x"), fock_state(cut, 3, 1)) == 0.0


def test_variance_rejects_non_hermitian():
    cut = FockCutoff(3, 3)
    with pytest.raises(ValueError):
        variance(annihilation(cut, "x"), fock_state(cut, 0, 0))


def test_variance_mixed_state_path():
    cut = FockCutoff(4, 4)
    # equal mixture of |0,0> and |2,0>: <N_x> = 1, <N_x^2> = 2
    rho = 0.5 * density_matrix(fock_state(cut, 0, 0)) \
        + 0.5 * density_matrix(fock_state(cut, 2, 0))
    state = QuantumState.from_density(cut, rho)
    assert variance(number_operator(cut, "x"), state) == pytest.approx(1.0, abs=1e-12)


def test_apply_ladders_matches_dense_powers_on_rectangular_cutoff():
    # d_x != d_y, so a mix-up of the two mode axes cannot cancel out
    cut = FockCutoff(7, 10)
    rng = np.random.default_rng(21)
    vec = rng.standard_normal(cut.dim) + 1j * rng.standard_normal(cut.dim)
    mat = (rng.standard_normal((cut.dim, 3))
           + 1j * rng.standard_normal((cut.dim, 3)))
    power = np.linalg.matrix_power
    a_x, a_y = annihilation(cut, "x").matrix, annihilation(cut, "y").matrix
    c_x, c_y = creation(cut, "x").matrix, creation(cut, "y").matrix
    for k_x in range(3):
        for k_y in range(3):
            lower = power(a_x, k_x) @ power(a_y, k_y)
            raise_ = power(c_x, k_x) @ power(c_y, k_y)
            for x in (vec, mat):
                got = apply_ladders(x, cut, k_x, k_y)
                assert got.shape == x.shape
                np.testing.assert_allclose(got, lower @ x, rtol=0, atol=1e-13)
                got = apply_ladders(x, cut, k_x, k_y, adjoint=True)
                np.testing.assert_allclose(got, raise_ @ x, rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        apply_ladders(vec[:-1], cut, 1)
    with pytest.raises(ValueError):
        apply_ladders(vec, cut, -1)


def test_matrix_exponential_of_zero_is_identity():
    cut = FockCutoff(3, 3)
    z = Operator(cut, np.zeros((9, 9)))
    assert np.allclose(matrix_exponential(z).matrix, np.eye(9))


def test_matrix_exponential_phase_flip():
    cut = FockCutoff(2, 2)
    n_x = number_operator(cut, "x")
    u = matrix_exponential(1j * np.pi * n_x)
    flipped = u.matrix @ fock_state(cut, 1, 0).vector
    assert np.allclose(flipped, -fock_state(cut, 1, 0).vector)


def test_matrix_exponential_unitarity_and_reversibility():
    cut = FockCutoff(6, 6)
    h = pair_annihilation(cut)
    h = h + h.dag()
    kt = 0.17
    u_fwd = matrix_exponential(-1j * kt * h)
    u_bwd = matrix_exponential(1j * kt * h)
    prod = u_fwd @ u_bwd
    assert np.max(np.abs(prod.matrix - np.eye(cut.dim))) < 1e-10


def test_matrix_exponential_rejects_non_finite():
    cut = FockCutoff(2, 2)
    m = np.zeros((4, 4))
    m[0, 0] = np.inf
    with pytest.raises(ValueError):
        matrix_exponential(Operator(cut, m))


def test_boundary_leakage_basics():
    # the band is the last EVOLUTION_MARGIN = 4 levels of either mode
    cut = FockCutoff(5, 6)
    assert boundary_leakage(fock_state(cut, 0, 0)) == 0.0
    assert boundary_leakage(fock_state(cut, 0, 1)) == 0.0
    assert boundary_leakage(fock_state(cut, 1, 0)) == 1.0
    assert boundary_leakage(fock_state(cut, 0, 2)) == 1.0
    assert boundary_leakage(fock_state(cut, 4, 5)) == 1.0


def test_from_density_leaves_the_callers_array_writable():
    cut = FockCutoff(3, 3)
    rho = np.zeros((cut.dim, cut.dim), dtype=complex)
    rho[0, 0] = 1.0
    state = QuantumState.from_density(cut, rho)
    rho[0, 1] = 0.5
    assert state.density[0, 1] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        state.density[0, 1] = 0.5


def test_hermiticity_check_is_cut_by_the_slab_bound(monkeypatch):
    # 64 entries per slab: one row of the 64 x 64 matrix per step
    monkeypatch.setattr(fock, "STACK_SLAB", 64)
    cut = FockCutoff(8, 8)
    rng = np.random.default_rng(3)
    rho = pinched(cut, sum(
        0.5 * density_matrix(random_low_excitation_state(cut, 6, rng))
        for _ in range(2)))
    assert not is_pure(QuantumState.from_density(cut, rho))
    skew = rho.copy()
    skew[-1, 2] += 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        QuantumState.from_density(cut, skew)


def test_state_validation_rejects_bad_inputs():
    cut = FockCutoff(2, 2)
    with pytest.raises(ValueError):
        QuantumState.from_vector(cut, np.array([1.0, 1.0, 0.0, 0.0]))
    herm_bad = np.eye(4, dtype=complex)
    herm_bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        QuantumState.from_density(cut, herm_bad / np.trace(herm_bad))
    with pytest.raises(ValueError):
        QuantumState.from_density(cut, 0.7 * np.eye(4) / 4)
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        QuantumState.from_density(cut, negative)
    # one rule for both: total population |v|^2 or trace 1 within 1e-12
    vacuum = fock_state(cut, 0, 0).vector
    QuantumState.from_vector(cut, (1.0 + 3e-13) * vacuum)
    with pytest.raises(ValueError, match="trace"):
        QuantumState.from_vector(cut, (1.0 + 7e-13) * vacuum)
    for bad in (np.nan, np.inf):
        vector = vacuum.copy()
        vector[1] = bad
        with pytest.raises(ValueError, match="trace"):
            QuantumState.from_vector(cut, vector)
        for entry in ((1, 1), (0, 1)):
            rho = density_matrix(fock_state(cut, 0, 0))
            rho[entry] = bad
            with pytest.raises(ValueError, match="finite"):
                QuantumState.from_density(cut, rho)


def test_density_positivity_check_full_matrix_path():
    # a projector on every sector of 2 x 2 is a full matrix: a state is
    # its sector blocks, so it is refused, with or without a negative
    # admixture; its sector blocks alone are a state
    cut = FockCutoff(2, 2)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    w = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    bad = 1.1 * np.outer(v, v.conj()) - 0.1 * np.outer(w, w.conj())
    for full in (rho, bad):
        with pytest.raises(ValueError, match=COHERENCE):
            QuantumState.from_density(cut, full)
    assert not is_pure(QuantumState.from_density(cut, pinched(cut, rho)))


def test_density_positivity_check_sector_blocks():
    # a density without inter-sector coherences is checked block by
    # block, at any size (here 33^2 = 1089)
    cut = FockCutoff(33, 33)
    vac, pair = cut.index(0, 0), cut.index(1, 1)

    def density(coherence):
        rho = np.zeros((cut.dim, cut.dim), dtype=complex)
        rho[vac, vac] = rho[pair, pair] = 0.5
        rho[vac, pair] = rho[pair, vac] = coherence
        return rho

    assert not is_pure(QuantumState.from_density(cut, density(0.4)))
    # block [[0.5, 0.9], [0.9, 0.5]] has eigenvalue -0.4
    with pytest.raises(ValueError, match="eigenvalue"):
        QuantumState.from_density(cut, density(0.9))


def test_density_positivity_check_covers_unpopulated_sectors():
    # |1,0> and |2,1> share a sector whose diagonal is empty, so no block
    # is built for it; its coherence lies outside every populated block
    cut = FockCutoff(5, 5)
    rho = np.zeros((cut.dim, cut.dim), dtype=complex)
    rho[0, 0] = 1.0
    low, high = cut.index(1, 0), cut.index(2, 1)
    rho[low, high] = rho[high, low] = 0.1
    with pytest.raises(ValueError, match=COHERENCE):
        QuantumState.from_density(cut, rho)


def test_from_density_rejects_entries_between_sectors(monkeypatch):
    cut = FockCutoff(5, 5)
    vac, pair, single = cut.index(0, 0), cut.index(1, 1), cut.index(1, 0)

    def density(*entries):
        rho = np.zeros((cut.dim, cut.dim), dtype=complex)
        rho[vac, vac] = rho[pair, pair] = rho[single, single] = 1 / 3
        for i, j in entries:
            rho[i, j] = rho[j, i] = 0.1
        return QuantumState.from_density(cut, rho)

    # inside a populated sector's block: accepted
    for entries in ((), ((vac, pair),)):
        assert not is_pure(density(*entries))
    # between populated sectors: refused, before any block is decomposed
    def no_eigh(*args):
        raise AssertionError("a block is decomposed")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match=COHERENCE):
        density((vac, single))


def test_density_positivity_check_coherent_density_at_any_size():
    # |0,0> and |1,0> lie in different sectors, so the coherence between
    # them sits outside every block: refused at any size (33^2 = 1089),
    # positive or not
    cut = FockCutoff(33, 33)
    vac, single = cut.index(0, 0), cut.index(1, 0)

    def density(coherence):
        rho = np.zeros((cut.dim, cut.dim), dtype=complex)
        rho[vac, vac] = rho[single, single] = 0.5
        rho[vac, single] = rho[single, vac] = coherence
        return rho

    assert not is_pure(QuantumState.from_density(cut, density(0.0)))
    # [[0.5, 0.9], [0.9, 0.5]] has eigenvalue -0.4, though each
    # one-entry block is positive
    for coherence in (0.4, 0.9):
        with pytest.raises(ValueError, match=COHERENCE):
            QuantumState.from_density(cut, density(coherence))


def test_from_blocks_checks_weights_trace_and_shapes():
    # on 5 x 4, sector delta = 0 holds |0,0> .. |3,3>; deltas run -3..4
    cut = FockCutoff(5, 4)
    eye = np.eye(4)
    state = QuantumState.from_blocks(cut, {0: (eye, [0.5, 0.3, 0.2, 0.0])})
    np.testing.assert_array_equal(
        state.populations()[[cut.index(m, m) for m in range(4)]],
        np.sqrt([0.5, 0.3, 0.2, 0.0]) ** 2)
    # G need not be orthonormal: the trace is sum_r p_r |G_r|^2, and one
    # column of weight 1 is a pure block
    v = np.array([0.6, 0.0, 0.8j, 0.0])
    pure = QuantumState.from_blocks(cut, {0: (v[:, None], np.ones(1))})
    np.testing.assert_allclose(
        pure.populations()[[cut.index(m, m) for m in range(4)]],
        np.abs(v) ** 2, rtol=0, atol=1e-16)
    with pytest.raises(ValueError, match="trace"):
        QuantumState.from_blocks(cut, {0: (2 * v[:, None], np.ones(1))})
    with pytest.raises(ValueError, match="eigenvalue"):
        QuantumState.from_blocks(cut, {0: (eye, [0.5, 0.5, 2e-10, -2e-10])})
    with pytest.raises(ValueError, match="trace"):
        QuantumState.from_blocks(cut, {0: (eye, [0.5, 0.4, 0.0, 0.0])})
    for bad in ({0: (np.eye(3), [0.5, 0.3, 0.2])}, {0: (eye, [1.0])},
                {5: (np.eye(1), [1.0])}, {-4: (np.eye(1), [1.0])}):
        with pytest.raises(ValueError, match="not .G, p. of a sector"):
            QuantumState.from_blocks(cut, bad)


def test_from_blocks_clamps_as_from_density():
    # -5e-11 lies inside EIGENVALUE_FLOOR: the weight clamps to 0 and the
    # kept weights scale back to the trace, in both constructors
    cut = FockCutoff(5, 4)
    weights = [0.6 + 5e-11, 0.4, -5e-11, 0.0]
    state = QuantumState.from_blocks(cut, {0: (np.eye(4), weights)})
    diagonal = np.zeros(cut.dim, dtype=complex)
    diagonal[[cut.index(m, m) for m in range(4)]] = weights
    dense = QuantumState.from_density(cut, np.diag(diagonal))
    for clamped in (state, dense):
        populations = clamped.populations()
        assert populations.min() == 0.0
        assert populations.sum() == pytest.approx(1.0, rel=0, abs=1e-15)
        np.testing.assert_allclose(
            populations[[cut.index(0, 0), cut.index(1, 1)]],
            np.array(weights[:2]) / (1 + 5e-11), rtol=1e-15)
    # a clamped column counts with its norm, |G_r|^2 = 4 here
    g = np.zeros((4, 2))
    g[0, 0] = g[1, 1] = 2.0
    wide = QuantumState.from_blocks(cut, {0: (g, [(1 + 1e-10) / 4, -2.5e-11])})
    assert wide.populations()[cut.index(0, 0)] == pytest.approx(1.0, abs=1e-15)


def test_sector_table_partitions_the_space():
    cut = FockCutoff(3, 5)
    table = sector_table(cut)
    a_pair = pair_annihilation(cut).matrix
    real = table.indices >= 0
    n_x, n_y = np.divmod(table.indices, cut.d_y)
    np.testing.assert_array_equal(table.delta, np.arange(-4, 3))
    assert np.all((n_x - n_y == table.delta[:, None])[real])
    rows = np.broadcast_to(np.arange(table.delta.size)[:, None], real.shape)
    np.testing.assert_array_equal(table.label[table.indices[real]], rows[real])
    # the measure's photon-number row
    np.testing.assert_array_equal(table.diagonal[2],
                                  np.where(real, n_x + n_y, 0))
    # a sector's states run consecutively from its first
    assert np.all(real[:, :-1] >= real[:, 1:])
    # the pair band 2 w_m holds the a_y a_x weights, 0 past the last step
    weights = table.pair[:, :-1] / 2
    steps = real[:, 1:]
    np.testing.assert_allclose(
        weights[steps],
        a_pair[table.indices[:, :-1][steps], table.indices[:, 1:][steps]],
        atol=1e-15)
    assert not weights[~steps].any()
    assert sorted(table.indices[real]) == list(range(cut.dim))
    # the edge band: the last EVOLUTION_MARGIN = 4 states of each sector
    np.testing.assert_array_equal(
        table.diagonal[1], real & (real.sum(axis=1, keepdims=True)
                                   - np.arange(real.shape[1]) <= 4))


def test_interior_indices_small_example():
    cut = FockCutoff(3, 3)
    idx = interior_indices(cut, 1)
    # survivors: n_x, n_y in {0, 1}
    assert sorted(idx) == [0, 1, 3, 4]


def test_evolution_preserves_trace_and_positivity():
    cut = FockCutoff(6, 6)
    h = pair_annihilation(cut)
    h = h + h.dag()
    u = matrix_exponential(-1j * 0.2 * h).matrix
    rho = 0.5 * density_matrix(fock_state(cut, 0, 0)) \
        + 0.5 * density_matrix(fock_state(cut, 1, 1))
    evolved = u @ rho @ u.conj().T
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-10)
    assert is_pure(QuantumState.from_density(cut, evolved)) is False


CUTOFF_DIMS = st.integers(min_value=3, max_value=7)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=PROPERTY_EXAMPLES)
@given(d_x=CUTOFF_DIMS, d_y=CUTOFF_DIMS, seed=SEEDS)
def test_property_canonical_commutation_expectation(d_x, d_y, seed):
    # states clear of the top level see <[a, a^dag]> = 1 exactly
    cut = FockCutoff(d_x, d_y)
    rng = np.random.default_rng(seed)
    psi = random_low_excitation_state(cut, min(d_x, d_y) - 2, rng)
    for mode in ("x", "y"):
        a = annihilation(cut, mode)
        val = expectation(commutator(a, a.dag()), psi)
        assert abs(val - 1.0) < 1e-12


@settings(max_examples=PROPERTY_EXAMPLES)
@given(d_x=CUTOFF_DIMS, d_y=CUTOFF_DIMS, seed=SEEDS)
def test_property_hermitian_expectation_is_real(d_x, d_y, seed):
    cut = FockCutoff(d_x, d_y)
    rng = np.random.default_rng(seed)
    psi = random_low_excitation_state(cut, min(d_x, d_y) - 1, rng)
    h = pair_annihilation(cut)
    h = h + h.dag()
    val = expectation(h, psi)
    assert abs(val.imag) < 1e-10


@settings(max_examples=PROPERTY_EXAMPLES)
@given(seed=SEEDS)
def test_property_variance_nonnegative(seed):
    cut = FockCutoff(5, 5)
    rng = np.random.default_rng(seed)
    psi = random_low_excitation_state(cut, 3, rng)
    h = pair_annihilation(cut)
    h = h + h.dag()
    assert variance(h, psi) >= 0.0
