"""Tests for parametric-amplifier evolution and moment oracles."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopslab import fock
from hopslab.dpa import (
    EVOLUTION_MARGIN,
    MOMENT_NAMES,
    DpaConfig,
    MomentReport,
    TruncationError,
    _propagate,
    boundary_leakage,
    evolve,
    heisenberg_moments,
    oracle_moments,
    suggest_cutoff,
    thermal_heisenberg_moments,
)
from hopslab.fock import (
    FockCutoff,
    QuantumState,
    fock_state,
    random_low_excitation_state,
    sector_table,
)
from hopslab.polarization import (
    fit_hops_criterion,
    hidden_moments,
    hidden_sums,
)
from hopslab.squeezing import ThermalMixtureModel, sweep, thermal_state
from dense_reference import (
    HeisenbergSolution,
    build_hidden,
    density_matrix,
    expectation,
    interaction_hamiltonian,
    matrix_exponential,
    number_operator,
    one_sector_state,
    pinched,
    variance,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SMALL_KT = st.floats(min_value=0.0, max_value=0.3)

VACUUM_MEAN_NX_KT022 = 0.2064206545246978  # sinh(0.44)^2, frozen


def test_config_validation():
    with pytest.raises(ValueError):
        DpaConfig(kt=math.inf)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="kt must be finite"):
            heisenberg_moments(0, 0, bad)
    # photon numbers are integers, occupations finite; integer-valued
    # floats are not photon numbers
    for bad in (math.nan, math.inf, -1, 1.0):
        with pytest.raises(ValueError, match="photon numbers"):
            heisenberg_moments(bad, 0, 0.1)
    for bad in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="occupations"):
            thermal_heisenberg_moments(bad, 0.0, 0.1)
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
    # d_x != d_y, so a mix-up of the two mode axes cannot cancel out;
    # several columns per sector
    cut = FockCutoff(7, 10)
    rng = np.random.default_rng(4)
    rho = sum(w * density_matrix(random_low_excitation_state(cut, 3, rng))
              for w in (0.5, 0.3, 0.2))
    config = DpaConfig(kt=0.13, leakage_tol=0.999)
    return QuantumState.from_density(cut, pinched(cut, rho)), config


def _short_sector_mixture():
    # full support on a 5 x 9 cutoff: its outer sectors are shorter
    # than EVOLUTION_MARGIN, so each of their states is an edge state
    cut = FockCutoff(5, 9)
    rng = np.random.default_rng(8)
    g = rng.standard_normal((cut.dim, 6)).view(complex)
    rho = pinched(cut, g @ g.conj().T)
    return (QuantumState.from_density(cut, rho / np.trace(rho).real),
            DpaConfig(kt=0.11, leakage_tol=0.999))


def _dilute_thermal():
    # weights down to ~1e-22, near-degenerate with zero
    return (thermal_state(FockCutoff(16, 16), 0.035, 0.035),
            DpaConfig(kt=0.3, leakage_tol=0.999))


STACK_MAKERS = {"rectangular": _rectangular_mixture,
                 "short-sectors": _short_sector_mixture,
                 "thermal-0.035": _dilute_thermal}
STACK_CASES = pytest.mark.parametrize(
    "make_case", list(STACK_MAKERS.values()), ids=list(STACK_MAKERS))


def _dense_evolution(state, config):
    u = matrix_exponential(
        (-2j * config.kt) * interaction_hamiltonian(state.cutoff)).matrix
    if state.vector is not None:
        return QuantumState.from_vector(state.cutoff, u @ state.vector)
    return QuantumState.from_density(state.cutoff,
                                     u @ state.density @ u.conj().T)


def _evolved_slabs(state, config):
    """The state's slabs, with their columns evolved to config.kt."""
    return tuple(
        dataclasses.replace(slab, columns=_propagate(slab, config.kt))
        for slab in state.blocks)


def _gathered(stack, array):
    """array[i] at each entry of the stack's sectors, zero in the padding."""
    return np.where(stack.indices >= 0, array[stack.indices], 0.0)


def test_blocks_are_weighted_columns():
    state, _ = _rectangular_mixture()
    slabs = state.blocks
    assert slabs is state.blocks
    assert sum(np.vdot(stack.columns, stack.columns).real
               for stack in slabs) == pytest.approx(1.0, abs=1e-14)
    for stack in slabs:
        g, idx = stack.columns, stack.indices
        for array in (g, idx, stack.diagonal, stack.pair, stack.pair_square,
                      *stack.eigenpairs, stack.eigencolumns):
            assert not array.flags.writeable
        real = (idx >= 0)[:, :, None] & (idx >= 0)[:, None, :]
        dense_blocks = np.where(real, state.density[idx[:, :, None],
                                                    idx[:, None, :]], 0.0)
        # the columns are G sqrt(p): their outer product is the block
        np.testing.assert_allclose(
            g @ g.conj().transpose(0, 2, 1), dense_blocks, rtol=0, atol=1e-14)
    # full support, so a padding index (-1) would read a nonzero entry
    v = np.random.default_rng(5).standard_normal(2 * state.cutoff.dim)
    pure = QuantumState.from_vector(
        state.cutoff, v.view(complex) / np.linalg.norm(v))
    for stack in pure.blocks:
        assert stack.columns.shape == stack.indices.shape + (1,)
        np.testing.assert_array_equal(stack.columns[:, :, 0],
                                      _gathered(stack, pure.vector))


@pytest.mark.parametrize("make_state", [
    lambda: thermal_state(FockCutoff(50, 50), 0.5, 0.5),
    lambda: random_low_excitation_state(FockCutoff(160, 170), 150,
                                        np.random.default_rng(8)),
], ids=["thermal-d50", "vector"])
def test_slabs_pad_only_to_their_own_longest_sector(make_state):
    state = make_state()
    slabs = state.blocks
    assert len(slabs) > 1
    # consecutive slabs cover the populated sectors once, in table order
    table = sector_table(state.cutoff)
    populated = np.flatnonzero(np.bincount(
        table.label[state.populations() != 0.0], minlength=table.delta.size))
    assert [s for stack in slabs for s in stack.positions] == \
        populated.tolist()
    for stack in slabs:
        count, length = stack.indices.shape
        assert (stack.indices >= 0).sum(axis=1).max() == length
        assert stack.columns.shape[:2] == (count, length)
        assert stack.columns.size <= fock.STACK_SLAB or count == 1
    if state.vector is None:
        # 3.96 MB when every slab was cut from one stack padded to the
        # longest populated sector
        assert sum(stack.columns.nbytes for stack in slabs) < 2.5e6


@pytest.mark.parametrize("make_state", [
    lambda cut: random_low_excitation_state(cut, 3, np.random.default_rng(6)),
    lambda cut: thermal_state(cut, 0.3, 0.6),
    lambda cut: _short_sector_mixture()[0],
    lambda cut: thermal_state(FockCutoff(16, 16), 0.035, 0.035),
], ids=["vector", "density", "short-sectors", "thermal-0.035"])
def test_block_populations_are_read_only_diagonals(make_state):
    state = make_state(FockCutoff(12, 14))
    config = DpaConfig(kt=0.2, leakage_tol=0.9)
    evolved = _evolved_slabs(state, config)
    dense = _dense_evolution(state, config)
    cut = state.cutoff
    n_x, n_y = np.divmod(np.arange(cut.dim), cut.d_y)
    edge = (n_x >= cut.d_x - EVOLUTION_MARGIN) | \
        (n_y >= cut.d_y - EVOLUTION_MARGIN)
    for slabs, whole in ((state.blocks, state), (evolved, dense)):
        diagonal_of_whole = np.diag(density_matrix(whole)).real
        for stack in slabs:
            assert not stack.columns.flags.writeable
            g = stack.columns
            np.testing.assert_allclose(
                np.einsum("smr,smr->sm", g, g.conj()).real,
                _gathered(stack, diagonal_of_whole), rtol=0, atol=1e-12)
        # unit trace, evolved or not, for vectors and densities alike,
        # and the edge population is the whole's within the margin
        sums = [hidden_sums(stack, stack.columns) for stack in slabs]
        assert sum(row[0] for row in sums) == pytest.approx(1.0, abs=1e-14)
        assert sum(row[1] for row in sums) == pytest.approx(
            diagonal_of_whole[edge].sum(), rel=1e-12, abs=1e-15)


def _sectors(state):
    """The number of sectors in the state's slabs."""
    return sum(len(stack.positions) for stack in state.blocks)


def test_thermal_sweep_decomposes_blocks_once(monkeypatch):
    cut = FockCutoff(10, 10)
    model = ThermalMixtureModel(0.3, 0.6)
    sweep(model, 0.5, 2, with_oracle=True, cutoff=cut)  # warm per-cutoff caches
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(*args, _original=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)

    def decompositions(steps):
        calls.clear()
        sweep(model, 0.5, steps, with_oracle=True, cutoff=cut)
        return len(calls)

    # the chains' eigenpairs are cached per cutoff, and a thermal
    # state's blocks are diagonal: a warm sweep decomposes nothing
    assert decompositions(20) == decompositions(2) == 0
    calls.clear()
    state = thermal_state(cut, 0.3, 0.6)
    assert _sectors(state) == 19 and len(calls) == 0
    # a block state evolves as its slabs, U G: nothing is decomposed
    calls.clear()
    evolved = evolve(state, DpaConfig(kt=0.2, leakage_tol=0.9))
    assert _sectors(evolved) == 19 and len(calls) == 0


def test_eigenpairs_are_computed_per_populated_chain(monkeypatch):
    # a Fock state populates one sector: its first row decomposes that
    # sector's chain alone, not every sector of the cutoff (95 at d = 48)
    fock._chain_eigenpairs.cache_clear()
    calls = []

    def counting(*args, _original=np.linalg.eigh, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    config = DpaConfig(kt=0.2)

    def first_row_decompositions(cutoff, n_x, n_y):
        calls.clear()
        oracle_moments(fock_state(cutoff, n_x, n_y), config)
        return len(calls)

    assert first_row_decompositions(FockCutoff(48, 48), 1, 0) == 1
    # the chain depends on |delta| and its length alone: delta = -1
    # shares it, and so does a cutoff that gives the sector 47 states
    assert first_row_decompositions(FockCutoff(48, 48), 0, 1) == 0
    assert first_row_decompositions(FockCutoff(48, 64), 1, 0) == 0
    # at d = 64 the sector holds 63 states: a chain of its own
    assert first_row_decompositions(FockCutoff(64, 64), 1, 0) == 1
    assert fock._chain_eigenpairs.cache_info().currsize == 2


def test_eigenpairs_do_not_read_the_measure():
    state = thermal_state(FockCutoff(12, 9), 0.4, 0.7)
    delta = sector_table(state.cutoff).delta
    for slab in state.blocks:
        # sectors of several |delta| and lengths
        assert len(set(np.abs(delta[list(slab.positions)]).tolist())) > 1
        blind = dataclasses.replace(
            slab, diagonal=np.zeros_like(slab.diagonal))
        for got, want in zip(blind.eigenpairs, slab.eigenpairs):
            np.testing.assert_array_equal(got, want)


def test_slab_constants_keep_one_row_per_table_row():
    state = thermal_state(FockCutoff(12, 9), 0.4, 0.7)
    table = sector_table(state.cutoff)
    for slab in state.blocks:
        positions = list(slab.positions)
        length = slab.indices.shape[1]
        np.testing.assert_array_equal(slab.delta, table.delta[positions])
        np.testing.assert_array_equal(
            slab.diagonal, table.diagonal[:, positions, :length].reshape(
                len(table.diagonal), -1))
    # a measure row added to the table reaches every slab
    slab = state.blocks[0]
    wider = dataclasses.replace(table, diagonal=np.concatenate(
        [table.diagonal, table.diagonal[2:3] ** 2]))
    grown = fock._slab(wider, np.array(slab.positions), slab.indices,
                       slab.columns)
    assert grown.diagonal.shape == (6, slab.diagonal.shape[1])
    np.testing.assert_array_equal(grown.diagonal[:5], slab.diagonal)


def test_oracle_checks_the_blocks_it_evolves():
    # a slab is G G^dag, so no built state holds a negative eigenvalue;
    # a trace other than 1 fails even a state built directly, from slabs
    cut = FockCutoff(16, 16)
    with pytest.raises(ValueError, match="trace"):
        QuantumState(cut, tuple(
            dataclasses.replace(slab, columns=math.sqrt(1.1) * slab.columns)
            for slab in fock_state(cut, 0, 0).blocks))
    # inside EIGENVALUE_FLOOR: from_density accepts it, so it evolves
    rho = np.zeros((cut.dim, cut.dim), dtype=complex)
    rho[cut.index(0, 0), cut.index(0, 0)] = 1.0 + 5e-11
    rho[cut.index(1, 1), cut.index(1, 1)] = -5e-11
    accepted = QuantumState.from_density(cut, rho)
    config = DpaConfig(kt=0.1)
    assert oracle_moments(accepted, config).valid
    evolve(accepted, config)


def _thermal_24():
    return (thermal_state(FockCutoff(24, 24), 0.5, 0.5),
            DpaConfig(kt=0.3, leakage_tol=0.999))


@pytest.mark.parametrize(
    "make_case", [*STACK_MAKERS.values(), _thermal_24],
    ids=[*STACK_MAKERS, "thermal-0.5-d24"])
def test_rows_agree_across_many_slabs(make_case, monkeypatch):
    # a state is cut into slabs when it is built, so each state is
    # built after STACK_SLAB is set
    def rows(state, config):
        evolved = evolve(state, config)
        means, variances = hidden_moments(state)
        dense = evolved.vector if evolved.vector is not None \
            else evolved.density
        return (oracle_moments(state, config), dense,
                means + variances + (boundary_leakage(evolved),))

    monkeypatch.setattr(fock, "STACK_SLAB", 2**62)
    state, config = make_case()
    assert len(state.blocks) == 1
    whole, whole_evolved, whole_state = rows(state, config)
    monkeypatch.setattr(fock, "STACK_SLAB", 64)
    state, config = make_case()
    assert len(state.blocks) > 2
    split, split_evolved, split_state = rows(state, config)
    assert split.valid == whole.valid
    for got, want in zip(split.means + split.variances + (split.leakage,),
                         whole.means + whole.variances + (whole.leakage,)):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
    np.testing.assert_allclose(split_evolved, whole_evolved,
                               rtol=0, atol=1e-13)
    # the state's own moments and the evolved state's certificate read
    # every slab too
    for got, want in zip(split_state, whole_state):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_eigenbasis_belongs_to_its_state():
    # two states on the same sector: an eigenbasis found by the sectors
    # alone, not by the state, would give one of them the other's rows
    cut = FockCutoff(16, 16)

    def superposition():
        v = np.zeros(cut.dim, dtype=complex)
        v[[cut.index(1, 0), cut.index(2, 1)]] = math.sqrt(0.5)
        return QuantumState.from_vector(cut, v)

    def single():
        return fock_state(cut, 1, 0)

    first, second = single(), superposition()
    assert first.blocks[0].positions == second.blocks[0].positions
    config = DpaConfig(kt=0.2)
    for _ in range(2):
        for state, make in ((first, single), (second, superposition)):
            assert oracle_moments(state, config) == oracle_moments(make(),
                                                                   config)
    assert oracle_moments(first, config) != oracle_moments(second, config)
    # the eigenbasis dies with its state's slab and keeps neither alive
    slab = weakref.ref(first.blocks[0])
    basis = weakref.ref(first.blocks[0].eigencolumns)
    del first
    gc.collect()
    assert slab() is None and basis() is None


def test_first_row_computes_the_eigenbasis_once(monkeypatch):
    state = thermal_state(FockCutoff(16, 16), 0.3, 0.6)
    slabs = state.blocks
    assert not any({"eigenpairs", "eigencolumns"} & vars(slab).keys()
                   for slab in slabs)
    oracle_moments(state, DpaConfig(kt=0.1))
    kept = [(slab.eigenpairs, slab.eigencolumns) for slab in slabs]
    for (values, vectors), moved in kept:
        for array in (values, vectors, moved):
            assert not array.flags.writeable

    def no_more(*args):
        raise AssertionError("the eigenbasis is computed again")

    # later rows and an evolve find the very same arrays on the slabs
    monkeypatch.setattr(fock, "_chain_eigenpairs", no_more)
    oracle_moments(state, DpaConfig(kt=0.3))
    evolve(state, DpaConfig(kt=0.2, leakage_tol=0.9))
    for slab, (pairs, moved) in zip(state.blocks, kept):
        assert slab.eigenpairs is pairs and slab.eigencolumns is moved


def test_density_evolution_matches_dense_exponential():
    state, config = _short_sector_mixture()
    evolved = evolve(state, config)
    u = matrix_exponential(
        (-2j * config.kt) * interaction_hamiltonian(state.cutoff)).matrix
    np.testing.assert_allclose(
        evolved.density, u @ state.density @ u.conj().T, rtol=0, atol=1e-13)


@STACK_CASES
def test_density_oracle_matches_dense_hidden_set(make_case):
    state, config = make_case()
    report = oracle_moments(state, config)
    evolved = _dense_evolution(state, config)
    hidden = build_hidden(state.cutoff).as_tuple()
    for op, mean, var in zip(hidden, report.means, report.variances):
        assert mean == pytest.approx(expectation(op, evolved).real, abs=1e-12)
        assert var == pytest.approx(variance(op, evolved), abs=1e-12)
    # the certificate: population within EVOLUTION_MARGIN levels of an edge
    cut = state.cutoff
    n_x, n_y = np.divmod(np.arange(cut.dim), cut.d_y)
    edge = ((n_x >= cut.d_x - EVOLUTION_MARGIN)
            | (n_y >= cut.d_y - EVOLUTION_MARGIN))
    leakage = np.diag(evolved.density).real[edge].sum()
    assert report.leakage == pytest.approx(leakage, abs=1e-12)
    assert boundary_leakage(evolve(state, config)) == pytest.approx(
        leakage, abs=1e-12)


def test_moderate_time_keeps_leakage_small():
    cut = FockCutoff(40, 40)
    evolved = evolve(fock_state(cut, 0, 0), DpaConfig(kt=0.3))
    assert boundary_leakage(evolved) < 1e-8


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
    assert report.means[1] == pytest.approx(-1.0, abs=1e-9)
    assert report.variances[1] == pytest.approx(0.0, abs=1e-9)
    assert heisenberg_moments(2, 1, 0.3).means[1] == -1.0


def test_vacuum_pair_variance_is_unit():
    cut = FockCutoff(24, 24)
    report = oracle_moments(fock_state(cut, 0, 0), DpaConfig(kt=0.1))
    assert report.variances[2] == pytest.approx(1.0, abs=1e-9)


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


def test_small_time_variances_do_not_cancel():
    # Var H0 = s4^2 K is 1.1e-6 at kt = 1e-4 beside <H0>^2 = 9:
    # <H0^2> - <H0>^2 kept only 8 digits of it
    report = oracle_moments(fock_state(FockCutoff(64, 64), 1, 2),
                            DpaConfig(kt=1e-4))
    closed = heisenberg_moments(1, 2, 1e-4)
    assert report.variances[0] == pytest.approx(closed.variances[0],
                                                rel=1e-12, abs=0.0)


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
        MomentReport(kt=0.0, means=(0.0, 0.0, 0.0, 0.0),
                     variances=(-0.1, 0.0, 1.0, 1.0), leakage=0.0)


def test_moment_report_rejects_non_finite_moments():
    # nbar (1 + nbar) overflows the variances while the means stay finite
    with pytest.raises(ValueError, match="not finite"):
        thermal_heisenberg_moments(1e300, 0.5, 0.1)
    with pytest.raises(ValueError, match="not finite"):
        MomentReport(kt=0.0, means=(math.nan, 0.0, 0.0, 0.0),
                     variances=(1.0, 0.0, 1.0, 1.0), leakage=0.0)


def test_reports_hold_tuples_of_floats():
    cut = FockCutoff(16, 16)
    for report in (heisenberg_moments(1, 2, 0.2),
                   thermal_heisenberg_moments(0.3, 0.0, 0.2),
                   oracle_moments(fock_state(cut, 1, 2), DpaConfig(kt=0.2)),
                   oracle_moments(thermal_state(cut, 0.3, 0.1),
                                  DpaConfig(kt=0.2))):
        for moments in (report.means, report.variances):
            assert type(moments) is tuple and len(moments) == 4
            assert all(type(value) is float for value in moments)
        assert len(report.means + report.variances) == len(MOMENT_NAMES)


def test_clamped_weights_keep_the_trace():
    # -5e-11 lies inside EIGENVALUE_FLOOR, so from_density accepts the
    # state; its weight clamps to 0 and the vacuum's 1 + 5e-11 scales
    # back to the trace, 1, so the rows are the vacuum's own
    cut = FockCutoff(16, 16)
    vac, single = cut.index(0, 0), cut.index(1, 0)
    rho = np.zeros((cut.dim, cut.dim), dtype=complex)
    rho[vac, vac], rho[single, single] = 1.0 + 5e-11, -5e-11
    state = QuantumState.from_density(cut, rho)
    assert [stack.positions for stack in state.blocks] == [
        (cut.d_y - 1, cut.d_y)]
    np.testing.assert_array_equal(state.blocks[0].columns[1], 0.0)
    vacuum = fock_state(cut, 0, 0)
    for kt in (0.0, 0.1, 0.3):
        config = DpaConfig(kt=kt, leakage_tol=1e-5)
        report = oracle_moments(state, config)
        assert report.valid
        want = oracle_moments(vacuum, config)
        for got, expected in zip(report.means + report.variances,
                                 want.means + want.variances):
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


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


@pytest.mark.parametrize("n_max, kt, message", [
    (-10, 0.1, "photon numbers"),
    (2.5, 0.1, "photon numbers"),
    (0, math.nan, "kt must be finite"),
    (0, math.inf, "kt must be finite"),
    # d = 1.4e35 levels, and an overflowing sinh(2 kt)^2
    (0, 20.0, "impractical"),
    (0, 200.0, "impractical"),
])
def test_suggest_cutoff_rejects_bad_input(n_max, kt, message):
    with pytest.raises(ValueError, match=message):
        suggest_cutoff(n_max, kt)


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
    state = one_sector_state(cut, 1, rng)
    config = DpaConfig(kt=0.2, leakage_tol=0.9)
    pure = oracle_moments(state, config)
    mixed = oracle_moments(
        QuantumState.from_density(cut, density_matrix(state)), config)
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
        residual = sum(second[1:]) - second[0] - 2.0 * (1.0 + report.means[0])
        assert abs(residual) <= 1e-9 * max(1.0, *second), (kt, residual)


def test_oracle_ignores_inter_sector_coherences():
    # a superposition of several sectors has coherences between them;
    # the oracle's rows are those of its pinched density
    cut = FockCutoff(9, 8)
    state = random_low_excitation_state(cut, 3, np.random.default_rng(9))
    dephased = QuantumState.from_density(
        cut, pinched(cut, density_matrix(state)))
    assert _sectors(dephased) == 7
    for kt in (0.0, 0.17):
        config = DpaConfig(kt=kt, leakage_tol=0.999)
        vector = oracle_moments(state, config)
        block = oracle_moments(dephased, config)
        for got, want in zip(block.means + block.variances + (block.leakage,),
                             vector.means + vector.variances
                             + (vector.leakage,)):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("make_state", [
    lambda: _thermal_24()[0], lambda: _rectangular_mixture()[0],
], ids=["thermal-0.5-d24", "dephased"])
@pytest.mark.parametrize("kt", [0.13, 0.3])
def test_evolved_block_state_holds_the_oracle_rows(make_state, kt):
    state = make_state()
    assert state.vector is None
    config = DpaConfig(kt=kt, leakage_tol=0.999)
    evolved = evolve(state, config)
    assert evolved.vector is None
    # the slabs keep their layout and constants, so the evolved state's
    # sums are the oracle row's, to the bit
    for old, new in zip(state.blocks, evolved.blocks, strict=True):
        assert new.positions == old.positions
        assert new.indices is old.indices and new.diagonal is old.diagonal
        assert new.columns.shape == old.columns.shape
        assert not new.columns.flags.writeable
    report = oracle_moments(state, config)
    assert hidden_moments(evolved) == (report.means, report.variances)
    assert boundary_leakage(evolved) == report.leakage


def test_block_evolution_matches_dense_exponential():
    state, config = _rectangular_mixture()
    u = matrix_exponential(
        (-2j * config.kt) * interaction_hamiltonian(state.cutoff)).matrix
    np.testing.assert_allclose(
        evolve(state, config).density, u @ state.density @ u.conj().T,
        rtol=0, atol=1e-13)


def test_block_evolution_forms_no_full_size_array():
    # the 2500^2 density view alone would be 100 MB; the cold evolve,
    # its chains' eigenpairs included, traced 300 MB through that view
    state = thermal_state(FockCutoff(50, 50), 0.5, 0.5)
    tracemalloc.start()
    try:
        evolve(state, DpaConfig(kt=0.2, leakage_tol=0.9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_only_a_state_of_slabs_takes_new_columns():
    # new columns are the state's slabs again: one stack per slab, and
    # they keep the trace
    block, _ = _rectangular_mixture()
    with pytest.raises(ValueError, match="trace"):
        block.with_columns([2.0 * slab.columns for slab in block.blocks])
    with pytest.raises(ValueError):
        block.with_columns([slab.columns for slab in block.blocks[1:]])


@pytest.mark.parametrize("make_state, mean_h2", [
    # the pair coherence the amplifier itself creates
    (lambda: random_low_excitation_state(FockCutoff(12, 12), 3,
                                         np.random.default_rng(4)), 0.449),
    (lambda: thermal_state(FockCutoff(16, 16), 0.3, 0.6), 0.0),
    (lambda: fock_state(FockCutoff(10, 10), 3, 3), 0.0),
], ids=["superposition", "thermal", "fock-3-3"])
def test_rows_conserve_the_generator_and_the_imbalance(make_state, mean_h2):
    # H2 is H_int itself and H1 commutes with it, on the truncated chain
    # too: <H1>, <H2>, Var H1 and Var H2 never move, valid row or not
    state = make_state()
    means, variances = hidden_moments(state)
    initial = (means[1], means[2], variances[1], variances[2])
    assert initial[1] == pytest.approx(mean_h2, abs=1e-3)
    for kt in (0.1, 0.3, 0.5, 0.8):
        report = oracle_moments(state, DpaConfig(kt=kt))
        means, variances = hidden_moments(
            evolve(state, DpaConfig(kt=kt, leakage_tol=0.999)))
        for got in ((report.means[1], report.means[2],
                     report.variances[1], report.variances[2]),
                    (means[1], means[2], variances[1], variances[2])):
            for value, want in zip(got, initial):
                # relative, or absolute where the value is below 1
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), kt
    # the last row is past the default leakage budget in every case
    assert not report.valid
