"""Tests for squeezing analysis: weights, onset, claims, sweeps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hopslab.squeezing as squeezing
from hopslab.dpa import (
    DEFAULT_LEAKAGE_TOL,
    DpaConfig,
    oracle_moments,
    suggest_cutoff,
    thermal_heisenberg_moments,
)
from hopslab.fock import FockCutoff, QuantumState
from hopslab.reporting import curve_csv
from hopslab.squeezing import (
    FockModel,
    MomentClaimTable,
    SqueezingCurve,
    ThermalMixtureModel,
    WeightedProjectorModel,
    claimed_moment_table,
    onset_by_bisection,
    onset_time,
    squeezing_function,
    sweep,
    thermal_state,
    thermal_weight,
)
from dense_reference import (
    claim_row,
    expectation,
    number_operator,
    verdict_counts,
)

OCCUPATIONS = st.floats(min_value=0.0, max_value=1.0)
MEAN_PHOTONS = st.floats(min_value=0.0, max_value=20.0)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

# frozen reference values, computed once from the closed forms
WEIGHT_10_10 = 0.03504938994813925
WEIGHT_1_1 = 0.25
WEIGHT_20_20 = 0.017947118232047605
ONSET_VACUUM = 0.22034339675488576
ONSET_BALANCED_WEIGHTS = 0.22074793421013325
ONSET_CAPTION_PAIR = 0.2215958971308643
ONSET_EQUAL_INTENSITY_FIGURE = 0.22074903865262496
ONSET_UNEQUAL_INTENSITY_FIGURE = 0.2215922759386439
SQ_AT_022 = 0.004231322258353987
SQ_AT_020 = 0.11418373743854515


def test_thermal_weight_reference_points():
    assert thermal_weight(10, 10) == pytest.approx(WEIGHT_10_10, rel=1e-12)
    assert thermal_weight(1, 1) == pytest.approx(WEIGHT_1_1, rel=1e-12)
    assert thermal_weight(20, 20) == pytest.approx(WEIGHT_20_20, rel=1e-12)
    assert thermal_weight(10, 10) == pytest.approx(10**10 / 11**11, rel=1e-12)


def test_thermal_weight_edge_cases():
    assert thermal_weight(0.0, 0) == 1.0
    assert thermal_weight(0.0, 5) == 0.0
    assert thermal_weight(0.5, 0) == pytest.approx(2.0 / 3.0)
    # log-space evaluation survives large photon numbers: representable
    # values stay positive and deeper tails underflow cleanly to zero
    assert thermal_weight(1.0, 1000) > 0.0
    assert thermal_weight(1.0, 100_000) == 0.0
    with pytest.raises(ValueError):
        thermal_weight(-1.0, 0)
    with pytest.raises(ValueError):
        thermal_weight(1.0, -2)
    for bad in (math.inf, math.nan, 2.0):
        with pytest.raises(ValueError, match="photon numbers"):
            thermal_weight(0.5, bad)


@given(n_bar=MEAN_PHOTONS)
def test_thermal_weights_are_complete(n_bar):
    if n_bar == 0.0:
        levels = 1
    else:
        ratio = n_bar / (1.0 + n_bar)
        levels = max(2, math.ceil(math.log(1e-13) / math.log(ratio)))
    total = sum(thermal_weight(n_bar, n) for n in range(levels))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_thermal_state_mean_occupation():
    cut = FockCutoff(30, 30)
    state = thermal_state(cut, 0.4, 0.8)
    mean_x = expectation(number_operator(cut, "x"), state).real
    mean_y = expectation(number_operator(cut, "y"), state).real
    assert mean_x == pytest.approx(0.4, abs=1e-9)
    assert mean_y == pytest.approx(0.8, abs=1e-9)


def test_thermal_state_holds_no_extra_full_size_array():
    # its blocks are diagonal, G = I and p = the weights: 6.2 MB of slab
    # columns at d = 80, where the d^2 x d^2 matrix alone is 655 MB
    cut = FockCutoff(80, 80)
    tracemalloc.start()
    try:
        thermal_state(cut, 0.5, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_thermal_density_is_its_diagonal_weights():
    cut = FockCutoff(12, 9)
    state = thermal_state(cut, 0.4, 0.7)
    density = state.density
    weights = np.outer(
        [thermal_weight(0.4, n) for n in range(cut.d_x)],
        [thermal_weight(0.7, n) for n in range(cut.d_y)]).ravel()
    assert np.count_nonzero(density - np.diag(np.diag(density))) == 0
    np.testing.assert_allclose(np.diag(density).real,
                               weights / weights.sum(), rtol=0, atol=1e-15)
    # a view built on demand, read-only and never kept
    assert not density.flags.writeable
    assert state.density is not density
    np.testing.assert_array_equal(state.populations(), np.diag(density).real)


@pytest.mark.parametrize("kt", [0.0, 0.3])
def test_thermal_blocks_give_the_rows_of_its_density(kt):
    cut = FockCutoff(12, 9)
    state = thermal_state(cut, 0.4, 0.7)
    weights = np.outer(
        [thermal_weight(0.4, n) for n in range(cut.d_x)],
        [thermal_weight(0.7, n) for n in range(cut.d_y)]).ravel()
    dense = QuantumState.from_density(
        cut, np.diag(weights / weights.sum()).astype(complex))
    config = DpaConfig(kt=kt, leakage_tol=0.9)
    got, want = oracle_moments(state, config), oracle_moments(dense, config)
    for a, b in zip(got.means + got.variances + (got.leakage,),
                    want.means + want.variances + (want.leakage,)):
        assert a == pytest.approx(b, rel=1e-13, abs=1e-15)


def test_squeezing_function_reference_points():
    assert squeezing_function(0.22, 0.035, 0.035) == pytest.approx(
        SQ_AT_022, rel=1e-12)
    assert squeezing_function(0.20, 0.035, 0.035) == pytest.approx(
        SQ_AT_020, rel=1e-12)
    assert squeezing_function(0.0, 3.0, 7.0) > 0.0
    with pytest.raises(ValueError):
        squeezing_function(0.1, -0.5, 0.0)
    # as heisenberg_moments: no nan or -inf for a non-finite time
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="kt must be finite"):
            squeezing_function(bad, 0.035, 0.035)


def test_onset_reference_points():
    assert onset_time(0, 0) == pytest.approx(ONSET_VACUUM, rel=1e-14)
    assert onset_time(0, 0) == pytest.approx(math.asinh(1.0) / 4.0, rel=1e-14)
    assert onset_time(0.035, 0.035) == pytest.approx(
        ONSET_BALANCED_WEIGHTS, rel=1e-14)
    assert onset_time(0.25, 0.018) == pytest.approx(
        ONSET_CAPTION_PAIR, rel=1e-14)


def test_onset_with_figure_weights():
    balanced = onset_time(WEIGHT_10_10, WEIGHT_10_10)
    unequal = onset_time(WEIGHT_1_1, WEIGHT_20_20)
    assert balanced == pytest.approx(ONSET_EQUAL_INTENSITY_FIGURE, rel=1e-14)
    assert unequal == pytest.approx(ONSET_UNEQUAL_INTENSITY_FIGURE, rel=1e-14)


@given(n_x=OCCUPATIONS, n_y=OCCUPATIONS)
def test_onset_matches_bisection(n_x, n_y):
    closed = onset_time(n_x, n_y)
    root = onset_by_bisection(n_x, n_y)
    assert abs(closed - root) < 1e-10


@given(n_x=OCCUPATIONS, n_y=OCCUPATIONS)
def test_onset_band_for_unit_box(n_x, n_y):
    value = onset_time(n_x, n_y)
    assert math.asinh(1.0) / 4.0 <= value <= math.asinh(2.0) / 4.0


@given(n_x=OCCUPATIONS, n_y=OCCUPATIONS, seed=SEEDS)
def test_squeezing_function_strictly_decreasing(n_x, n_y, seed):
    rng = np.random.default_rng(seed)
    kt_lo, kt_hi = sorted(rng.uniform(0.0, 1.0, 2))
    if kt_hi - kt_lo < 1e-9:
        kt_hi = kt_lo + 1e-6
    assert squeezing_function(kt_lo, n_x, n_y) > squeezing_function(
        kt_hi, n_x, n_y)


def test_onset_bisection_derives_its_bracket():
    # from occupations near 26 on Sq(1) > 0: [0, 1] holds no onset
    assert squeezing_function(1.0, 100.0, 100.0) > 0.0
    closed = onset_time(100.0, 100.0)
    assert closed > 1.0
    assert abs(onset_by_bisection(100.0, 100.0) - closed) < 1e-12
    # an occupation term that overflows (inf, or inf / inf) is an error,
    # not an onset of inf or a bisection that settles on kt = 0
    for n in (1e200, 1e308):
        for solve in (onset_time, onset_by_bisection):
            with pytest.raises(OverflowError):
                solve(n, n)


def test_claim_verdicts_at_mixed_occupations():
    table = claimed_moment_table(1, 2, 0.22)
    assert isinstance(table, MomentClaimTable)
    expected = {
        "mean_h0": "matches",
        "mean_h1": "matches",
        "mean_h2": "matches",
        "mean_h3": "sign_flip",
        "var_h0": "mismatch",
        "var_h1": "mismatch",
        "var_h2": "matches",
        "var_h3": "mismatch",
    }
    for name, verdict in expected.items():
        assert claim_row(table, name).verdict == verdict, (
            name, claim_row(table, name))
    assert verdict_counts(table) == {"matches": 4, "sign_flip": 1,
                                     "mismatch": 3}


def test_claim_verdicts_at_vacuum():
    table = claimed_moment_table(0, 0, 0.3)
    # every claimed form collapses to the exact one at (0,0) except the
    # pair-mean sign
    for row in table.rows:
        if row.name == "mean_h3":
            assert row.verdict == "sign_flip"
        else:
            assert row.verdict == "matches", row


def test_claim_table_oracle_reference_agrees():
    closed = claimed_moment_table(1, 2, 0.22)
    oracle = claimed_moment_table(1, 2, 0.22, cutoff=FockCutoff(48, 48))
    for row_c, row_o in zip(closed.rows, oracle.rows):
        assert row_c.verdict == row_o.verdict
        assert row_o.reference == pytest.approx(row_c.reference, abs=1e-7)


def test_claim_table_reproducible():
    first = claimed_moment_table(2, 2, 0.3)
    second = claimed_moment_table(2, 2, 0.3)
    assert first == second


def test_claim_table_without_reference():
    table = claimed_moment_table(0.035, 0.035, 0.22)
    for row in table.rows:
        assert row.reference is None
        assert row.verdict is None
    assert verdict_counts(table) == {}
    # a cutoff would size an oracle that has no state to evolve
    with pytest.raises(ValueError, match="integer occupations"):
        claimed_moment_table(1.5, 2, 0.22, cutoff=FockCutoff(40, 40))
    # integral floats name the state |1, 2>
    table = claimed_moment_table(1.0, 2.0, 0.22, cutoff=FockCutoff(40, 40))
    assert all(row.verdict is not None for row in table.rows)


def test_claimed_constant_of_motion_value():
    table = claimed_moment_table(1, 2, 0.4)
    row = claim_row(table, "mean_h1")
    assert row.claimed == 1.0
    assert row.reference == 1.0


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(FockModel(0, 0), kt_max=0.0, steps=10)
    with pytest.raises(ValueError):
        sweep(FockModel(0, 0), kt_max=0.5, steps=1)
    with pytest.raises(ValueError):
        FockModel(-1, 0)
    with pytest.raises(ValueError):
        ThermalMixtureModel(-0.1, 0.0)
    with pytest.raises(ValueError, match="integers"):
        FockModel(1.5, 0)
    with pytest.raises(ValueError, match="integers"):
        WeightedProjectorModel(10.0, 10, 10.0, 1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FockModel(bad, 0)
        with pytest.raises(ValueError):
            ThermalMixtureModel(0.5, bad)
        with pytest.raises(ValueError):
            WeightedProjectorModel(bad, 10, 10.0, 10)
        with pytest.raises(ValueError):
            squeezing_function(0.1, bad, 0.0)
        with pytest.raises(ValueError):
            onset_time(0.0, bad)
    for kt_max in (math.nan, math.inf, 1000.0, 100.0):
        with pytest.raises(ValueError):
            sweep(FockModel(0, 0), kt_max=kt_max, steps=3)


def test_vacuum_sweep_onset():
    curve = sweep(FockModel(0, 0), kt_max=0.5, steps=100)
    assert curve.model.label == "fock"
    assert curve.onset == pytest.approx(ONSET_VACUUM, abs=1e-7)
    assert len(curve.kt_grid) == 100
    assert len(curve.moment_rows) == 100
    # sq positive before onset, negative after
    for kt, sq in zip(curve.kt_grid, curve.sq_values):
        if kt < curve.onset:
            assert sq > 0.0
        elif kt > curve.onset:
            assert sq < 0.0


def test_weighted_model_reproduces_figure_onsets():
    equal = sweep(WeightedProjectorModel(10, 10, 10, 10),
                  kt_max=0.5, steps=80)
    unequal = sweep(WeightedProjectorModel(1, 1, 20, 20),
                    kt_max=0.5, steps=80)
    assert equal.model.label == "weighted"
    assert equal.onset == pytest.approx(ONSET_EQUAL_INTENSITY_FIGURE, abs=1e-7)
    assert unequal.onset == pytest.approx(
        ONSET_UNEQUAL_INTENSITY_FIGURE, abs=1e-7)


def test_sweep_without_sign_change_has_no_onset():
    curve = sweep(FockModel(0, 0), kt_max=0.1, steps=20)
    assert curve.onset is None


@pytest.mark.parametrize("model", [
    FockModel(2, 1),
    WeightedProjectorModel(10.0, 10, 10.0, 10),
    ThermalMixtureModel(0.5, 0.25),
], ids=["fock", "weighted", "thermal"])
def test_sweep_onset_is_the_closed_form(model):
    expected = onset_time(*model.effective_occupations())
    assert sweep(model, 0.5, 100).onset == expected
    assert sweep(model, 0.1, 100).onset is None


def test_sweep_closed_rows_carry_zero_leakage():
    curve = sweep(ThermalMixtureModel(0.5, 0.25), kt_max=0.4, steps=10)
    assert curve.model.label == "thermal"
    for row in curve.moment_rows:
        assert row.leakage == 0.0
        assert row.valid
    reference = thermal_heisenberg_moments(0.5, 0.25, curve.kt_grid[3])
    assert curve.moment_rows[3] == reference


def test_sweep_oracle_rows_match_closed_forms():
    cut = FockCutoff(24, 24)
    curve = sweep(FockModel(0, 0), kt_max=0.3, steps=5,
                  with_oracle=True, cutoff=cut)
    for kt, row in zip(curve.kt_grid, curve.moment_rows):
        assert row.valid
        closed = FockModel(0, 0).closed_report(kt)
        for got, want in zip(row.means + row.variances,
                             closed.means + closed.variances):
            assert abs(got - want) < max(1e-8, 10 * row.leakage)


def test_sweep_oracle_thermal_rows():
    cut = FockCutoff(24, 24)
    model = ThermalMixtureModel(0.2, 0.1)
    curve = sweep(model, kt_max=0.2, steps=4, with_oracle=True, cutoff=cut)
    for kt, row in zip(curve.kt_grid, curve.moment_rows):
        assert row.valid
        closed = model.closed_report(kt)
        for got, want in zip(row.means + row.variances,
                             closed.means + closed.variances):
            assert abs(got - want) < 1e-6


def test_sweep_flags_rows_when_truncation_fails():
    cut = FockCutoff(8, 8)
    curve = sweep(FockModel(0, 0), kt_max=0.9, steps=6,
                  with_oracle=True, cutoff=cut)
    flags = [row.valid for row in curve.moment_rows]
    assert not all(flags)
    assert flags[0]
    # the sweep still produced every row and located the onset
    assert len(curve.moment_rows) == 6
    assert curve.onset is not None


def test_sweep_guards_impractical_thermal_cutoff():
    with pytest.raises(ValueError):
        sweep(ThermalMixtureModel(10.0, 10.0), kt_max=0.4, steps=4,
              with_oracle=True)


def test_thermal_peak_level_needs_a_decaying_tail():
    # nbar / (1 + nbar) rounds to 1.0: the geometric tail never decays
    with pytest.raises(ValueError, match="rounds to 1"):
        ThermalMixtureModel(1e17, 0.5).peak_level()
    assert ThermalMixtureModel(1e15, 0.5).peak_level() > 10**16


def test_curve_grid_must_ascend():
    with pytest.raises(ValueError):
        SqueezingCurve(kt_grid=(0.2, 0.1), sq_values=(1.0, 0.5),
                       moment_rows=(), onset=None, model=FockModel(),
                       cutoff=None, leakage_tol=1e-6)


def test_curve_records_its_inputs():
    model = FockModel(1, 0)
    curve = sweep(model, kt_max=0.3, steps=3, with_oracle=True)
    assert curve.model == model
    assert curve.cutoff == suggest_cutoff(1, 0.3)
    assert curve.leakage_tol == DEFAULT_LEAKAGE_TOL
    assert sweep(model, kt_max=0.3, steps=3).cutoff is None
    # --cutoff sets both modes, so a header cannot name a lopsided one
    lopsided = sweep(model, kt_max=0.3, steps=3, with_oracle=True,
                     cutoff=FockCutoff(24, 20))
    with pytest.raises(ValueError, match="not square"):
        curve_csv(lopsided)


def test_weighted_model_effective_occupations():
    model = WeightedProjectorModel(10, 10, 20, 20)
    occ_x, occ_y = model.effective_occupations()
    assert occ_x == pytest.approx(WEIGHT_10_10, rel=1e-12)
    assert occ_y == pytest.approx(WEIGHT_20_20, rel=1e-12)


def test_sweep_calls_oracle_once_per_row(monkeypatch):
    # per-row oracle calls are the seam where rows are observed one by one
    calls = []

    def counting(state, config):
        calls.append(config.kt)
        return oracle_moments(state, config)

    monkeypatch.setattr(squeezing, "oracle_moments", counting)
    curve = sweep(FockModel(1, 0), kt_max=0.3, steps=7, with_oracle=True,
                  cutoff=FockCutoff(24, 24))
    assert len(calls) == 7
    assert calls == list(curve.kt_grid)
