import math
from datetime import date

import numpy as np
import pytest

from sentimetrics import econometrics
from sentimetrics.econometrics import (
    OLS,
    CollinearityError,
    DegenerateResponseError,
    EmptySampleError,
    PerfectSeparationError,
    RegressionResult,
    SPEC_TERMS,
    TERM_ORDER,
    build_design,
    fit_logit,
    fit_ols,
    logit_log_likelihood,
    regression_rows,
    render_report,
    run_timing_regressions,
    TimingRegressionSet,
)
from sentimetrics.factors import ControlSeries
from sentimetrics.tables import REGRESSIONS, read_table, write_rows
from sentimetrics.timing import SignalSeries, lagged_signal_values

from helpers import weekdays


def test_spec_table_matches_design():
    assert SPEC_TERMS["1"] == ("signal",)
    assert SPEC_TERMS["2"] == ("d_nsi",)
    assert SPEC_TERMS["3"] == ("pct_zero", "short_rate")
    assert SPEC_TERMS["4"] == ("signal", "d_nsi")
    assert SPEC_TERMS["5"] == ("signal", "d_nsi", "pct_zero", "short_rate")
    assert TERM_ORDER[0] == "intercept"


# ---------------------------------------------------------------------------
# Design assembly


def test_build_design_drops_incomplete_rows():
    x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
    z = np.array([1.0, np.inf, 3.0, 4.0, 5.0])
    y = np.array([0.0, 1.0, 1.0, np.nan, 1.0])
    design = build_design({"x": x, "z": z}, y)
    assert design.n_obs == 2  # rows 0 and 4 survive
    assert design.n_dropped == 3
    assert design.terms == ["intercept", "x", "z"]
    assert np.array_equal(design.y, [0.0, 1.0])
    assert design.full_matrix().shape == (2, 3)
    assert np.all(design.full_matrix()[:, 0] == 1.0)


def test_build_design_all_rows_missing_errors():
    with pytest.raises(EmptySampleError):
        build_design({"x": np.array([np.nan, np.nan])}, np.array([1.0, 0.0]))


def test_build_design_shape_mismatch_errors():
    with pytest.raises(ValueError, match="shape"):
        build_design({"x": np.zeros(3)}, np.zeros(4))


def test_build_design_rejects_a_repeated_column_name():
    class Repeated(dict):  # a mapping whose keys name one column twice
        def __iter__(self):
            return iter(["x", "x"])

    with pytest.raises(ValueError, match="^duplicate design column names$"):
        build_design(Repeated(x=np.zeros(3)), np.zeros(3))


# ---------------------------------------------------------------------------
# OLS


def test_ols_recovers_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    y = 1.0 + 2.0 * x
    res = fit_ols(build_design({"x": x}, y))
    assert res.coef("intercept") == pytest.approx(1.0, abs=1e-12)
    assert res.coef("x") == pytest.approx(2.0, abs=1e-12)
    assert res.n_obs == 6


def test_ols_matches_normal_equations_oracle():
    x1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    x2 = np.array([1.0, -1.0, 2.0, 0.5, -0.5, 1.5, 0.0])
    y = np.array([1.1, 1.9, 5.3, 4.2, 3.4, 7.1, 6.0])
    res = fit_ols(build_design({"x1": x1, "x2": x2}, y))

    X = np.column_stack([np.ones(7), x1, x2])
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / (7 - 3)
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
    assert np.allclose(res.estimates, beta, atol=1e-10)
    assert np.allclose(res.std_errs, se, atol=1e-10)
    assert np.allclose(res.t_values, beta / se, atol=1e-10)


def test_ols_exact_recovery_multifactor():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (60, 4))
    beta = np.array([0.5, -1.2, 0.3, 2.0, -0.7])
    y = beta[0] + X @ beta[1:]
    cols = {f"x{j}": X[:, j] for j in range(4)}
    res = fit_ols(build_design(cols, y))
    assert np.allclose(res.estimates, beta, atol=1e-10)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (80, 3))
    y = 0.2 + X @ np.array([1.0, -0.5, 0.25]) + rng.normal(0, 0.3, 80)
    design = build_design({f"x{j}": X[:, j] for j in range(3)}, y)
    res = fit_ols(design)
    resid = y - design.full_matrix() @ res.estimates
    assert np.max(np.abs(design.full_matrix().T @ resid)) < 1e-8 * 80


def test_ols_row_order_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, 30)
    y = 1.0 + 0.5 * x + rng.normal(0, 0.1, 30)
    perm = rng.permutation(30)
    a = fit_ols(build_design({"x": x}, y))
    b = fit_ols(build_design({"x": x[perm]}, y[perm]))
    assert np.allclose(a.estimates, b.estimates, atol=1e-12)
    assert np.allclose(a.std_errs, b.std_errs, atol=1e-12)


def test_ols_collinear_column_is_named():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 20)
    y = rng.normal(0, 1, 20)
    with pytest.raises(CollinearityError) as exc_info:
        fit_ols(build_design({"x": x, "x_double": 2.0 * x}, y))
    assert "x_double" in exc_info.value.columns


def test_ols_needs_more_rows_than_params():
    with pytest.raises(EmptySampleError, match="^need more than 2 observations, have 2$"):
        fit_ols(build_design({"x": np.array([1.0, 2.0])}, np.array([1.0, 2.0])))


def test_ols_robust_flag_changes_ses_not_estimates():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 100)
    y = 0.5 + 0.8 * x + rng.normal(0, 0.2, 100) * (1 + np.abs(x))
    classical = fit_ols(build_design({"x": x}, y))
    robust = fit_ols(build_design({"x": x}, y), robust=True)
    assert np.allclose(classical.estimates, robust.estimates, atol=1e-14)
    assert not np.allclose(classical.std_errs, robust.std_errs, atol=1e-6)

    # HC1 oracle: (X'X)^-1 X' diag(e^2) X (X'X)^-1 * n/(n-p)
    X = np.column_stack([np.ones(100), x])
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    e = y - X @ beta
    bread = np.linalg.inv(X.T @ X)
    cov = bread @ (X * (e**2)[:, None]).T @ X @ bread * (100 / 98)
    assert np.allclose(robust.std_errs, np.sqrt(np.diag(cov)), atol=1e-10)


# ---------------------------------------------------------------------------
# Logit


def test_logit_balanced_intercept_is_zero():
    y = np.array([0.0, 1.0] * 10)
    design = build_design({}, y)
    res = fit_logit(design)
    assert res.coef("intercept") == pytest.approx(0.0, abs=1e-10)
    assert res.converged
    assert res.log_likelihood == pytest.approx(20 * math.log(0.5), rel=1e-12)


def test_logit_intercept_matches_log_odds():
    y = np.array([1.0] * 3 + [0.0] * 7)
    res = fit_logit(build_design({}, y))
    assert res.coef("intercept") == pytest.approx(math.log(3 / 7), abs=1e-8)


def test_logit_score_equations_hold_at_optimum():
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, 200)
    eta = -0.3 + 0.9 * x
    y = (rng.uniform(0, 1, 200) < 1 / (1 + np.exp(-eta))).astype(float)
    design = build_design({"x": x}, y)
    res = fit_logit(design)
    X = design.full_matrix()
    p = 1 / (1 + np.exp(-(X @ res.estimates)))
    assert np.max(np.abs(X.T @ (y - p))) < 1e-6
    assert abs(p.sum() - y.sum()) < 1e-8  # intercept score equation
    assert res.converged and res.n_iter < 100


def test_logit_matches_grid_refinement_oracle():
    # Small fixed dataset, 2 parameters, optimum found by nested grid search.
    x = np.array([-1.5, -1.0, -0.5, -0.2, 0.1, 0.4, 0.8, 1.2, 1.6, 2.0])
    y = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    design = build_design({"x": x}, y)
    res = fit_logit(design)

    def nll(b0, b1):
        return -logit_log_likelihood(design, np.array([b0, b1]))

    b0, b1 = 0.0, 0.0
    half = 4.0
    for _ in range(40):
        grid0 = np.linspace(b0 - half, b0 + half, 9)
        grid1 = np.linspace(b1 - half, b1 + half, 9)
        vals = [(nll(a, b), a, b) for a in grid0 for b in grid1]
        _v, b0, b1 = min(vals)
        half *= 0.45
    assert res.coef("intercept") == pytest.approx(b0, abs=1e-4)
    assert res.coef("x") == pytest.approx(b1, abs=1e-4)


def test_logit_wald_z_is_estimate_over_se():
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, 150)
    y = (rng.uniform(0, 1, 150) < 1 / (1 + np.exp(-x))).astype(float)
    res = fit_logit(build_design({"x": x}, y))
    se = res.std_errs[res.terms.index("x")]
    assert res.t_of("x") == pytest.approx(res.coef("x") / se, rel=1e-12)

    # SEs come from the inverse observed information at the optimum.
    X = np.column_stack([np.ones(150), x])
    p = 1 / (1 + np.exp(-(X @ res.estimates)))
    info = (X * (p * (1 - p))[:, None]).T @ X
    assert np.allclose(res.std_errs, np.sqrt(np.diag(np.linalg.inv(info))), atol=1e-10)


def test_robust_logit_ses_are_the_sandwich_of_the_log_likelihood():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, (120, 2))
    y = (rng.uniform(0, 1, 120) < 1 / (1 + np.exp(0.2 - x @ [0.8, -0.5]))).astype(float)
    design = build_design({"a": x[:, 0], "b": x[:, 1]}, y)
    robust = fit_logit(design, robust=True)
    assert np.array_equal(robust.estimates, fit_logit(design).estimates)

    # Oracle from the log-likelihood alone, by central differences at the estimate:
    # H^-1 (sum of outer products of the per-observation scores) H^-1.
    beta, steps = robust.estimates, np.eye(3)

    def loglik(rows, b):
        return logit_log_likelihood(build_design({"a": x[rows, 0], "b": x[rows, 1]}, y[rows]), b)

    h = 1e-6
    scores = np.array(
        [[loglik([i], beta + h * e) - loglik([i], beta - h * e) for e in steps] for i in range(120)]
    ) / (2 * h)
    h, every = 1e-4, list(range(120))
    hessian = np.array(
        [
            [
                loglik(every, beta + h * (e + f)) - loglik(every, beta + h * (e - f))
                - loglik(every, beta - h * (e - f)) + loglik(every, beta - h * (e + f))
                for f in steps
            ]
            for e in steps
        ]
    ) / (4 * h * h)
    bread = np.linalg.inv(hessian)
    cov = bread @ (scores.T @ scores) @ bread
    assert np.allclose(robust.std_errs, np.sqrt(np.diag(cov)), rtol=1e-6, atol=0)
    assert not np.allclose(robust.std_errs, fit_logit(design).std_errs, rtol=1e-3, atol=0)


def test_logit_perfect_separation_raises():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(PerfectSeparationError):
        fit_logit(build_design({"x": x}, y))


def test_logit_single_class_raises():
    with pytest.raises(DegenerateResponseError):
        fit_logit(build_design({"x": np.arange(5.0)}, np.ones(5)))


def test_logit_rejects_noncoded_response():
    with pytest.raises(ValueError, match="\\{0,1\\}"):
        fit_logit(build_design({"x": np.arange(5.0)}, np.array([0.0, 1.0, 2.0, 1.0, 0.0])))


def test_logit_needs_more_rows_than_params_after_its_response_checks():
    cols = {"x": np.array([1.0, 2.0, 4.0]), "z": np.array([0.5, -1.0, 3.0])}
    with pytest.raises(EmptySampleError, match="^need more than 3 observations, have 3$"):
        fit_logit(build_design(cols, np.array([0.0, 1.0, 0.0])))
    with pytest.raises(DegenerateResponseError):
        fit_logit(build_design(cols, np.ones(3)))
    with pytest.raises(ValueError, match="\\{0,1\\}"):
        fit_logit(build_design(cols, np.array([0.0, 1.0, 2.0])))


def test_logit_collinearity_raises():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, 40)
    y = (rng.uniform(0, 1, 40) < 0.5).astype(float)
    if y.min() == y.max():  # keep the fixture honest
        y[0] = 1.0 - y[0]
    with pytest.raises(CollinearityError):
        fit_logit(build_design({"x": x, "neg_x": -x}, y))


def test_logit_extreme_linear_predictor_is_stable():
    # Huge magnitudes overflow a naive exp(); the fit must stay finite.
    x = np.array([-800.0, -400.0, -200.0, 200.0, 400.0, 800.0, -600.0, 600.0])
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])  # not separated
    res = fit_logit(build_design({"x": x}, y))
    assert np.all(np.isfinite(res.estimates))
    ll = logit_log_likelihood(build_design({"x": x}, y), res.estimates)
    assert np.isfinite(ll)


def _random_designs(count):
    """Seeded 45-row, 4-regressor up-day designs; most are (quasi-)separated."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        x = rng.normal(size=(45, 4))
        b = rng.normal(size=4) * rng.choice([1, 5, 20])
        y = x @ b + rng.normal(size=45) * 0.3 > 0
        yield build_design({f"x{j}": x[:, j] for j in range(4)}, y.astype(float))


def _writes(tmp_path, regset):
    return write_rows(tmp_path / "regressions.csv", REGRESSIONS, regression_rows(regset))


@pytest.mark.parametrize("robust", [False, True], ids=["plain", "robust"])
@pytest.mark.parametrize("draw", [341, 542])
def test_an_unconverged_fit_with_a_degenerate_covariance_writes_blank_errors(
    tmp_path, draw, robust
):
    # The information matrix is numerically singular at the last iterate, so
    # some covariance diagonals are negative or zero: no warning, NaN errors.
    *_, design = _random_designs(draw + 1)
    res = fit_logit(design, robust=robust)
    assert not res.converged and res.n_iter == 100
    assert np.all(np.isfinite(res.estimates))
    blank = np.isnan(res.std_errs)
    assert blank.any() and np.array_equal(np.isnan(res.t_values), blank)
    assert np.all(res.std_errs[~blank] > 0) and np.all(np.isfinite(res.t_values[~blank]))
    regset = TimingRegressionSet(logit={"1": res})
    assert _writes(tmp_path, regset) == 5
    table = read_table(tmp_path / "regressions.csv", REGRESSIONS)
    assert np.array_equal(np.isnan(np.array(table["std_err"], float)), blank)
    assert render_report(regset, 10, 2).endswith("warning: (1) converged=False after n_iter=100\n")


def test_random_designs_raise_a_named_error_or_write(tmp_path):
    outcomes = set()
    for design in _random_designs(1000):
        for robust in (False, True):
            try:
                regset = TimingRegressionSet(
                    logit={"1": fit_logit(design, robust=robust)},
                    ols={"1": fit_ols(design, robust=robust)},
                )
            except ValueError as exc:
                assert type(exc) in (PerfectSeparationError, CollinearityError), exc
                outcomes.add(type(exc))
                continue
            assert _writes(tmp_path, regset) == 10
            outcomes.add(regset.logit["1"].converged)
    assert outcomes == {PerfectSeparationError, True, False}


# ---------------------------------------------------------------------------
# Five-spec harness


def _harness_inputs(n_days=240, seed=8, zero_days=(), nan_market=(), lag=2):
    """A signal lagged `lag` days onto a weekday calendar, its controls and market returns."""
    rng = np.random.default_rng(seed)
    cal = weekdays(date(2021, 1, 4), n_days)
    sig_values = rng.integers(0, 2, n_days - 3)
    signal = SignalSeries(n=3, dates=cal[: n_days - 3], values=sig_values)
    market = rng.normal(0.0004, 0.01, n_days)
    for k in zero_days:
        market[k] = 0.0
    for k in nan_market:
        market[k] = np.nan
    nsi = np.cumsum(rng.normal(0, 1, n_days)) + 100
    d_nsi = np.full(n_days, np.nan)
    d_nsi[1:] = np.diff(nsi)
    controls = ControlSeries(
        dates=cal,
        nsi=nsi,
        d_nsi=d_nsi,
        short_rate=0.02 + np.cumsum(rng.normal(0, 1e-4, n_days)),
        pct_zero=rng.uniform(0.0, 0.2, n_days),
    )
    return lagged_signal_values(signal, cal, lag), controls, market


def test_run_timing_regressions_five_specs():
    lagged, controls, market = _harness_inputs()
    regset = run_timing_regressions(lagged, controls, market)
    assert set(regset.logit) == {"1", "2", "3", "4", "5"}
    assert regset.ols == {}
    for spec_id, terms in SPEC_TERMS.items():
        res = regset.logit[spec_id]
        assert res.terms == ["intercept"] + list(terms)
        assert res.converged


def test_specs_use_their_own_maximal_samples():
    lagged, controls, market = _harness_inputs()
    regset = run_timing_regressions(lagged, controls, market)
    n = len(controls.dates)
    # Signal dates cover indices 0..n-4; lag 2 leaves indices 2..n-2 defined,
    # so the signal column loses 3 days.
    assert regset.logit["1"].n_obs == n - 3
    # d_nsi loses only the first day.
    assert regset.logit["2"].n_obs == n - 1
    # pct_zero and short_rate are complete.
    assert regset.logit["3"].n_obs == n
    # Unions of missing days: {0,1,last} absorbs {0}.
    assert regset.logit["4"].n_obs == n - 3
    assert regset.logit["5"].n_obs == n - 3


def test_nan_market_days_drop_from_every_spec():
    lagged, controls, market = _harness_inputs(nan_market=(120, 121))
    regset = run_timing_regressions(lagged, controls, market)
    n = len(controls.dates)
    assert regset.logit["3"].n_obs == n - 2
    assert regset.logit["1"].n_obs == n - 5


def test_tie_rule_zeros_count_down_by_default():
    # Make every return either positive or exactly zero: with ties counted
    # as up the response becomes single-class.
    lagged, controls, market = _harness_inputs(seed=9)
    market = np.abs(market)
    market[::3] = 0.0
    regset = run_timing_regressions(lagged, controls, market)
    assert regset.logit["1"].converged
    with pytest.raises(DegenerateResponseError):
        run_timing_regressions(lagged, controls, market, tie_up=True)


def test_all_missing_regressor_names_the_spec():
    lagged, controls, market = _harness_inputs()
    controls.d_nsi[:] = np.nan
    with pytest.raises(EmptySampleError, match="specification 2"):
        run_timing_regressions(lagged, controls, market)


@pytest.mark.parametrize("lag", [240, 10**30])
def test_a_lag_past_the_calendar_is_the_first_specifications_empty_sample(lag):
    lagged, controls, market = _harness_inputs(lag=lag)
    with pytest.raises(EmptySampleError, match="^specification 1: "):
        run_timing_regressions(lagged, controls, market)


def test_a_fit_error_names_its_specification():
    lagged, controls, market = _harness_inputs(seed=9)
    with pytest.raises(
        DegenerateResponseError, match="^specification 1: response has a single class;"
    ):
        run_timing_regressions(lagged, controls, np.abs(market))


def test_market_returns_off_the_control_calendar_are_rejected():
    lagged, controls, market = _harness_inputs()
    with pytest.raises(ValueError, match="market_returns must align one-to-one"):
        run_timing_regressions(lagged, controls, market[:-1])


def test_a_lagged_signal_off_the_control_calendar_is_rejected_before_any_fit(monkeypatch):
    lagged, controls, market = _harness_inputs()
    fits = []
    monkeypatch.setattr(econometrics, "fit_logit", lambda *a, **k: fits.append(a))
    with pytest.raises(
        ValueError,
        match="^lagged signal and market_returns must align one-to-one with controls$",
    ):
        run_timing_regressions(lagged[:-1], controls, market)
    assert fits == []


def test_with_ols_runs_return_regressions_alongside():
    lagged, controls, market = _harness_inputs()
    regset = run_timing_regressions(lagged, controls, market, with_ols=True)
    assert set(regset.ols) == {"1", "2", "3", "4", "5"}
    for spec_id in SPEC_TERMS:
        assert regset.ols[spec_id].n_obs == regset.logit[spec_id].n_obs


def test_planted_signal_slope_recovered():
    rng = np.random.default_rng(10)
    n_days = 1200
    cal = weekdays(date(2018, 1, 1), n_days)
    values = rng.integers(0, 2, n_days)
    signal = SignalSeries(n=3, dates=list(cal), values=values)
    lag = 2
    b0, b1 = -0.4, 0.8
    market = np.empty(n_days)
    for k in range(n_days):
        s = values[k - lag] if k >= lag else 0
        p_up = 1 / (1 + math.exp(-(b0 + b1 * s)))
        market[k] = 0.01 if rng.uniform(0, 1) < p_up else -0.01
    controls = ControlSeries(
        dates=cal,
        nsi=np.full(n_days, np.nan),
        d_nsi=np.full(n_days, np.nan),
        short_rate=np.full(n_days, np.nan),
        pct_zero=np.full(n_days, np.nan),
    )
    # Only spec 1 is estimable; the others raise on their empty samples.
    from sentimetrics.econometrics import build_design as _bd, fit_logit as _fl

    lagged = lagged_signal_values(signal, cal, lag)
    up = (market > 0).astype(float)
    res = _fl(_bd({"signal": lagged}, up))
    assert abs(res.coef("signal") - b1) < 2.5 * res.std_errs[res.terms.index("signal")]
    assert res.t_of("signal") > 2.0


def test_null_signal_t_values_are_small():
    hits = 0
    for seed in range(12):
        lagged, controls, market = _harness_inputs(seed=100 + seed)
        regset = run_timing_regressions(lagged, controls, market)
        t = abs(regset.logit["1"].t_of("signal"))
        assert t < 4.0, seed
        if t < 2.0:
            hits += 1
    assert hits >= 9


# ---------------------------------------------------------------------------
# Report and CSV


def test_render_report_layout():
    lagged, controls, market = _harness_inputs()
    regset = run_timing_regressions(lagged, controls, market)
    text = render_report(regset, 3, 2)
    lines = text.splitlines()
    assert "N=3" in lines[0]
    assert "lag 2" in lines[0]
    header = lines[2].split()
    assert header == ["term", "(1)", "(2)", "(3)", "(4)", "(5)"]
    assert any(line.lstrip().startswith("intercept") for line in lines)
    assert any(line.lstrip().startswith("signal") for line in lines)
    assert any(line.lstrip().startswith("n_obs") for line in lines)
    # t-values live in parentheses under each estimate.
    sig_row = next(i for i, line in enumerate(lines) if line.lstrip().startswith("signal"))
    assert "(" in lines[sig_row + 1] and ")" in lines[sig_row + 1]
    # Terms a spec omits render blank: spec 1 has no d_nsi cell.
    dnsi_row = next(line for line in lines if line.lstrip().startswith("d_nsi"))
    sig_line = next(line for line in lines if line.lstrip().startswith("signal"))
    assert len(dnsi_row.split()) < len(sig_line.split()) + 1


def _logit_result(converged, n_iter):
    return RegressionResult(
        terms=["intercept", "signal"],
        estimates=np.array([0.1, 0.5]),
        std_errs=np.array([0.05, 0.25]),
        t_values=np.array([2.0, 2.0]),
        n_obs=50,
        converged=converged,
        n_iter=n_iter,
    )


def test_render_report_flags_unconverged_fits():
    fits = {
        "1": _logit_result(True, 6),
        "2": _logit_result(False, 100),
        "3": _logit_result(False, 37),
    }
    text = render_report(TimingRegressionSet(logit=fits), 10, 2)
    assert text.splitlines()[-2:] == [
        "warning: (2) converged=False after n_iter=100",
        "warning: (3) converged=False after n_iter=37",
    ]
    converged = {k: _logit_result(True, 6) for k in fits}
    clean = render_report(TimingRegressionSet(logit=converged), 10, 2)
    assert "converged" not in clean
    assert text.startswith(clean[:-1])


def test_render_report_of_a_model_without_fits_errors():
    regset = TimingRegressionSet(logit={"1": _logit_result(True, 6)})
    with pytest.raises(ValueError, match="^no ols results to render$"):
        render_report(regset, 10, 2, model=OLS)


def test_an_unknown_term_is_a_key_error_naming_the_terms():
    result = _logit_result(True, 6)
    for lookup in (result.coef, result.t_of):
        with pytest.raises(KeyError) as exc_info:
            lookup("d_nsi")
        assert exc_info.value.args == ("no term 'd_nsi' in result (intercept, signal)",)


def test_regressions_csv_roundtrip(tmp_path):
    lagged, controls, market = _harness_inputs()
    regset = run_timing_regressions(lagged, controls, market, with_ols=True)
    p = tmp_path / "regressions.csv"
    write_rows(p, REGRESSIONS, regression_rows(regset))
    table = read_table(p, REGRESSIONS)
    rows = [dict(zip(table, row)) for row in zip(*table.values())]
    specs = {r["spec"] for r in rows}
    assert specs == {"1", "2", "3", "4", "5", "ols_1", "ols_2", "ols_3", "ols_4", "ols_5"}
    first = rows[0]
    assert list(first) == ["spec", "term", "estimate", "std_err", "t_value", "n_obs"]
    sig = next(r for r in rows if r["spec"] == "1" and r["term"] == "signal")
    assert float(sig["estimate"]) == pytest.approx(regset.logit["1"].coef("signal"))
    assert int(sig["n_obs"]) == regset.logit["1"].n_obs
