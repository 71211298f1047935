"""OLS and logit estimation plus the five-specification market-direction harness.

Both fitters are deliberately from scratch on numpy: estimates come from a
least-squares solve (never an explicit normal-equations inverse) and logit
fits by Newton/IRLS with a numerically safe sigmoid.  Standard errors are
classical by default; a heteroskedasticity-robust (sandwich) option sits
behind the `robust` flag.  The harness regresses an up-day indicator of the
market excess return on the lagged sentiment signal (an array on the control
calendar) and macro/liquidity controls in five fixed variable combinations.  One
walk of the fits gives their rows (regression_rows, tables.REGRESSIONS), and
render_report lays the same rows out side by side, t-values in parentheses underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factors import ControlSeries

OLS = "ols"
LOGIT = "logit"

LOGIT_TOL = 1e-10
LOGIT_MAX_ITER = 100
SEPARATION_NORM = 1e4

# Table layout: term order and the regressor subsets of the five specifications.
TERM_ORDER = ("intercept", "signal", "d_nsi", "pct_zero", "short_rate")
SPEC_TERMS: dict[str, tuple[str, ...]] = {
    "1": ("signal",),
    "2": ("d_nsi",),
    "3": ("pct_zero", "short_rate"),
    "4": ("signal", "d_nsi"),
    "5": ("signal", "d_nsi", "pct_zero", "short_rate"),
}


class CollinearityError(ValueError):
    """Design matrix is rank deficient; names the redundant columns."""

    def __init__(self, columns: list[str]):
        self.columns = columns
        super().__init__(f"collinear design columns: {', '.join(columns)}")


class PerfectSeparationError(ValueError):
    """Logit coefficients diverged; the classes are (quasi-)separable."""


class DegenerateResponseError(ValueError):
    """Binary response with only one class present."""


class EmptySampleError(ValueError):
    """No rows remain after dropping incomplete observations."""


@dataclass
class DesignMatrix:
    """Named regressor columns plus a response, incomplete rows dropped; fits add an intercept."""

    column_names: list[str]
    x: np.ndarray  # (n, len(column_names)), no intercept column
    y: np.ndarray
    n_dropped: int = 0

    @property
    def n_obs(self) -> int:
        return int(self.y.shape[0])

    @property
    def terms(self) -> list[str]:
        return ["intercept"] + list(self.column_names)

    def full_matrix(self) -> np.ndarray:
        return np.column_stack([np.ones(self.n_obs), self.x])


@dataclass
class RegressionResult:
    terms: list[str]
    estimates: np.ndarray
    std_errs: np.ndarray
    t_values: np.ndarray  # estimate / std_err (Wald z for logit)
    n_obs: int
    n_dropped: int = 0
    converged: bool = True
    n_iter: int = 0
    log_likelihood: float | None = None

    def _idx(self, term: str) -> int:
        try:
            return self.terms.index(term)
        except ValueError:
            raise KeyError(f"no term {term!r} in result ({', '.join(self.terms)})") from None

    def coef(self, term: str) -> float:
        return float(self.estimates[self._idx(term)])

    def t_of(self, term: str) -> float:
        return float(self.t_values[self._idx(term)])


@dataclass
class TimingRegressionSet:
    """The five-specification run, logit always, OLS alongside when requested."""

    logit: dict[str, RegressionResult]
    ols: dict[str, RegressionResult] = field(default_factory=dict)


def build_design(columns: dict[str, np.ndarray], response: np.ndarray) -> DesignMatrix:
    """Assemble a design (an intercept is implied), dropping every row with any non-finite cell."""
    names = list(columns)
    if len(set(names)) != len(names):
        raise ValueError("duplicate design column names")
    response = np.asarray(response, dtype=float)
    n = response.shape[0]
    cols = []
    for name in names:
        arr = np.asarray(columns[name], dtype=float)
        if arr.shape != (n,):
            raise ValueError(f"column {name!r} has shape {arr.shape}, expected ({n},)")
        cols.append(arr)
    x = np.column_stack(cols) if cols else np.zeros((n, 0))
    keep = np.isfinite(response)
    if cols:
        keep &= np.all(np.isfinite(x), axis=1)
    n_dropped = int(n - keep.sum())
    if keep.sum() == 0:
        raise EmptySampleError("no complete observations after dropping missing rows")
    return DesignMatrix(column_names=names, x=x[keep], y=response[keep], n_dropped=n_dropped)


def _full_rank(design: DesignMatrix) -> np.ndarray:
    """The design with its intercept column, once it has more rows than columns and full rank."""
    x = design.full_matrix()
    n, p = x.shape
    if n <= p:
        raise EmptySampleError(f"need more than {p} observations, have {n}")
    if np.linalg.matrix_rank(x) == p:
        return x
    # Walk the columns; any column not raising the rank is redundant with its
    # predecessors.  p is small here, so repeated rank calls are cheap.
    bad = []
    rank = 0
    for j in range(p):
        r = np.linalg.matrix_rank(x[:, : j + 1])
        if r == rank:
            bad.append(design.terms[j])
        rank = r
    raise CollinearityError(bad or design.terms)


def _sandwich(x: np.ndarray, bread: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """The heteroskedasticity-robust covariance bread @ X'diag(resid**2)X @ bread."""
    return bread @ ((x * (resid**2)[:, None]).T @ x) @ bread


def _result(design: DesignMatrix, beta: np.ndarray, cov: np.ndarray, **fit):
    """The RegressionResult of estimates `beta` with covariance `cov`; `fit` adds the rest.

    A standard error and t-value whose variance is not positive and finite are NaN."""
    var = np.diag(cov)
    defined = np.isfinite(var) & (var > 0.0)
    se = np.sqrt(var, out=np.full_like(beta, np.nan), where=defined)
    return RegressionResult(
        terms=design.terms,
        estimates=beta,
        std_errs=se,
        t_values=np.divide(beta, se, out=np.full_like(beta, np.nan), where=defined),
        n_obs=design.n_obs,
        n_dropped=design.n_dropped,
        **fit,
    )


def fit_ols(design: DesignMatrix, robust: bool = False) -> RegressionResult:
    """Least-squares fit with classical (or, on request, HC1 sandwich) errors."""
    x = _full_rank(design)
    n, p = x.shape
    beta, _res, _rank, _sv = np.linalg.lstsq(x, design.y, rcond=None)
    resid = design.y - x @ beta
    dof = n - p
    sigma2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.inv(x.T @ x)
    cov = _sandwich(x, xtx_inv, resid) * (n / dof) if robust else sigma2 * xtx_inv
    return _result(design, beta, cov)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # Evaluate in the branch that never overflows exp().
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _information(x: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """The logit information X'diag(prob * (1 - prob))X, the IRLS system's matrix."""
    return (x * (prob * (1.0 - prob))[:, None]).T @ x


def logit_log_likelihood(design: DesignMatrix, beta: np.ndarray) -> float:
    eta = design.full_matrix() @ beta
    return float(design.y @ eta - np.logaddexp(0.0, eta).sum())


def fit_logit(design: DesignMatrix, robust: bool = False) -> RegressionResult:
    """Logit maximum likelihood by Newton/IRLS from a zero start.

    Stops when the max absolute coefficient change drops below 1e-10 (or
    after 100 iterations, flagged unconverged).  A coefficient norm above
    1e4 mid-iteration, or a singular information matrix, is treated as
    perfect separation.
    """
    y = design.y
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logit response must be {0,1}")
    if y.min() == y.max():
        raise DegenerateResponseError("response has a single class; logit MLE does not exist")
    x = _full_rank(design)

    beta = np.zeros(x.shape[1])
    converged = False
    n_iter = 0
    try:
        for n_iter in range(1, LOGIT_MAX_ITER + 1):
            prob = _sigmoid(x @ beta)
            step = np.linalg.solve(_information(x, prob), x.T @ (y - prob))
            beta = beta + step
            if np.linalg.norm(beta) > SEPARATION_NORM:
                raise PerfectSeparationError(
                    f"coefficient norm exceeded {SEPARATION_NORM:g}; data are separated"
                )
            if np.max(np.abs(step)) < LOGIT_TOL:
                converged = True
                break
        prob = _sigmoid(x @ beta)
        info_inv = np.linalg.inv(_information(x, prob))
    except np.linalg.LinAlgError:
        raise PerfectSeparationError("singular information matrix; data are separated") from None
    cov = _sandwich(x, info_inv, y - prob) if robust else info_inv
    return _result(
        design,
        beta,
        cov,
        converged=converged,
        n_iter=n_iter,
        log_likelihood=logit_log_likelihood(design, beta),
    )


def run_timing_regressions(
    signal: np.ndarray,
    controls: ControlSeries,
    market_returns: np.ndarray,
    tie_up: bool = False,
    robust: bool = False,
    with_ols: bool = False,
) -> TimingRegressionSet:
    """Fit the five up-day specifications on their maximal complete samples.

    `signal` is the lagged signal on the control calendar, NaN where undefined.
    Response is 1 when the market excess return is positive; an exact zero
    counts as down unless `tie_up`.  Each specification keeps every trading
    day on which all of its own regressors are defined, so samples differ
    across specifications; n_obs is reported per fit.  A fit's ValueError
    starts with ``specification <id>: ``.
    """
    n_days = len(controls.dates)
    market_returns = np.asarray(market_returns, dtype=float)
    if market_returns.shape != (n_days,) or np.shape(signal) != (n_days,):
        raise ValueError("lagged signal and market_returns must align one-to-one with controls")
    regressors = {
        "signal": signal,
        "d_nsi": np.asarray(controls.d_nsi, dtype=float),
        "pct_zero": np.asarray(controls.pct_zero, dtype=float),
        "short_rate": np.asarray(controls.short_rate, dtype=float),
    }
    up = (market_returns >= 0.0) if tie_up else (market_returns > 0.0)
    up = up.astype(float)
    # Days with an undefined market return never enter any sample.
    up[~np.isfinite(market_returns)] = np.nan

    logit_results: dict[str, RegressionResult] = {}
    ols_results: dict[str, RegressionResult] = {}
    for spec_id, terms in SPEC_TERMS.items():
        cols = {t: regressors[t] for t in terms}
        try:
            logit_results[spec_id] = fit_logit(build_design(cols, up), robust=robust)
            if with_ols:
                ols_results[spec_id] = fit_ols(build_design(cols, market_returns), robust=robust)
        except ValueError as exc:  # an empty sample, or a fit that cannot be made
            exc.args = (f"specification {spec_id}: {exc}",)
            raise
    return TimingRegressionSet(logit_results, ols_results)


# ---------------------------------------------------------------------------
# Reporting


def _rows(label: str, results: dict[str, RegressionResult]) -> list[tuple]:
    """The tables.REGRESSIONS rows of `results`: one per (spec, term), specs prefixed `label`."""
    return [
        (f"{label}{spec_id}", *term, res.n_obs)
        for spec_id, res in sorted(results.items())
        for term in zip(res.terms, res.estimates, res.std_errs, res.t_values)
    ]


def render_report(regset: TimingRegressionSet, signal_n: int, lag: int, model: str = LOGIT) -> str:
    """Aligned text table: specifications across, terms down, t-values in parentheses.

    Its cells are the rows regression_rows writes for `model`, estimates rounded to 4
    decimals and t-values to 2; the header names the signal window `signal_n` and the `lag`
    in trading days, and a line under the table names each fit that did not converge.
    """
    results = regset.logit if model == LOGIT else regset.ols
    if not results:
        raise ValueError(f"no {model} results to render")
    spec_ids = sorted(results)
    cells = {
        (spec, term): (f"{est:.4f}", f"({t:.2f})")
        for spec, term, est, _se, t, _n in _rows("", results)
    }
    header = (
        f"{'up-day' if model == LOGIT else 'excess-return'} regressions, "
        f"signal window N={signal_n}, lag {lag} trading days"
    )
    rows: list[list[str]] = [["term"] + [f"({s})" for s in spec_ids]]
    for term in (t for t in TERM_ORDER if any((s, t) in cells for s in spec_ids)):
        est_row, t_row = zip(*(cells.get((s, term), ("", "")) for s in spec_ids))
        rows += [[term, *est_row], ["", *t_row]]
    rows.append(["n_obs"] + [str(results[s].n_obs) for s in spec_ids])

    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [header, ""]
    for k, row in enumerate(rows):
        line = "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        )
        lines.append(line.rstrip())
        if k == 0:
            lines.append("-" * len(line.rstrip()))
    for s in spec_ids:
        if not results[s].converged:
            lines.append(f"warning: ({s}) converged=False after n_iter={results[s].n_iter}")
    return "\n".join(lines) + "\n"


def regression_rows(regset: TimingRegressionSet) -> list[tuple]:
    """The long-form table (tables.REGRESSIONS), the logit fits' rows and then the OLS fits'."""
    return _rows("", regset.logit) + _rows("ols_", regset.ols)
