"""OLS and logit estimation plus the five-specification market-direction harness.

Both fitters are deliberately from scratch on numpy: estimates come from a
least-squares solve (never an explicit normal-equations inverse) and logit
fits by Newton/IRLS with a numerically safe sigmoid.  Standard errors are
classical by default; a heteroskedasticity-robust (sandwich) option sits
behind the `robust` flag.  The harness regresses an up-day indicator of the
market excess return on the lagged sentiment signal and macro/liquidity
controls in five fixed variable combinations and renders them side by side,
point estimates with t-values in parentheses underneath.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .factors import ControlSeries
from .timing import DEFAULT_LAG, SignalSeries, lagged_signal_values

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
    """Named regressor columns plus a response, with incomplete rows dropped."""

    column_names: list[str]
    x: np.ndarray  # (n, len(column_names)), no intercept column
    y: np.ndarray
    intercept: bool = True
    n_dropped: int = 0

    @property
    def n_obs(self) -> int:
        return int(self.y.shape[0])

    @property
    def terms(self) -> list[str]:
        return (["intercept"] if self.intercept else []) + list(self.column_names)

    def full_matrix(self) -> np.ndarray:
        if not self.intercept:
            return self.x
        return np.column_stack([np.ones(self.n_obs), self.x])


@dataclass
class RegressionResult:
    model: str  # "ols" or "logit"
    terms: list[str]
    estimates: np.ndarray
    std_errs: np.ndarray
    t_values: np.ndarray  # estimate / std_err (Wald z for logit)
    n_obs: int
    n_dropped: int = 0
    converged: bool = True
    n_iter: int = 0
    log_likelihood: float | None = None
    residual_variance: float | None = None

    def _idx(self, term: str) -> int:
        try:
            return self.terms.index(term)
        except ValueError:
            raise KeyError(f"no term {term!r} in result ({', '.join(self.terms)})") from None

    def coef(self, term: str) -> float:
        return float(self.estimates[self._idx(term)])

    def se_of(self, term: str) -> float:
        return float(self.std_errs[self._idx(term)])

    def t_of(self, term: str) -> float:
        return float(self.t_values[self._idx(term)])


@dataclass
class TimingRegressionSet:
    """The five-specification run, logit always, OLS alongside when requested."""

    logit: dict[str, RegressionResult]
    ols: dict[str, RegressionResult] = field(default_factory=dict)
    signal_n: int = 0
    lag: int = DEFAULT_LAG
    tie_up: bool = False


def build_design(
    columns: dict[str, np.ndarray], response: np.ndarray, intercept: bool = True
) -> DesignMatrix:
    """Assemble a design, dropping every row with any non-finite cell."""
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
    return DesignMatrix(
        column_names=names,
        x=x[keep],
        y=response[keep],
        intercept=intercept,
        n_dropped=n_dropped,
    )


def _check_rank(x: np.ndarray, terms: list[str]) -> None:
    p = x.shape[1]
    if np.linalg.matrix_rank(x) == p:
        return
    # Walk the columns; any column not raising the rank is redundant with its
    # predecessors.  p is small here, so repeated rank calls are cheap.
    bad = []
    rank = 0
    for j in range(p):
        r = np.linalg.matrix_rank(x[:, : j + 1])
        if r == rank:
            bad.append(terms[j])
        rank = r
    raise CollinearityError(bad or terms)


def fit_ols(design: DesignMatrix, robust: bool = False) -> RegressionResult:
    """Least-squares fit with classical (or, on request, HC1 sandwich) errors."""
    x = design.full_matrix()
    y = design.y
    n, p = x.shape
    if n <= p:
        raise EmptySampleError(f"need more than {p} observations, have {n}")
    _check_rank(x, design.terms)
    beta, _res, _rank, _sv = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    dof = n - p
    sigma2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.inv(x.T @ x)
    if robust:
        meat = (x * (resid**2)[:, None]).T @ x
        cov = xtx_inv @ meat @ xtx_inv * (n / dof)
    else:
        cov = sigma2 * xtx_inv
    se = np.sqrt(np.diag(cov))
    return RegressionResult(
        model=OLS,
        terms=design.terms,
        estimates=beta,
        std_errs=se,
        t_values=beta / se,
        n_obs=n,
        n_dropped=design.n_dropped,
        residual_variance=sigma2,
    )


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # Evaluate in the branch that never overflows exp().
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logit_log_likelihood(design: DesignMatrix, beta: np.ndarray) -> float:
    eta = design.full_matrix() @ beta
    return float(design.y @ eta - np.logaddexp(0.0, eta).sum())


def fit_logit(design: DesignMatrix, robust: bool = False) -> RegressionResult:
    """Logit maximum likelihood by Newton/IRLS from a zero start.

    Stops when the max absolute coefficient change drops below 1e-10 (or
    after 100 iterations, flagged unconverged).  A coefficient norm above
    1e4 mid-iteration is treated as perfect separation.
    """
    x = design.full_matrix()
    y = design.y
    n, p = x.shape
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logit response must be {0,1}")
    if y.min() == y.max():
        raise DegenerateResponseError("response has a single class; logit MLE does not exist")
    if n <= p:
        raise EmptySampleError(f"need more than {p} observations, have {n}")
    _check_rank(x, design.terms)

    beta = np.zeros(p)
    converged = False
    n_iter = 0
    for n_iter in range(1, LOGIT_MAX_ITER + 1):
        prob = _sigmoid(x @ beta)
        w = prob * (1.0 - prob)
        grad = x.T @ (y - prob)
        hess = (x * w[:, None]).T @ x
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise PerfectSeparationError(
                "singular information matrix during iteration; data are separated"
            ) from None
        beta = beta + step
        if np.linalg.norm(beta) > SEPARATION_NORM:
            raise PerfectSeparationError(
                f"coefficient norm exceeded {SEPARATION_NORM:g}; data are separated"
            )
        if np.max(np.abs(step)) < LOGIT_TOL:
            converged = True
            break

    prob = _sigmoid(x @ beta)
    w = prob * (1.0 - prob)
    info = (x * w[:, None]).T @ x
    info_inv = np.linalg.inv(info)
    if robust:
        meat = (x * ((y - prob) ** 2)[:, None]).T @ x
        cov = info_inv @ meat @ info_inv
    else:
        cov = info_inv
    se = np.sqrt(np.diag(cov))
    return RegressionResult(
        model=LOGIT,
        terms=design.terms,
        estimates=beta,
        std_errs=se,
        t_values=beta / se,
        n_obs=n,
        n_dropped=design.n_dropped,
        converged=converged,
        n_iter=n_iter,
        log_likelihood=logit_log_likelihood(design, beta),
    )


def run_timing_regressions(
    signal: SignalSeries,
    controls: ControlSeries,
    market_returns: np.ndarray,
    lag: int = DEFAULT_LAG,
    tie_up: bool = False,
    robust: bool = False,
    with_ols: bool = False,
) -> TimingRegressionSet:
    """Fit the five up-day specifications on their maximal complete samples.

    Response is 1 when the market excess return is positive; an exact zero
    counts as down unless `tie_up`.  Each specification keeps every trading
    day on which all of its own regressors are defined, so samples differ
    across specifications; n_obs is reported per fit.
    """
    calendar = controls.dates
    market_returns = np.asarray(market_returns, dtype=float)
    if market_returns.shape != (len(calendar),):
        raise ValueError("market_returns must align one-to-one with the control calendar")
    regressors = {
        "signal": lagged_signal_values(signal, calendar, lag),
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
            design = build_design(cols, up)
        except EmptySampleError as exc:
            raise EmptySampleError(f"specification {spec_id}: {exc}") from None
        logit_results[spec_id] = fit_logit(design, robust=robust)
        if with_ols:
            ols_results[spec_id] = fit_ols(build_design(cols, market_returns), robust=robust)
    return TimingRegressionSet(
        logit=logit_results,
        ols=ols_results,
        signal_n=signal.n,
        lag=lag,
        tie_up=tie_up,
    )


# ---------------------------------------------------------------------------
# Reporting


def _fmt_est(v: float) -> str:
    return f"{v:.4f}"


def _fmt_t(v: float) -> str:
    return f"({v:.2f})"


def render_report(regset: TimingRegressionSet, model: str = LOGIT) -> str:
    """Aligned text table: specifications across, terms down, t-values in parentheses.

    A line under the table names each fit that did not converge.
    """
    results = regset.logit if model == LOGIT else regset.ols
    if not results:
        raise ValueError(f"no {model} results to render")
    spec_ids = sorted(results)
    terms = [
        t
        for t in TERM_ORDER
        if any(t in results[s].terms for s in spec_ids)
    ]
    header = (
        f"{'up-day' if model == LOGIT else 'excess-return'} regressions, "
        f"signal window N={regset.signal_n}, lag {regset.lag} trading days"
    )
    rows: list[list[str]] = [["term"] + [f"({s})" for s in spec_ids]]
    for term in terms:
        est_row = [term]
        t_row = [""]
        for s in spec_ids:
            res = results[s]
            if term in res.terms:
                est_row.append(_fmt_est(res.coef(term)))
                t_row.append(_fmt_t(res.t_of(term)))
            else:
                est_row.append("")
                t_row.append("")
        rows.append(est_row)
        rows.append(t_row)
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


def write_regressions_csv(regset: TimingRegressionSet, path: str | Path) -> None:
    """Long-form dump: `spec,term,estimate,std_err,t_value,n_obs` (OLS specs prefixed)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["spec", "term", "estimate", "std_err", "t_value", "n_obs"])
        for label, results in (("", regset.logit), ("ols_", regset.ols)):
            for spec_id in sorted(results):
                res = results[spec_id]
                for i, term in enumerate(res.terms):
                    writer.writerow(
                        [
                            f"{label}{spec_id}",
                            term,
                            repr(float(res.estimates[i])),
                            repr(float(res.std_errs[i])),
                            repr(float(res.t_values[i])),
                            res.n_obs,
                        ]
                    )


def read_regressions_csv(path: str | Path) -> list[dict[str, str]]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
