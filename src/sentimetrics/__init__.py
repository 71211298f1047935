"""Transcript sentiment scoring, factor event studies, and market-timing tools.

Each public name loads its module on first use (PEP 562), so importing the
package loads no numpy: the CLI sets its BLAS default before numpy starts.
"""

import importlib

_EXPORTS = {
    "corpus": "FirmDictionary TranscriptDay TranscriptRecord build_days extract_mentions "
    "load_firm_dictionary load_transcripts tokenize",
    "econometrics": "DesignMatrix RegressionResult TimingRegressionSet build_design fit_logit "
    "fit_ols render_report run_timing_regressions",
    "eventstudy": "ArPath EventStudyResult EventStudyRun EventWindowConfig ExposureEstimate "
    "compute_ar estimate_exposures lead_lag_design pool_aar_caar run_event_study",
    "factors": "ControlSeries FactorSeries SecurityPanel construct_factors load_controls "
    "load_panel read_controls_csv read_factors_csv positions read_rf_csv roll_forward",
    "sentiment": "Lexicon SentimentObservation StockSentimentEvent build_stock_events "
    "load_lexicon score_day",
    "synthetic": "DeterministicRng SynthConfig SynthDataset gen_dataset write_dataset",
    "timing": "BacktestResult SignalSeries backtest_strategy build_signal "
    "lagged_signal_values r2_scan timing_observations",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # the next lookup finds it without this hook
    return value

