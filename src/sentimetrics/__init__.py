"""Transcript sentiment scoring, factor event studies, and market-timing tools."""

from .corpus import (
    FirmDictionary,
    TranscriptDay,
    TranscriptRecord,
    build_days,
    extract_mentions,
    load_firm_dictionary,
    load_transcripts,
    tokenize,
)
from .econometrics import (
    DesignMatrix,
    RegressionResult,
    TimingRegressionSet,
    build_design,
    fit_logit,
    fit_ols,
    render_report,
    run_timing_regressions,
)
from .eventstudy import (
    ArPath,
    EventStudyResult,
    EventStudyRun,
    EventWindowConfig,
    ExposureEstimate,
    compute_ar,
    estimate_exposures,
    lead_lag_design,
    pool_aar_caar,
    run_event_study,
)
from .factors import (
    ControlSeries,
    FactorSeries,
    SecurityPanel,
    construct_factors,
    load_controls,
    load_panel,
    read_controls_csv,
    read_factors_csv,
    positions,
    read_rf_csv,
    roll_forward,
)
from .sentiment import (
    Lexicon,
    SentimentObservation,
    StockSentimentEvent,
    build_stock_events,
    load_lexicon,
    score_day,
)
from .synthetic import DeterministicRng, SynthConfig, SynthDataset, gen_dataset, write_dataset
from .timing import (
    BacktestResult,
    SignalSeries,
    backtest_strategy,
    build_signal,
    lagged_signal_values,
    r2_scan,
    timing_observations,
)

__version__ = "0.1.0"
