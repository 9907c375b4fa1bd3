"""Lagged cross-stock trend-gradient prediction experiments.

The package turns aligned multi-stock price series into per-interval
least-squares trend gradients, trains a from-scratch feed-forward network
per target stock on the *other* stocks' preceding-interval gradients, and
tests the resulting accuracies against randomized and constant-class
baselines with upper-tail Welch statistics.  A synthetic market generator
with a plantable lag-1 cross-stock dependency makes the whole claim
testable without proprietary data.
"""

__version__ = "0.1.0"

from .baselines import (
    accuracy,
    bestof_accuracy,
    class_baseline,
    randomized_baseline,
)
from .errors import ConfigError, DataError, TrendlagError
from .features import (
    GradientMatrix,
    NormalizationParams,
    RegressionFit,
    apply_normalizer,
    build_gradients,
    dataset_arrays,
    fit_normalizer,
    fit_trend,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    StockResult,
    emit_report,
    load_experiment_config,
    run,
    run_bottleneck_sweep,
    run_cross_validated,
    run_crisis,
)
from .market_data import (
    PriceMatrix,
    TickColumns,
    TickTable,
    TimeGrid,
    fill_missing,
    parse_ticks,
    select_consistent_stocks,
)
from .neural import (
    NetworkConfig,
    NetworkModel,
    TrainReport,
    backward,
    forward,
    init,
    predict_class,
    sgd_step,
    train,
)
from .stats import (
    BoxStats,
    WelchResult,
    box_stats,
    t_distribution_upper_tail,
    welch_upper_tail,
)
from .synth import (
    OracleBound,
    RegimeSwitch,
    SyntheticConfig,
    generate,
    oracle_accuracy,
    random_coupling,
    write_tick_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
