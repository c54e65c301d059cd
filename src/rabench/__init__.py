"""Rational-agent benchmarks and loss decomposition for decision experiments.

Compute what an optimal agent would earn in a decision experiment with and
without its signals (baseline, per-strategy optima, benchmark, value of
information) before running it, and decompose observed behavioral
performance into belief and optimization losses afterwards.
"""

from .agents import AgentSpec, simulate
from .behavioral import (
    EmpiricalJoint,
    LossReport,
    TrialTable,
    behavioral_score,
    behavioral_value_of_information,
    belief_loss,
    calibrate,
    decisions_from_beliefs,
    ingest,
    loss_report,
    optimization_loss,
    pooled_loss_report,
    read_trials_csv,
    write_trials_csv,
)
from .cases import (
    CaseStudy,
    PinnedValue,
    build_case,
    build_fernandes,
    build_kale,
    build_weather,
)
from .config_io import (
    design_from_config,
    design_to_config,
    load_design_config,
    save_design_config,
)
from .errors import (
    ConfigError,
    DimensionError,
    InvalidModelError,
    RabenchError,
    TrialDataError,
)
from .generative import (
    BoxCoxTDist,
    DiscretizedDistribution,
    GaussianThresholdDGM,
    TwoTeamDGM,
    discretize,
    kale_joint,
    monte_carlo_score,
    pos_to_win_probability,
    weather_joint,
    win_probability_to_pos,
)
from .model import (
    ActionSpace,
    Belief,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    ReportMap,
    StateSpace,
    TransitRule,
)
from .payment import (
    AffineConversion,
    ConversionRule,
    FlooredAffineConversion,
    IncentiveTable,
    incentive_table,
)
from .rational import (
    RationalReport,
    prior,
    rational_baseline,
    rational_report,
)

__version__ = "0.1.0"
