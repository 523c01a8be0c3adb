"""Categorical Bayesian networks and causal discovery under missing data."""

from .data import (
    AmputationEntry,
    AmputationSpec,
    CategoricalDataset,
    VariableSchema,
    ampute,
    bootstrap,
    forward_sample,
    impute_mode,
    read_csv,
    split,
    write_csv,
)
from .discovery import (
    KnowledgeBase,
    SearchOptions,
    SearchTrace,
    BootstrapSummary,
    bootstrap_sem,
    evaluate,
    hc_aipw,
    hill_climb,
    structural_em,
)
from .estimation import (
    BicScorer,
    EmTrace,
    IpwBicScorer,
    ParameterSet,
    ScoreValue,
    em_fit,
    fit_mle,
    ipw_weights,
    log_likelihood,
    rescale_ll,
)
from .graphs import (
    Dag,
    MGraph,
    MechanismClass,
    classify_mechanism,
    d_separated,
    export_dot,
    find_active_path,
    graph_from_json,
    graph_to_json,
    implied_mgraph,
)

__version__ = "0.1.0"
