"""boostlab: boosting ensembles and binary-classification metrics from scratch."""

from .bench import BenchmarkConfig, BenchmarkReport, paper_preset_config, run_benchmark
from .boost import (
    ALGORITHMS,
    AdaBoostModel,
    BoostParams,
    TreeEnsemble,
    default_params,
    fit,
    fit_adaboost,
    load_model,
    paper_preset,
    predict_labels,
    predict_scores,
    save_model,
)
from .dataset import (
    BINARY,
    NUMERIC,
    Dataset,
    FeatureKind,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    categorical,
    load_csv,
    pcos_default_schema,
    split,
    synthesize,
    write_csv,
)
from .errors import BoostlabError
from .metrics import (
    ConfusionMatrix,
    CurveSeries,
    MetricScores,
    accuracy,
    confusion,
    f_score,
    fpr,
    pr_curve,
    precision,
    recall,
    roc_curve,
    specificity,
    tpr,
)
from .tree import (
    ObliviousTree,
    RegressionTree,
    Stump,
    fit_oblivious_tree,
    fit_regression_tree,
    fit_stump,
    predict_tree,
)

__version__ = "0.1.0"
