"""Global decision-tree explanations of blackbox classifiers.

Fits a Gaussian mixture to the training inputs, then grows a greedy tree by
actively sampling fresh labeled points from the mixture conditioned on each
node's path constraints, so deep nodes get full sample budgets instead of a
thinning share of the original data.
"""
from .core import BoxConstraint, Dataset, DecisionTree
from .errors import (BlackboxError, ConfigError, EmptyRegionError, InputError,
                     SamplerError, TreextractError, UnknownCategoryError)
from .gmm import (ConditionalMixture, EMConfig, GaussianMixture, box_mass,
                  condition, fit_em, sample, sample_conditional,
                  sample_truncated_normal, select_k_bic)
from .extract import (ExtractionConfig, SplitCandidate, best_split_from_samples,
                      estimate_split, extract_tree, prune)
from .blackbox import (BoxBlackbox, FunctionBlackbox, PolicyConfig,
                       RandomForest, RandomForestConfig, TabularPolicy,
                       collect_states, learn_policy,
                       make_imbalanced_classification, mean_rollout_reward,
                       train_random_forest)
from .baselines import born_again_extract, cart_extract
from .evaluate import (AgreementResult, ExperimentResult, FidelityReport,
                       FidelityTask, agreement, cartpole_task,
                       exact_greedy_oracle, fidelity, run_fidelity_curve,
                       synthetic_rf_task, three_box_benchmark)
from .io import (TableSchema, export_dot, load_csv, load_gmm, load_tree,
                 save_gmm, save_tree)

__version__ = "0.1.0"
