"""prunescope: component-aware structured pruning on small dense networks.

Train a multi-component network with exact reverse-mode gradients, watch
three group-importance metrics evolve online under a phase-offset cyclic L1
schedule, then remove the least important units with their full dependency
closure so the smaller network stays consistent.
"""

from .errors import (ConfigurationError, DataFormatError, InfeasiblePlanError,
                     NumericsError, PrunescopeError)
from .importance import (BayesConfig, GroupImportanceState, bayes_importance,
                         ema_update, init_states, metric_scores, rank_groups,
                         states_from_doc, states_to_doc)
from .modelgraph import (ComponentGraph, MemberSlice, PruningGroup,
                         build_groups, export_manifest)
from .netcore import (Adam, DenseLayer, Network, ParamTensor, SGD,
                      apply_activation, backward, build_sequential, forward,
                      load_checkpoint, mse_loss, save_checkpoint)
from .pruner import (PrunePlan, allocate_budget, apply_prune,
                     importance_weights, verify_consistency)
from .scheduler import (ScheduleConfig, lambda_coefficient, lambda_weight_at,
                        phase_offset, schedule_row, total_loss)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DataFormatError", "InfeasiblePlanError",
    "NumericsError", "PrunescopeError",
    "BayesConfig", "GroupImportanceState", "bayes_importance", "ema_update",
    "init_states", "metric_scores", "rank_groups", "states_from_doc",
    "states_to_doc",
    "ComponentGraph", "MemberSlice", "PruningGroup", "build_groups",
    "export_manifest",
    "Adam", "DenseLayer", "Network", "ParamTensor", "SGD",
    "apply_activation", "backward", "build_sequential", "forward",
    "load_checkpoint", "mse_loss", "save_checkpoint",
    "PrunePlan", "allocate_budget", "apply_prune", "importance_weights",
    "verify_consistency",
    "ScheduleConfig", "lambda_coefficient", "lambda_weight_at", "phase_offset",
    "schedule_row", "total_loss",
    "__version__",
]
