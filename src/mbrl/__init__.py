"""Moderately-balanced representation learning for treatment effect estimation.

Public surface: dataset handling and synthetic generators (``data``), the
dense-net engine (``nn``), entropic optimal transport (``ot``), the model
and its training loop (``model``), ATE estimators and orthogonality probes
(``estimators``), evaluation metrics (``metrics``) and the experiment
harness (``harness``).
"""

from .data import (Dataset, SimConfig, SplitSpec, TrueModel, concat,
                   generate_simulation, generate_twins_assignment,
                   kl_selection_bias, load_csv, save_csv, split, true_ate)
from .estimators import (BaselineResult, NoiseOrthogonalityResult,
                         NuisanceEstimates, ProbeResult, ThetaPair,
                         ate_orthogonal, baseline, noise_orthogonality_stat,
                         orthogonality_probe, plug_in_ate, score, solve_theta)
from .harness import ExperimentConfig, Report, emit_report, run_experiment
from .metrics import ate_error, auc, pehe_root, rmse
from .model import (Batch, Checkpoint, MBRLNet, TrainConfig, build_net, fit,
                    load_checkpoint, multitask_step, perturbation_error,
                    predict, save_checkpoint)
from .nn import AdamState, NetSpec, ParamSet, adam_update, backward, forward, \
    grad_check, init_params
from .ot import SinkhornConfig, SinkhornResult, exact_ot_small, \
    wasserstein_sinkhorn

__version__ = "0.1.0"
