"""Spline networks with self-adapting grid domains.

Layers carry learned univariate B-spline activations whose domains track
the input distribution through streaming histograms, stretching or
shrinking automatically during training.  The same histograms double as a
post-hoc out-of-distribution detector.  Also included: Adam/AdamW training
with grid refinement, symbolic-regression data generators, and a
control-Lyapunov learning/evaluation pipeline with conformal statistics.
"""

from .adapt import AdaptConfig, apply_adapt, decide, manual_adapt, shrink_threshold
from .clf import (
    ClfLossConfig,
    ConformalReport,
    analytical_clf,
    clf_loss_and_grads,
    clf_losses,
    dynamics_f,
    final_distances,
    lyapunov_value_and_grad,
    make_network_clf,
    make_sontag_controller,
    simulate,
    sontag_control,
    train_clf,
)
from .histogram import FeatureHistogram
from .model_io import load_model, save_model
from .network import (
    AdaptKanLayer,
    AdaptKanNet,
    NonFiniteError,
    init_network,
    silu,
    sparsity_penalty,
)
from .ood import OodScorer, auroc
from .optim import Adam, Round, TrainPlan, lr_at, train
from .spline import (
    GridDomain,
    activation_dz,
    eval_activation,
    greville_abscissae,
    refine_grid,
    refit_greville,
    refit_least_squares,
)
from .tasks import PoisonPlan, SymbolicTask, generate, get_task, poison_hook, rmse

__version__ = "0.1.0"
