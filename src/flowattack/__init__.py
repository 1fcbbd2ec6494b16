"""Adversarial robustness toolkit for differentiable optical-flow estimators.

Budgeted targeted attacks (exact-penalty L2-constrained optimization and
an iterative signed-gradient baseline), universal perturbation training,
strength/robustness metrics, flow file formats, and built-in unrolled
variational estimators with exact input gradients.
"""

from .attack import (AttackResult, BoxConstraint, IfgsmConfig, LossKind,
                     PcfaConfig, Target, TargetKind, apply_cov, cov_init,
                     default_mu, ifgsm_attack, loss_aee, loss_cs, loss_mse,
                     loss_with_grad, pcfa_attack, penalty_value_grad)
from .core import (FlowField, Image, Perturbation, PerturbMode, ShapeError,
                   clip01, joint_l2_norm, scale_bound)
from .diffflow import (EstimatorConfig, FlowEstimator, builtin_estimators,
                       finite_diff_check)
from .evaluation import (AttackReport, adversarial_robustness,
                         attack_strength, masked_aee,
                         patch_equivalent_epsilon, transfer_matrix)
from .optim import LbfgsParams, NumericError, OptimTrace, lbfgs_minimize
from .universal import (DatasetManifest, UniversalTrainConfig,
                        apply_universal, train_universal)

__version__ = "0.1.0"
