"""Normalizing flows with nested-dropout training.

Flows trained with a truncated-reconstruction penalty order their latent
dimensions by importance, recovering PCA-like structure from a generic
invertible model.  The package provides LU and QR linear flows, affine
coupling multi-scale flows, the nested-dropout objective, Adam training,
a PCA baseline, and evaluation tools, all on top of numpy.  Transforms
carry hand-written VJPs; the objective's gradient is one call of its VJP,
an explicit reverse sweep through the flow's inverse and forward passes.
"""

__version__ = "0.1.0"

from .autodiff import (GradientRecord, NonFiniteLossError, ParameterVector,
                       evaluate_with_gradient, finite_difference_gradient)
from .coupling import (AffineCouplingTransform, MultiScaleFlow,
                       build_multiscale_flow, depth_forward_order,
                       multiscale_depth_order)
from .datasets import (Dataset, gen_synthetic_gaussian, gen_toy_hierarchical,
                       load_dataset, save_dataset)
from .evaluation import (RunReport, avg_log_likelihood, bits_per_dim,
                         make_run_report, mse_curve)
from .flows import (FlowModel, LULinearTransform, OffsetTransform,
                    QRLinearTransform, build_lu_flow, build_qr_flow)
from .checkpoint import load_model, save_model
from .nested_dropout import (GeometricSchedule, NestedDropoutConfig,
                             identity_order, loss_terms, reversed_order,
                             sample_ks)
from .optim import (AdamState, TrainConfig, TrainTrace, adam_step, cosine_lr,
                    init_adam, train, train_seeds)
from .pca import PCAModel, pca_fit, pca_mse, pca_project
