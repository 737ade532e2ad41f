"""Normalizing flows with nested-dropout training.

Flows trained with a truncated-reconstruction penalty order their latent
dimensions by importance, recovering PCA-like structure from a generic
invertible model.  The package provides LU and QR linear flows, affine
coupling multi-scale flows, the nested-dropout objective, Adam training,
a PCA baseline, and evaluation tools, all on top of numpy.  Transforms
carry hand-written VJPs; the objective's gradient is one call of its VJP,
an explicit reverse sweep through the flow's inverse and forward passes.
Importing the package loads no submodule: each public name and submodule is
imported on first access, so a command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "autodiff": "GradientRecord NonFiniteLossError ParameterVector evaluate_with_gradient "
                "finite_difference_gradient",
    "coupling": "AffineCouplingTransform MultiScaleFlow build_multiscale_flow "
                "depth_forward_order multiscale_depth_order",
    "datasets": "Dataset gen_synthetic_gaussian gen_toy_hierarchical load_dataset save_dataset",
    "evaluation": "RunReport avg_log_likelihood bits_per_dim make_run_report mse_curve",
    "flows": "FlowModel LULinearTransform OffsetTransform QRLinearTransform build_lu_flow "
             "build_qr_flow",
    "checkpoint": "load_model save_model",
    "nested_dropout": "GeometricSchedule NestedDropoutConfig identity_order loss_terms "
                      "reversed_order sample_ks",
    "optim": "AdamState TrainConfig TrainTrace adam_step cosine_lr init_adam train train_seeds",
    "pca": "PCAModel pca_fit pca_mse pca_project",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "config", "experiment", "linalg"}
__all__ = list(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # binds it here too
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_OWNER[name]}", __name__), name))


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
