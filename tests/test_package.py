"""The package's public names: each resolves on first access to the object
its submodule defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nestedflow

EXPORTS = {
    "autodiff": ["GradientRecord", "NonFiniteLossError", "ParameterVector",
                 "evaluate_with_gradient", "finite_difference_gradient"],
    "coupling": ["AffineCouplingTransform", "MultiScaleFlow", "build_multiscale_flow",
                 "depth_forward_order", "multiscale_depth_order"],
    "datasets": ["Dataset", "gen_synthetic_gaussian", "gen_toy_hierarchical",
                 "load_dataset", "save_dataset"],
    "evaluation": ["RunReport", "avg_log_likelihood", "bits_per_dim", "make_run_report",
                   "mse_curve"],
    "flows": ["FlowModel", "LULinearTransform", "OffsetTransform", "QRLinearTransform",
              "build_lu_flow", "build_qr_flow"],
    "checkpoint": ["load_model", "save_model"],
    "nested_dropout": ["GeometricSchedule", "NestedDropoutConfig", "identity_order",
                       "loss_terms", "reversed_order", "sample_ks"],
    "optim": ["AdamState", "TrainConfig", "TrainTrace", "adam_step", "cosine_lr",
              "init_adam", "train", "train_seeds"],
    "pca": ["PCAModel", "pca_fit", "pca_mse", "pca_project"],
}
PUBLIC = [name for names in EXPORTS.values() for name in names]


def run_fresh(code):
    """The last line ``code`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_all_lists_the_46_public_names():
    assert len(PUBLIC) == 46
    assert nestedflow.__all__ == PUBLIC


def test_each_name_is_its_submodules_object():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"nestedflow.{module}")
        for name in names:
            assert getattr(nestedflow, name) is getattr(owner, name)
    assert set(PUBLIC) <= set(dir(nestedflow))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from nestedflow import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert namespace["train"] is nestedflow.optim.train


def test_submodules_are_attributes_of_a_fresh_package():
    assert run_fresh("import nestedflow; from nestedflow import autodiff; "
                     "print(nestedflow.optim.__name__, autodiff.__name__, "
                     "'optim' in dir(nestedflow))") == "nestedflow.optim nestedflow.autodiff True"


def test_importing_the_package_loads_no_submodule():
    assert run_fresh("import sys, nestedflow; "
                     "print(sorted(m for m in sys.modules if m.startswith('nestedflow')))") \
        == "['nestedflow']"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nestedflow.no_such_name
    with pytest.raises(ImportError):
        from nestedflow import no_such_name  # noqa: F401
