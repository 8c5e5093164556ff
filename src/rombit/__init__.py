"""Random-order bit extraction and de-randomized 1-bit online algorithms."""

from .core import (
    Instance,
    make_instance,
    read_instances,
    write_instances,
)
from .extraction import (
    BiasReport,
    bias_curve,
    empirical_bias,
    exact_bias,
)
from .harness import ExperimentConfig, generate_instances, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BiasReport",
    "ExperimentConfig",
    "Instance",
    "bias_curve",
    "empirical_bias",
    "exact_bias",
    "generate_instances",
    "make_instance",
    "read_instances",
    "run_experiment",
    "write_instances",
    "__version__",
]
