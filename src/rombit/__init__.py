"""Random-order bit extraction and de-randomized 1-bit online algorithms."""

from .core import (
    Instance,
    lex_compare,
    make_instance,
    make_item,
    read_instances,
    write_instances,
)
from .extraction import (
    BiasReport,
    CombineExtractor,
    Process1Extractor,
    bias_curve,
    distinct_unbiased,
    empirical_bias,
    exact_bias,
    pairwise_bits,
)
from .harness import ExperimentConfig, generate_instances, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BiasReport",
    "CombineExtractor",
    "ExperimentConfig",
    "Instance",
    "Process1Extractor",
    "bias_curve",
    "distinct_unbiased",
    "empirical_bias",
    "exact_bias",
    "generate_instances",
    "lex_compare",
    "make_instance",
    "make_item",
    "pairwise_bits",
    "read_instances",
    "run_experiment",
    "write_instances",
    "__version__",
]
