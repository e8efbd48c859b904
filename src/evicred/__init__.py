"""Evidence-aware credibility assessment for natural-language claims."""

import os

# One BLAS thread unless the caller chose a count: OpenBLAS rounds some
# products differently at other counts, and so training would write other
# bits.  BLAS reads these when numpy loads, so they are set before any
# submodule imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .errors import (
    ContractError,
    DegenerateInputError,
    EvicredError,
    ParseError,
    ShapeError,
    UsageError,
)
from .model import CredibilityModel, Hyperparams, ModelParams, aggregate, verdict
from .training import TrainConfig, evaluate, fit, gradient_check, train

__version__ = "0.1.0"

__all__ = [
    "CredibilityModel",
    "Hyperparams",
    "ModelParams",
    "TrainConfig",
    "aggregate",
    "verdict",
    "fit",
    "train",
    "evaluate",
    "gradient_check",
    "EvicredError",
    "ShapeError",
    "ContractError",
    "DegenerateInputError",
    "ParseError",
    "UsageError",
    "__version__",
]
