"""Seed-reproducible simulator of availability-budgeted federated learning
for time-series trajectory prediction, with ranked client selection and
peer collaboration among offline clients."""

from .config import ExperimentConfig
from .errors import FedsimError
from .experiment import run_experiment
from .nn import backward  # fedbench/test_harness.py checks the tracer rewraps this binding
from .reports import emit_reports

__version__ = "0.1.0"
