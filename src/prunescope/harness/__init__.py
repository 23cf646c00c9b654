"""Experiment harness: configs, data, the training loop, traces, and the CLI."""

from .config import (DatasetConfig, ExperimentConfig, ModelConfig,
                     OptimizerConfig, build_model)
from .data import load_idx, load_image_matrix, synthetic_dataset
from .hypotheses import HypothesisReport, evaluate_hypotheses, render_report
from .trace import TRACE_FIELDS, TraceRecord, emit_trace, group_order, read_trace
from .train import (TrainResult, evaluate_mse, finetune, load_dataset, run_training,
                    save_outputs)

__all__ = [
    "DatasetConfig", "ExperimentConfig", "ModelConfig", "OptimizerConfig",
    "build_model", "load_idx", "load_image_matrix", "synthetic_dataset",
    "HypothesisReport", "evaluate_hypotheses", "render_report",
    "TRACE_FIELDS", "TraceRecord", "emit_trace", "group_order", "read_trace",
    "TrainResult", "evaluate_mse", "finetune", "load_dataset", "run_training",
    "save_outputs",
]
