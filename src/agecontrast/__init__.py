"""Contrastive age estimation on labeled input vectors.

Trains a small feature extractor and age-distribution head under a
combined objective (softmax + mean + variance + cosine contrast +
triplet margin) with constraint-checked triplet sampling, three
cross-validation protocols, and an identity-variance diagnostic — all
verifiable end to end on synthetic data.
"""

from .autodiff import grad_check, softmax_parts
from .data import (LabeledDataset, Triplet, TripletBatch, load_dataset, negative_set,
                   positive_set, sample_triplet_batch, save_dataset)
from .errors import (ConfigError, DatasetError, IncompatibleDataError, NonFiniteError,
                     OptimizationError, VerificationError)
from .evaluation import (EvalReport, Fold, SweepCell, SweepRow, evaluate_checkpoint,
                         evaluate_mae, identity_variance, lambda_grid_cells,
                         loss_set_cells, mean_absolute_error, run_protocol,
                         split_lopo, split_random, split_subject_exclusive, sweep)
from .losses import (LossBreakdown, LossWeights, ce_rows, cosine_rows, kld_rows,
                     mean_variance_rows, total_loss, triplet_rows)
from .model import (Model, ModelConfig, forward_batch, forward_values, init_model,
                    load_model, predict_ages, save_model)
from .synth import (GroundTruth, SynthConfig, generate_dataset, load_ground_truth,
                    prior_baseline_mae, save_ground_truth)
from .training import AdamState, TrainConfig, adam_step, build_batch_loss, train

__version__ = "0.1.0"
