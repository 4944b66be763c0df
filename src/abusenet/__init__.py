"""Two-path (text + metadata) neural classifier for abusive-behavior detection.

The package is organized bottom-up: `tensor` (autodiff engine), `layers`,
`text` / `features` / `graph` (input pipelines), `model` (path assembly and
checkpoints), `training` (loss, Adam, early stopping, the four strategies),
`evaluation` (cross validation, ablation), `baseline` (Naive Bayes + TF-IDF)
and `cli`.
"""

from .tensor import Parameter, Tape, Tensor, grad_check
from .layers import (
    AttentionLayer,
    BatchNormLayer,
    DenseLayer,
    EmbeddingLayer,
    GRULayer,
)
from .text import SequenceSpec, Vocabulary, choose_seq_len, load_embeddings, tokenize
from .features import FeaturePipeline, assemble, parse_mask
from .graph import SocialGraph
from .model import (
    ModelConfig,
    build_combined,
    build_metadata_path,
    build_text_path,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from .training import (
    Adam,
    EarlyStopping,
    EncodedDataset,
    TrainingConfig,
    cross_entropy,
    fit,
    fit_interleaved,
    fit_naive,
    fit_transfer,
)
from .evaluation import run_ablation, run_cv
from .metrics import prf1, roc_auc
from .baseline import NaiveBayes, TfidfModel

__version__ = "0.1.0"
