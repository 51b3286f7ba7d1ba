"""Few-shot molecular property prediction by per-layer attention matching.

Molecules are parsed from SMILES into featurized graphs, encoded by a
message-passing network with one pooled embedding per layer, and query
labels are read off a support set through scaled dot-product attention
at every level.  Training is episodic: matching parameters adapt per
task by a few gradient steps while the encoder is shared and updated
only by the outer optimizer.
"""

from .config import RunConfig, load_config
from .encoder import EncoderParams, encode_multilevel
from .episodes import (
    Episode,
    Registry,
    can_sample,
    load_registry,
    sample_episode,
    sample_episode_balanced,
    sample_episode_unbalanced,
    synth_generate,
    write_registry,
)
from .matcher import MatchParams, predict_detailed
from .meta import (
    ModelParams,
    episode_loss,
    finetune_and_predict,
    init_model,
    inner_adapt,
    meta_train,
    split_support,
)
from .metrics import aggregate, auprc, auroc, delta_auprc, pca_project
from .smiles import MolGraph, SmilesError, graph_from_smiles, parse, tokenize
from .taskrel import relation_matrix, task_vector
from .tensor import Tensor, backward

__version__ = "0.1.0"
