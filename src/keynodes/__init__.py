"""Key-node identification in retweet cascades.

Library + CLI that scores nodes of an information cascade with a dual-view
attention model (profile attributes and walk structure, each enhanced by
learned memory banks), trains it unsupervised against a differentiable
coverage objective, and evaluates selected seed sets with SIR spread and a
network robustness index against classical centrality baselines.
"""

import os
import sys


def _blas_one_thread() -> bool:
    """Whether numpy's OpenBLAS runs one thread: OPENBLAS_NUM_THREADS is "1"
    when numpy loads, which is known only if numpy has not loaded yet or the
    variable was "1" when this process started."""
    if "numpy" not in sys.modules:
        return os.environ.get("OPENBLAS_NUM_THREADS", "1") == "1"
    try:
        with open("/proc/self/environ", "rb") as fh:
            return b"OPENBLAS_NUM_THREADS=1" in fh.read().split(b"\0")
    except OSError:
        return False


# training.train runs a batch's graphs in several processes only then.
BLAS_ONE_THREAD = _blas_one_thread()
# The model's matmuls are too small for a second BLAS thread to pay off: on
# 2 CPUs it roughly doubles training CPU time for no wall-time gain.  Set
# before numpy loads; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .autodiff import Tape, load_checkpoint, save_checkpoint
from .baselines import degree_centrality, greedy_dcover, h_index, kshell, leaderrank
from .epidemic import (
    EvalReport,
    SirConfig,
    compare_methods,
    default_mu,
    infection_rate,
    robustness,
    sir_run,
)
from .errors import DataError, NumericError, ShapeError
from .features import WalkConfig, featurize_graph, user_feature_matrix
from .graphs import (
    CascadeGraph,
    UserRecord,
    largest_component_size,
    load_cascade,
    save_cascade,
    synth_cascade,
)
from .model import ModelConfig, init_params, mmen_forward
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    coverage_loss,
    select_seeds,
    train,
)

__version__ = "0.1.0"
