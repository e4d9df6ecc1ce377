"""Chained variational quantum circuit classifiers on an exact statevector
simulator, with a PCA preprocessing pipeline and a reproducible training and
sweep harness for small tabular datasets."""

from .core import (
    GateKind,
    GateOp,
    MAX_QUBITS,
    cnot,
    rotation,
    run_circuit_batch,
)
from .errors import (
    ConfigError,
    DataError,
    ModelDefinitionError,
    MultiVqcError,
    NumericalError,
    PipelineStateError,
)
from .gradients import batch_loss, batch_loss_gradient
from .metrics import ConfusionCounts, Metrics, compute_metrics, confusion, evaluate
from .model import (
    ForwardTrace,
    MultiVqcConfig,
    MultiVqcModel,
    Rescale,
    load_model,
    save_model,
    softmax,
)
from .params import ParamStore
from .pipeline import (
    Dataset,
    PcaModel,
    Pipeline,
    SplitDataset,
    fit_pca,
    load_csv,
    split,
    transform_pca,
)
from .templates import Ansatz, Encoding, VqcConfig, build_vqc, param_count
from .training import (
    Adam,
    ClassWeights,
    LayerSearchReport,
    TrainConfig,
    TrainReport,
    compute_class_weights,
    select_layers,
    train,
)

__version__ = "0.1.0"
