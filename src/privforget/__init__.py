"""Privacy-protected training with fast, audit-friendly unlearning.

Protect a training set (k-anonymity via microaggregation, or differential
privacy via Laplace/exponential mechanisms), pre-train a classifier on the
protected view, fine-tune on the raw data for deployment, and serve
forgetting requests by re-fine-tuning the protected base on the retain set.
Ships a sharded (SISA) baseline, whose one-shard, one-slice case is
retraining from scratch, plus membership-inference evaluation.
"""

from .data import (
    AttributeSchema,
    EncodedMatrix,
    ForgetRequest,
    Provenance,
    TabularDataset,
    encode,
    load_csv,
    parse_schema_file,
    split_forget,
    write_csv,
)
from .kanon import Clustering, centroid_replace, k_anonymize, mdav, verify_k_anonymity
from .dpanon import (
    CategoricalMechanism,
    MechanismSpec,
    dp_protect_table,
    laplace_sample,
    perturb_numeric,
)
from .mlp import (
    MlpModel,
    TrainConfig,
    finetune,
    forward,
    init,
    load_model,
    save_model,
    train,
)
from .attack import balanced_pair, mia_from_probs, roc_auc, utility_from_probs
from .unlearn import (
    EupgState,
    PrivacySpec,
    ShardStore,
    eupg_forget,
    eupg_prepare,
    predict,
    sisa_forget,
    sisa_train,
)

__version__ = "0.1.0"
