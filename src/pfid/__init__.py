"""Privacy-first inference delegation for a desk-scale transformer.

A decoder-only transformer is split into head/middle/tail shards across a
client and a server. Hidden states cross the wire as truncated-SVD factors;
the client re-privatizes the server's reply with locally retained state. The
package bundles the model, the protocol, an eavesdropper simulation, and an
evaluation harness for the local-vs-eavesdropper output gap.
"""

__version__ = "0.1.0"

from .linalg import (  # noqa: E402,F401
    TruncatedFactors,
    ratio_to_rank,
    reconstruct,
    truncated_svd,
)
from .model import (  # noqa: E402,F401
    ModelConfig,
    SamplingParams,
    TransformerModel,
    init_model,
    pipeline_generate,
)
from .protocol import PfidConfig, client_generate, run_local_sim, serve_middle  # noqa: E402,F401
from .shard import ShardSpec, split  # noqa: E402,F401
from .tokenizer import Tokenizer, ascii96  # noqa: E402,F401
from .training import train  # noqa: E402,F401
