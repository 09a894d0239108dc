"""Privacy-first inference delegation for a desk-scale transformer.

A decoder-only transformer is split into head/middle/tail shards across a
client and a server. Hidden states cross the wire as truncated-SVD factors;
the client re-privatizes the server's reply with locally retained state. The
package bundles the model, the protocol, an eavesdropper simulation, and an
evaluation harness that scores every scenario against the pipeline.
"""

__version__ = "0.1.0"
