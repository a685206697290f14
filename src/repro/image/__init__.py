"""Persistent object-code images.

The paper's payoff is that specialization emits *executable object code*
with no separate compilation step — but object code that evaporates with
the process forces every restart to re-pay every specialization.  Scheme
48 itself persists heap *images*; this package is our analogue for
residual code: a versioned, pickle-free binary codec for
:class:`~repro.vm.template.Template` trees and whole
:class:`~repro.pe.backend.ResidualProgram`s
(:mod:`repro.image.codec`), a content-addressed store with atomic,
fsync-durable writes, advisory locking, and a size-bounded garbage
collector over :class:`~repro.image.store.LocalStoreBackend`
(:mod:`repro.image.store`), and a remote L3 tier — TCP object server,
retrying client, and a read-through/write-behind
:class:`~repro.image.remote.TieredStore` — so a fleet of workers shares
one warm cache (:mod:`repro.image.remote`).

Images loaded from disk *or* the network are *untrusted*: every
template in a loaded image is re-checked by the bytecode verifier
(:mod:`repro.vm.verify`) before it can reach the machine.
"""

from repro.image.codec import (
    CODEC_VERSION,
    MAGIC,
    CodecError,
    decode_residual,
    decode_template,
    encode_residual,
    encode_template,
    load_image,
    save_image,
)
from repro.image.remote import (
    ObjectServer,
    RemoteStoreClient,
    RemoteStoreError,
    TieredStore,
    parse_endpoint,
    prefetch_store,
    sync_stores,
)
from repro.image.store import (
    ImageStore,
    LocalStoreBackend,
    ObjectStat,
    StoreKey,
    UnpersistableKey,
    plausible_digest,
    store_key,
    verify_residual,
)

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "ImageStore",
    "LocalStoreBackend",
    "MAGIC",
    "ObjectServer",
    "ObjectStat",
    "RemoteStoreClient",
    "RemoteStoreError",
    "StoreKey",
    "TieredStore",
    "UnpersistableKey",
    "decode_residual",
    "decode_template",
    "encode_residual",
    "encode_template",
    "load_image",
    "parse_endpoint",
    "plausible_digest",
    "prefetch_store",
    "save_image",
    "store_key",
    "sync_stores",
    "verify_residual",
]
