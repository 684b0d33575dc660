"""``repro.serve`` — analysis as a service.

The library-to-service layer: a resident daemon that owns a warm pool
of job workers and a persistent content-addressed result store, so
repeated analyses over near-identical inputs (CI pipelines, bound
ablations, batch sweeps) stop paying process spawn per call and
survive restarts.

Pieces (each its own module):

* :mod:`~repro.serve.keys` — stable cross-process cache keys:
  canonical options, target fingerprint digests, store addresses;
* :mod:`~repro.serve.store` — :class:`ResultStore`, the atomic,
  schema-versioned, corruption-tolerant on-disk report store (also
  pluggable into :class:`~repro.api.manager.AnalysisManager` as a
  second cache tier);
* :mod:`~repro.serve.pool` — :class:`WarmPool`, the owned-lifecycle
  resident ``ProcessPoolExecutor``;
* :mod:`~repro.serve.jobs` — JSON job payloads shared by the RPC
  socket and the pool boundary;
* :mod:`~repro.serve.protocol` — newline-delimited JSON-RPC 2.0;
* :mod:`~repro.serve.server` — :class:`ReproServer`, the asyncio
  daemon (``repro serve``);
* :mod:`~repro.serve.client` — :class:`ServeClient`, the blocking
  client (``repro submit`` / ``repro results``).

See DESIGN.md, "Analysis as a service".
"""

from .client import ServeClient, ServeError
from .jobs import resolve_project, run_job, spec_for_asm, spec_for_name
from .keys import (canonical_options, fingerprint_digest, options_digest,
                   store_key, strip_volatile)
from .pool import WarmPool
from .server import ReproServer, ServerHandle, default_socket_path, \
    start_in_thread
from .store import STORE_VERSION, ResultStore, StoreStats

__all__ = [
    "ServeClient", "ServeError", "ReproServer", "ServerHandle",
    "start_in_thread", "default_socket_path", "WarmPool", "ResultStore",
    "StoreStats", "STORE_VERSION", "canonical_options",
    "fingerprint_digest", "options_digest", "store_key", "strip_volatile",
    "resolve_project", "run_job", "spec_for_asm", "spec_for_name",
]
