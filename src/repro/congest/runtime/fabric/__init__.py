"""The fault-tolerant sweep fabric: worker daemons + a retrying coordinator.

The runtime's batch layer (:mod:`repro.congest.runtime.batch`) executes a
sweep's trials as fast as one process allows; this package shards that
work across *processes and hosts* while treating worker failure as the
normal case, not the exception.  Three modules, mirroring the MAAS
region↔rack controller split (a long-lived rack daemon speaking a framed
RPC protocol to a region coordinator that monitors and heals it):

* :mod:`~repro.congest.runtime.fabric.protocol` — length-prefixed JSON
  framing over TCP with versioned request/response/heartbeat/
  result-stream message types (binary job payloads ride as compressed
  pickle fields inside the JSON envelope);
* :mod:`~repro.congest.runtime.fabric.worker` — a long-lived daemon
  (``python -m repro fabric-worker --port N``) that accepts trial-block
  jobs in the canonical 7-tuple shape of
  :func:`~repro.congest.runtime.batch.normalize_jobs`, executes them
  through the *same* :func:`~repro.congest.runtime.batch.execute_jobs`
  entry a local sweep uses (grid plane and all), and streams back
  per-trial results under a heartbeat;
* :mod:`~repro.congest.runtime.fabric.coordinator` —
  :func:`run_many_fabric`: partitions a sweep into trial blocks,
  dispatches them across workers, detects failures via heartbeat
  timeouts, retries with exponential backoff + deterministic jitter
  (:mod:`~repro.congest.runtime.fabric.retry`), speculatively
  re-dispatches stragglers with first-result-wins dedup, journals
  completed blocks to a crash-safe checkpoint, and degrades gracefully
  to in-process execution when no workers are reachable.

The robustness keystone matches the fault-injection layer's zero-fault
identity discipline: merged fabric results — outputs *and* every
:class:`~repro.congest.metrics.NetworkMetrics` field — are byte-identical
to a single-process :func:`~repro.congest.run_many`, regardless of how
many workers are killed mid-sweep (``tests/test_fabric.py`` enforces
this, SIGKILL included).
"""

from repro.congest.runtime.fabric.coordinator import (
    FabricStats,
    FabricUnavailableError,
    run_many_fabric,
)
from repro.congest.runtime.fabric.protocol import PROTOCOL_VERSION, ProtocolError
from repro.congest.runtime.fabric.retry import backoff_schedule, retry_with_backoff
from repro.congest.runtime.fabric.worker import FabricWorker

__all__ = [
    "FabricStats",
    "FabricUnavailableError",
    "FabricWorker",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "backoff_schedule",
    "retry_with_backoff",
    "run_many_fabric",
]
