"""The fabric worker daemon: a long-lived trial-block execution service.

``python -m repro fabric-worker --port N`` runs one of these.  The
daemon accepts coordinator connections (one handler thread each, like a
MAAS rack controller serving its region), handshakes versions, and then
executes ``run-block`` jobs: the canonical 7-tuple trial list of
:func:`~repro.congest.runtime.batch.normalize_jobs` plus the prototype
algorithm, run through the *same*
:func:`~repro.congest.runtime.batch.execute_jobs` entry a local sweep
uses — grid batching, buffer pooling, per-trial ``FaultPlan``s and all —
so a block's results are byte-identical to the slice of a single-process
sweep it came from.

While a block computes, a sender thread streams ``heartbeat`` frames at
``heartbeat_interval`` so the coordinator's failure detector (a socket
read timeout) distinguishes *slow* from *dead*; results then stream back
one ``trial-result`` frame per trial, followed by ``block-done``.
Execution errors are split by kind: deterministic algorithm failures
(e.g. a round-cap ``RuntimeError``) are reported as ``error`` frames
with ``kind: "algorithm"`` — the coordinator re-raises instead of
retrying, since a deterministic error reproduces on every worker — while
infrastructure faults simply drop the connection and let the
coordinator's retry machinery take over.

Each connection keeps a topology cache keyed by
:func:`~repro.graphs.cache.graph_fingerprint` content digest: the first
block shipping a graph populates it, and every later job on the same
graph — whether shipped as a :class:`~.protocol.GraphRef` or as a
redundant full copy — is rewritten to the *cached instance*, so the
engine's instance-keyed :class:`~repro.graphs.cache.PerGraphCache`
compilation memo hits and CSR recompilation is skipped.  ``block-done``
frames report ``graph_cache_hits`` so the coordinator can account for
the savings.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.congest.runtime.fabric import protocol
from repro.congest.runtime.fabric.retry import retry_with_backoff

_DEFAULT_HEARTBEAT_INTERVAL = 0.1


def _resolve_block_graphs(jobs, graph_cache: dict):
    """Swap each job's graph for the connection-cached instance.

    Returns ``(jobs, cache_hits, missing_refs)``: jobs with graphs
    resolved to one instance per content digest (so the per-graph
    compilation memo hits across blocks), the number of jobs served from
    the cache, and any :class:`~.protocol.GraphRef` digests the
    coordinator believed were shipped but this connection never saw —
    non-empty means the block must be rejected as a protocol fault.
    """
    from repro.graphs.cache import graph_fingerprint

    resolved = []
    hits = 0
    missing: list[str] = []
    for job in jobs:
        graph = job[0]
        if isinstance(graph, protocol.GraphRef):
            cached = graph_cache.get(graph.digest)
            if cached is None:
                missing.append(graph.digest)
                continue
            hits += 1
            resolved.append((cached, *job[1:]))
            continue
        digest = graph_fingerprint(graph)
        cached = graph_cache.get(digest)
        if cached is None:
            graph_cache[digest] = graph
            resolved.append(job)
        else:
            hits += 1
            resolved.append((cached, *job[1:]))
    return resolved, hits, missing


class _HeartbeatSender(threading.Thread):
    """Streams liveness frames for one block until stopped.

    Shares the connection with the result stream, so every send — here
    and in the handler — goes through one per-connection lock; a dead
    peer's ``OSError`` just ends the thread (the handler sees the same
    error on its next send)."""

    def __init__(self, sock, lock, block_id, interval):
        super().__init__(daemon=True)
        self._sock = sock
        self._lock = lock
        self._block_id = block_id
        self._interval = interval
        # NB: not ``_stop`` — Thread.join() calls its own private
        # ``_stop`` method, which an Event attribute would shadow.
        self._halt = threading.Event()
        self._started_at = time.monotonic()

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            frame = {
                "type": "heartbeat",
                "block": self._block_id,
                "elapsed": time.monotonic() - self._started_at,
            }
            try:
                with self._lock:
                    protocol.send_frame(self._sock, frame)
            except OSError:
                return


class FabricWorker:
    """A long-lived sweep-fabric worker daemon.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` lets the OS pick; the bound port is
        on :attr:`address` after construction (and printed by the CLI so
        spawners can scrape it).  Binds loopback by default — job
        payloads are pickles, so only trusted peers may ever reach this
        socket.
    heartbeat_interval:
        Seconds between liveness frames while a block computes.  The
        coordinator's ``heartbeat_timeout`` must comfortably exceed it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = _DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        self.heartbeat_interval = heartbeat_interval
        self._stopping = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # A restarted worker re-binding its old port can race the dying
        # process's socket teardown; the deterministic backoff retry is
        # the same helper the coordinator dispatches with.
        retry_with_backoff(
            lambda: self._listener.bind((host, port)),
            retries=5, base_delay=0.05, seed=port,
        )
        self._listener.listen(8)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    # -- serving -----------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept and serve coordinator connections until :meth:`stop`
        (or a ``shutdown stop:true`` frame) is seen."""
        self._listener.settimeout(0.2)
        try:
            while not self._stopping.is_set():
                try:
                    conn, _peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            self._listener.close()

    def stop(self) -> None:
        self._stopping.set()

    # -- one connection ----------------------------------------------------
    def _serve_connection(self, sock: socket.socket) -> None:
        send_lock = threading.Lock()
        # Topology cache for this connection: content digest -> graph.
        # Lives exactly as long as the coordinator's shipped-digest
        # record for this link, so both sides forget together on a
        # reconnect.
        graph_cache: dict[str, object] = {}
        try:
            request = protocol.recv_frame(sock)
            if request is None:
                return
            if (
                request.get("type") != "hello"
                or request.get("version") != protocol.PROTOCOL_VERSION
            ):
                with send_lock:
                    protocol.send_frame(sock, {
                        "type": "error", "kind": "protocol",
                        "message": (
                            "handshake failed: expected hello with version "
                            f"{protocol.PROTOCOL_VERSION}, got {request!r}"
                        ),
                    })
                return
            with send_lock:
                protocol.send_frame(
                    sock, protocol.hello("worker", os.getpid())
                )
            while True:
                request = protocol.recv_frame(sock)
                if request is None:
                    return
                kind = request["type"]
                if kind == "ping":
                    with send_lock:
                        protocol.send_frame(sock, {"type": "pong"})
                elif kind == "run-block":
                    self._run_block(sock, send_lock, request, graph_cache)
                elif kind == "shutdown":
                    if request.get("stop"):
                        self.stop()
                    return
                else:
                    with send_lock:
                        protocol.send_frame(sock, {
                            "type": "error", "kind": "protocol",
                            "message": f"unexpected message type {kind!r}",
                        })
                    return
        except (OSError, protocol.ProtocolError):
            return  # dead/misbehaving peer: drop the connection
        finally:
            sock.close()

    def _run_block(self, sock, send_lock, request: dict,
                   graph_cache: dict) -> None:
        from repro.congest.runtime.batch import execute_jobs

        block_id = request["block"]
        algorithm, jobs = protocol.decode_payload(request["payload"])
        jobs, cache_hits, missing = _resolve_block_graphs(jobs, graph_cache)
        if missing:
            # The coordinator's shipped-digest record and this cache
            # disagree; a protocol-kind error makes it retryable — the
            # coordinator reconnects and ships the graphs in full.
            with send_lock:
                protocol.send_frame(sock, {
                    "type": "error", "kind": "protocol",
                    "message": (
                        f"block {block_id} references unshipped graphs: "
                        f"{sorted(set(missing))}"
                    ),
                    "block": block_id,
                })
            return
        heartbeat = _HeartbeatSender(
            sock, send_lock, block_id, self.heartbeat_interval
        )
        heartbeat.start()
        try:
            results = execute_jobs(
                algorithm, jobs, processes=1, plane=request.get("plane"),
            )
        except Exception as exc:
            heartbeat.stop()
            # Deterministic execution failure: report it (kind
            # "algorithm") so the coordinator raises instead of
            # retrying a block that fails everywhere.
            with send_lock:
                protocol.send_frame(sock, {
                    "type": "error", "kind": "algorithm",
                    "exception": type(exc).__name__,
                    "message": str(exc),
                    "block": block_id,
                })
            return
        heartbeat.stop()
        with send_lock:
            for index, result in enumerate(results):
                protocol.send_frame(sock, {
                    "type": "trial-result",
                    "block": block_id,
                    "trial": index,
                    "payload": protocol.encode_payload(result),
                })
            protocol.send_frame(sock, {
                "type": "block-done",
                "block": block_id,
                "trials": len(results),
                "graph_cache_hits": cache_hits,
            })
