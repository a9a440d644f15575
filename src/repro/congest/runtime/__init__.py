"""The unified CONGEST runtime: one execution spine for every plane.

This package is the single home of *how rounds are physically executed*,
matching the paper's framing of CONGEST algorithms as round-synchronous
programs independent of the execution substrate:

* :mod:`~repro.congest.runtime.scheduler` — the shared round scheduler:
  the ``run_rounds`` spine (halting, round caps, per-run metric
  flushing) every executor drives, the object-plane active-set engine,
  and the seed reference loop;
* :mod:`~repro.congest.runtime.planes` — the fixed plane table
  :data:`PLANES` (``reference`` / ``broadcast`` / ``columnar`` /
  ``columnar-reference`` / ``grid``, each mapped to its algorithm
  family) that ``Network.run``, ``run_many``, the algorithm wrappers,
  and the CLI all resolve planes through — by name, never by
  ``isinstance`` — and :func:`run_plane`, the one dispatch to the
  executor behind a name;
* :mod:`~repro.congest.runtime.compile` — the single compilation entry
  (per-graph :class:`~repro.congest.engine.CompiledTopology` and its
  cached :class:`~repro.congest.runtime.compile.DeliveryPlane`) plus the
  block-diagonal
  :class:`~repro.congest.runtime.compile.GridTopology`;
* :mod:`~repro.congest.runtime.batch` — ``run_many`` and **trial-major
  columnar grid execution**: T independent trials as one ``(Σ n_t)``-row
  columnar program, byte-identical to per-trial runs with per-round
  numpy dispatch amortized across the whole sweep;
* :mod:`~repro.congest.runtime.faults` — fault injection as a scheduler
  concern: a :class:`FaultPlan` (crash-stop, drop, duplication,
  bounded-delay asynchrony, Byzantine low-bit corruption, targeted
  adversaries; counter-based Philox draws) that every plane
  executes identically with zero algorithm changes;
* :mod:`~repro.congest.runtime.rng` — the randomness discipline as the
  same kind of plan: :class:`RngPlan` selects the byte-identity exact
  per-vertex streams (default) or opt-in vectorized counter-based
  Philox column draws keyed ``(seed, vertex, round)``, deterministic
  and identical across the columnar/grid planes;
* :mod:`~repro.congest.runtime.recovery` — the self-healing layer:
  ack/retransmit reliable-delivery wrappers
  (:class:`ReliableNodeAlgorithm` for object planes,
  :class:`ColumnarReliable` for columnar/grid planes) that win exact
  delivery back from drop/delay/corrupt adversaries at a constant
  round/bit overhead.
"""

from repro.congest.runtime.batch import (
    GridAccountant,
    Trial,
    execute_grid,
    run_many,
)
from repro.congest.runtime.compile import (
    GridTopology,
    compile_topology,
    delivery_plane,
)
from repro.congest.runtime.faults import FaultPlan, FaultState
from repro.congest.runtime.rng import (
    RngPlan,
    grid_rng_state,
    rng_state_for,
    supports_vectorized,
)
from repro.congest.runtime.planes import (
    PLANES,
    plane_names,
    reference_plane_for,
    resolve_plane,
    run_plane,
    supported_planes,
    variant_for_plane,
)
from repro.congest.runtime.scheduler import (
    execute,
    execute_reference,
    run_rounds,
)

# The recovery wrappers subclass the columnar/object algorithm bases, and
# the columnar plane itself imports this package's scheduler — so the
# recovery module is re-exported lazily (PEP 562) to keep the runtime
# import graph acyclic.
_RECOVERY_EXPORTS = (
    "ColumnarReliable",
    "ReliableNodeAlgorithm",
    "payload_checksum",
)


def __getattr__(name: str):
    if name in _RECOVERY_EXPORTS:
        from repro.congest.runtime import recovery

        return getattr(recovery, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "ColumnarReliable",
    "FaultPlan",
    "FaultState",
    "ReliableNodeAlgorithm",
    "payload_checksum",
    "GridAccountant",
    "GridTopology",
    "PLANES",
    "RngPlan",
    "Trial",
    "compile_topology",
    "delivery_plane",
    "execute",
    "execute_grid",
    "execute_reference",
    "grid_rng_state",
    "plane_names",
    "reference_plane_for",
    "resolve_plane",
    "rng_state_for",
    "run_many",
    "run_plane",
    "run_rounds",
    "supported_planes",
    "supports_vectorized",
    "variant_for_plane",
]
