"""The fixed table of execution planes and the one dispatch over it.

Every way this repository can physically execute a round-synchronous
CONGEST program is one entry of :data:`PLANES`:

========================  ==========  =========================================
name                      runs        what it is
========================  ==========  =========================================
``reference``             object      the seed per-message loop — the
                                      executable spec every fast plane is
                                      differentially tested against
``broadcast``             object      the compiled active-set engine:
                                      broadcasts validated once and counted
                                      as ``deg × bits`` (the object family's
                                      default)
``columnar``              columnar    typed numpy columns over the CSR
                                      topology, segmented-reduction inboxes
``columnar-reference``    columnar    the per-message dict plane for columnar
                                      programs — their executable spec
``grid``                  columnar    trial-major batch plane: T trials as one
                                      block-diagonal grid (batch-only — used
                                      through ``run_many``, not ``Network.run``)
========================  ==========  =========================================

Algorithms do **not** get ``isinstance``-dispatched anywhere: a base
class declares ``plane_kind`` (``"object"`` for
:class:`~repro.congest.network.NodeAlgorithm`, ``"columnar"`` for
:class:`~repro.congest.columnar.ColumnarAlgorithm`) and a plane supports
an algorithm iff the kinds match (the grid additionally requires the
``grid_safe`` opt-in).  ``resolve_plane(algorithm, "auto")`` picks the
family's fast plane; ``reference_plane_for(algorithm)`` picks its
executable spec; :func:`run_plane` calls the executor behind a name.
The CLI and the algorithm wrappers derive their ``--plane`` choices and
their capability error messages from this table, and
``tests/test_runtime.py`` runs every plane in it against its family's
reference executor.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.congest.runtime import scheduler as _scheduler

#: Every plane name, in listing order, mapped to the algorithm family
#: (``plane_kind``) it runs.
PLANES = {
    "reference": "object",
    "broadcast": "object",
    "columnar": "columnar",
    "columnar-reference": "columnar",
    "grid": "columnar",
}

#: Per family, the plane ``"auto"`` resolves to for one run.
_FAST = {"object": "broadcast", "columnar": "columnar"}

#: Per family, the per-message executable spec.
_REFERENCE = {"object": "reference", "columnar": "columnar-reference"}


def _family(name: str) -> str:
    """The family of plane ``name``; unknown names raise with the full
    choice list.

    >>> _family("columnar")
    'columnar'
    >>> _family("hologram")
    Traceback (most recent call last):
    ...
    ValueError: unknown plane 'hologram'; registered planes: reference, broadcast, columnar, columnar-reference, grid (or 'auto')
    """
    kind = PLANES.get(name)
    if kind is None:
        raise ValueError(
            f"unknown plane {name!r}; registered planes: "
            f"{', '.join(plane_names())} (or 'auto')"
        )
    return kind


def plane_names(*, batch: bool = True) -> tuple[str, ...]:
    """All plane names, in listing order.  ``batch=False`` drops the
    batch-only grid (the set ``Network.run`` accepts).

    >>> plane_names()
    ('reference', 'broadcast', 'columnar', 'columnar-reference', 'grid')
    >>> 'grid' in plane_names(batch=False)
    False
    """
    return tuple(name for name in PLANES if batch or name != "grid")


def supported_planes(algorithm: Any, *, batch: bool = True) -> tuple[str, ...]:
    """The plane names that can run ``algorithm``: its declared
    ``plane_kind`` must match the plane's family, and the grid also
    needs the ``grid_safe`` opt-in.

    >>> class Toy: plane_kind = "object"
    >>> supported_planes(Toy())
    ('reference', 'broadcast')
    >>> class GridSafe: plane_kind = "columnar"; grid_safe = True
    >>> supported_planes(GridSafe())
    ('columnar', 'columnar-reference', 'grid')
    """
    kind = getattr(algorithm, "plane_kind", None)
    grid_safe = bool(getattr(algorithm, "grid_safe", False))
    return tuple(
        name for name in plane_names(batch=batch)
        if PLANES[name] == kind and (name != "grid" or grid_safe)
    )


def resolve_plane(algorithm: Any, name: str | None = "auto") -> str:
    """Resolve the plane name for one ``Network.run``-style execution.

    ``"auto"`` (or ``None``) picks the fast plane of the algorithm's
    family.  An explicit name must both exist and support the
    algorithm; the error text derives the valid choices from
    :data:`PLANES` so it can never go stale.

    >>> class Toy: plane_kind = "object"
    >>> resolve_plane(Toy(), "auto")
    'broadcast'
    >>> resolve_plane(Toy(), "reference")
    'reference'
    """
    if name is None or name == "auto":
        fast = _FAST.get(getattr(algorithm, "plane_kind", None))
        if fast is None:
            raise TypeError(
                f"no registered execution plane supports "
                f"{type(algorithm).__name__} (plane_kind="
                f"{getattr(algorithm, 'plane_kind', None)!r}); "
                f"registered planes: {', '.join(plane_names())}"
            )
        return fast
    _family(name)
    if name not in supported_planes(algorithm):
        # Single-run context: suggest only planes Network.run accepts
        # (the batch-only grid would be refused on the retry).
        usable = supported_planes(algorithm, batch=False)
        raise ValueError(
            f"plane {name!r} does not support "
            f"{type(algorithm).__name__}; supported planes: "
            f"{', '.join(usable) or 'none'}"
        )
    return name


def reference_plane_for(algorithm: Any) -> str:
    """The per-message executable-spec plane for ``algorithm``'s family.

    >>> class Toy: plane_kind = "columnar"
    >>> reference_plane_for(Toy())
    'columnar-reference'
    """
    reference = _REFERENCE.get(getattr(algorithm, "plane_kind", None))
    if reference is None:
        raise TypeError(
            f"no reference plane supports {type(algorithm).__name__} "
            f"(plane_kind={getattr(algorithm, 'plane_kind', None)!r})"
        )
    return reference


def variant_for_plane(variants: Mapping[str, Any], plane: str | None):
    """Pick an algorithm implementation for a requested plane.

    ``variants`` maps plane *kinds* (``"object"``, ``"columnar"``) to
    factories — how a wrapper declares its plane capabilities instead of
    hard-coding an if/else per plane name.  ``"auto"``/``None`` prefers
    the columnar implementation when one exists (it resolves to the
    fastest plane of its family); otherwise the requested plane's kind
    selects the factory, and a missing kind raises with the
    table-derived list of planes the wrapper *does* support.

    >>> variants = {"object": "LubyMIS", "columnar": "ColumnarLubyMIS"}
    >>> variant_for_plane(variants, "auto")
    'ColumnarLubyMIS'
    >>> variant_for_plane(variants, "broadcast")
    'LubyMIS'
    """
    if plane is None or plane == "auto":
        kind = "columnar" if "columnar" in variants else "object"
        return variants[kind]
    kind = _family(plane)
    factory = variants.get(kind)
    if factory is None:
        supported = tuple(
            name for name, family in PLANES.items() if family in variants
        )
        raise ValueError(
            f"no {kind} implementation for plane "
            f"{plane!r}; supported planes: {', '.join(supported)}"
        )
    return factory


def run_plane(name: str, topology, algorithm, *, rng=None, **kwargs):
    """Execute ``algorithm`` on ``topology`` with the executor behind
    plane ``name``.  ``kwargs`` are the executors' shared keywords
    (``model``, ``bandwidth_bits``, ``metrics``, ``max_rounds``,
    ``inputs``, ``faults``); ``rng`` reaches the columnar executors
    only.  The batch-only grid is refused: sweeps reach it through
    :func:`~repro.congest.runtime.batch.run_many`.
    """
    if name == "grid":
        raise ValueError(
            "plane 'grid' is batch-only: run it through "
            "repro.congest.run_many, not Network.run"
        )
    if _family(name) == "columnar":
        from repro.congest.columnar import execute_columnar

        return execute_columnar(
            topology, algorithm,
            reference=name == "columnar-reference", rng=rng, **kwargs,
        )
    if name == "reference":
        return _scheduler.execute_reference(topology, algorithm, **kwargs)
    return _scheduler.execute(topology, algorithm, **kwargs)
