"""The ``ExecutionPlane`` protocol and the runtime plane registry.

Every way this repository can physically execute a round-synchronous
CONGEST program is an :class:`ExecutionPlane` registered here by name:

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
highest-priority supporting non-reference plane;
``reference_plane_for(algorithm)`` picks the matching executable spec.
The CLI and the algorithm wrappers derive their ``--plane`` choices and
their capability error messages from this registry, so registering a new
plane updates every selection surface at once — and
``tests/test_runtime.py`` fails loudly if a registered plane has no
differential test against its reference executor.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.congest.runtime import scheduler as _scheduler


class ExecutionPlane:
    """One registered way to execute a round-synchronous program.

    Parameters
    ----------
    name:
        Registry key (``--plane`` value).
    kind:
        The algorithm family it runs (matched against the algorithm's
        ``plane_kind`` attribute — never ``isinstance``).
    runner:
        ``runner(topology, algorithm, *, model, bandwidth_bits, metrics,
        max_rounds, inputs)`` — the executor behind the plane.
    reference:
        True for the per-message executable-spec executors.
    priority:
        ``auto`` resolution rank among supporting planes (higher wins).
    batch_only:
        True for planes that only make sense across a *batch* of trials
        (the grid); ``Network.run`` refuses them, ``run_many`` uses them.
    requires:
        Optional extra capability attribute the algorithm must set truthy
        (e.g. ``"grid_safe"``).
    """

    __slots__ = (
        "name", "kind", "runner", "reference", "priority", "batch_only",
        "requires",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        runner: Callable | None,
        *,
        reference: bool = False,
        priority: int = 0,
        batch_only: bool = False,
        requires: str | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.runner = runner
        self.reference = reference
        self.priority = priority
        self.batch_only = batch_only
        self.requires = requires

    def supports(self, algorithm: Any) -> bool:
        """Capability check: the algorithm's declared ``plane_kind`` must
        match, plus any extra ``requires`` attribute (e.g. grid safety).

        >>> class GridSafe: plane_kind = "columnar"; grid_safe = True
        >>> get_plane("grid").supports(GridSafe())
        True
        >>> class Fixed: plane_kind = "columnar"
        >>> get_plane("grid").supports(Fixed())
        False
        """
        if getattr(algorithm, "plane_kind", None) != self.kind:
            return False
        if self.requires is not None and not getattr(
            algorithm, self.requires, False
        ):
            return False
        return True

    def execute(
        self,
        topology,
        algorithm,
        *,
        model: str,
        bandwidth_bits: int,
        metrics,
        max_rounds: int = 10_000,
        inputs: Mapping[Any, Any] | None = None,
        faults=None,
        rng=None,
    ):
        if self.runner is None:
            raise ValueError(
                f"plane {self.name!r} is batch-only: run it through "
                f"repro.congest.run_many, not Network.run"
            )
        # Fault plans are forwarded only when present so runners that
        # predate the fault seam (e.g. toy planes registered by tests)
        # keep working unchanged on fault-free runs.  Rng plans follow
        # the same discipline: exact mode (the default) is the absence
        # of the kwarg, so only vectorized plans reach the runner.
        kwargs = {}
        if faults is not None:
            kwargs["faults"] = faults
        if rng is not None and getattr(rng, "vectorized", False):
            kwargs["rng"] = rng
        return self.runner(
            topology,
            algorithm,
            model=model,
            bandwidth_bits=bandwidth_bits,
            metrics=metrics,
            max_rounds=max_rounds,
            inputs=inputs,
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        flavor = " reference" if self.reference else ""
        return f"ExecutionPlane({self.name!r}, kind={self.kind!r}{flavor})"


_REGISTRY: dict[str, ExecutionPlane] = {}


def register_plane(plane: ExecutionPlane) -> ExecutionPlane:
    """Add ``plane`` to the registry (name must be unused).

    Registering is the *only* step a new execution strategy needs: the
    CLI's ``--plane`` choices, the wrappers' capability errors, and the
    differential-coverage enforcement in ``tests/test_runtime.py`` all
    derive from the registry, so a plane registered as ::

        register_plane(ExecutionPlane(
            "jit", "columnar", run_jit, priority=35,
        ))

    immediately appears on every selection surface — and fails CI
    loudly until it has a differential test against its family's
    reference executor.
    """
    if plane.name in _REGISTRY:
        raise ValueError(f"plane {plane.name!r} is already registered")
    _REGISTRY[plane.name] = plane
    return plane


def plane_names(*, batch: bool = True) -> tuple[str, ...]:
    """All registered plane names, registration order.  ``batch=False``
    drops batch-only planes (the set ``Network.run`` accepts).

    >>> plane_names()
    ('reference', 'broadcast', 'columnar', 'columnar-reference', 'grid')
    >>> 'grid' in plane_names(batch=False)
    False
    """
    return tuple(
        name for name, plane in _REGISTRY.items()
        if batch or not plane.batch_only
    )


def get_plane(name: str) -> ExecutionPlane:
    """Look a plane up by name; unknown names raise with the full
    registry-derived choice list.

    >>> get_plane("columnar").kind
    'columnar'
    >>> get_plane("hologram")
    Traceback (most recent call last):
    ...
    ValueError: unknown plane 'hologram'; registered planes: reference, broadcast, columnar, columnar-reference, grid (or 'auto')
    """
    plane = _REGISTRY.get(name)
    if plane is None:
        raise ValueError(
            f"unknown plane {name!r}; registered planes: "
            f"{', '.join(plane_names())} (or 'auto')"
        )
    return plane


def supported_planes(algorithm: Any, *, batch: bool = True) -> tuple[str, ...]:
    """The registered plane names that can run ``algorithm``.

    >>> class Toy: plane_kind = "object"
    >>> supported_planes(Toy())
    ('reference', 'broadcast')
    """
    return tuple(
        plane.name for plane in _REGISTRY.values()
        if plane.supports(algorithm) and (batch or not plane.batch_only)
    )


def resolve_plane(algorithm: Any, name: str | None = "auto") -> ExecutionPlane:
    """Resolve a plane for one ``Network.run``-style execution.

    ``"auto"`` (or ``None``) picks the highest-priority supporting
    non-reference, non-batch plane — the fast path the algorithm's
    family declares.  An explicit name must both exist and support the
    algorithm; the error text derives the valid choices from the
    registry so it can never go stale.

    >>> class Toy: plane_kind = "object"
    >>> resolve_plane(Toy(), "auto").name
    'broadcast'
    >>> resolve_plane(Toy(), "reference").name
    'reference'
    """
    if name is None or name == "auto":
        candidates = [
            plane for plane in _REGISTRY.values()
            if plane.supports(algorithm)
            and not plane.reference
            and not plane.batch_only
        ]
        if not candidates:
            raise TypeError(
                f"no registered execution plane supports "
                f"{type(algorithm).__name__} (plane_kind="
                f"{getattr(algorithm, 'plane_kind', None)!r}); "
                f"registered planes: {', '.join(plane_names())}"
            )
        return max(candidates, key=lambda plane: plane.priority)
    plane = get_plane(name)
    if not plane.supports(algorithm):
        # Single-run context: suggest only planes Network.run accepts
        # (batch-only planes would be refused on the retry).
        usable = supported_planes(algorithm, batch=False)
        raise ValueError(
            f"plane {plane.name!r} does not support "
            f"{type(algorithm).__name__}; supported planes: "
            f"{', '.join(usable) or 'none'}"
        )
    return plane


def reference_plane_for(algorithm: Any) -> ExecutionPlane:
    """The per-message executable-spec plane for ``algorithm``'s family.

    >>> class Toy: plane_kind = "columnar"
    >>> reference_plane_for(Toy()).name
    'columnar-reference'
    """
    for plane in _REGISTRY.values():
        if plane.reference and plane.supports(algorithm):
            return plane
    raise TypeError(
        f"no reference plane supports {type(algorithm).__name__} "
        f"(plane_kind={getattr(algorithm, 'plane_kind', None)!r})"
    )


def variant_for_plane(variants: Mapping[str, Any], plane: str | None):
    """Pick an algorithm implementation for a requested plane.

    ``variants`` maps plane *kinds* (``"object"``, ``"columnar"``) to
    factories — how a wrapper declares its plane capabilities instead of
    hard-coding an if/else per plane name.  ``"auto"``/``None`` prefers
    the columnar implementation when one exists (it resolves to the
    fastest plane of its family); otherwise the requested plane's kind
    selects the factory, and a missing kind raises with the
    registry-derived list of planes the wrapper *does* support.

    >>> variants = {"object": "LubyMIS", "columnar": "ColumnarLubyMIS"}
    >>> variant_for_plane(variants, "auto")
    'ColumnarLubyMIS'
    >>> variant_for_plane(variants, "broadcast")
    'LubyMIS'
    """
    if plane is None or plane == "auto":
        kind = "columnar" if "columnar" in variants else "object"
        return variants[kind]
    resolved = get_plane(plane)
    factory = variants.get(resolved.kind)
    if factory is None:
        supported = tuple(
            p.name for p in _REGISTRY.values() if p.kind in variants
        )
        raise ValueError(
            f"no {resolved.kind} implementation for plane "
            f"{resolved.name!r}; supported planes: {', '.join(supported)}"
        )
    return factory


# ---------------------------------------------------------------------------
# The built-in planes
# ---------------------------------------------------------------------------
def _run_columnar(topology, algorithm, **kwargs):
    from repro.congest.columnar import execute_columnar

    return execute_columnar(topology, algorithm, **kwargs)


def _run_columnar_reference(topology, algorithm, **kwargs):
    from repro.congest.columnar import execute_columnar

    return execute_columnar(topology, algorithm, reference=True, **kwargs)


register_plane(ExecutionPlane(
    "reference", "object", _scheduler.execute_reference, reference=True,
))
register_plane(ExecutionPlane(
    "broadcast", "object", _scheduler.execute, priority=20,
))
register_plane(ExecutionPlane(
    "columnar", "columnar", _run_columnar, priority=30,
))
register_plane(ExecutionPlane(
    "columnar-reference", "columnar", _run_columnar_reference,
    reference=True,
))
register_plane(ExecutionPlane(
    "grid", "columnar", None, priority=40, batch_only=True,
    requires="grid_safe",
))
