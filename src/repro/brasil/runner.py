"""Build the world a compiled BRASIL script runs in.

The helpers behind :meth:`repro.api.Simulation.from_script`, the one way to
run a script: resolve the script argument (a path or the source text),
compile it with the script's label on any error, and populate a
:class:`~repro.core.world.World` with deterministic initial agent states —
so the same call always builds the same world, which is what makes runs on
different executor backends comparable bit for bit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.brasil.compiler import CompiledScript, compile_script
from repro.core.errors import BrasilError
from repro.core.world import World
from repro.spatial.bbox import BBox

#: Half-width of the default world, as a multiple of the visibility radius.
_DEFAULT_BOUNDS_MULTIPLE = 10.0
#: Fallback half-width per spatial dimension when visibility is unbounded.
_DEFAULT_HALF_WIDTH = 100.0


def load_script_source(script: str | Path) -> tuple[str, str]:
    """Resolve ``script`` into ``(source text, label)``.

    ``script`` may be a filesystem path (``str`` or :class:`~pathlib.Path`)
    or raw BRASIL source.  Anything containing a newline or a brace is
    treated as source; everything else must name an existing file.
    """
    if not isinstance(script, Path) and ("\n" in script or "{" in script):
        return script, "<script>"
    path = Path(script)
    if not path.exists():
        raise BrasilError(
            f"BRASIL script path {str(path)!r} does not exist "
            "(pass a path to a script file, or the source text itself)"
        )
    return path.read_text(), str(path)


def _compile_with_label(
    source: str,
    label: str,
    class_name: str | None,
    effect_inversion: str,
) -> CompiledScript:
    """Compile, prefixing any compiler error with the script's label.

    Keeps the original exception class (e.g.
    :class:`~repro.brasil.effect_inversion.EffectInversionError`) so callers
    can still catch specific failures, while the message says *which* script
    failed and why.
    """
    try:
        return compile_script(
            source,
            class_name=class_name,
            effect_inversion=effect_inversion,
        )
    except BrasilError as error:
        raise type(error)(f"cannot compile BRASIL script {label}: {error}") from error


def script_world_bounds(
    compiled: CompiledScript,
    bounds: BBox | Sequence[Sequence[float]] | None = None,
) -> BBox:
    """The world box a compiled script runs in.

    An explicit ``bounds`` (a :class:`BBox` or a sequence of ``(lo, hi)``
    intervals, one per spatial dimension) wins; otherwise each dimension
    spans ±10 visibility radii (±100 units when visibility is unbounded).
    """
    info = compiled.info
    if not info.spatial_field_names:
        raise BrasilError(
            f"class {compiled.class_name!r} declares no spatial fields; "
            "BRACE needs at least one #range/#visibility-annotated state field"
        )
    if bounds is not None:
        if isinstance(bounds, BBox):
            box = bounds
        else:
            box = BBox(tuple(tuple(float(edge) for edge in interval) for interval in bounds))
        if box.dim != len(info.spatial_field_names):
            raise BrasilError(
                f"bounds have {box.dim} dimension(s) but class "
                f"{compiled.class_name!r} declares {len(info.spatial_field_names)} "
                "spatial field(s)"
            )
        return box
    intervals = []
    for field_name in info.spatial_field_names:
        radius = info.visibility_radii.get(field_name)
        half = _DEFAULT_BOUNDS_MULTIPLE * radius if radius else _DEFAULT_HALF_WIDTH
        intervals.append((-half, half))
    return BBox(tuple(intervals))


def build_script_world(
    compiled: CompiledScript,
    num_agents: int = 50,
    initial_states: Sequence[dict[str, Any]] | None = None,
    bounds: BBox | Sequence[Sequence[float]] | None = None,
    seed: int = 0,
) -> World:
    """Build a world populated with agents of the compiled class.

    ``initial_states`` (one dict of state-field values per agent) takes
    precedence; otherwise ``num_agents`` agents are placed uniformly at
    random inside the bounds, spatial dimension by spatial dimension, from a
    generator seeded with ``seed`` — so the same call always builds the
    same world, which is what makes cross-backend runs comparable.
    """
    box = script_world_bounds(compiled, bounds)
    world = World(bounds=box, seed=seed)
    if initial_states is not None:
        for state in initial_states:
            world.add_agent(compiled.make_agent(**state))
        return world
    rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, int(num_agents)])
    spatial_names = compiled.info.spatial_field_names
    for _ in range(int(num_agents)):
        values = {
            name: float(rng.uniform(lo, hi))
            for name, (lo, hi) in zip(spatial_names, box.intervals)
        }
        world.add_agent(compiled.make_agent(**values))
    return world
