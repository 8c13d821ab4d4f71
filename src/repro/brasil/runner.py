"""Run BRASIL scripts end to end on the parallel BRACE runtime.

This is the compilation *backend* the paper promises its users: write a
simulation in BRASIL once, and the system owns parallelization.
:func:`run_script` drives the full path —

1. compile the script (semantic checks, effect inversion, the plan-kernel
   proof);
2. build a :class:`~repro.core.world.World` populated with deterministic
   initial agent states;
3. derive the :class:`~repro.brace.config.BraceConfig` the script needs
   (the reduce-pass structure from the inversion outcome);
4. execute on :class:`~repro.brace.runtime.BraceRuntime` with whichever
   executor backend the caller configured (serial, thread, process or
   cluster — compiled agents are picklable, see
   :mod:`repro.brasil.compiler`).  There is one tick protocol: compiled
   agents live inside executor-hosted shards across ticks and only boundary
   deltas are exchanged — by reference on the serial and thread backends,
   as columnar frames on the process and cluster backends, where a script's
   per-tick IPC therefore scales with its visibility boundary rather than
   its population (``ScriptRunResult.ipc_bytes()`` reports the measurement).

Because every step is deterministic, the same script with the same seed
produces bit-identical agent states on every executor backend; the
equivalence tests in ``tests/brasil/test_run_script.py`` assert exactly
that for the traffic and fish-school scripts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.brace.config import BraceConfig
from repro.brace.metrics import BraceRunMetrics
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


def config_for_script(
    compiled: CompiledScript, config: BraceConfig | None = None
) -> BraceConfig:
    """Derive the runtime configuration a compiled script needs.

    Starts from ``config`` (or defaults), then applies the compiler's
    overrides: ``non_local_effects`` reflects the effect-inversion outcome
    (one reduce pass when inversion localized every assignment, two
    otherwise).
    """
    base = config if config is not None else BraceConfig()
    derived = dataclasses.replace(base, **compiled.brace_config_overrides())
    derived.validate()
    return derived


@dataclass
class ScriptRunResult:
    """Everything :func:`run_script` produced."""

    compiled: CompiledScript
    world: World
    config: BraceConfig
    metrics: BraceRunMetrics
    ticks: int

    def final_states(self) -> dict[Any, dict[str, Any]]:
        """State of every agent after the run, keyed by agent id."""
        return {agent.agent_id: agent.state_dict() for agent in self.world.agents()}

    def throughput(self, skip_ticks: int = 0) -> float:
        """Agent-ticks per virtual second (the paper's scale-up unit)."""
        return self.metrics.throughput(skip_ticks)

    def ipc_bytes(self) -> int:
        """Measured driver<->shard bytes for the whole run.

        Real encoded frame sizes from the shard protocol; 0 for runs on
        memory-sharing backends (nothing crossed a process boundary).
        """
        return self.metrics.total_ipc_bytes()


def run_script(
    script: str | Path,
    config: BraceConfig | None = None,
    *,
    class_name: str | None = None,
    effect_inversion: str = "auto",
    ticks: int = 10,
    num_agents: int = 50,
    initial_states: Sequence[dict[str, Any]] | None = None,
    bounds: BBox | Sequence[Sequence[float]] | None = None,
    seed: int = 0,
) -> ScriptRunResult:
    """Compile a BRASIL script and run it on the BRACE runtime.

    Parameters
    ----------
    script:
        Path to a BRASIL file, or the source text itself.
    config:
        Base :class:`BraceConfig`; pick the executor backend here
        (``BraceConfig(executor="process", num_workers=8)``).  The
        script-derived knob (``non_local_effects``) is overridden from the
        compilation result; everything else passes through untouched.
    class_name, effect_inversion:
        Forwarded to :func:`~repro.brasil.compiler.compile_script`.
    ticks, num_agents, initial_states, bounds, seed:
        Simulation length and world construction — see
        :func:`build_script_world`.

    Returns a :class:`ScriptRunResult`; agent states are bit-identical for
    any executor backend given the same remaining arguments.

    This is a thin shim over the unified session layer: it is equivalent to
    ``Simulation.from_script(script, ...).run(ticks)`` (see
    :class:`repro.api.Simulation`), which additionally offers streaming
    ticks, observers and pause/resume.
    """
    from repro.api import Simulation

    session = Simulation.from_script(
        script,
        config=config,
        class_name=class_name,
        effect_inversion=effect_inversion,
        num_agents=num_agents,
        initial_states=initial_states,
        bounds=bounds,
        seed=seed,
    )
    with session:
        result = session.run(int(ticks))
    assert session.compiled is not None
    return ScriptRunResult(
        compiled=session.compiled,
        world=session.world,
        config=session.config,
        metrics=result.metrics,
        ticks=int(ticks),
    )
