"""The BRASIL compiler: source text to an executable agent class.

``compile_script`` runs the pipeline — parse, semantic analysis, optional
effect inversion and the plan-kernel proof — and
packages the result as a :class:`CompiledScript` whose ``agent_class`` is a
regular :class:`~repro.core.agent.Agent` subclass.  Instances of that class
run unchanged on the sequential engine and on the BRACE runtime: this is
the transparency BRASIL gives domain scientists.  The monad-algebra
translation of Appendix B (:mod:`repro.brasil.translate`) is a library the
Theorem 1 tests check against the interpreter, not a compile step.

Although the agent classes are built dynamically (there is no module the
process executor could re-import them from), their *instances* are picklable:
each class carries its :class:`AgentClassSpec` — the source text plus the
compiler options, pure data — and pickling an agent ships the spec instead of
the class.  The receiving process recompiles the script once (cached per
spec) and rebuilds the agent from its state dict, so compiled BRASIL scripts
run on the serial, thread and process executors alike.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any

from repro.brasil.ast_nodes import ClassDecl, Script
from repro.brasil.effect_inversion import EffectInversionError, InversionResult, invert_effects
from repro.brasil.interpreter import Environment, evaluate, execute_block
from repro.brasil.kernels import kernels_for_class
from repro.brasil.parser import parse
from repro.brasil.semantics import ScriptInfo, analyze_class
from repro.core.agent import Agent, AgentMeta, _rebuild_agent
from repro.core.errors import BrasilError
from repro.core.fields import EffectField, StateField

_DEFAULTS_BY_TYPE = {"float": 0.0, "int": 0, "bool": False}


@dataclass(frozen=True)
class AgentClassSpec:
    """Everything needed to rebuild a compiled agent class in another process.

    The spec is pure data (no closures, no class objects), so it pickles by
    value to any executor.  Compilation is deterministic, so two processes
    compiling the same spec build behaviourally identical classes.
    """

    source: str
    class_name: str
    effect_inversion: str = "auto"


#: Compiled agent classes by spec.  Populated by every compile and by
#: :func:`compiled_class_for_spec`, so all agents built or unpickled from
#: the same spec in one process share a single class object.  Values are
#: weak: once nothing references a class (no CompiledScript, no agents), the
#: entry is dropped instead of retaining every script ever compiled — the
#: next unpickle simply recompiles.
_CLASS_REGISTRY: "weakref.WeakValueDictionary[AgentClassSpec, type]" = (
    weakref.WeakValueDictionary()
)


def compiled_class_for_spec(spec: AgentClassSpec) -> type:
    """Return the agent class for ``spec``, compiling it on first use.

    This is the unpickling side of the compiled-agent protocol: worker
    processes call it (through :func:`_rebuild_compiled_agent`) to
    reconstruct the dynamic class from the shipped source text.
    """
    agent_class = _CLASS_REGISTRY.get(spec)
    if agent_class is None:
        compiler = BrasilCompiler(effect_inversion=spec.effect_inversion)
        compiled = compiler.compile(spec.source, class_name=spec.class_name)
        # compile() registered the class; read it back through the registry
        # so concurrent rebuilds agree on one class object.
        agent_class = _CLASS_REGISTRY.setdefault(spec, compiled.agent_class)
    return agent_class


def _rebuild_compiled_agent(spec: AgentClassSpec, *parts):
    """Unpickle a compiled agent: its class from ``spec``, then the agent
    from :meth:`~repro.core.agent.Agent.__reduce__`'s positional ``parts``."""
    return _rebuild_agent(compiled_class_for_spec(spec), *parts)


class BrasilAgentBase(Agent):
    """Base class of every compiled BRASIL agent.

    The class attributes ``_run_body``, ``_update_rules`` and
    ``_float_fields`` are filled in by the compiler; ``query`` and
    ``update`` interpret them with :mod:`repro.brasil.interpreter`.
    """

    _run_body = None
    _update_rules: dict[str, Any] = {}
    _float_fields: frozenset = frozenset()
    _compile_spec: AgentClassSpec | None = None

    def __reduce__(self):
        """Pickle by compile spec + state so instances cross process boundaries.

        The dynamic class cannot be pickled by reference; shipping the spec
        in its place (with the same positional parts as
        :meth:`Agent.__reduce__`) makes compiled agents first class citizens
        of the process executor.
        """
        rebuild, args = super().__reduce__()
        spec = type(self)._compile_spec
        if spec is None:
            return rebuild, args
        return _rebuild_compiled_agent, (spec, *args[1:])

    def query(self, ctx) -> None:
        """Execute the compiled ``run()`` method (the query phase)."""
        if self._run_body is None:
            return
        environment = Environment(agent=self, query_context=ctx, rng=ctx.rng(self))
        execute_block(self._run_body, environment)

    def update(self, ctx) -> None:
        """Evaluate every state field's update rule against the pre-update state."""
        rules = self._update_rules
        if not rules:
            return
        environment = Environment(agent=self, rng=ctx.rng(self))
        new_values: dict[str, Any] = {}
        for field_name, rule in rules.items():
            value = evaluate(rule, environment)
            if value is not None:  # NIL keeps the previous value
                if isinstance(value, int) and field_name in self._float_fields:
                    # The declared type wins (``state float w : 1`` stores
                    # 1.0), which is also what the column kernels store.
                    value = float(value)
                new_values[field_name] = value
        for field_name, value in new_values.items():
            setattr(self, field_name, value)


@dataclass
class CompiledScript:
    """Everything the compiler produced for one BRASIL class."""

    source: str
    script: Script
    original_class_decl: ClassDecl
    class_decl: ClassDecl
    original_info: ScriptInfo
    info: ScriptInfo
    agent_class: type
    inversion: InversionResult | None = None
    spec: AgentClassSpec | None = None

    @property
    def class_name(self) -> str:
        """Name of the compiled agent class."""
        return self.class_decl.name

    @property
    def has_non_local_effects(self) -> bool:
        """True when the *compiled* script still performs non-local effect assignments.

        When this is False (either the original script was local-only or
        effect inversion removed the non-local assignments), BRACE can run a
        single reduce pass per tick.
        """
        return self.info.has_non_local_effects

    @property
    def was_inverted(self) -> bool:
        """True when effect inversion rewrote the script."""
        return self.inversion is not None and self.inversion.inverted

    def make_agent(self, agent_id: int | None = None, **state_values: Any):
        """Instantiate one agent with the given initial state."""
        return self.agent_class(agent_id=agent_id, **state_values)


class BrasilCompiler:
    """Compiles BRASIL source text into executable agent classes.

    Parameters
    ----------
    effect_inversion:
        ``"auto"`` (invert when the script has non-local assignments and the
        rewrite applies, otherwise keep the two-pass plan), ``"on"`` (require
        inversion, raising when it is impossible) or ``"off"``.
    """

    def __init__(self, effect_inversion: str = "auto"):
        if effect_inversion not in ("auto", "on", "off"):
            raise BrasilError("effect_inversion must be 'auto', 'on' or 'off'")
        self.effect_inversion = effect_inversion

    def compile(self, source: str, class_name: str | None = None) -> CompiledScript:
        """Compile ``source``; ``class_name`` selects the class in multi-class scripts."""
        script = parse(source)
        declaration = self._select_class(script, class_name)
        original_info = analyze_class(declaration)

        inversion: InversionResult | None = None
        compiled_decl = declaration
        if original_info.has_non_local_effects and self.effect_inversion != "off":
            try:
                inversion = invert_effects(declaration)
                compiled_decl = inversion.class_decl
            except EffectInversionError:
                if self.effect_inversion == "on":
                    raise
                inversion = None
                compiled_decl = declaration

        info = analyze_class(compiled_decl) if compiled_decl is not declaration else original_info
        spec = AgentClassSpec(
            source=source,
            class_name=declaration.name,
            effect_inversion=self.effect_inversion,
        )
        # Recompiles of the same spec adopt the registered class, so
        # ``type(unpickled_agent) is compiled.agent_class`` holds no matter
        # how many times (or in which process) the script was compiled.
        agent_class = _CLASS_REGISTRY.setdefault(
            spec, self._build_agent_class(compiled_decl, info, spec)
        )
        # The plan-kernel proof, once per class per process (cached on the
        # class; kernel_fallback_reasons reads what it found).
        kernels_for_class(agent_class)

        return CompiledScript(
            source=source,
            script=script,
            original_class_decl=declaration,
            class_decl=compiled_decl,
            original_info=original_info,
            info=info,
            agent_class=agent_class,
            inversion=inversion,
            spec=spec,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _select_class(script: Script, class_name: str | None) -> ClassDecl:
        if class_name is None:
            if len(script.classes) != 1:
                raise BrasilError(
                    "the script declares several classes; pass class_name to choose one"
                )
            return script.classes[0]
        declaration = script.class_named(class_name)
        if declaration is None:
            raise BrasilError(f"no class named {class_name!r} in the script")
        return declaration

    def _build_agent_class(
        self, declaration: ClassDecl, info: ScriptInfo, spec: AgentClassSpec | None = None
    ) -> type:
        namespace: dict[str, Any] = {
            "__doc__": f"Agent class compiled from the BRASIL class {declaration.name!r}.",
            "__module__": __name__,
        }
        for field_decl in declaration.state_fields():
            namespace[field_decl.name] = StateField(
                default=_DEFAULTS_BY_TYPE.get(field_decl.type_name, 0.0),
                spatial=field_decl.is_spatial,
                visibility=field_decl.visibility_radius(),
                reachability=field_decl.reachability_radius(),
                doc=f"BRASIL state field ({field_decl.type_name})",
            )
        for field_decl in declaration.effect_fields():
            namespace[field_decl.name] = EffectField(
                field_decl.combinator, doc=f"BRASIL effect field ({field_decl.type_name})"
            )

        run_method = declaration.run_method()
        namespace["_run_body"] = run_method.body if run_method is not None else None
        namespace["_update_rules"] = {
            field_decl.name: field_decl.update_rule
            for field_decl in declaration.state_fields()
            if field_decl.update_rule is not None
        }
        namespace["_float_fields"] = frozenset(
            field_decl.name
            for field_decl in declaration.state_fields()
            if field_decl.type_name == "float"
        )
        namespace["_class_decl"] = declaration
        namespace["_script_info"] = info
        namespace["_compile_spec"] = spec
        return AgentMeta(declaration.name, (BrasilAgentBase,), namespace)


def compile_script(
    source: str,
    class_name: str | None = None,
    effect_inversion: str = "auto",
) -> CompiledScript:
    """Compile a BRASIL script (convenience wrapper around :class:`BrasilCompiler`)."""
    compiler = BrasilCompiler(effect_inversion=effect_inversion)
    return compiler.compile(source, class_name=class_name)
