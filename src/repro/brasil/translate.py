"""Translation of BRASIL query scripts into monad algebra plans.

This is the executable counterpart of Appendix B: the query phase of a
BRASIL class becomes an algebra plan that maps an *environment tuple*

.. code-block:: python

    {"this": {field: value, ..., "__id__": agent_id},
     "extent": [{field: value, ..., "__id__": agent_id}, ...]}

to the collection of effect tuples ``{"key", "field", "value"}`` the agent
generates — the set of effects ``{ρ}`` of the formal semantics.  Visibility
constraints become explicit selections (``σ_V``), which is how Theorem 1
identifies the BRASIL weak-reference semantics with the BRACE implementation.

The translator supports the declarative core of BRASIL: constant locals,
``foreach`` over an extent, ``if`` guards and effect assignments.  Scripts
using ``rand()`` in the query phase or reassigning locals cannot be expressed
as a pure plan and raise :class:`TranslationNotSupported`.

Nothing at run time executes these plans: the runtime runs the interpreter
or the plan kernels of :mod:`repro.brasil.kernels`.  The translation is the
Appendix B library the Theorem 1 tests evaluate against the interpreter
(:func:`environment_for` builds their input, :func:`aggregate_effects`
folds their output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.brasil.algebra import (
    AlgebraOp,
    Apply,
    Arith,
    Compose,
    Cond,
    Const,
    FlatMap,
    Identity,
    MapOp,
    Negate,
    NotNil,
    PairWith,
    Project,
    Select,
    Sng,
    TupleCons,
    UnionOp,
)
from repro.brasil.ast_nodes import (
    Assign,
    BinaryOp,
    Block,
    BoolLit,
    Call,
    ClassDecl,
    Conditional,
    EffectAssign,
    Expr,
    ExprStmt,
    FieldAccess,
    ForEach,
    If,
    LocalDecl,
    Name,
    NumberLit,
    UnaryOp,
)
from repro.brasil.semantics import ScriptInfo, analyze_class
from repro.core.errors import BrasilError


class TranslationNotSupported(BrasilError):
    """The script uses a construct outside the algebra-translatable subset."""


@dataclass
class _Scope:
    """Static context while translating: known fields, bindings and locals."""

    field_names: set[str]
    loop_variables: list[str]
    locals_map: dict[str, AlgebraOp]


def translate_expression(expression: Expr, scope: _Scope) -> AlgebraOp:
    """Translate one BRASIL expression into an algebra plan over the environment tuple."""
    if isinstance(expression, NumberLit):
        return Const(expression.value)
    if isinstance(expression, BoolLit):
        return Const(expression.value)
    if isinstance(expression, Name):
        identifier = expression.identifier
        if identifier == "this":
            return Project("this")
        if identifier in scope.loop_variables:
            return Project(identifier)
        if identifier in scope.locals_map:
            return scope.locals_map[identifier]
        if identifier in scope.field_names:
            return Compose(Project("this"), Project(identifier))
        raise TranslationNotSupported(f"unknown name {identifier!r} in algebra translation")
    if isinstance(expression, FieldAccess):
        return Compose(translate_expression(expression.target, scope), Project(expression.field_name))
    if isinstance(expression, BinaryOp):
        return Arith(
            expression.operator,
            translate_expression(expression.left, scope),
            translate_expression(expression.right, scope),
        )
    if isinstance(expression, UnaryOp):
        return Negate(expression.operator, translate_expression(expression.operand, scope))
    if isinstance(expression, Call):
        if expression.function == "rand":
            raise TranslationNotSupported("rand() cannot appear in a pure algebra plan")
        return Apply(
            expression.function,
            [translate_expression(argument, scope) for argument in expression.arguments],
        )
    if isinstance(expression, Conditional):
        return Cond(
            translate_expression(expression.condition, scope),
            translate_expression(expression.then_expr, scope),
            translate_expression(expression.else_expr, scope),
        )
    raise TranslationNotSupported(f"cannot translate expression {type(expression).__name__}")


def _bind_loop_variable(variable: str, known_labels: list[str]) -> AlgebraOp:
    """An operator binding ``variable`` to each element of the extent.

    Input: one environment tuple; output: a collection of environment tuples
    extended with ``variable``.  Built from tuple construction + PAIRWITH as
    in the derived cartesian product of Appendix B.
    """
    fields: dict[str, AlgebraOp] = {label: Project(label) for label in known_labels}
    fields[variable] = Project("extent")
    return Compose(TupleCons(fields), PairWith(variable))


def _visibility_predicate(
    variable: str, info: ScriptInfo, scope: _Scope
) -> AlgebraOp | None:
    """σ_V: the loop agent lies within the active agent's visible region."""
    if not info.has_bounded_visibility:
        return None
    conditions: list[AlgebraOp] = []
    for field_name in info.spatial_field_names:
        radius = info.visibility_radii[field_name]
        difference = Apply(
            "abs",
            [
                Arith(
                    "-",
                    Compose(Project("this"), Project(field_name)),
                    Compose(Project(variable), Project(field_name)),
                )
            ],
        )
        conditions.append(Arith("<=", difference, Const(radius)))
    predicate = conditions[0]
    for condition in conditions[1:]:
        predicate = Arith("&&", predicate, condition)
    return predicate


def _exclude_self_predicate(variable: str) -> AlgebraOp:
    """The loop agent is not the active agent (extents exclude ``this``)."""
    return Arith(
        "!=",
        Compose(Project(variable), Project("__id__")),
        Compose(Project("this"), Project("__id__")),
    )


class QueryTranslator:
    """Translates a class's ``run()`` method into an effect-producing plan."""

    def __init__(self, declaration: ClassDecl, info: ScriptInfo | None = None):
        self.declaration = declaration
        self.info = info or analyze_class(declaration)
        self._pipelines: list[AlgebraOp] = []

    def translate(self) -> AlgebraOp:
        """Return the plan mapping an environment tuple to a collection of effects."""
        run_method = self.declaration.run_method()
        if run_method is None:
            return Compose(Identity(), Const([]))
        scope = _Scope(
            field_names={field.name for field in self.declaration.fields},
            loop_variables=[],
            locals_map={},
        )
        self._pipelines = []
        self._translate_block(run_method.body, scope, guards=[], binders=[])
        if not self._pipelines:
            return Compose(Identity(), Const([]))
        return UnionOp(self._pipelines)

    # ------------------------------------------------------------------
    # Statement translation
    # ------------------------------------------------------------------
    def _translate_block(
        self,
        block: Block,
        scope: _Scope,
        guards: list[AlgebraOp],
        binders: list[AlgebraOp],
    ) -> None:
        scope = _Scope(
            field_names=scope.field_names,
            loop_variables=list(scope.loop_variables),
            locals_map=dict(scope.locals_map),
        )
        for statement in block.statements:
            if isinstance(statement, LocalDecl):
                scope.locals_map[statement.name] = translate_expression(
                    statement.initializer, scope
                )
            elif isinstance(statement, Assign):
                raise TranslationNotSupported(
                    "local reassignment cannot be expressed as a pure plan"
                )
            elif isinstance(statement, EffectAssign):
                self._pipelines.append(
                    self._effect_pipeline(statement, scope, guards, binders)
                )
            elif isinstance(statement, ForEach):
                known_labels = ["this", "extent", *scope.loop_variables]
                binder = _bind_loop_variable(statement.variable, known_labels)
                inner_scope = _Scope(
                    field_names=scope.field_names,
                    loop_variables=scope.loop_variables + [statement.variable],
                    locals_map=dict(scope.locals_map),
                )
                inner_guards = list(guards)
                inner_guards.append(_exclude_self_predicate(statement.variable))
                visibility = _visibility_predicate(statement.variable, self.info, inner_scope)
                if visibility is not None:
                    inner_guards.append(visibility)
                self._translate_block(
                    statement.body, inner_scope, inner_guards, binders + [binder]
                )
            elif isinstance(statement, If):
                condition = translate_expression(statement.condition, scope)
                self._translate_block(statement.then_block, scope, guards + [condition], binders)
                if statement.else_block is not None:
                    negated = Negate("!", condition)
                    self._translate_block(statement.else_block, scope, guards + [negated], binders)
            elif isinstance(statement, (Block,)):
                self._translate_block(statement, scope, guards, binders)
            elif isinstance(statement, ExprStmt):
                continue
            else:
                raise TranslationNotSupported(
                    f"cannot translate statement {type(statement).__name__}"
                )

    def _effect_pipeline(
        self,
        assignment: EffectAssign,
        scope: _Scope,
        guards: list[AlgebraOp],
        binders: list[AlgebraOp],
    ) -> AlgebraOp:
        """The plan fragment producing the effect tuples of one ``<-`` statement."""
        if assignment.target_agent is None or (
            isinstance(assignment.target_agent, Name)
            and assignment.target_agent.identifier == "this"
        ):
            key_plan: AlgebraOp = Compose(Project("this"), Project("__id__"))
        else:
            key_plan = Compose(
                translate_expression(assignment.target_agent, scope), Project("__id__")
            )
        value_plan = translate_expression(assignment.value, scope)

        effect_tuple = TupleCons(
            {"key": key_plan, "field": Const(assignment.field_name), "value": value_plan}
        )

        plan: AlgebraOp = Sng()
        for binder in binders:
            plan = Compose(plan, FlatMap(binder))
        for guard in guards:
            plan = Compose(plan, Select(guard))
        plan = Compose(plan, Select(NotNil(value_plan)))
        plan = Compose(plan, MapOp(effect_tuple))
        return plan


def translate_query(declaration: ClassDecl, info: ScriptInfo | None = None) -> AlgebraOp:
    """Translate ``declaration``'s query phase into a monad algebra plan."""
    return QueryTranslator(declaration, info).translate()


# ----------------------------------------------------------------------
# Helpers used by tests to run plans against real agents
# ----------------------------------------------------------------------
def agent_tuple(agent: Any) -> dict[str, Any]:
    """Encode an agent's state as the tuple the plans operate on."""
    values = dict(agent.state_dict())
    values["__id__"] = agent.agent_id
    return values


def environment_for(agent: Any, extent: list[Any]) -> dict[str, Any]:
    """Build the environment tuple for ``agent`` given the full extent."""
    return {
        "this": agent_tuple(agent),
        "extent": [agent_tuple(other) for other in extent if other is not agent],
    }


def aggregate_effects(
    effect_tuples: list[dict[str, Any]], combinators: dict[str, Any]
) -> dict[tuple[Any, str], Any]:
    """Fold raw effect tuples with each field's combinator (the ⊕ stage).

    ``combinators`` maps effect field names to
    :class:`~repro.core.combinators.Combinator` instances.  Returns the
    finalized aggregate per ``(agent id, field)``.
    """
    accumulators: dict[tuple[Any, str], Any] = {}
    for effect in effect_tuples:
        key = (effect["key"], effect["field"])
        combinator = combinators[effect["field"]]
        if key not in accumulators:
            accumulators[key] = combinator.identity()
        accumulators[key] = combinator.combine(accumulators[key], effect["value"])
    return {
        key: combinators[key[1]].finalize(accumulator)
        for key, accumulator in accumulators.items()
    }
