"""Tree-walking evaluator for compiled BRASIL scripts.

The compiler (see :mod:`repro.brasil.compiler`) produces an
:class:`~repro.core.agent.Agent` subclass whose ``query`` and ``update``
methods delegate to this interpreter.  NIL semantics follow the paper: an
undefined value (reading a field of a NIL agent reference, division by zero)
evaluates to NIL, NIL propagates through arithmetic, and assigning NIL to an
effect field is a no-op (aggregates ignore NIL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.brasil.ast_nodes import (
    Assign,
    BinaryOp,
    Block,
    BoolLit,
    Call,
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
    Stmt,
    UnaryOp,
)
from repro.brasil.builtins import BUILTIN_FUNCTIONS
from repro.core.errors import BrasilRuntimeError


@dataclass
class Environment:
    """Evaluation context for one agent executing one phase of one tick."""

    agent: Any
    query_context: Any = None
    rng: np.random.Generator | None = None
    locals: dict[str, Any] = field(default_factory=dict)
    #: Names of agent-typed bindings (foreach variables, agent-typed consts).
    agent_bindings: dict[str, Any] = field(default_factory=dict)

    def child(self) -> "Environment":
        """A copy sharing the agent but with copied local scopes."""
        return Environment(
            agent=self.agent,
            query_context=self.query_context,
            rng=self.rng,
            locals=dict(self.locals),
            agent_bindings=dict(self.agent_bindings),
        )


def _is_nil(value: Any) -> bool:
    return value is None


def evaluate(expression: Expr, env: Environment) -> Any:
    """Evaluate one BRASIL expression."""
    if isinstance(expression, NumberLit):
        return expression.value
    if isinstance(expression, BoolLit):
        return expression.value
    if isinstance(expression, Name):
        return _evaluate_name(expression.identifier, env)
    if isinstance(expression, FieldAccess):
        target = evaluate(expression.target, env)
        if _is_nil(target):
            return None
        try:
            return getattr(target, expression.field_name)
        except AttributeError:
            raise BrasilRuntimeError(
                f"agent {type(target).__name__} has no field {expression.field_name!r}"
            ) from None
    if isinstance(expression, BinaryOp):
        return _evaluate_binary(expression, env)
    if isinstance(expression, UnaryOp):
        operand = evaluate(expression.operand, env)
        if _is_nil(operand):
            return None
        if expression.operator == "-":
            return -operand
        if expression.operator == "!":
            return not operand
        raise BrasilRuntimeError(f"unknown unary operator {expression.operator!r}")
    if isinstance(expression, Call):
        return _evaluate_call(expression, env)
    if isinstance(expression, Conditional):
        condition = evaluate(expression.condition, env)
        if _is_nil(condition):
            return None
        return evaluate(expression.then_expr if condition else expression.else_expr, env)
    raise BrasilRuntimeError(f"cannot evaluate expression node {type(expression).__name__}")


def _evaluate_name(identifier: str, env: Environment) -> Any:
    if identifier == "this":
        return env.agent
    if identifier in env.agent_bindings:
        return env.agent_bindings[identifier]
    if identifier in env.locals:
        return env.locals[identifier]
    try:
        return getattr(env.agent, identifier)
    except AttributeError:
        raise BrasilRuntimeError(f"unknown name {identifier!r}") from None


def _evaluate_binary(expression: BinaryOp, env: Environment) -> Any:
    operator = expression.operator
    # Short-circuit logical operators.
    if operator == "&&":
        left = evaluate(expression.left, env)
        if _is_nil(left):
            return None
        if not left:
            return False
        right = evaluate(expression.right, env)
        return None if _is_nil(right) else bool(right)
    if operator == "||":
        left = evaluate(expression.left, env)
        if _is_nil(left):
            return None
        if left:
            return True
        right = evaluate(expression.right, env)
        return None if _is_nil(right) else bool(right)

    left = evaluate(expression.left, env)
    right = evaluate(expression.right, env)
    if _is_nil(left) or _is_nil(right):
        return None
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0:
            return None  # division by zero is NIL
        return left / right
    if operator == "%":
        if right == 0:
            return None
        return left % right
    if operator == "==":
        return left == right
    if operator == "!=":
        return left != right
    if operator == "<":
        return left < right
    if operator == ">":
        return left > right
    if operator == "<=":
        return left <= right
    if operator == ">=":
        return left >= right
    raise BrasilRuntimeError(f"unknown binary operator {operator!r}")


def _evaluate_call(expression: Call, env: Environment) -> Any:
    if expression.function == "rand":
        if env.rng is None:
            raise BrasilRuntimeError("rand() called without a random stream")
        return float(env.rng.random())
    if expression.function == "visible":
        # visible(a, b): True when agent b lies within a's visible region.
        if len(expression.arguments) != 2:
            raise BrasilRuntimeError("visible() takes exactly two agent arguments")
        first = evaluate(expression.arguments[0], env)
        second = evaluate(expression.arguments[1], env)
        if _is_nil(first) or _is_nil(second):
            return None
        region = first.visible_region()
        return True if region is None else region.contains_point(second.position())
    function = BUILTIN_FUNCTIONS.get(expression.function)
    if function is None:
        raise BrasilRuntimeError(f"unknown function {expression.function!r}")
    arguments = [evaluate(argument, env) for argument in expression.arguments]
    if any(_is_nil(argument) for argument in arguments):
        return None
    try:
        return function(*arguments)
    except (ValueError, OverflowError):
        return None


def execute_block(block: Block, env: Environment) -> None:
    """Execute every statement in a block."""
    for statement in block.statements:
        execute_statement(statement, env)


def execute_statement(statement: Stmt, env: Environment) -> None:
    """Execute one statement of a query script."""
    if isinstance(statement, Block):
        execute_block(statement, env)
        return
    if isinstance(statement, LocalDecl):
        value = evaluate(statement.initializer, env)
        # Agent-valued locals are tracked separately so field accesses work.
        if value is not None and hasattr(value, "agent_id") and hasattr(value, "position"):
            env.agent_bindings[statement.name] = value
        else:
            env.locals[statement.name] = value
        return
    if isinstance(statement, Assign):
        if statement.name not in env.locals and statement.name not in env.agent_bindings:
            raise BrasilRuntimeError(f"assignment to undeclared local {statement.name!r}")
        env.locals[statement.name] = evaluate(statement.value, env)
        return
    if isinstance(statement, EffectAssign):
        target = env.agent
        if statement.target_agent is not None:
            target = evaluate(statement.target_agent, env)
        if _is_nil(target):
            return  # weak reference resolved to NIL: the assignment is dropped
        value = evaluate(statement.value, env)
        if _is_nil(value):
            return  # NIL values are ignored by effect aggregation
        setattr(target, statement.field_name, value)
        return
    if isinstance(statement, ForEach):
        extent = _resolve_extent(statement.element_type, env)
        for other in extent:
            env.agent_bindings[statement.variable] = other
            execute_block(statement.body, env)
        env.agent_bindings.pop(statement.variable, None)
        return
    if isinstance(statement, If):
        condition = evaluate(statement.condition, env)
        if not _is_nil(condition) and condition:
            execute_block(statement.then_block, env)
        elif statement.else_block is not None:
            execute_block(statement.else_block, env)
        return
    if isinstance(statement, ExprStmt):
        evaluate(statement.expression, env)
        return
    raise BrasilRuntimeError(f"cannot execute statement node {type(statement).__name__}")


def _resolve_extent(element_type: str, env: Environment) -> list[Any]:
    """The agents a ``foreach`` ranges over.

    With bounded visibility the extent is restricted to the agent's visible
    region (references outside it would resolve to NIL anyway — Theorem 1),
    answered by the query context as one range query; otherwise the whole
    extent is scanned.  The active agent itself is never part of the extent.
    """
    context = env.query_context
    if context is None:
        raise BrasilRuntimeError("foreach used outside of the query phase")
    agent = env.agent
    if agent.has_bounded_visibility():
        candidates = context.visible(agent)
    else:
        candidates = [other for other in context.agents() if other is not agent]
    return [other for other in candidates if type(other).__name__ == element_type]
