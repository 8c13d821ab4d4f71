"""Columnar plan kernels: whole-phase batched execution of BRASIL plans.

The interpreted runtime (:mod:`repro.brasil.interpreter`) evaluates each
agent's ``run()`` body and update rules one agent — one *pair*, inside a
``foreach`` — at a time.  This module compiles whole query and update
plans to NumPy so a phase becomes a handful of array operations: effect
aggregation turns into ``np.ufunc.at`` scatter-reductions over the spatial
join's pair arrays (:meth:`~repro.core.context.QueryContext.visible_pairs`:
no agent object is touched between the join and the effect writeback), and
update rules turn into column arithmetic over a
:class:`~repro.core.soa.AgentTable` structure-of-arrays snapshot.

Bit-identity with the interpreter is the contract, never tolerance, so the
compiler only accepts constructs it can prove equivalent:

* NIL semantics are carried as an explicit validity mask per lane —
  division by zero, ``sqrt`` of a negative number and friends invalidate
  the lane exactly where the interpreter would have produced ``None``;
* ``min``/``max`` builtins use Python's comparison-based semantics
  (``where(b < a, b, a)``), not ``np.minimum``'s NaN propagation;
* transcendental builtins (``exp``, ``sin``, ``pow``, …) and the ``%``
  operator are evaluated lane-by-lane through the *same* Python functions
  the interpreter calls, because their NumPy counterparts are not
  guaranteed bit-identical;
* scatter order replicates the interpreter's fold order: pairs are laid
  out probe-major / match-ascending, and ``ufunc.at`` applies duplicates
  element by element in that order.  Fields whose combinator fold is
  order-sensitive (``sum``, ``product``, ``mean``) are only compiled when
  a single statement writes them (or all writers are per-probe local
  assignments), so the per-target combine order provably matches;
* a ``min``/``max`` scatter that would combine a NaN raises
  :class:`PlanKernelFallback` *before* any agent is mutated — NumPy's
  ``minimum.at`` and Python's ``min`` disagree on NaN ordering.

The evaluator (:class:`_VectorFrame`, shared by both kernels) does no
work whose result is known or already computed: literals stay Python
scalars, NIL validity and the statement mask stay ``True`` until an
operator or an ``if`` actually switches a lane off, comparisons stay
boolean, and a compound sub-expression the body repeats (found once, at
kernel-compile time, by :class:`_SharingPass`) is evaluated once per
``foreach`` execution and released at its last use.

Anything outside the provable subset — ``rand()`` in the phase, nested
``foreach``, loop-carried local accumulators, agent-valued locals, the
``collect`` combinator, unbounded visibility, an update rule on an ``int``
or ``bool`` state field (columns are ``float64``) — simply leaves the phase
on the interpreted path.  Fallback is per worker-phase and all-or-nothing:
kernels do all their reading and computing first and only then write
effects/state back, so a fallback mid-compute leaves the world untouched
for the interpreter to process from scratch.
"""

from __future__ import annotations

from itertools import compress
from operator import is_, mod
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.brasil.ast_nodes import (
    Assign,
    BinaryOp,
    Block,
    BoolLit,
    Call,
    ClassDecl,
    Conditional,
    EffectAssign,
    ExprStmt,
    FieldAccess,
    ForEach,
    If,
    LocalDecl,
    Name,
    NumberLit,
    UnaryOp,
)
from repro.brasil.builtins import BUILTIN_FUNCTIONS
from repro.brasil.semantics import ScriptInfo
from repro.core.soa import AgentTable, UnpackableValueError, pack_column


class PlanKernelFallback(Exception):
    """A compiled kernel handed the phase back to the interpreter.

    Raised only before any agent state or effect has been mutated, so the
    caller can rerun the whole phase interpreted.
    """


class _Unsupported(Exception):
    """Compile-time marker: a construct is outside the provable subset."""


#: Arithmetic operators computed directly on ``float64`` columns (IEEE-exact).
_ARITH_OPS = ("+", "-", "*")
_COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")

#: Builtins with exact vector equivalents (comparison/rounding based).
_VECTOR_CALLS = {"abs", "min", "max", "sqrt", "floor", "ceil", "sign"}
#: Builtins evaluated lane-by-lane through the interpreter's own functions.
_LANE_CALLS = {"exp", "log", "pow", "sin", "cos", "tan", "atan2", "hypot"}
_SUPPORTED_CALLS = _VECTOR_CALLS | _LANE_CALLS

#: Combinators whose fold is exactly order-insensitive: integer addition,
#: boolean or/and, and (NaN-guarded) min/max.  Float ``sum``/``product``/
#: ``mean`` folds are order-sensitive and get the single-writer restriction.
_ORDER_INSENSITIVE = {"count", "min", "max", "any", "all"}
_SCATTERABLE = {"sum", "count", "min", "max", "product", "any", "all", "mean"}

#: Sentinel for locals whose vector value is no longer representable (a
#: ``foreach``-scoped declaration read after the loop).  Reads raise.
_POISON = object()


def _exact_number(literal: NumberLit) -> None:
    """Reject integer literals a float64 cannot represent exactly."""
    value = literal.value
    if type(value) is int:
        try:
            exact = int(float(value)) == value
        except OverflowError:
            exact = False
        if not exact:
            raise _Unsupported(f"integer literal {value!r} not exact in float64")


def _call_arity_ok(function: str, arity: int) -> bool:
    """Arities the compiled path supports (mirrors what cannot crash)."""
    if function in ("min", "max"):
        return arity >= 2
    if function in ("pow", "atan2"):
        return arity == 2
    if function == "hypot":
        return arity >= 1
    return arity == 1


class _ExprChecker:
    """Static validation of one expression against the compilable subset."""

    def __init__(self, value_names, agent_names, state_fields, poisoned=()):
        self.value_names = value_names
        self.agent_names = agent_names
        self.state_fields = state_fields
        self.poisoned = poisoned

    def check(self, expr) -> None:
        if isinstance(expr, NumberLit):
            _exact_number(expr)
            return
        if isinstance(expr, BoolLit):
            return
        if isinstance(expr, Name):
            name = expr.identifier
            if name == "this" or name in self.agent_names:
                raise _Unsupported(f"agent-valued name {name!r} used as a value")
            if name in self.poisoned:
                raise _Unsupported(f"loop-scoped local {name!r} read after foreach")
            if name not in self.value_names and name not in self.state_fields:
                raise _Unsupported(f"unresolvable name {name!r}")
            return
        if isinstance(expr, FieldAccess):
            target = expr.target
            if not isinstance(target, Name):
                raise _Unsupported("computed field-access target")
            if target.identifier != "this" and target.identifier not in self.agent_names:
                raise _Unsupported(f"field access on non-agent {target.identifier!r}")
            if expr.field_name not in self.state_fields:
                raise _Unsupported(f"access to non-state field {expr.field_name!r}")
            return
        if isinstance(expr, BinaryOp):
            if expr.operator not in _ARITH_OPS + _COMPARE_OPS + ("/", "%", "&&", "||"):
                raise _Unsupported(f"operator {expr.operator!r}")
            self.check(expr.left)
            self.check(expr.right)
            return
        if isinstance(expr, UnaryOp):
            if expr.operator not in ("-", "!"):
                raise _Unsupported(f"unary operator {expr.operator!r}")
            self.check(expr.operand)
            return
        if isinstance(expr, Conditional):
            self.check(expr.condition)
            self.check(expr.then_expr)
            self.check(expr.else_expr)
            return
        if isinstance(expr, Call):
            if expr.function not in _SUPPORTED_CALLS:
                raise _Unsupported(f"call to {expr.function!r}")
            if not _call_arity_ok(expr.function, len(expr.arguments)):
                raise _Unsupported(f"unsupported arity for {expr.function!r}")
            for argument in expr.arguments:
                self.check(argument)
            return
        raise _Unsupported(f"expression node {type(expr).__name__}")


#: Builtins whose result is a Python float whatever their arguments are.
_FLOAT_CALLS = {"sqrt", "exp", "log", "pow", "sin", "cos", "tan", "atan2", "hypot", "sign"}


def _float_valued(expr, float_names: set, float_fields: set) -> bool:
    """Whether the interpreter evaluates ``expr`` to a ``float`` (or NIL).

    ``float_names`` are the bare names bound to floats (declared-``float``
    state fields not shadowed by a local, and locals proved float);
    ``float_fields`` the declared-``float`` state fields, read through
    ``this.f`` / ``p.f``.
    """
    if isinstance(expr, NumberLit):
        return type(expr.value) is float
    if isinstance(expr, Name):
        return expr.identifier in float_names
    if isinstance(expr, FieldAccess):
        return expr.field_name in float_fields
    if not isinstance(expr, _COMPOUND):
        return False
    operands = [_float_valued(e, float_names, float_fields) for e in _operands(expr)]
    if isinstance(expr, BinaryOp):
        # Python's true division always yields a float; + - * % do as soon
        # as one operand is a float; comparisons and && || yield bools.
        return expr.operator == "/" or (expr.operator in ("+", "-", "*", "%") and any(operands))
    if isinstance(expr, UnaryOp):
        return expr.operator == "-" and operands[0]
    if isinstance(expr, Conditional):
        return operands[1] and operands[2]
    if isinstance(expr, Call):
        # min/max return the winning argument, abs keeps its argument's type.
        return expr.function in _FLOAT_CALLS or (
            expr.function in ("abs", "min", "max") and all(operands)
        )
    return False


def _validate_query_body(body: Block, info: ScriptInfo, float_fields: set) -> None:
    """Prove the whole ``run()`` body compilable, or raise ``_Unsupported``.

    Mirrors the executor's structure: simulates local declarations in
    statement order, tracks which effect fields are written where, and
    enforces the per-field fold-order restrictions.  A ``min``/``max``
    effect must be assigned float values: the interpreter keeps the winning
    value's Python type, and an ``int`` winner would come back from the
    ``float64`` accumulator as a float.
    """
    state_fields = set(info.state_field_names)
    combinators = dict(info.effect_combinators)
    probe_locals: set = set()
    poisoned: set = set()
    float_names = set(float_fields)
    # field -> list of (depth, target_kind) with target_kind in {"this", "loopvar"}
    writers: Dict[str, List[Tuple[int, str]]] = {}

    def walk(statements, depth, in_if, loopvar, loop_locals):
        for stmt in statements:
            if isinstance(stmt, Block):
                walk(stmt.statements, depth, in_if, loopvar, loop_locals)
            elif isinstance(stmt, LocalDecl):
                if in_if:
                    raise _Unsupported("local declaration inside if")
                if stmt.name == "this":
                    raise _Unsupported("local named 'this'")
                checker(depth, loopvar, loop_locals).check(stmt.initializer)
                if _float_valued(stmt.initializer, float_names, float_fields):
                    float_names.add(stmt.name)
                else:
                    float_names.discard(stmt.name)
                if depth == 0:
                    probe_locals.add(stmt.name)
                else:
                    loop_locals.add(stmt.name)
                poisoned.discard(stmt.name)
            elif isinstance(stmt, Assign):
                if depth > 0:
                    raise _Unsupported("assignment inside foreach (loop-carried)")
                if stmt.name not in probe_locals or stmt.name in poisoned:
                    raise _Unsupported(f"assignment to {stmt.name!r}")
                checker(depth, loopvar, loop_locals).check(stmt.value)
                if not _float_valued(stmt.value, float_names, float_fields):
                    float_names.discard(stmt.name)
            elif isinstance(stmt, EffectAssign):
                kind = _target_kind(stmt, loopvar)
                combinator = combinators.get(stmt.field_name)
                if combinator is None:
                    raise _Unsupported(f"unknown effect field {stmt.field_name!r}")
                if combinator not in _SCATTERABLE:
                    raise _Unsupported(f"combinator {combinator!r} not scatterable")
                checker(depth, loopvar, loop_locals).check(stmt.value)
                if combinator in ("min", "max") and not _float_valued(
                    stmt.value, float_names, float_fields
                ):
                    raise _Unsupported(
                        f"{combinator} effect {stmt.field_name!r} may keep a non-float value"
                    )
                writers.setdefault(stmt.field_name, []).append((depth, kind))
            elif isinstance(stmt, If):
                checker(depth, loopvar, loop_locals).check(stmt.condition)
                walk(stmt.then_block.statements, depth, True, loopvar, loop_locals)
                if stmt.else_block is not None:
                    walk(stmt.else_block.statements, depth, True, loopvar, loop_locals)
            elif isinstance(stmt, ForEach):
                if depth > 0:
                    raise _Unsupported("nested foreach")
                if in_if:
                    # Work accounting per probe would need per-lane extent
                    # resolution under a mask — supported by the executor,
                    # but extent charging depends on has_bounded_visibility
                    # per agent, which matches the class here; allow it.
                    pass
                if stmt.element_type != info.class_name:
                    raise _Unsupported(f"foreach over foreign type {stmt.element_type!r}")
                inner: set = set()
                walk(stmt.body.statements, 1, False, stmt.variable, inner)
                poisoned.update(inner)
            elif isinstance(stmt, ExprStmt):
                checker(depth, loopvar, loop_locals).check(stmt.expression)
            else:
                raise _Unsupported(f"statement node {type(stmt).__name__}")

    def checker(depth, loopvar, loop_locals):
        value_names = set(probe_locals) | (loop_locals if depth else set())
        agent_names = {"this"} | ({loopvar} if loopvar else set())
        # A loop variable shadows any probe-level local of the same name.
        value_names -= agent_names
        return _ExprChecker(value_names, agent_names, state_fields, poisoned)

    walk(body.statements, 0, False, None, set())

    for field, field_writers in writers.items():
        if combinators[field] in _ORDER_INSENSITIVE:
            continue
        if len(field_writers) == 1:
            continue
        if all(depth == 0 for depth, _ in field_writers):
            continue  # each target combined only by its own probe, in order
        raise _Unsupported(
            f"order-sensitive effect {field!r} written by multiple statements"
        )


def _target_kind(stmt: EffectAssign, loopvar: Optional[str]) -> str:
    """Classify an effect target as ``this`` or the loop variable."""
    target = stmt.target_agent
    if target is None:
        return "this"
    if isinstance(target, Name):
        if target.identifier == "this":
            return "this"
        if loopvar is not None and target.identifier == loopvar:
            return "loopvar"
    raise _Unsupported("effect target is neither 'this' nor the loop variable")


#: Expression nodes that compute (and may therefore be shared); literals,
#: names and field reads are cheap or plain gathers and never memoised.
_COMPOUND = (BinaryOp, UnaryOp, Conditional, Call)


def _operands(expr) -> List[Any]:
    """The child expressions of a compound node, in evaluation order."""
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, Conditional):
        return [expr.condition, expr.then_expr, expr.else_expr]
    return list(expr.arguments)


class _SharingPass:
    """Finds the compound sub-expressions a kernel evaluates more than once.

    Walks statements in the executor's order and groups structurally
    identical compound nodes (``repr`` of the dataclass tree is the
    structural key).  A repeated occurrence is a memo hit at run time and
    evaluates no children, so the walk does not descend into it either —
    the counts are exactly the evaluator's.  A group never spans a point
    where a memoised value could go stale — an ``Assign``, the
    re-declaration of a bound name, a ``foreach`` boundary (its body is
    pair space) — because each such point opens a new *scope* and the scope
    is part of the memo key.  The result maps ``id(node)`` to ``(key,
    later_uses)``: how many occurrences of the same expression are still to
    come, which is what lets the evaluator release a shared result at its
    last use.
    """

    def __init__(self, bound_names):
        self._bound = set(bound_names)
        self._groups: Dict[Tuple[int, str], List[int]] = {}
        self._scopes = 0
        self._scope = 0

    def _new_scope(self) -> None:
        self._scopes += 1
        self._scope = self._scopes

    def expression(self, expr) -> None:
        if not isinstance(expr, _COMPOUND):
            return
        group = self._groups.setdefault((self._scope, repr(expr)), [])
        group.append(id(expr))
        if len(group) == 1:
            for operand in _operands(expr):
                self.expression(operand)

    def block(self, statements) -> None:
        for stmt in statements:
            if isinstance(stmt, Block):
                self.block(stmt.statements)
            elif isinstance(stmt, LocalDecl):
                self.expression(stmt.initializer)
                if stmt.name in self._bound:
                    self._new_scope()
                self._bound.add(stmt.name)
            elif isinstance(stmt, Assign):
                self.expression(stmt.value)
                self._new_scope()
            elif isinstance(stmt, EffectAssign):
                self.expression(stmt.value)
            elif isinstance(stmt, If):
                self.expression(stmt.condition)
                self.block(stmt.then_block.statements)
                if stmt.else_block is not None:
                    self.block(stmt.else_block.statements)
            elif isinstance(stmt, ForEach):
                outer = self._scope
                self._new_scope()
                self.block(stmt.body.statements)
                self._scope = outer

    def shared(self) -> Dict[int, Tuple[Tuple[int, str], int]]:
        return {
            node: (key, len(group) - 1 - position)
            for key, group in self._groups.items()
            if len(group) > 1
            for position, node in enumerate(group)
        }


class QueryKernel:
    """A compiled query phase: one worker's ``run()`` bodies as array ops."""

    def __init__(self, class_name: str, body: Block, info: ScriptInfo, float_fields: set):
        self.class_name = class_name
        self.body = body
        self.state_field_names = list(info.state_field_names)
        self.effect_combinators = dict(info.effect_combinators)
        #: The ``min``/``max`` proof takes declared-``float`` fields to hold
        #: floats; a run where one of them holds anything else falls back.
        self.float_guard = (
            [name for name in self.state_field_names if name in float_fields]
            if {"min", "max"} & set(self.effect_combinators.values())
            else []
        )
        sharing = _SharingPass(self.state_field_names)
        sharing.block(body.statements)
        #: ``id(node) -> (key, later_uses)`` of the repeated sub-expressions.
        self.shared = sharing.shared()

    def run(self, owned: Sequence[Any], context: Any) -> None:
        """Execute the query phase for ``owned`` probes against ``context``.

        Raises :class:`PlanKernelFallback` (before any mutation) when a
        runtime-only condition blocks the compiled path.
        """
        frame = _VectorFrame.for_query(self, owned, context)
        frame.exec_block(self.body.statements, True, "probe")
        frame.writeback_effects()


class UpdateKernel:
    """A compiled update phase for one agent class: rules as column math."""

    def __init__(self, class_name: str, rules, info: ScriptInfo):
        self.class_name = class_name
        #: ``(field_name, expression)`` in declaration order — the same
        #: order the interpreted path applies ``setattr`` in.
        self.rules = list(rules)
        names = {name for _, expr in self.rules for name in _names_in(expr)}
        self.effect_reads = names & set(info.effect_combinators)
        #: Only the columns the rules touch are packed: an unpackable value
        #: in a field no rule reads or writes cannot block the kernel.
        names.update(field for field, _ in self.rules)
        self.state_field_names = [name for name in info.state_field_names if name in names]
        sharing = _SharingPass(())
        for _, expr in self.rules:
            sharing.expression(expr)
        self.shared = sharing.shared()

    def run(self, agents: Sequence[Any], context: Any) -> None:
        """Apply every update rule to ``agents`` (all of this class).

        Raises :class:`PlanKernelFallback` before anything is mutated when a
        value the rules need cannot be packed into a ``float64`` column.
        """
        if not agents:
            return
        cls = type(agents[0])
        try:
            table = AgentTable(agents, self.state_field_names)
            effect_columns = {}
            for name in self.effect_reads:
                combinator = cls._effect_fields[name].combinator
                effect_columns[name] = pack_column(
                    [combinator.finalize(agent._effects[name]) for agent in agents]
                )
        except UnpackableValueError as exc:
            raise PlanKernelFallback(str(exc)) from exc
        frame = _VectorFrame.for_update(self, table, effect_columns)
        computed = [(field, frame.eval(expr, "probe")) for field, expr in self.rules]
        # All reads and computation are done; from here on, writeback only.
        for field, (values, valid) in computed:
            old = table.column(field)
            new = np.asarray(values, dtype=np.float64)
            descriptor = cls._state_fields[field]
            reach = descriptor.reachability if descriptor.spatial else None
            if reach is not None:
                # Python-semantics clamp: min(max(value, lo), hi) — NaN
                # passes through both comparisons, unlike np.clip.
                low = old - reach
                high = old + reach
                stepped = np.where(low > new, low, new)
                new = np.where(high < stepped, high, stepped)
            table.set_column(field, np.where(valid, new, old))
        table.writeback()


def _names_in(expr) -> List[str]:
    """Every bare identifier referenced by ``expr``."""
    found: List[str] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            found.append(node.identifier)
        elif isinstance(node, FieldAccess):
            stack.append(node.target)
        elif isinstance(node, _COMPOUND):
            stack.extend(_operands(node))
    return found


# ----------------------------------------------------------------------
# Lanes: values, validity and masks
# ----------------------------------------------------------------------
# A *value* is a Python scalar (a literal, or anything computed from
# literals only) or one 1-D array with a lane per probe / pair: ``float64``
# for numbers, ``bool`` for conditions.  A *lane mask* — NIL validity, or
# the lanes a statement is active on — is ``True`` (every lane), ``False``
# (no lane) or a 1-D bool array; it stays ``True`` until something can
# actually switch a lane off, so the common all-valid, unmasked case costs
# no array at all.


def _lanes(mask):
    """Normalise a computed mask: scalars and 0-d arrays become ``bool``."""
    if isinstance(mask, np.ndarray) and mask.ndim:
        return mask
    return bool(mask)


def _both(a, b):
    """``a & b`` over lane masks."""
    if a is True:
        return b
    if b is True:
        return a
    if a is False or b is False:
        return False
    return a & b


def _either(a, b):
    """``a | b`` over lane masks."""
    if a is False:
        return b
    if b is False:
        return a
    if a is True or b is True:
        return True
    return a | b


def _not(a):
    """``~a`` over a lane mask."""
    if isinstance(a, bool):
        return not a
    return ~a


def _is_condition(values) -> bool:
    if isinstance(values, np.ndarray):
        return values.dtype == np.bool_
    return isinstance(values, bool)


def _truthy(values):
    """The lanes on which ``values`` is true (non-zero; NaN is true)."""
    if _is_condition(values):
        return values
    return values != 0.0


def _numeric(values):
    """``values`` as arithmetic sees it: conditions count as 0.0 / 1.0."""
    if isinstance(values, np.ndarray):
        return values.astype(np.float64) if values.dtype == np.bool_ else values
    return float(values)


_COMPARISONS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}


def _lanewise(function, columns, valid):
    """Apply a Python scalar ``function`` lane by lane (the exact path).

    ``ValueError`` / ``OverflowError`` invalidate the lane, as the
    interpreter's NIL does.
    """
    columns = np.broadcast_arrays(*columns)
    n = len(columns[0])
    ok = np.array(np.broadcast_to(valid, n))
    out = np.zeros(n, dtype=np.float64)
    for lane in np.flatnonzero(ok):
        try:
            out[lane] = function(*(float(column[lane]) for column in columns))
        except (ValueError, OverflowError):
            ok[lane] = False
    return out, ok


def _apply_binary(operator: str, left, left_valid, right, right_valid):
    if operator == "&&":
        truthy = _truthy(left)
        return (
            _both(truthy, _truthy(right)),
            _both(left_valid, _either(_not(truthy), right_valid)),
        )
    if operator == "||":
        truthy = _truthy(left)
        return (
            _either(truthy, _truthy(right)),
            _both(left_valid, _either(truthy, right_valid)),
        )
    left, right = _numeric(left), _numeric(right)
    valid = _both(left_valid, right_valid)
    if operator == "+":
        return left + right, valid
    if operator == "-":
        return left - right, valid
    if operator == "*":
        return left * right, valid
    if operator == "/":
        nonzero = right != 0.0
        if np.all(nonzero):
            return left / right, valid
        return left / np.where(nonzero, right, 1.0), _both(valid, _lanes(nonzero))
    if operator == "%":
        # CPython's float modulo (fmod + sign correction) is the
        # reference; evaluate it lane by lane to stay exact.
        return _lanewise(mod, (left, right), _both(valid, _lanes(right != 0.0)))
    comparison = _COMPARISONS.get(operator)
    if comparison is None:
        raise PlanKernelFallback(f"operator {operator!r}")
    return comparison(left, right), valid


def _apply_call(function: str, values, valid):
    if function == "abs":
        return np.abs(values[0]), valid
    if function in ("min", "max"):
        # Python fold semantics: candidate replaces the running
        # value only on a strict comparison win (NaN never wins).
        accumulator = values[0]
        for candidate in values[1:]:
            wins = candidate < accumulator if function == "min" else candidate > accumulator
            accumulator = np.where(wins, candidate, accumulator)
        return accumulator, valid
    if function == "sqrt":
        argument = values[0]
        negative = argument < 0.0
        if not np.any(negative):
            return np.sqrt(argument), valid
        return (
            np.sqrt(np.where(negative, 0.0, argument)),
            _both(valid, _lanes(~negative)),
        )
    if function in ("floor", "ceil"):
        argument = values[0]
        rounding = np.floor if function == "floor" else np.ceil
        finite = np.isfinite(argument)
        if np.all(finite):
            return rounding(argument), valid
        return rounding(np.where(finite, argument, 0.0)), _both(valid, _lanes(finite))
    if function == "sign":
        argument = values[0]
        return np.where(argument > 0.0, 1.0, np.where(argument < 0.0, -1.0, 0.0)), valid
    if function in _LANE_CALLS:
        return _lanewise(BUILTIN_FUNCTIONS[function], values, valid)
    raise PlanKernelFallback(f"call to {function!r}")


def _apply(expr, evaluated):
    """One compound node over its evaluated operands (one is an array)."""
    if isinstance(expr, BinaryOp):
        (left, left_valid), (right, right_valid) = evaluated
        return _apply_binary(expr.operator, left, left_valid, right, right_valid)
    if isinstance(expr, UnaryOp):
        ((values, valid),) = evaluated
        if expr.operator == "-":
            return -_numeric(values), valid
        return _not(_truthy(values)), valid
    if isinstance(expr, Conditional):
        (cond, cond_valid), (then_v, then_valid), (else_v, else_valid) = evaluated
        truthy = _truthy(cond)
        if then_valid is True and else_valid is True:
            branch_valid = True
        else:
            branch_valid = _lanes(np.where(truthy, then_valid, else_valid))
        return np.where(truthy, then_v, else_v), _both(cond_valid, branch_valid)
    values = [_numeric(values) for values, _ in evaluated]
    valid = True
    for _, operand_valid in evaluated:
        valid = _both(valid, operand_valid)
    return _apply_call(expr.function, values, valid)


class _Accumulator:
    """One effect field's scatter target, initialized from live effects."""

    def __init__(self, field: str, combinator_name: str, raw_values: list):
        self.field = field
        self.combinator = combinator_name
        self.touch = np.zeros(len(raw_values), dtype=bool)
        if combinator_name == "count":
            if any(type(value) is not int for value in raw_values):
                raise PlanKernelFallback(f"count accumulator for {field!r} not int")
            self.data = np.array(raw_values, dtype=np.int64)
        elif combinator_name in ("any", "all"):
            if any(type(value) is not bool for value in raw_values):
                raise PlanKernelFallback(f"bool accumulator for {field!r} not bool")
            self.data = np.array(raw_values, dtype=bool)
        elif combinator_name == "mean":
            try:
                self.sums = pack_column([value[0] for value in raw_values])
                counts = [value[1] for value in raw_values]
            except (TypeError, IndexError, UnpackableValueError) as exc:
                raise PlanKernelFallback(str(exc)) from exc
            if any(type(count) is not int for count in counts):
                raise PlanKernelFallback(f"mean counts for {field!r} not int")
            self.counts = np.array(counts, dtype=np.int64)
        else:  # sum, min, max, product
            try:
                self.data = pack_column(raw_values)
            except UnpackableValueError as exc:
                raise PlanKernelFallback(str(exc)) from exc

    def scatter(self, rows: np.ndarray, values) -> None:
        """Combine ``values`` (lanes or one scalar) into ``rows``, in order."""
        name = self.combinator
        if name in ("any", "all"):
            values = _truthy(values)
        else:
            values = _numeric(values)
        if name in ("min", "max") and bool(np.any(np.isnan(values))):
            # Python's min/max keep the accumulator when the candidate is
            # NaN; np.minimum.at would propagate it.  Bail out before any
            # agent has been touched.
            raise PlanKernelFallback(f"NaN combined into {name} effect {self.field!r}")
        if name == "sum":
            np.add.at(self.data, rows, values)
        elif name == "count":
            np.add.at(self.data, rows, 1)
        elif name == "min":
            np.minimum.at(self.data, rows, values)
        elif name == "max":
            np.maximum.at(self.data, rows, values)
        elif name == "product":
            np.multiply.at(self.data, rows, values)
        elif name == "any":
            np.logical_or.at(self.data, rows, values)
        elif name == "all":
            np.logical_and.at(self.data, rows, values)
        elif name == "mean":
            np.add.at(self.sums, rows, values)
            np.add.at(self.counts, rows, 1)
        self.touch[rows] = True

    def writeback(self, agents: Sequence[Any]) -> None:
        """Store combined accumulators into the touched agents' effects."""
        rows = np.flatnonzero(self.touch)
        # tolist() rebuilds native ints / bools / floats with exact values.
        if self.combinator == "mean":
            values = list(zip(self.sums[rows].tolist(), self.counts[rows].tolist()))
        else:
            values = self.data[rows].tolist()
        field = self.field
        for row, value in zip(rows.tolist(), values):
            agent = agents[row]
            agent._effects[field] = value
            agent._effects_touched.add(field)


class _VectorFrame:
    """Runtime state for one kernel execution: columns, locals, pair lists.

    The one evaluator of both kernels.  ``eval`` returns ``(values,
    valid)`` in the lane conventions above; ``exec_*`` carry the statement
    mask the same way.
    """

    def __init__(self, table: AgentTable, shared, probe_rows: Optional[np.ndarray]):
        self.table = table
        #: Table row of every probe lane; ``None`` when probe lane ``i`` *is*
        #: row ``i`` (every row probes, in row order) and no gather is needed.
        self.probe_rows = probe_rows
        #: ``id(node) -> (key, later_uses)`` from the kernel's sharing pass.
        self.shared = shared
        self.locals: Dict[str, Any] = {}
        self.effect_columns: Dict[str, np.ndarray] = {}
        self.state_fields: set = set()
        self.context = None
        self.kernel: Optional[QueryKernel] = None
        self.probes: Sequence[Any] = ()
        #: Canonical extent row -> is it this kernel's class / its table row;
        #: ``None`` when the whole extent is this one class (rows coincide).
        self.in_class: Optional[np.ndarray] = None
        self.table_rows: Optional[np.ndarray] = None
        self.accumulators: Dict[str, _Accumulator] = {}
        self.pair_probe: Optional[np.ndarray] = None
        self.pair_rows: Optional[np.ndarray] = None
        self._pair_targets: Optional[np.ndarray] = None
        self.loopvar: Optional[str] = None
        self._probe_cache: Dict[str, np.ndarray] = {}
        #: Shared sub-expression results still owed a later use, per space.
        self._memo: Dict[str, Dict[Any, Any]] = {"probe": {}, "pair": {}}

    # -- construction --------------------------------------------------
    @classmethod
    def for_query(cls, kernel: QueryKernel, owned: Sequence[Any], context: Any):
        canonical = context._canonical_agents()
        classes = list(map(type, canonical))
        if len(set(classes)) == 1 and classes[0].__name__ == kernel.class_name:
            in_class, extent = None, canonical
        else:
            in_class = np.fromiter(
                (cls_.__name__ == kernel.class_name for cls_ in classes), bool, len(classes)
            )
            extent = list(compress(canonical, in_class.tolist()))
        try:
            table = AgentTable(extent, kernel.state_field_names)
        except UnpackableValueError as exc:
            raise PlanKernelFallback(str(exc)) from exc
        for name in kernel.float_guard:
            if any(type(agent._state[name]) is not float for agent in extent):
                raise PlanKernelFallback(f"non-float value in float field {name!r}")
        try:
            # Every row probing in row order needs no lane -> row gather:
            # the first probe anchors row 0 through the table's own index,
            # one identity pass proves the rest.
            if (
                len(owned) == len(extent)
                and table.row_of(owned[0]) == 0
                and all(map(is_, owned, extent))
            ):
                probe_rows = None
            else:
                probe_rows = np.array(
                    [table.row_of(agent) for agent in owned], dtype=np.intp
                )
        except KeyError as exc:
            raise PlanKernelFallback("probe not in extent") from exc
        frame = cls(table, kernel.shared, probe_rows)
        frame.kernel = kernel
        frame.context = context
        frame.probes = owned
        if in_class is not None:
            frame.in_class = in_class
            frame.table_rows = np.cumsum(in_class) - 1
        frame.state_fields = set(kernel.state_field_names)
        frame.accumulators = {
            field: _Accumulator(
                field, combinator, [agent._effects[field] for agent in extent]
            )
            for field, combinator in kernel.effect_combinators.items()
        }
        return frame

    @classmethod
    def for_update(cls, kernel: UpdateKernel, table: AgentTable, effect_columns):
        frame = cls(table, kernel.shared, None)
        frame.effect_columns = effect_columns
        frame.state_fields = set(kernel.state_field_names)
        return frame

    # -- spaces --------------------------------------------------------
    def _promote(self, values, valid, space_from: str, space_to: str):
        if space_from == space_to:
            return values, valid
        if space_from == "probe" and space_to == "pair":
            if isinstance(values, np.ndarray):
                values = values[self.pair_probe]
            if isinstance(valid, np.ndarray):
                valid = valid[self.pair_probe]
            return values, valid
        raise PlanKernelFallback("pair-space value escaping its foreach")

    def _state_column(self, name: str, space: str, of_match: bool):
        if of_match:
            return self.table.column(name)[self.pair_rows]
        column = self._probe_cache.get(name)
        if column is None:
            column = self.table.column(name)
            if self.probe_rows is not None:
                column = column[self.probe_rows]
            self._probe_cache[name] = column
        if space == "pair":
            return column[self.pair_probe]
        return column

    def _effect_rows(self, to_match: bool, space: str) -> np.ndarray:
        """Accumulator rows an effect assignment scatters to, per lane."""
        if to_match:
            return self.pair_rows
        if space == "pair":
            if self._pair_targets is None:
                self._pair_targets = (
                    self.pair_probe
                    if self.probe_rows is None
                    else self.probe_rows[self.pair_probe]
                )
            return self._pair_targets
        if self.probe_rows is None:
            return np.arange(len(self.table), dtype=np.intp)
        return self.probe_rows

    # -- expression evaluation -----------------------------------------
    def eval(self, expr, space: str):
        """Evaluate ``expr`` to ``(values, valid)``.

        A sub-expression the sharing pass found repeated is computed on its
        first occurrence, served from the memo afterwards and released on
        the last one — nothing that is used once is ever cached.
        """
        shared = self.shared.get(id(expr))
        if shared is None:
            return self._eval(expr, space)
        key, later_uses = shared
        memo = self._memo[space]
        result = memo.get(key)
        if result is None:
            result = self._eval(expr, space)
            if later_uses:
                memo[key] = result
        elif not later_uses:
            del memo[key]
        return result

    def _eval(self, expr, space: str):
        if isinstance(expr, NumberLit):
            return float(expr.value), True
        if isinstance(expr, BoolLit):
            return bool(expr.value), True
        if isinstance(expr, Name):
            return self._eval_name(expr.identifier, space)
        if isinstance(expr, FieldAccess):
            of_match = expr.target.identifier != "this"
            return self._state_column(expr.field_name, space, of_match), True
        if not isinstance(expr, _COMPOUND):
            raise PlanKernelFallback(f"cannot evaluate {type(expr).__name__}")
        evaluated = [self.eval(operand, space) for operand in _operands(expr)]
        # Literal-only operands have no lane count: run them as one lane
        # through the same array code, and hand back a scalar again.
        constant = not any(isinstance(values, np.ndarray) for values, _ in evaluated)
        if constant:
            evaluated = [(np.array([values]), valid) for values, valid in evaluated]
        with np.errstate(all="ignore"):
            values, valid = _apply(expr, evaluated)
        if constant:
            return values.item(), (valid if isinstance(valid, bool) else bool(valid[0]))
        return values, valid

    def _eval_name(self, name: str, space: str):
        entry = self.locals.get(name)
        if entry is _POISON:
            raise PlanKernelFallback(f"read of loop-scoped local {name!r}")
        if entry is not None:
            values, valid, stored_space = entry
            return self._promote(values, valid, stored_space, space)
        if name in self.state_fields:
            return self._state_column(name, space, of_match=False), True
        column = self.effect_columns.get(name)
        if column is not None:
            return column, True
        raise PlanKernelFallback(f"unresolvable name {name!r}")

    # -- statement execution -------------------------------------------
    def exec_block(self, statements, mask, space: str) -> None:
        if mask is False:
            return  # no lane is active: nothing in the block can have an effect
        for statement in statements:
            self.exec_statement(statement, mask, space)

    def exec_statement(self, statement, mask, space: str) -> None:
        if isinstance(statement, Block):
            self.exec_block(statement.statements, mask, space)
        elif isinstance(statement, LocalDecl):
            values, valid = self.eval(statement.initializer, space)
            self.locals[statement.name] = (values, valid, space)
        elif isinstance(statement, Assign):
            new_values, new_valid = self.eval(statement.value, space)
            entry = self.locals.get(statement.name)
            if entry is None or entry is _POISON:
                raise PlanKernelFallback(f"assignment to {statement.name!r}")
            old_values, old_valid, _ = entry
            if mask is not True:
                new_values = np.where(mask, new_values, old_values)
                if new_valid is not True or old_valid is not True:
                    new_valid = np.where(mask, new_valid, old_valid)
            self.locals[statement.name] = (new_values, new_valid, space)
        elif isinstance(statement, EffectAssign):
            values, valid = self.eval(statement.value, space)
            lanes = _both(mask, valid)
            if lanes is False:
                return
            to_match = _target_kind(statement, self.loopvar) == "loopvar"
            rows = self._effect_rows(to_match, space)
            if lanes is not True:
                lanes = np.flatnonzero(lanes)  # one scan, then plain takes
                rows = rows[lanes]
                if isinstance(values, np.ndarray):
                    values = values[lanes]
            self.accumulators[statement.field_name].scatter(rows, values)
        elif isinstance(statement, If):
            cond, cond_valid = self.eval(statement.condition, space)
            taken = _both(cond_valid, _truthy(cond))
            if isinstance(taken, np.ndarray):
                # One reduction decides whether the branch narrows at all.
                if taken.all():
                    taken = True
                elif not taken.any():
                    taken = False
            self.exec_block(statement.then_block.statements, _both(mask, taken), space)
            if statement.else_block is not None:
                self.exec_block(
                    statement.else_block.statements, _both(mask, _not(taken)), space
                )
        elif isinstance(statement, ForEach):
            self._exec_foreach(statement, mask)
        elif isinstance(statement, ExprStmt):
            pass  # provably pure: no effects, no work accounting, no rand
        else:
            raise PlanKernelFallback(f"statement {type(statement).__name__}")

    def _exec_foreach(self, statement: ForEach, mask) -> None:
        # One set-at-a-time call resolves every active probe's extent:
        # the matches, order and work accounting of the interpreter's
        # ``visible()`` per probe, as pair index arrays.
        if mask is True:
            active, probes = None, self.probes
        else:
            active = np.flatnonzero(mask)
            probes = [self.probes[index] for index in active.tolist()]
        pair_probe, pair_rows = self.context.visible_pairs(probes)
        if self.in_class is not None:
            same_class = np.flatnonzero(self.in_class[pair_rows])
            pair_probe = pair_probe[same_class]
            pair_rows = self.table_rows[pair_rows[same_class]]
        if active is not None:
            pair_probe = active[pair_probe]
        saved_locals = dict(self.locals)
        self.pair_probe = pair_probe
        self.pair_rows = pair_rows
        self.loopvar = statement.variable
        self.exec_block(statement.body.statements, True, "pair")
        # Locals declared (or re-declared) inside the loop held the last
        # iteration's scalar in the interpreter; no single vector
        # represents that, so reads after the loop fall back.
        restored: Dict[str, Any] = {}
        for name, entry in self.locals.items():
            if entry is _POISON or entry[2] == "pair":
                previous = saved_locals.get(name, _POISON)
                if previous is _POISON or previous[2] == "pair":
                    restored[name] = _POISON
                else:
                    restored[name] = previous
            else:
                restored[name] = entry
        self.locals = restored
        self.pair_probe = None
        self.pair_rows = None
        self._pair_targets = None
        self.loopvar = None
        self._memo["pair"].clear()

    # -- writeback ------------------------------------------------------
    def writeback_effects(self) -> None:
        """Flush accumulators into the extent agents' effect dicts."""
        agents = self.table.agents
        for field in self.kernel.effect_combinators:
            self.accumulators[field].writeback(agents)


# ----------------------------------------------------------------------
# Kernel construction and caching
# ----------------------------------------------------------------------
def _compile_query_kernel(class_decl: ClassDecl, info: ScriptInfo) -> QueryKernel:
    """Compile the class's ``run()`` body or raise ``_Unsupported`` with why not."""
    run_method = class_decl.run_method()
    if run_method is None or not info.has_run_method:
        raise _Unsupported("no run() method")
    if info.uses_rand_in_query:
        raise _Unsupported("rand() in the query phase")
    body = run_method.body
    uses_foreach = any(isinstance(stmt, ForEach) for stmt in _all_statements(body))
    if uses_foreach and not info.has_bounded_visibility:
        raise _Unsupported("foreach over an unbounded visible region")
    float_fields = {f.name for f in class_decl.state_fields() if f.type_name == "float"}
    _validate_query_body(body, info, float_fields)
    return QueryKernel(info.class_name, body, info, float_fields)


def _compile_update_kernel(class_decl: ClassDecl, info: ScriptInfo) -> UpdateKernel:
    """Compile the class's update rules or raise ``_Unsupported`` with why not."""
    if info.uses_rand_in_update:
        raise _Unsupported("rand() in an update rule")
    readable = {
        name
        for name, combinator in info.effect_combinators.items()
        if combinator != "collect"
    }
    checker = _ExprChecker(
        value_names=set(info.state_field_names) | readable,
        agent_names=set(),
        state_fields=set(),
    )
    rules = []
    for field_decl in class_decl.state_fields():
        if field_decl.update_rule is None:
            continue
        if field_decl.type_name != "float":
            # Columns are float64: an int or bool rule would come back as a
            # float (and int arithmetic past 2**53 as a different value).
            raise _Unsupported(f"update rule of non-float field {field_decl.name!r}")
        try:
            checker.check(field_decl.update_rule)
        except _Unsupported as exc:
            raise _Unsupported(f"update rule of {field_decl.name!r}: {exc}") from exc
        rules.append((field_decl.name, field_decl.update_rule))
    if not rules:
        raise _Unsupported("no update rules")
    return UpdateKernel(info.class_name, rules, info)


def _try_compile(compile_kernel, *args):
    """``(kernel, None)``, or ``(None, reason)`` keeping the ``_Unsupported`` message."""
    try:
        return compile_kernel(*args), None
    except _Unsupported as exc:
        return None, str(exc)


def _all_statements(block: Block):
    stack = list(block.statements)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, Block):
            stack.extend(stmt.statements)
        elif isinstance(stmt, If):
            stack.extend(stmt.then_block.statements)
            if stmt.else_block is not None:
                stack.extend(stmt.else_block.statements)
        elif isinstance(stmt, ForEach):
            stack.extend(stmt.body.statements)


def kernels_for_class(cls) -> Tuple[Optional[QueryKernel], Optional[UpdateKernel]]:
    """The class's (query, update) kernels, compiled once and cached.

    Non-BRASIL classes (no ``_class_decl``) get ``(None, None)``: the
    interpreted path is the only semantics for hand-written agents.  The
    cache lives on the class object itself, so worker processes that
    rebuild compiled classes from :class:`AgentClassSpec` recompile
    lazily on first use.
    """
    cached = cls.__dict__.get("_plan_kernels")
    if cached is not None:
        return cached
    class_decl = getattr(cls, "_class_decl", None)
    info = getattr(cls, "_script_info", None)
    if class_decl is None or info is None:
        kernels: Tuple[Optional[QueryKernel], Optional[UpdateKernel]] = (None, None)
        reasons = dict.fromkeys(("query", "update"), "not a BRASIL-compiled class")
    else:
        query_kernel, query_reason = _try_compile(_compile_query_kernel, class_decl, info)
        update_kernel, update_reason = _try_compile(_compile_update_kernel, class_decl, info)
        kernels = (query_kernel, update_kernel)
        reasons = {
            phase: reason
            for phase, reason in (("query", query_reason), ("update", update_reason))
            if reason is not None
        }
    cls._plan_kernels = kernels
    cls._plan_fallback_reasons = reasons
    return kernels


def kernel_fallback_reasons(cls) -> Dict[str, str]:
    """Why ``cls`` runs a phase interpreted: ``{"query" | "update": reason}``.

    A phase that compiled has no entry, so an empty dict means both phases
    run as kernels.  The reason names the first construct the plan compiler
    could not prove (``"nested foreach"``, ``"rand() in the query phase"``).
    Runtime fallbacks (:class:`PlanKernelFallback`) are per tick and not
    recorded here.
    """
    kernels_for_class(cls)
    return dict(cls.__dict__["_plan_fallback_reasons"])


def resolve_plan_backend(plan_backend: Optional[str], agent_classes) -> str:
    """The backend a run with this knob actually attempts.

    For the provenance record: an explicit knob wins; ``None`` (automatic)
    means "compiled wherever a kernel exists", which resolves to
    ``compiled`` when at least one class compiled and ``interpreted``
    otherwise.
    """
    if plan_backend in ("interpreted", "compiled"):
        return plan_backend
    classes = list(agent_classes)
    if classes and any(kernels_for_class(cls) != (None, None) for cls in classes):
        return "compiled"
    return "interpreted"


# ----------------------------------------------------------------------
# Phase-level entry points (called by the worker layer)
# ----------------------------------------------------------------------
def try_compiled_query_phase(owned: Sequence[Any], context: Any) -> bool:
    """Run the whole query phase compiled; ``False`` means "not executed".

    All-or-nothing per worker: every owned agent must share one compiled
    class, otherwise the caller's interpreted loop runs instead.  On a
    runtime fallback the context's work accounting is restored so the
    interpreted rerun charges exactly once.
    """
    if not owned:
        return False
    cls = type(owned[0])
    if any(type(agent) is not cls for agent in owned):
        return False
    kernel = kernels_for_class(cls)[0]
    if kernel is None:
        return False
    saved_work = (context.work_units, context.index_probes)
    try:
        kernel.run(owned, context)
        return True
    except PlanKernelFallback:
        context.work_units, context.index_probes = saved_work
        return False


def try_compiled_update_phase(owned: Sequence[Any], context: Any) -> List[Any]:
    """Run compiled update kernels; return the agents still needing the
    interpreted loop, in their original (canonical) order."""
    interpreted_classes = set()
    groups: Dict[type, Sequence[Any]] = {}
    if len(set(map(type, owned))) == 1:
        groups[type(owned[0])] = owned
    else:
        for agent in owned:
            groups.setdefault(type(agent), []).append(agent)
    for cls, agents in groups.items():
        kernel = kernels_for_class(cls)[1]
        if kernel is None:
            interpreted_classes.add(cls)
            continue
        try:
            kernel.run(agents, context)
        except PlanKernelFallback:
            interpreted_classes.add(cls)
    if not interpreted_classes:
        return []
    return [agent for agent in owned if type(agent) in interpreted_classes]
