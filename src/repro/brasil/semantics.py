"""Semantic analysis of BRASIL scripts.

The analyzer enforces the restrictions that make BRASIL compilable to a
data-flow plan and parallelizable by BRACE:

* the state-effect pattern — state fields are read-only inside ``run()``
  (the query phase), effect fields are write-only there and read-only in the
  update rules;
* update rules may only reference the agent's own fields (no ``foreach``, no
  access to other agents);
* the only iteration construct is ``foreach`` over an ``Extent``;
* effect assignment targets must be declared effect fields.

It also derives the facts the compiler and the BRACE runtime need: which
fields are spatial (they carry ``#range`` constraints), the visibility and
reachability radii, and whether the script performs non-local effect
assignments (which require the second reduce pass unless effect inversion
removes them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.brasil.ast_nodes import (
    Assign,
    Block,
    Call,
    ClassDecl,
    EffectAssign,
    Expr,
    FieldAccess,
    ForEach,
    If,
    LocalDecl,
    Name,
    Script,
    walk_expressions,
    walk_statements,
)
from repro.brasil.builtins import BUILTIN_FUNCTIONS
from repro.core.errors import BrasilSemanticError


@dataclass
class ScriptInfo:
    """Facts derived from a single BRASIL class."""

    class_name: str
    state_field_names: list[str] = field(default_factory=list)
    effect_field_names: list[str] = field(default_factory=list)
    spatial_field_names: list[str] = field(default_factory=list)
    effect_combinators: dict[str, str] = field(default_factory=dict)
    visibility_radii: dict[str, float] = field(default_factory=dict)
    reachability_radii: dict[str, float] = field(default_factory=dict)
    has_non_local_effects: bool = False
    non_local_assignment_count: int = 0
    local_assignment_count: int = 0
    uses_rand_in_query: bool = False
    uses_rand_in_update: bool = False
    has_run_method: bool = False

    @property
    def has_bounded_visibility(self) -> bool:
        """True when every spatial field carries a visibility bound."""
        return bool(self.spatial_field_names) and all(
            name in self.visibility_radii for name in self.spatial_field_names
        )


def _local_names(block: Block) -> set[str]:
    """Names bound by local declarations or foreach variables anywhere in ``block``."""
    names: set[str] = set()
    for statement in walk_statements(block):
        if isinstance(statement, LocalDecl):
            names.add(statement.name)
        elif isinstance(statement, ForEach):
            names.add(statement.variable)
    return names


def analyze_class(declaration: ClassDecl) -> ScriptInfo:
    """Check one class and return the derived :class:`ScriptInfo`.

    Raises :class:`BrasilSemanticError` on any violation.
    """
    info = ScriptInfo(class_name=declaration.name)
    seen: set[str] = set()
    for field_decl in declaration.fields:
        if field_decl.name in seen:
            raise BrasilSemanticError(
                f"field {field_decl.name!r} declared twice in class {declaration.name}"
            )
        seen.add(field_decl.name)
        if field_decl.is_state:
            info.state_field_names.append(field_decl.name)
            if field_decl.is_spatial:
                info.spatial_field_names.append(field_decl.name)
                visibility = field_decl.visibility_radius()
                reachability = field_decl.reachability_radius()
                if visibility is not None:
                    info.visibility_radii[field_decl.name] = visibility
                if reachability is not None:
                    info.reachability_radii[field_decl.name] = reachability
        else:
            if field_decl.combinator is None:
                raise BrasilSemanticError(
                    f"effect field {field_decl.name!r} must declare a combinator "
                    "(e.g. ': sum')"
                )
            info.effect_field_names.append(field_decl.name)
            info.effect_combinators[field_decl.name] = field_decl.combinator
            if field_decl.constraints:
                raise BrasilSemanticError(
                    f"effect field {field_decl.name!r} cannot carry spatial constraints"
                )

    _check_update_rules(declaration, info)
    run_method = declaration.run_method()
    if run_method is not None:
        info.has_run_method = True
        _check_query_script(declaration, run_method.body, info)
    return info


def _check_update_rules(declaration: ClassDecl, info: ScriptInfo) -> None:
    state_names = set(info.state_field_names)
    effect_names = set(info.effect_field_names)
    known = state_names | effect_names
    for field_decl in declaration.state_fields():
        rule = field_decl.update_rule
        if rule is None:
            continue
        for node in walk_expressions(rule):
            if isinstance(node, FieldAccess):
                raise BrasilSemanticError(
                    f"update rule of {field_decl.name!r} accesses another agent "
                    f"({node.field_name!r}); update rules may only read the agent's own fields"
                )
            if isinstance(node, Name):
                if node.identifier == "this":
                    raise BrasilSemanticError(
                        f"update rule of {field_decl.name!r} uses 'this'; field names are "
                        "accessed directly in update rules"
                    )
                if node.identifier not in known:
                    raise BrasilSemanticError(
                        f"update rule of {field_decl.name!r} references unknown name "
                        f"{node.identifier!r}"
                    )
            if isinstance(node, Call):
                if node.function not in BUILTIN_FUNCTIONS and node.function != "rand":
                    raise BrasilSemanticError(
                        f"update rule of {field_decl.name!r} calls unknown function "
                        f"{node.function!r}"
                    )
                if node.function == "rand":
                    info.uses_rand_in_update = True


def _check_query_script(declaration: ClassDecl, body: Block, info: ScriptInfo) -> None:
    state_names = set(info.state_field_names)
    effect_names = set(info.effect_field_names)
    locals_in_body = _local_names(body)

    for statement in walk_statements(body):
        if isinstance(statement, Assign):
            if statement.name in state_names:
                raise BrasilSemanticError(
                    f"state field {statement.name!r} assigned with '=' inside run(); "
                    "state is read-only during the query phase"
                )
            if statement.name in effect_names:
                raise BrasilSemanticError(
                    f"effect field {statement.name!r} assigned with '='; use '<-' so the "
                    "assignment is aggregated"
                )
            if statement.name not in locals_in_body:
                raise BrasilSemanticError(
                    f"assignment to undeclared local variable {statement.name!r}"
                )
        elif isinstance(statement, EffectAssign):
            if statement.field_name not in effect_names:
                raise BrasilSemanticError(
                    f"'<-' target {statement.field_name!r} is not a declared effect field"
                )
            is_non_local = statement.target_agent is not None and not (
                isinstance(statement.target_agent, Name)
                and statement.target_agent.identifier == "this"
            )
            if is_non_local:
                info.has_non_local_effects = True
                info.non_local_assignment_count += 1
            else:
                info.local_assignment_count += 1
        elif isinstance(statement, ForEach):
            pass  # extent type consistency is checked by the parser

    for node in walk_expressions(body):
        if isinstance(node, Name):
            if node.identifier in effect_names and node.identifier not in locals_in_body:
                raise BrasilSemanticError(
                    f"effect field {node.identifier!r} read inside run(); effects are "
                    "write-only during the query phase"
                )
        elif isinstance(node, Call):
            if node.function not in BUILTIN_FUNCTIONS and node.function != "rand":
                raise BrasilSemanticError(f"unknown function {node.function!r} in run()")
            if node.function == "rand":
                info.uses_rand_in_query = True
        elif isinstance(node, FieldAccess):
            if node.field_name in effect_names:
                # Reading another agent's effect field is just as illegal.
                raise BrasilSemanticError(
                    f"effect field {node.field_name!r} of another agent read inside run()"
                )

    # Effect reads disguised as reads of the *same* name used as a '<-' target
    # are already covered above; also forbid reading a name that is neither a
    # local, a state field, a builtin constant nor 'this'.
    valid_names = state_names | locals_in_body | {"this"}
    for node in walk_expressions(body):
        if isinstance(node, Name) and node.identifier not in valid_names:
            if node.identifier in effect_names:
                continue  # already reported above with a clearer message
            raise BrasilSemanticError(
                f"unknown name {node.identifier!r} referenced inside run()"
            )


def analyze(script: Script | ClassDecl) -> ScriptInfo | dict[str, ScriptInfo]:
    """Analyze a class (returning its info) or a script (returning a dict by class name)."""
    if isinstance(script, ClassDecl):
        return analyze_class(script)
    results = {}
    for declaration in script.classes:
        results[declaration.name] = analyze_class(declaration)
    return results
