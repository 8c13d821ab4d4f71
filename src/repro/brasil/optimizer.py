"""Algebraic optimization of monad algebra plans.

The paper compiles BRASIL to the monad algebra precisely so that classical
rewrites can be applied (Section 4.2).  This module implements the rewrites
relevant to the plans produced by :mod:`repro.brasil.translate`:

* **identity elimination** — ``ID ; f → f`` and ``f ; ID → f``;
* **composition normalization** — left-nested compositions are re-associated
  so later rules see canonical shapes;
* **map fusion** — ``MAP(f) ; MAP(g) → MAP(f ; g)``;
* **singleton flattening** — ``SNG ; FLATMAP(f) → f`` (a foreach over a
  singleton collection is the body itself, equation (11));
* **selection fusion** — ``σ(p) ; σ(q) → σ(p && q)``;
* **dead-tuple elimination** — ``⟨a: f, ...⟩ ; π_a → f`` (tuples built only
  to be projected away are removed).

The optimizer applies the rules bottom-up until a fixpoint is reached and
reports how many rewrites fired, which the optimization tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.brasil.algebra import (
    AlgebraOp,
    Arith,
    Compose,
    FlatMap,
    Identity,
    MapOp,
    Project,
    Select,
    Sng,
    TupleCons,
)


@dataclass(frozen=True)
class PlanSelection:
    """Which phases of a script the plan compiler proved kernel-compilable.

    A report, not a pin on ``BraceConfig.plan_backend``: it is read from
    the one per-class proof the runtime runs
    (:func:`~repro.brasil.kernels.kernels_for_class`), so it says exactly
    what ``plan_backend=None`` will do for this script.  ``reason`` records
    why.
    """

    query_compiled: bool
    update_compiled: bool
    reason: str


def select_plan(agent_class: type) -> PlanSelection:
    """Report which phases of ``agent_class`` run as whole-phase columnar kernels.

    Feasibility is :func:`repro.brasil.kernels.kernels_for_class` — a phase
    is compilable exactly when a kernel provably bit-identical to the
    interpreter exists for it — so the class is proved once per process and
    the selection cannot disagree with what runs.
    """
    from repro.brasil.kernels import kernels_for_class

    query_kernel, update_kernel = kernels_for_class(agent_class)
    if query_kernel is not None and update_kernel is not None:
        reason = (
            "both phases are inside the provable subset: effect aggregation "
            "runs as scatter-reductions over the spatial join's match lists, "
            "update rules as column math over a structure-of-arrays snapshot"
        )
    elif query_kernel is not None:
        reason = (
            "query phase compiles to a scatter-reduction kernel; the update "
            "rules use a construct outside the provable subset and stay "
            "interpreted"
        )
    elif update_kernel is not None:
        reason = (
            "update rules compile to columnar math; the query phase uses a "
            "construct outside the provable subset (rand(), nested foreach, "
            "loop-carried locals or unbounded visibility) and stays interpreted"
        )
    else:
        reason = (
            "neither phase is inside the provable subset; the interpreter "
            "(the path covering the whole language) executes both"
        )
    return PlanSelection(
        query_compiled=query_kernel is not None,
        update_compiled=update_kernel is not None,
        reason=reason,
    )


@dataclass
class OptimizationReport:
    """Counts of rewrite rule applications."""

    identity_eliminations: int = 0
    map_fusions: int = 0
    singleton_flattenings: int = 0
    selection_fusions: int = 0
    dead_tuple_eliminations: int = 0
    reassociations: int = 0

    @property
    def total(self) -> int:
        """Total number of rewrites applied."""
        return (
            self.identity_eliminations
            + self.map_fusions
            + self.singleton_flattenings
            + self.selection_fusions
            + self.dead_tuple_eliminations
            + self.reassociations
        )


@dataclass
class OptimizedPlan:
    """An optimized plan plus what happened to it."""

    plan: AlgebraOp
    report: OptimizationReport = field(default_factory=OptimizationReport)
    original_size: int = 0

    @property
    def optimized_size(self) -> int:
        """Number of operator nodes after optimization."""
        return self.plan.size()


class PlanOptimizer:
    """Applies the rewrite rules to a fixpoint."""

    def __init__(self):
        self.report = OptimizationReport()

    def optimize(self, plan: AlgebraOp) -> OptimizedPlan:
        """Optimize ``plan`` and return the rewritten plan with a report."""
        original_size = plan.size()
        current = plan
        # The rule set strictly shrinks or reshapes the plan, so a small
        # iteration bound is enough to reach the fixpoint.
        for _ in range(50):
            rewritten = self._rewrite(current)
            if repr(rewritten) == repr(current):
                current = rewritten
                break
            current = rewritten
        return OptimizedPlan(plan=current, report=self.report, original_size=original_size)

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def _rewrite(self, node: AlgebraOp) -> AlgebraOp:
        children = node.children()
        if children:
            node = node.replace_children([self._rewrite(child) for child in children])
        return self._rewrite_node(node)

    def _rewrite_node(self, node: AlgebraOp) -> AlgebraOp:
        if isinstance(node, Compose):
            # ID ; f  →  f     and     f ; ID  →  f
            if isinstance(node.first, Identity):
                self.report.identity_eliminations += 1
                return node.second
            if isinstance(node.second, Identity):
                self.report.identity_eliminations += 1
                return node.first
            # (a ; b) ; c  →  a ; (b ; c)
            if isinstance(node.first, Compose):
                self.report.reassociations += 1
                return self._rewrite_node(
                    Compose(node.first.first, Compose(node.first.second, node.second))
                )
            # SNG ; FLATMAP(f)  →  f
            if isinstance(node.first, Sng) and isinstance(node.second, FlatMap):
                self.report.singleton_flattenings += 1
                return node.second.body
            if isinstance(node.second, Compose):
                inner = node.second
                # SNG ; (FLATMAP(f) ; rest)  →  f ; rest
                if isinstance(node.first, Sng) and isinstance(inner.first, FlatMap):
                    self.report.singleton_flattenings += 1
                    return self._rewrite_node(Compose(inner.first.body, inner.second))
                # MAP(f) ; (MAP(g) ; rest)  →  MAP(f ; g) ; rest
                if isinstance(node.first, MapOp) and isinstance(inner.first, MapOp):
                    self.report.map_fusions += 1
                    return self._rewrite_node(
                        Compose(MapOp(Compose(node.first.body, inner.first.body)), inner.second)
                    )
                # σ(p) ; (σ(q) ; rest)  →  σ(p && q) ; rest
                if isinstance(node.first, Select) and isinstance(inner.first, Select):
                    self.report.selection_fusions += 1
                    return self._rewrite_node(
                        Compose(
                            Select(Arith("&&", node.first.predicate, inner.first.predicate)),
                            inner.second,
                        )
                    )
            # MAP(f) ; MAP(g)  →  MAP(f ; g)
            if isinstance(node.first, MapOp) and isinstance(node.second, MapOp):
                self.report.map_fusions += 1
                return MapOp(self._rewrite_node(Compose(node.first.body, node.second.body)))
            # σ(p) ; σ(q)  →  σ(p && q)
            if isinstance(node.first, Select) and isinstance(node.second, Select):
                self.report.selection_fusions += 1
                return Select(Arith("&&", node.first.predicate, node.second.predicate))
            # ⟨a: f, ...⟩ ; π_a  →  f
            if isinstance(node.first, TupleCons) and isinstance(node.second, Project):
                if node.second.label in node.first.fields:
                    self.report.dead_tuple_eliminations += 1
                    return node.first.fields[node.second.label]
        return node


def optimize_plan(plan: AlgebraOp) -> OptimizedPlan:
    """Optimize ``plan`` with a fresh :class:`PlanOptimizer`."""
    return PlanOptimizer().optimize(plan)
