"""BRASIL — the Big Red Agent SImulation Language.

BRASIL is the paper's agent-centric scripting language.  A script declares a
class per agent kind with ``state`` and ``effect`` fields, a ``run()`` method
(the query phase) and per-state-field update rules, e.g.::

    class Fish {
        public state float x : (x + vx); #range[-1, 1];
        public state float y : (y + vy); #range[-1, 1];
        public state float vx : vx + rand() + avoidx / count * vx;
        public state float vy : vy + rand() + avoidy / count * vy;
        private effect float avoidx : sum;
        private effect float avoidy : sum;
        private effect int count : sum;
        public void run() {
            foreach (Fish p : Extent<Fish>) {
                p.avoidx <- 1 / abs(x - p.x);
                p.avoidy <- 1 / abs(y - p.y);
                p.count <- 1;
            }
        }
    }

The compilation pipeline mirrors the paper's:

1. :mod:`repro.brasil.lexer` / :mod:`repro.brasil.parser` produce an AST;
2. :mod:`repro.brasil.semantics` enforces the state-effect pattern (state is
   read-only in ``run()``, effects are write-only, update rules only touch
   the agent's own fields) and detects non-local effect assignments;
3. :mod:`repro.brasil.effect_inversion` rewrites non-local effect
   assignments into local ones when possible (Theorems 2 and 3);
4. :mod:`repro.brasil.compiler` packages everything into a Python
   :class:`~repro.core.agent.Agent` subclass executable by the sequential
   engine and by BRACE, with the access path :mod:`repro.brasil.optimizer`
   selects for the query phase's join;
5. where the proof obligations hold, both phases also compile to
   whole-phase columnar kernels (:mod:`repro.brasil.kernels`) selected by
   ``BraceConfig.plan_backend``; the class is proved once per process.

:mod:`repro.brasil.translate` translates a query script into a monad
algebra plan (Appendix B) on which :mod:`repro.brasil.optimizer` applies
algebraic rewrites.  It is a library the Theorem 1 tests check against the
interpreter, not a compile step: nothing at run time evaluates the plans.
"""

from repro.brasil.compiler import (
    AgentClassSpec,
    BrasilCompiler,
    CompiledScript,
    compile_script,
    compiled_class_for_spec,
)
from repro.brasil.effect_inversion import EffectInversionError, invert_effects
from repro.brasil.kernels import (
    PlanKernelFallback,
    kernels_for_class,
    resolve_plan_backend,
)
from repro.brasil.optimizer import PlanSelection, select_plan
from repro.brasil.parser import parse
from repro.brasil.runner import (
    ScriptRunResult,
    build_script_world,
    config_for_script,
    run_script,
)
from repro.brasil.semantics import analyze, ScriptInfo

__all__ = [
    "AgentClassSpec",
    "BrasilCompiler",
    "CompiledScript",
    "EffectInversionError",
    "PlanKernelFallback",
    "PlanSelection",
    "ScriptInfo",
    "ScriptRunResult",
    "analyze",
    "build_script_world",
    "compile_script",
    "compiled_class_for_spec",
    "config_for_script",
    "invert_effects",
    "kernels_for_class",
    "parse",
    "resolve_plan_backend",
    "run_script",
    "select_plan",
]
