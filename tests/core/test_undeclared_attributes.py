"""An agent may only carry declared state, on every executor.

Executors replicate, migrate and checkpoint an agent as its declared state
fields; an ad-hoc instance attribute is not among them.  A model that kept a
counter in one used to run "fine" on the serial executor and silently
diverge on the process executor, where migration and the wire rebuild agents
from declared state only.  Assigning an undeclared attribute is now an
:class:`AgentDefinitionError` wherever the model runs, and a field whose name
would shadow part of :class:`Agent` is rejected when the class is defined.
"""

import pytest

from repro.brace.config import BraceConfig
from repro.brace.runtime import BraceRuntime
from repro.core.agent import Agent
from repro.core.errors import AgentDefinitionError
from repro.core.fields import EffectField, StateField
from repro.core.world import World
from repro.spatial.bbox import BBox

WIDTH = 60.0


class Counter(Agent):
    """Counts its own updates in an attribute it never declared."""

    x = StateField(0.0, spatial=True, visibility=2.0)
    total = StateField(0.0)

    def update(self, ctx) -> None:
        self.seen = getattr(self, "seen", 0) + 1
        self.total = float(self.seen)
        self.x = (self.x + 13.0) % WIDTH


def counter_world() -> World:
    world = World(bounds=BBox(((0.0, WIDTH),)), seed=3)
    for index in range(6):
        world.add_agent(Counter(x=10.0 * index))
    return world


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_undeclared_attribute_is_rejected_on_every_executor(executor):
    config = BraceConfig(num_workers=2, executor=executor, max_workers=2)
    with pytest.raises(AgentDefinitionError, match=r"Counter\.seen is not a declared field"):
        with BraceRuntime(counter_world(), config) as runtime:
            runtime.run(4)


def test_undeclared_attribute_is_rejected_outside_a_tick():
    agent = Counter(x=1.0)
    with pytest.raises(AgentDefinitionError, match=r"Counter\.cache"):
        agent.cache = {}
    assert "cache" not in vars(agent)


@pytest.mark.parametrize(
    "name", ["agent_id", "_state", "_effects", "query", "update", "position", "clone"]
)
@pytest.mark.parametrize("kind", [StateField, EffectField])
def test_field_colliding_with_agent_is_rejected(name, kind):
    with pytest.raises(AgentDefinitionError, match=rf"Broken\.{name} collides with Agent"):
        type("Broken", (Agent,), {"x": StateField(0.0), name: kind()})
