"""Code embedded in the docs pages must actually compile and run.

Two kinds of compile-checked documentation:

* the BRASIL scripts in ``docs/brasil.md`` are compiled and simulated;
* the ``python`` blocks in ``docs/runtime.md`` and ``docs/spatial.md`` are
  executed top to bottom (blocks on one page share a namespace, so a worked
  example can build up across blocks).
"""

import re
from pathlib import Path

import pytest

from repro import SequentialEngine, World
from repro.brasil import compile_script
from repro.spatial.bbox import BBox

DOCS = Path(__file__).resolve().parents[2] / "docs"
BRASIL_DOC = DOCS / "brasil.md"
EXECUTED_DOCS = ("runtime.md", "spatial.md", "api.md", "history.md", "brasil.md")


def doc_scripts():
    text = BRASIL_DOC.read_text()
    blocks = re.findall(r"```\n(class .*?)```", text, re.S)
    # Skip the pseudo-code skeleton; real examples define a run() method.
    return [block for block in blocks if "run()" in block]


def python_blocks(name):
    text = (DOCS / name).read_text()
    return re.findall(r"```python\n(.*?)```", text, re.S)


def _script_indices():
    if not BRASIL_DOC.exists():
        return []
    return list(range(len(doc_scripts())))


@pytest.mark.skipif(not BRASIL_DOC.exists(), reason="docs not present")
class TestBrasilDocExamples:
    def test_doc_contains_two_runnable_examples(self):
        assert len(doc_scripts()) >= 2

    @pytest.mark.parametrize("index", _script_indices())
    def test_example_compiles_and_runs(self, index):
        scripts = doc_scripts()
        compiled = compile_script(scripts[index])
        # Documented inversion behavior: the fish script is non-local and
        # gets inverted; the predator script is already local.
        assert compiled.info.non_local_assignment_count == 0
        world = World(bounds=BBox(((-50.0, 50.0), (-50.0, 50.0))), seed=1)
        for position in range(-20, 20, 2):
            world.add_agent(compiled.make_agent(x=float(position), y=float(-position) / 2))
        SequentialEngine(world).run(2)
        assert world.agent_count() == 20


class TestExecutedDocPages:
    """Every ``python`` block in runtime.md and spatial.md must run clean."""

    @pytest.mark.parametrize("name", EXECUTED_DOCS)
    def test_page_exists_and_has_examples(self, name):
        assert (DOCS / name).exists(), f"docs/{name} is missing"
        assert len(python_blocks(name)) >= 2, f"docs/{name} has too few python examples"

    @pytest.mark.parametrize("name", EXECUTED_DOCS)
    def test_page_examples_execute(self, name):
        namespace: dict = {}
        for block_number, block in enumerate(python_blocks(name), start=1):
            try:
                exec(compile(block, f"docs/{name} block {block_number}", "exec"), namespace)
            except Exception as error:  # pragma: no cover - failure reporting
                pytest.fail(
                    f"docs/{name} python block {block_number} raised "
                    f"{type(error).__name__}: {error}"
                )
