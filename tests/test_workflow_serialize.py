"""Tests for workflow JSON serialization."""

import pytest

from repro.workflows.generators import montage, sipht
from repro.workflows.graph import Workflow
from repro.workflows.serialize import (
    workflow_from_dict,
    workflow_from_json,
    workflow_to_dict,
    workflow_to_json,
)
from repro.workflows.task import DataFile, cpu_task


class TestRoundTrip:
    @pytest.mark.parametrize("gen", [montage, sipht])
    def test_generator_round_trip(self, gen):
        wf = gen(size=20, seed=5)
        clone = workflow_from_json(workflow_to_json(wf))
        assert clone.name == wf.name
        assert set(clone.tasks) == set(wf.tasks)
        assert set(clone.files) == set(wf.files)
        for name, task in wf.tasks.items():
            ct = clone.tasks[name]
            assert ct.work == task.work
            assert ct.affinity == task.affinity
            assert ct.inputs == task.inputs
            assert ct.outputs == task.outputs
            assert ct.category == task.category
        # derived structure identical
        assert clone.graph().edges == wf.graph().edges

    def test_control_edges_round_trip(self):
        wf = Workflow("w")
        wf.add_file(DataFile("f", 1.0))
        wf.add_task(cpu_task("a", 1.0, outputs=("f",)))
        wf.add_task(cpu_task("b", 1.0, inputs=("f",)))
        wf.add_task(cpu_task("c", 1.0))
        wf.add_control_edge("b", "c")
        clone = workflow_from_json(workflow_to_json(wf))
        assert "b" in clone.predecessors("c")

    def test_location_round_trips(self):
        wf = Workflow("w")
        wf.add_file(DataFile("cap", 5.0, initial=True, location="edge3"))
        wf.add_task(cpu_task("t", 1.0, inputs=("cap",)))
        clone = workflow_from_json(workflow_to_json(wf))
        assert clone.files["cap"].location == "edge3"

    def test_missing_field_raises_value_error(self):
        with pytest.raises(ValueError):
            workflow_from_dict({"files": []})

    def test_dict_form_is_json_safe(self):
        import json

        payload = workflow_to_dict(montage(size=10, seed=0))
        json.dumps(payload)  # must not raise
