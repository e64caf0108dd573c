"""Tests for repro.experiments.results.ExperimentTable."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.results import ExperimentTable
from repro.sim.result import jsonify_value


@pytest.fixture
def table() -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="E0",
        title="A test table",
        paper_claim="Things hold",
    )
    table.add_record(n=10, value=1.5, ok=True)
    table.add_record(n=20, value=2.5, ok=False)
    return table


class TestExperimentTable:
    def test_add_record_returns_row(self, table):
        row = table.add_record(n=30, value=3.5, ok=True)
        assert row["n"] == 30
        assert len(table) == 3

    def test_column_extraction(self, table):
        assert table.column("n") == [10, 20]
        assert table.column("missing") == [None, None]

    def test_filtered(self, table):
        assert len(table.filtered(ok=True)) == 1
        assert table.filtered(ok=True)[0]["n"] == 10
        assert table.filtered(n=20, ok=False)[0]["value"] == 2.5
        assert table.filtered(n=99) == []

    def test_to_text_contains_metadata_and_rows(self, table):
        text = table.to_text()
        assert "[E0] A test table" in text
        assert "Things hold" in text
        assert "20" in text

    def test_to_text_column_selection(self, table):
        text = table.to_text(columns=["n"])
        assert "value" not in text.splitlines()[3]

    def test_notes_rendered(self, table):
        table.add_note("a caveat")
        assert "note: a caveat" in table.to_text()

    def test_iteration(self, table):
        assert [record["n"] for record in table] == [10, 20]


class TestJsonRoundTrip:
    def test_records_notes_provenance_preserved(self, table):
        table.add_note("a caveat")
        table.provenance = {"seed": 3, "engine": "batched"}
        restored = ExperimentTable.from_json(table.to_json())
        assert restored.experiment_id == table.experiment_id
        assert restored.title == table.title
        assert restored.paper_claim == table.paper_claim
        assert restored.records == table.records
        assert restored.notes == table.notes
        assert restored.provenance == table.provenance

    def test_round_trip_from_dict(self, table):
        restored = ExperimentTable.from_json(table.to_json_dict())
        assert restored.records == table.records

    def test_numpy_values_are_reduced_to_plain_python(self):
        table = ExperimentTable("E0", "t", "c")
        table.add_record(
            count=np.int64(7),
            rate=np.float64(0.5),
            ok=np.bool_(True),
            trajectory=np.array([1.0, 2.0]),
        )
        document = json.loads(table.to_json())
        record = document["records"][0]
        assert record == {
            "count": 7, "rate": 0.5, "ok": True, "trajectory": [1.0, 2.0],
        }
        restored = ExperimentTable.from_json(document)
        assert isinstance(restored.records[0]["count"], int)
        assert isinstance(restored.records[0]["ok"], bool)

    def test_from_json_rejects_incomplete_documents(self):
        with pytest.raises(ValueError, match="missing fields"):
            ExperimentTable.from_json({"experiment_id": "E0"})
        with pytest.raises(TypeError):
            ExperimentTable.from_json(42)

    def test_empty_provenance_by_default(self, table):
        assert table.provenance == {}
        assert ExperimentTable.from_json(table.to_json()).provenance == {}


class TestJsonifyValue:
    def test_scalars_pass_through(self):
        assert jsonify_value("x") == "x"
        assert jsonify_value(None) is None
        assert jsonify_value(3) == 3

    def test_nested_structures(self):
        value = {"a": (np.int64(1), [np.float64(2.0)]), "b": {"c": np.bool_(False)}}
        assert jsonify_value(value) == {"a": [1, [2.0]], "b": {"c": False}}
