from __future__ import annotations

import inspect

import pytest

from sqlmend import comparison
from sqlmend.comparison import (
    Feedback,
    compare_entities,
    compare_skeletons,
)
from sqlmend.errors import ContractViolationError
from sqlmend.sql_analysis import SqlEntities, extract_skeleton


def _linked(tables=(), columns=(), values=()):
    return SqlEntities(tables=set(tables), columns=set(columns), values=list(values))


class TestCompareEntities:
    def test_missing_column_reported(self, catalog):
        feedback = compare_entities(
            _linked(tables=["singer"], columns=["age"]),
            "SELECT name FROM singer",
            catalog,
        )
        assert feedback is not None
        assert feedback.kind == "missing_entities"
        assert feedback.missing_columns == {"age"}
        assert feedback.missing_tables == set()

    def test_subset_gives_none(self, catalog):
        feedback = compare_entities(
            _linked(tables=["singer"], columns=["name"]),
            "SELECT name, age FROM singer",
            catalog,
        )
        assert feedback is None

    def test_extra_sql_entities_never_reported(self, catalog):
        # Bridge tables and helper columns in the SQL but not the question
        # are not mistakes.
        feedback = compare_entities(
            _linked(tables=["singer"], columns=["name"]),
            "SELECT T1.name FROM singer AS T1 JOIN performance AS T2"
            " ON T1.singer_id = T2.singer_id",
            catalog,
        )
        assert feedback is None

    def test_case_insensitive_difference(self, catalog):
        feedback = compare_entities(
            _linked(columns=["NAME"]), "SELECT name FROM singer", catalog
        )
        assert feedback is None

    def test_linked_values_never_reported(self, catalog):
        feedback = compare_entities(
            _linked(values=["5000"]), "SELECT name FROM singer", catalog
        )
        assert feedback is None

    def test_untokenizable_sql_reports_all_linked(self, catalog):
        feedback = compare_entities(
            _linked(tables=["singer"]), "$$$ not sql", catalog
        )
        assert feedback is not None
        assert feedback.missing_tables == {"singer"}


class TestCompareSkeletons:
    def test_mismatch_carries_full_parsed_skeleton(self):
        parsed = "SELECT _ FROM _ WHERE _ > _"
        feedback = compare_skeletons("SELECT name FROM singer", parsed)
        assert feedback is not None
        assert feedback.kind == "skeleton_mismatch"
        assert feedback.expected_skeleton == parsed

    def test_equal_skeletons_give_none(self):
        parsed = extract_skeleton("SELECT name FROM singer WHERE age > 20")
        assert compare_skeletons("SELECT venue FROM concert WHERE year > 5", parsed) is None

    def test_untokenizable_sql_counts_as_mismatch(self):
        parsed = "SELECT _ FROM _"
        feedback = compare_skeletons("@@@@", parsed)
        assert feedback is not None
        assert feedback.expected_skeleton == parsed

    def test_detection_is_symmetric(self):
        left = "SELECT name FROM singer"
        right = "SELECT name FROM singer WHERE age > 2"
        forward = compare_skeletons(left, extract_skeleton(right)) is not None
        backward = compare_skeletons(right, extract_skeleton(left)) is not None
        assert forward == backward


class TestFeedbackInvariants:
    def test_missing_entities_needs_at_least_one_name(self):
        with pytest.raises(ContractViolationError):
            Feedback(kind="missing_entities")

    def test_skeleton_kind_needs_skeleton(self):
        with pytest.raises(ContractViolationError):
            Feedback(kind="skeleton_mismatch")

    def test_execution_kind_needs_message(self):
        with pytest.raises(ContractViolationError):
            Feedback(kind="execution_error")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError):
            Feedback(kind="vibes")

    def test_to_dict_sorted_and_stable(self):
        feedback = Feedback(
            kind="missing_entities", missing_columns={"b", "A"}, missing_tables={"z", "m"}
        )
        payload = feedback.to_dict()
        assert payload["missing_columns"] == ["A", "b"]
        assert payload["missing_tables"] == ["m", "z"]


def test_comparison_module_never_touches_model_backends():
    source = inspect.getsource(comparison)
    assert "backends" not in source
    assert "requests" not in source
