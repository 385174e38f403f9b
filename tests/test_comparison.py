from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqlmend
from sqlmend import comparison
from sqlmend.comparison import (
    Feedback,
    compare_entities,
    compare_skeletons,
)
from sqlmend.errors import ContractViolationError, EmptyInputError, TokenizationError
from sqlmend.sql_analysis import SqlEntities, analyze_sql, extract_entities, extract_skeleton


def _linked(tables=(), columns=(), values=()):
    return SqlEntities(tables=set(tables), columns=set(columns), values=list(values))


class TestCompareEntities:
    def test_missing_column_reported(self, catalog):
        feedback = compare_entities(
            _linked(tables=["singer"], columns=["age"]),
            analyze_sql("SELECT name FROM singer"),
            catalog,
        )
        assert feedback is not None
        assert feedback.kind == "missing_entities"
        assert feedback.missing_columns == {"age"}
        assert feedback.missing_tables == set()

    def test_subset_gives_none(self, catalog):
        feedback = compare_entities(
            _linked(tables=["singer"], columns=["name"]),
            analyze_sql("SELECT name, age FROM singer"),
            catalog,
        )
        assert feedback is None

    def test_extra_sql_entities_never_reported(self, catalog):
        # Bridge tables and helper columns in the SQL but not the question
        # are not mistakes.
        feedback = compare_entities(
            _linked(tables=["singer"], columns=["name"]),
            analyze_sql("SELECT T1.name FROM singer AS T1 JOIN performance AS T2"
                        " ON T1.singer_id = T2.singer_id"),
            catalog,
        )
        assert feedback is None

    def test_case_insensitive_difference(self, catalog):
        feedback = compare_entities(
            _linked(columns=["NAME"]), analyze_sql("SELECT name FROM singer"), catalog
        )
        assert feedback is None

    def test_linked_values_never_reported(self, catalog):
        feedback = compare_entities(
            _linked(values=["5000"]), analyze_sql("SELECT name FROM singer"), catalog
        )
        assert feedback is None

    def test_untokenizable_sql_reports_all_linked(self, catalog):
        feedback = compare_entities(
            _linked(tables=["singer"]), analyze_sql("$$$ not sql"), catalog
        )
        assert feedback is not None
        assert feedback.missing_tables == {"singer"}


class TestCompareSkeletons:
    def test_mismatch_carries_full_parsed_skeleton(self):
        parsed = "SELECT _ FROM _ WHERE _ > _"
        feedback = compare_skeletons(analyze_sql("SELECT name FROM singer"), parsed)
        assert feedback is not None
        assert feedback.kind == "skeleton_mismatch"
        assert feedback.expected_skeleton == parsed

    def test_equal_skeletons_give_none(self):
        parsed = extract_skeleton("SELECT name FROM singer WHERE age > 20")
        current = analyze_sql("SELECT venue FROM concert WHERE year > 5")
        assert compare_skeletons(current, parsed) is None

    def test_untokenizable_sql_counts_as_mismatch(self):
        parsed = "SELECT _ FROM _"
        feedback = compare_skeletons(analyze_sql("@@@@"), parsed)
        assert feedback is not None
        assert feedback.expected_skeleton == parsed

    def test_detection_is_symmetric(self):
        left = "SELECT name FROM singer"
        right = "SELECT name FROM singer WHERE age > 2"
        forward = compare_skeletons(analyze_sql(left), extract_skeleton(right)) is not None
        backward = compare_skeletons(analyze_sql(right), extract_skeleton(left)) is not None
        assert forward == backward


class TestAnalysedSql:
    """Each check's feedback on ``analyze_sql(text)`` is the one the text's
    own extractors imply, so ``correct`` can analyse a text once for both."""

    @pytest.mark.parametrize("sql", [
        "SELECT name FROM singer",
        "SELECT T1.age FROM singer AS T1 WHERE T1.country = 'US'",
        "SELECT venue FROM concert WHERE year > 5",
        "@@@@",
        "SELECT 'unterminated",
        ";",
    ])
    @pytest.mark.parametrize("parsed", ["SELECT _ FROM _", "", "SELECT _ FROM _ WHERE _ > _"])
    def test_text_and_analysis_give_the_same_feedback(self, catalog, sql, parsed):
        linked = _linked(tables=["singer", "concert"], columns=["age", "venue"])
        try:
            used, skeleton = extract_entities(sql, catalog), extract_skeleton(sql)
        except (EmptyInputError, TokenizationError):
            used, skeleton = SqlEntities(), None
        missing_tables = {t for t in linked.tables if t not in used.tables}
        missing_columns = {c for c in linked.columns if c not in used.columns}
        expected_entities = (
            Feedback(kind="missing_entities", missing_tables=missing_tables,
                     missing_columns=missing_columns)
            if missing_tables or missing_columns else None
        )
        expected_skeleton = (
            None if skeleton == parsed
            else Feedback(kind="skeleton_mismatch", expected_skeleton=parsed)
        )
        analysis = analyze_sql(sql)
        assert analysis.tokenizes is (skeleton is not None)
        assert compare_entities(linked, analysis, catalog) == expected_entities
        assert compare_skeletons(analysis, parsed) == expected_skeleton

    def test_empty_sql_does_not_tokenize(self):
        assert analyze_sql("   ").tokenizes is False


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

    def test_names_differing_only_in_case_keep_one_order_under_every_hash_seed(self):
        # Set order follows PYTHONHASHSEED, so each seed runs in its own
        # interpreter; the feedback and the prompt naming it must not move.
        source = Path(sqlmend.__file__).parents[1]
        tests = Path(__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(source), str(tests)])}
        outputs = set()
        for seed in range(1, 7):
            done = subprocess.run(
                [sys.executable, "-c", _PRINT_CASE_DUPLICATES],
                env={**env, "PYTHONHASHSEED": str(seed)},
                capture_output=True, text=True, check=True,
            )
            outputs.add(done.stdout)
        [output] = outputs
        payload, notification = output.splitlines()
        assert json.loads(payload)["missing_tables"] == ["SINGER", "Singer", "singer"]
        assert "that SINGER, Singer, singer, Age, age are mentioned by the question." in notification


_PRINT_CASE_DUPLICATES = """
import json
from sqlmend.comparison import Feedback
from sqlmend.prompts import correction_prompt
from support.corpus import corpus_catalog

feedback = Feedback(kind="missing_entities", missing_tables={"Singer", "singer", "SINGER"},
                    missing_columns={"age", "Age"})
print(json.dumps(feedback.to_dict(), sort_keys=True))
prompt = correction_prompt(corpus_catalog(), "q", "SELECT 1", feedback)
print(next(line for line in prompt.splitlines() if "are mentioned by" in line).strip())
"""


def test_comparison_module_never_touches_model_backends():
    source = inspect.getsource(comparison)
    assert "backends" not in source
    assert "requests" not in source
