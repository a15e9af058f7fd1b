"""Framework behavior: registry, suppression syntax, REP000."""

from __future__ import annotations

import pytest

from repro.analysis import registered_rules
from repro.analysis.core import (
    SUPPRESSION_RULE,
    Checker,
    parse_suppressions,
    register_checker,
)


def test_registry_has_all_rules():
    rules = registered_rules()
    assert set(rules) == {
        "REP000",
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP005",
        "REP006",
    }
    assert all(rules.values()), "every rule needs a title"


def test_register_checker_rejects_bad_ids():
    with pytest.raises(ValueError, match="REPnnn"):

        @register_checker
        class Bad(Checker):  # pragma: no cover - never instantiated
            rule = "X17"
            title = "bad"

            def check(self, ctx):
                return iter(())

    with pytest.raises(ValueError, match="reserved"):

        @register_checker
        class Reserved(Checker):  # pragma: no cover
            rule = SUPPRESSION_RULE
            title = "reserved"

            def check(self, ctx):
                return iter(())


# ------------------------------------------------------------ suppressions
def test_same_line_suppression_covers_its_line():
    src = "x = compute()  # repro: allow[REP004] -- fixture reason\n"
    by_line, errors = parse_suppressions(src, "mod.py")
    assert errors == []
    assert by_line[1].rules == ("REP004",)
    assert by_line[1].reason == "fixture reason"


def test_standalone_comment_covers_next_statement():
    src = (
        "# repro: allow[REP001] -- fixture reason\n"
        "x = compute()\n"
    )
    by_line, errors = parse_suppressions(src, "mod.py")
    assert errors == []
    assert 1 in by_line and 2 in by_line
    assert by_line[2].reason == "fixture reason"


def test_multiline_comment_block_covers_statement_below():
    src = (
        "# repro: allow[REP001] -- a long reason that\n"
        "# wraps onto a continuation comment line\n"
        "x = compute()\n"
    )
    by_line, _ = parse_suppressions(src, "mod.py")
    assert 3 in by_line, "the statement below the comment block is covered"


def test_multiple_rules_in_one_suppression():
    src = "x = f()  # repro: allow[REP001, REP004] -- both apply here\n"
    by_line, errors = parse_suppressions(src, "mod.py")
    assert errors == []
    assert by_line[1].rules == ("REP001", "REP004")


def test_reasonless_suppression_is_rep000_and_does_not_suppress():
    src = "x = f()  # repro: allow[REP004]\n"
    by_line, errors = parse_suppressions(src, "mod.py")
    assert by_line == {}
    assert [e.rule for e in errors] == [SUPPRESSION_RULE]
    assert "no reason" in errors[0].message


def test_unknown_rule_suppression_is_rep000():
    src = "x = f()  # repro: allow[REP999] -- whatever\n"
    by_line, errors = parse_suppressions(src, "mod.py")
    assert by_line == {}
    assert errors[0].rule == SUPPRESSION_RULE
    assert "REP999" in errors[0].message


def test_rep000_itself_cannot_be_suppressed():
    src = "x = f()  # repro: allow[REP000] -- nice try\n"
    by_line, errors = parse_suppressions(src, "mod.py")
    assert by_line == {}
    assert errors[0].rule == SUPPRESSION_RULE


def test_malformed_allow_comment_is_rep000():
    src = "x = f()  # repro: allow REP004 -- forgot the brackets\n"
    _, errors = parse_suppressions(src, "mod.py")
    assert [e.rule for e in errors] == [SUPPRESSION_RULE]
    assert "malformed" in errors[0].message


def test_suppression_text_inside_string_literal_is_ignored():
    src = 's = "# repro: allow[REP004] -- not a comment"\n'
    by_line, errors = parse_suppressions(src, "mod.py")
    assert by_line == {} and errors == []


def test_suppression_text_inside_docstring_is_ignored():
    src = (
        "def f():\n"
        '    """Docs show `# repro: allow[REP001] -- reason` syntax."""\n'
        "    return 1\n"
    )
    by_line, errors = parse_suppressions(src, "mod.py")
    assert by_line == {} and errors == []


# ----------------------------------------------------------------- driver
def test_unparsable_file_reports_rep000(analyze):
    report = analyze("def broken(:\n")
    assert [f.rule for f in report.findings] == [SUPPRESSION_RULE]
    assert "does not parse" in report.findings[0].message


def test_suppressed_finding_keeps_rule_and_reason(analyze):
    report = analyze(
        """\
        import numpy as np

        x = np.zeros(3)  # repro: allow[REP004] -- fixture exercises suppression
        """,
        rules=["REP004"],
    )
    assert report.unsuppressed == []
    (finding,) = report.suppressed
    assert finding.rule == "REP004"
    assert finding.suppress_reason == "fixture exercises suppression"


def test_suppression_for_wrong_rule_does_not_silence(analyze):
    report = analyze(
        """\
        import numpy as np

        x = np.zeros(3)  # repro: allow[REP001] -- wrong rule on purpose
        """,
        rules=["REP004"],
    )
    assert [f.rule for f in report.unsuppressed] == ["REP004"]


def test_unused_suppression_is_reported_as_rep000(analyze):
    report = analyze(
        """\
        import numpy as np

        x = np.zeros(3, dtype=np.float64)  # repro: allow[REP004] -- nothing fires here
        """,
        rules=["REP004"],
    )
    assert [f.rule for f in report.unsuppressed] == ["REP000"]
    assert "unused suppression" in report.unsuppressed[0].message
    assert "REP004" in report.unsuppressed[0].message


def test_used_suppression_is_not_flagged_unused(analyze):
    report = analyze(
        """\
        import numpy as np

        x = np.zeros(3)  # repro: allow[REP004] -- fixture exercises suppression
        """,
        rules=["REP004"],
    )
    assert report.unsuppressed == []
    assert [f.rule for f in report.suppressed] == ["REP004"]


def test_unused_suppression_not_flagged_when_rule_not_selected(analyze):
    # --rules subsets must never flag allows for rules that did not run.
    report = analyze(
        """\
        import numpy as np

        x = np.zeros(3, dtype=np.float64)  # repro: allow[REP004] -- REP004 not selected
        """,
        rules=["REP003"],
    )
    assert report.findings == []


def test_standalone_unused_suppression_reported_once(analyze):
    # A standalone comment covers two lines (its own and the statement
    # below); staleness must still be reported once, at the comment.
    report = analyze(
        """\
        import numpy as np

        # repro: allow[REP004] -- stale standalone comment
        x = np.zeros(3, dtype=np.float64)
        """,
        rules=["REP004"],
    )
    assert [f.rule for f in report.unsuppressed] == ["REP000"]
    assert report.unsuppressed[0].line == 3


def test_rule_selection_filters_checkers(analyze):
    report = analyze(
        """\
        import time
        import numpy as np

        x = np.zeros(3)
        t = time.time()
        """,
        rules=["REP003"],
    )
    assert {f.rule for f in report.findings} == {"REP003"}
