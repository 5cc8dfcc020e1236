"""Golden text of the two single-run tables.

``repro live`` (``cli._live_summary``) and ``repro live --compare``
(``comparison_table``) read one shared row list,
:data:`repro.live.compare.RESULT_ROWS`; the golden was printed by the
two hand-written lists it replaced (commit 4a47565) from the fixed
result dicts in ``tests/data/run_results.json``.
"""

import json
from pathlib import Path

import repro.cli as cli
from repro.live.compare import RESULT_ROWS, comparison_table, result_rows

DATA = Path(__file__).resolve().parents[2] / "data"


def test_tables_match_the_golden():
    results = json.loads((DATA / "run_results.json").read_text())
    sim, live, empty = results["sim"], results["live"], results["live_empty"]
    text = [
        comparison_table({"sim": sim, "live": live}),
        comparison_table({"sim": sim, "live": empty}),
        cli._live_summary(live),
        cli._live_summary(live, results["observability"]),
        cli._live_summary(empty, {}),
    ]
    assert "\n\n".join(text) + "\n" == (DATA / "run_tables.txt").read_text()


def test_every_row_shows_somewhere_and_only_where_it_says():
    results = json.loads((DATA / "run_results.json").read_text())
    live = results["live"]
    shown = {"summary": set(), "compare": set()}
    for table in shown:
        shown[table] = {row[0] for row in result_rows(live, table=table)}
    for label, _, _, where in RESULT_ROWS:
        assert where in ("both", "summary", "compare", "summary if any")
        assert (label in shown["summary"]) == (where != "compare")
        assert (label in shown["compare"]) == (where in ("both", "compare"))
