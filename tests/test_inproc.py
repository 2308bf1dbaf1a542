"""The benchmark's traced runs: `perfbench/inproc.py --trace` wraps the
package functions it names in `WRAPPED` right after `import
blamescope.cli`, so renaming or moving one of them breaks it. Each run
here goes through the script as the benchmark starts it, in a fresh
process, and needs a span for every wrapped function its command calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blamescope.data import bundled_path

ROOT = Path(__file__).resolve().parent.parent
XOR = str(bundled_path("xor.json"))
XOR_BLAME = str(bundled_path("xor_blame.json"))
LOG = str(bundled_path("cases_200.csv"))

LOADED = {"cli.main", "io.canonical_dumps"}
RUNS = {
    "hitl": (
        ("hitl", "--cases", LOG, "--l", "0.2", "--u", "0.8"),
        {"io.load_cases", "hitl.run", "hitl.hitl_blame", "attribution.annotate",
         "attribution.summarize"},
    ),
    "blame": (
        ("blame", "--scm", XOR_BLAME, "--outcome", "y1", "--action", "auto",
         "--baseline", "manual", "--cost", "review_cost"),
        {"io.load_scm_bundle", "blame.discounted_blame", "blame.apply_action",
         "blame.expected_cost", "scm.event_probability"},
    ),
    "counterfactual": (
        ("counterfactual", "--scm", XOR, "--outcome", "y1", "--observe", "X=1",
         "--observe", "Y=0", "--do", "X=0"),
        {"io.load_scm_bundle", "scm.intervene"},
    ),
    "prob_samples": (
        ("prob", "--scm", XOR, "--outcome", "y1", "--samples", "1000", "--seed", "3"),
        {"io.load_scm_bundle", "scm.event_probability_mc"},
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_traced_run(tmp_path, name):
    argv, wrapped = RUNS[name]
    result, report = tmp_path / "result.json", tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inproc.py"), "--result", str(result),
         "--trace", "--", *argv, "--out", str(report)],
        capture_output=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (done.returncode, done.stderr) == (0, b"")
    traced = json.loads(result.read_text(encoding="utf-8"))
    assert traced["rc"] == 0
    spans = {span[0]: span for span in traced["spans"]}
    assert LOADED | wrapped <= spans.keys()
    assert not any("raised" in span[4] for span in traced["spans"])
    if name == "hitl":
        summary = json.loads(report.read_text(encoding="utf-8"))["attribution"]["summary"]
        assert spans["attribution.annotate"][4] == {"records": summary["total_errors"]}
