"""Golden reports: the exact bytes of each report on the bundled inputs.

Each case runs `cli.main` once to stdout and once through `--out` and
compares both with `tests/golden/<name>` byte for byte. After an
intended change to a report, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and list every changed file in CHANGES.md.
"""

from pathlib import Path

import pytest

from blamescope.cli import main
from blamescope.data import bundled_path

GOLDEN = Path(__file__).parent / "golden"
XOR = str(bundled_path("xor.json"))
XOR_BLAME = str(bundled_path("xor_blame.json"))
LOG = str(bundled_path("cases_200.csv"))
RATINGS = str(GOLDEN / "ratings.csv")
RATINGS_K1000 = str(GOLDEN / "ratings_k1000.csv")
BLAME = ("blame", "--scm", XOR_BLAME, "--outcome", "y1", "--action", "auto",
         "--baseline", "manual")

CASES = {
    "prob_exact.json": ("prob", "--scm", XOR, "--outcome", "y1"),
    "prob_mc.json": ("prob", "--scm", XOR, "--outcome", "y1", "--samples", "1000",
                     "--seed", "3"),
    "prob_action.json": ("prob", "--scm", XOR_BLAME, "--outcome", "y1", "--action", "auto"),
    "prob_do.json": ("prob", "--scm", XOR, "--outcome", "y1", "--do", "X=1"),
    "counterfactual.json": ("counterfactual", "--scm", XOR, "--outcome", "y1",
                            "--observe", "X=1", "--observe", "Y=0", "--do", "X=0"),
    "blame_cost.json": (*BLAME, "--cost", "review_cost"),
    "blame_unit.json": (*BLAME, "--discount", "unit"),
    "hitl_l02_u08.json": ("hitl", "--cases", LOG, "--l", "0.2", "--u", "0.8"),
    "hitl_l03_u073.json": ("hitl", "--cases", LOG, "--l", "0.3", "--u", "0.73",
                           "--ai-cost", "1", "--review-cost", "5",
                           "--discount", "cost_ratio"),
    "metrics_cases_l02_u08.json": ("metrics", "--cases", LOG, "--l", "0.2", "--u", "0.8",
                                   "--positive", "pos"),
    "metrics_cases_l03_u073.json": ("metrics", "--cases", LOG, "--l", "0.3", "--u", "0.73",
                                    "--positive", "neg"),
    "metrics_ratings.json": ("metrics", "--ratings", RATINGS),
    "metrics_ratings_k1000.json": ("metrics", "--ratings", RATINGS_K1000),
    "gen_s42_n50.csv": ("gen", "--seed", "42", "--n-cases", "50"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(capsys, tmp_path, name):
    expected = (GOLDEN / name).read_bytes()
    assert main(list(CASES[name])) == 0
    captured = capsys.readouterr()
    assert (captured.out.encode("utf-8"), captured.err) == (expected, "")
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert (out.read_bytes(), capsys.readouterr().out) == (expected, "")


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        assert main([*argv, "--out", str(GOLDEN / name)]) == 0, name
