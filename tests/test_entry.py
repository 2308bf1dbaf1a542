"""The process entry: `python -m blamescope` runs `cli.run`, which writes
the same bytes and exit codes as `cli.main` and then freezes the
collector's heap; `cli.main` itself never freezes it."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blamescope import cli
from blamescope.data import bundled_path

from test_golden import CASES, GOLDEN

ROOT = Path(__file__).resolve().parent.parent


def _python(*argv, **environ):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **environ)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, timeout=120
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_by_process(name):
    done = _python("-m", "blamescope", *CASES[name])
    assert (done.returncode, done.stdout, done.stderr) == (
        0, (GOLDEN / name).read_bytes(), b""
    )


XOR = str(bundled_path("xor.json"))
LOG = str(bundled_path("cases_200.csv"))


@pytest.mark.parametrize("argv, code, error", [
    (("hitl", "--cases", LOG, "--l", "0.8", "--u", "0.2"), 2, "ConfigError"),
    (("hitl", "--cases", "no/such/cases.csv", "--l", "0.2", "--u", "0.8"), 3, "FileNotFound"),
    (("prob", "--scm", XOR, "--outcome", "y1", "--do", "Q=1"), 4, "UnknownVariable"),
])
def test_error_by_process(argv, code, error):
    """An error is one line of JSON on stderr, nothing on stdout, and its
    exit code."""
    done = _python("-m", "blamescope", *argv)
    assert (done.returncode, done.stdout) == (code, b"")
    line, rest = done.stderr.decode("utf-8").split("\n", 1)
    assert rest == ""
    assert json.loads(line)["error"] == error


def test_reports_and_errors_are_utf8_in_the_c_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, where Python's own streams
    write ASCII, a report on stdout has the bytes of its `--out` file, and
    an error naming a non-ASCII case id is JSON on stderr."""
    ascii_only = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": ""}
    header = "case_id,ai_confidence,ai_decision,human_decision,truth\n"
    log = tmp_path / "cases.csv"
    log.write_text(header + "casé,0.5,pos,neg,pos\nc1,0.9,pos,pos,neg\n", encoding="utf-8")
    argv = ("-m", "blamescope", "hitl", "--cases", str(log), "--l", "0.2", "--u", "0.8")
    done = _python(*argv, **ascii_only)
    out = tmp_path / "report.json"
    assert _python(*argv, "--out", str(out), **ascii_only).returncode == 0
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.read_bytes()
    assert "casé" in done.stdout.decode("utf-8")

    log.write_text(header + "casé,0.5,pos,neg,pos\ncasé,0.9,pos,pos,neg\n", encoding="utf-8")
    done = _python(*argv, **ascii_only)
    assert (done.returncode, done.stdout) == (3, b"")
    error = json.loads(done.stderr)
    assert error == {
        "error": "DuplicateCaseId", "message": f"{log}: line 3: duplicate case id 'casé'"
    }


def test_run_freezes_the_heap_and_returns_the_code():
    probe = (
        "import gc, sys\n"
        "from blamescope import cli\n"
        "sys.argv[1:] = ['prob', '--scm', sys.argv[1], '--outcome', 'nope']\n"
        "code = cli.run()\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    done = _python("-c", probe, XOR)
    assert done.stdout == b"2 True\n"


def test_main_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    assert cli.main(list(CASES["hitl_l02_u08.json"])) == 0
    assert cli.main(["prob", "--scm", XOR, "--outcome", "nope"]) == 2
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_console_script_is_run():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'blamescope = "blamescope.cli:run"'
