"""`tools/check_parity.py` finds no difference against its own checkout, and each check catches a one-line change."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def check_parity(other_src: Path, problems: int, corpora: int, inputs: int) -> tuple[int, list[str]]:
    """The tool's exit status and stdout lines, run on ``other_src`` with these counts at seed 0."""
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_parity.py"), str(other_src), "--problems", str(problems),
         "--corpora", str(corpora), "--inputs", str(inputs)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.stderr == ""
    return done.returncode, done.stdout.splitlines()


def test_this_checkout_agrees_with_itself():
    status, lines = check_parity(REPO / "src", 50, 2, 30)
    assert status == 0
    assert len(lines) == 3
    assert re.match(r"^50 problems .*; 0 problems differ; RuntimeWarnings: 0 here, 0 other$", lines[0])
    assert re.match(r"^2 corpora .*; 0 corpora differ$", lines[1])
    assert re.match(r"^30 inputs .*; 0 inputs differ$", lines[2])


@pytest.mark.parametrize("module, before, after, counts, differ", [
    ("matching", "sorted(sorted(pairs) for pairs in lists)",
     "sorted((sorted(pairs) for pairs in lists), reverse=True)", (100, 0, 0), "problems"),
    ("matching", "if math.fsum(prefix + rest_costs) == best:", "if False:", (100, 0, 0), "problems"),
    ("detection", '"no ground truth boxes"', '"no ground-truth boxes"', (0, 3, 0), "corpora"),
    ("io_formats", "outside [1, {n_labels}]", "not in [1, {n_labels}]", (0, 0, 30), "inputs"),
], ids=["solver", "tie_search", "evaluation", "parsers"])
def test_each_check_catches_a_one_line_change(tmp_path, module, before, after, counts, differ):
    # The other checkout is a copy of this src with one line changed: the
    # enumeration's candidate order, the LSA route's tie search accepting no
    # sub-solve (so it answers with the solver's own optimum), the
    # no-ground-truth AP reason, or the parsers' out-of-range label message.
    other = tmp_path / "src"
    shutil.copytree(REPO / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    path = other / "asadeval" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    assert text.count(before) == 1
    path.write_text(text.replace(before, after), encoding="utf-8")
    status, lines = check_parity(other, *counts)
    assert status == 1
    assert re.search(rf"; [1-9]\d* {differ} differ(;|$)", lines[-1])
