"""The scripts under tools/ run end to end."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_decode_ab_runs_one_verify_call_a_frame():
    # the tree against itself: a 2-byte message is 3 frames (two bytes, then
    # END), each scored by the draft and one exact call
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "decode_ab.py"), "--old", str(ROOT),
         "--rounds", "1", "--length", "2"],
        capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["frames"] == 3
    calls = report["calls_per_frame"]
    assert {side: c["verify_calls"] for side, c in calls.items()} == {"old": 1, "new": 1}
    assert all(c["draft_block_calls"] > 0 for c in calls.values())


def test_draft_check_finds_no_decode_that_the_draft_changes():
    # the verify-all decoder sends every frame's 257 candidates through the
    # chunked exact attention; the shipped decoder must match it on every
    # message, and the draft stay within DRAFT_ETA of the exact cosines
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "draft_check.py"), "--frames", "20",
         "--configs", "test"],
        capture_output=True, text=True, check=True, timeout=300)
    [row] = json.loads(run.stdout.splitlines()[-1])["equivalence"]
    assert row["frames_fed"] >= 20
    assert row["results_or_errors_differing"] == 0
    assert all(case["results_or_errors_differing"] == 0 for case in row["by_case"].values())
    deviation = row["draft_cosine_deviation"]
    assert deviation["max"] <= deviation["eta"]
    # each call's faults come from its own fresh process
    minflt = json.loads(run.stdout.splitlines()[-1])["minflt_per_call"]
    assert set(minflt) == {"fresh_process", "after_12_mib_free"}
    for by_call in minflt.values():
        assert set(by_call) == {"draft_taps", "hypothesis_taps"}
        assert all(isinstance(n, (int, float)) and n >= 0 for n in by_call.values())


def test_gemm_scaling_reports_one_speedup_a_repeat():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gemm_scaling.py"), "--repeats", "2",
         "--gemms", "3"],
        capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["cpus"] >= 1
    assert len(report["two_thread_gemm_speedup"]) == 2
    assert all(s > 0 for s in report["two_thread_gemm_speedup"])


def test_src_lines_counts_code_apart_from_comments_blanks_and_docstrings(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "mod.py").write_text('''"""Module
docstring."""

# a comment
X = 1  # code with a comment


def f():
    """One line."""
    return """a string
    over two lines"""
''')
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(run.stdout) == {"total": 11, "code": 4}
