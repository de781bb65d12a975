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
    assert {side: calls["verify_calls"] for side, calls in report["calls_per_frame"].items()} \
        == {"old": 1, "new": 1}
