"""The scripts under tools/ run end to end."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_decode_ab_flip_bit_takes_the_fallback_on_every_frame():
    # the tree against itself: a 2-byte message is 3 frames (two bytes, then
    # END); with one payload bit flipped in each, no frame verifies
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "decode_ab.py"), "--old", str(ROOT),
         "--rounds", "1", "--length", "2", "--flip-bit"],
        capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["frames"] == 3
    assert report["verified_and_fallback_frames_last_round"] == {"old": [0, 3], "new": [0, 3]}
