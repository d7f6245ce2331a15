"""scripts/report_digest.py runs every job it lists and digests both report files."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_smoke_digests_every_job():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digest.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 18
    digest = re.compile(r"\S+ 0 [0-9a-f]{64} [0-9a-f]{64}")
    bad = [line for line in lines if not digest.fullmatch(line)]
    assert not bad, bad
