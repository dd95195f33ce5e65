"""tools/fit_digest.py runs and repeats itself."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_fit_digest_is_well_formed_and_repeatable():
    argv = [sys.executable, str(REPO / "tools" / "fit_digest.py"), "--loss", "1", "--null", "4"]
    lines = [
        subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert lines[0] == lines[1]
    assert lines[0].count("\n") == 1
    digest = json.loads(lines[0])
    assert set(digest) == {"n_fits", "fits", "cli", "helpers"}
    # 6 loss fits (UPOM, four rungs and the lambda = 0 retry) and 4 null
    # replicates at 4 levels for 2 models
    assert digest["n_fits"] == 38
    for key in ("fits", "cli", "helpers"):
        assert len(digest[key]) == 64 and int(digest[key], 16) >= 0
