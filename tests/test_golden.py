"""Golden digests: the deterministic suite outputs stay byte-identical
across code versions, not only across two runs of one version.

The fixture holds the sha256 of every deterministic file a small suite
writes (episode JSONL, per-episode trace CSVs, summary.csv).  A change
that is meant to keep behaviour must leave it untouched.  To regenerate
it after an intended behaviour change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from tailnav.config import load_config
from tailnav.harness import run_suite

FIXTURE = Path(__file__).parent / "golden" / "suite_digests.json"

GRID = {
    "environments": ["open-space", "bottleneck"],
    "controllers": ["rcsp-full", "dwa-style"],
    "seeds": [0],
}


def suite_digests(out_dir: Path) -> dict[str, str]:
    """Run the golden grid into out_dir and hash its deterministic files."""
    config = load_config()
    config["suite"] = GRID
    run_suite(config, out_dir)
    files = (sorted((out_dir / "episodes").glob("*.jsonl"))
             + sorted((out_dir / "traces").glob("*.csv"))
             + [out_dir / "summary.csv"])
    return {f.relative_to(out_dir).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def test_suite_outputs_match_golden_digests(tmp_path):
    expected = json.loads(FIXTURE.read_text())
    assert suite_digests(tmp_path) == expected


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        digests = suite_digests(Path(d))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}", file=sys.stderr)
