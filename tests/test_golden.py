"""Golden digests: the deterministic suite outputs stay byte-identical
across code versions, not only across two runs of one version.

The fixture holds the sha256 of every deterministic file two small suites
write (episode JSONL, per-episode trace CSVs, summary.csv): GRID, keyed by
the file's path in the suite directory, and WIDE_GRID, every controller
kind on the third environment, keyed under WIDE_PREFIX.  A change that is
meant to keep behaviour must leave it untouched.  To regenerate it after
an intended behaviour change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

from tailnav.config import load_config
from tailnav.controllers import CONTROLLER_KINDS
from tailnav.harness import run_suite

FIXTURE = Path(__file__).parent / "golden" / "suite_digests.json"

GRID = {
    "environments": ["open-space", "bottleneck"],
    "controllers": ["rcsp-full", "dwa-style"],
    "seeds": [0],
}
WIDE_GRID = {
    "environments": ["warehouse-squeeze"],
    "controllers": list(CONTROLLER_KINDS),
    "seeds": [0],
}
WIDE_PREFIX = "warehouse-squeeze/"


def suite_digests(out_dir: Path, grid: dict = GRID,
                  prefix: str = "") -> dict[str, str]:
    """Run one golden grid into out_dir and hash its deterministic files."""
    config = load_config()
    config["suite"] = grid
    run_suite(config, out_dir)
    files = (sorted((out_dir / "episodes").glob("*.jsonl"))
             + sorted((out_dir / "traces").glob("*.csv"))
             + [out_dir / "summary.csv"])
    return {prefix + f.relative_to(out_dir).as_posix():
            hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def _expected(wide: bool) -> dict[str, str]:
    fixture = json.loads(FIXTURE.read_text())
    return {k: v for k, v in fixture.items()
            if k.startswith(WIDE_PREFIX) == wide}


def test_suite_outputs_match_golden_digests(tmp_path):
    assert suite_digests(tmp_path) == _expected(wide=False)


def test_every_controller_matches_golden_digests(tmp_path):
    assert (suite_digests(tmp_path, WIDE_GRID, WIDE_PREFIX)
            == _expected(wide=True))


if __name__ == "__main__":
    import tempfile
    digests = {}
    for grid, prefix in ((GRID, ""), (WIDE_GRID, WIDE_PREFIX)):
        with tempfile.TemporaryDirectory() as d:
            digests.update(suite_digests(Path(d), grid, prefix))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}", file=sys.stderr)
