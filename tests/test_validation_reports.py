"""Pinned validation reports: the bound checks and the mixture sampler give
the same results across code versions, not only across two runs of one
version.

The fixture holds the `to_dict()` of both bound checks at the
`tailnav validate` defaults (trials=20, seeds 0-2) and at Criterion 4's
settings (trials=50), plus a few draws of `random_mixture(...).sample`.
Counts and bounds must be equal; `max_error` may move only in its last
bits, since the closed-form CVaR may round differently.  The draws must be
equal bit for bit.  To regenerate the fixture after an intended behaviour
change, run from the repository root:

    PYTHONPATH=src python tests/test_validation_reports.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tailnav.validation import (check_prop_regret, check_prop_uniform_cvar,
                                random_mixture)

FIXTURE = Path(__file__).parent / "golden" / "validation_reports.json"

VALIDATE_DEFAULTS = dict(N=500, alpha=0.1, delta=0.05, lattice_size=25,
                         risk_weight=2.0, trials=20)
CRITERION_4 = dict(N=500, alpha=0.25, delta=0.05, lattice_size=10,
                   risk_weight=1.0, trials=50)
CASES = [(f"validate-defaults/seed-{s}", {**VALIDATE_DEFAULTS, "seed": s})
         for s in range(3)] + [("criterion-4/seed-0", {**CRITERION_4,
                                                        "seed": 0})]
SAMPLE_SEEDS = range(8)


def reports(kwargs: dict) -> dict:
    """Both checks' reports for one setting; the uniform-CVaR check takes
    no risk weight."""
    uniform = {k: v for k, v in kwargs.items() if k != "risk_weight"}
    return {"uniform_cvar": check_prop_uniform_cvar(**uniform).to_dict(),
            "regret": check_prop_regret(**kwargs).to_dict()}


def mixture_draws(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return random_mixture(rng).sample(rng, 16).tolist()


def generate() -> dict:
    return {"reports": {name: reports(kw) for name, kw in CASES},
            "draws": {str(s): mixture_draws(s) for s in SAMPLE_SEEDS}}


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name,kwargs", CASES, ids=[n for n, _ in CASES])
def test_reports_match_pinned(fixture, name, kwargs):
    for check, got in reports(kwargs).items():
        want = fixture["reports"][name][check]
        for key in ("trials", "violations", "bound", "delta"):
            assert got[key] == want[key], (check, key)
        assert got["max_error"] == pytest.approx(want["max_error"],
                                                 rel=1e-12, abs=0.0), check


def test_mixture_draws_match_pinned(fixture):
    for s in SAMPLE_SEEDS:
        assert mixture_draws(s) == fixture["draws"][str(s)], s


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(generate(), indent=2, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
