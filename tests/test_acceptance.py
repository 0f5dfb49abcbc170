"""Acceptance suite: one test per criterion, at the stated tolerances.

The criterion bodies live in :mod:`evenrev.selftest` so the command line can
run the identical checks.  Criterion 11b is a strict expected failure: the
quadratic inverse provably decays like (1/3)**k, slower than the nominal
certificate base 3 - 2*sqrt(2) (see the test module docstring there).
"""

import os
import subprocess
import sys

import pytest

import evenrev
from evenrev.selftest import criteria

_CRITERIA = {c.cid: c for c in criteria()}


@pytest.mark.parametrize(
    "cid", [c.cid for c in criteria() if not c.known_failure], ids=lambda cid: f"criterion-{cid}"
)
def test_criterion(cid):
    crit = _CRITERIA[cid]
    detail = crit.run()
    print(f"criterion {cid} ({crit.title}): PASS [{detail}]")


@pytest.mark.xfail(
    strict=True,
    reason=_CRITERIA["11b"].known_failure,
)
def test_criterion_11b_quadratic_certificate_bound():
    crit = _CRITERIA["11b"]
    detail = crit.run()
    print(f"criterion 11b ({crit.title}): PASS [{detail}]")


def test_checks_survive_python_optimize_flag():
    # ``python -O`` strips ``assert``; a criterion's checks must still raise
    src = os.path.dirname(os.path.dirname(evenrev.__file__))  # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from evenrev.selftest import criteria\n"
        "crit = [c for c in criteria() if c.cid == '11b'][0]\n"
        "try:\n    crit.run()\nexcept AssertionError as exc:\n    print('raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: quadratic coefficient 2:")
