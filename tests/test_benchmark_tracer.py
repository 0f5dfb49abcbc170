"""The benchmark's tracer wraps evenrev functions by name, with no fallback.

A traced function that is renamed or deleted makes ``perfbench/tracer.py``'s
``install`` fail; this test catches that in the tier-1 run rather than only in
a traced benchmark pass.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_package_under_src():
    src = os.path.join(ROOT, "src")
    code = (
        "import os, sys\n"
        f"sys.path[:0] = [{src!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import evenrev, evenrev.cli, evenrev.selftest, evenrev.serialize\n"
        f"assert os.path.dirname(os.path.dirname(evenrev.__file__)) == {src!r}, evenrev.__file__\n"
        "import tracer\n"
        "tracer.install(tracer.Tracer(), evenrev)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
