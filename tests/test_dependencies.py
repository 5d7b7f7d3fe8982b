"""The package's runtime dependency closure: the standard library plus numpy.

``pyproject.toml`` declares only numpy, so every entry point must import on an
interpreter that has nothing else installed.  Each check runs in a fresh interpreter,
because the test process has already imported whatever the suite needed.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(sys.version_info < (3, 10), reason="needs sys.stdlib_module_names")
def test_entry_points_import_only_numpy_beyond_the_stdlib():
    added = _run(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.service.cli, repro.server, repro.fleet, repro.evaluation\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "added -= set(sys.stdlib_module_names) | {'repro', '__mp_main__'}\n"
        "print(json.dumps(sorted(added)))\n"
    )
    assert json.loads(added) == ["numpy"]


def test_noise_aware_matrix_builds_without_networkx():
    """A calibrated Montreal HA matrix on an interpreter where networkx cannot load."""
    digest = _run(
        "import hashlib, sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro import Target\n"
        "target = Target.from_topology('montreal', calibrated=True)\n"
        "matrix = target.noise_distance_matrix()\n"
        "print(hashlib.sha256(matrix.tobytes()).hexdigest()[:16])\n"
    )
    assert digest == "e5b3263439eb1a65"
