"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies, so importing the
CLI, the specialization server and the remote store client must load no
third-party module.  The check compares ``sys.modules`` before and after
the imports in a fresh interpreter, because site customization may load
third-party modules of its own before any of ours.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

PROBE = """
import json, sys
before = set(sys.modules)
import repro.__main__, repro.serve.server, repro.image.remote
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(new)))
"""


def test_entry_points_import_only_the_standard_library():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "repro" in loaded
    third_party = [
        name for name in loaded
        if name != "repro" and name not in sys.stdlib_module_names
    ]
    assert third_party == []
