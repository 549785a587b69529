"""The package runs on numpy and the standard library alone."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in a fresh interpreter: whatever it has loaded before the first line
# (site hooks, .pth files) is allowed, then every package module is imported
PROBE = """
import sys
bare = set(sys.modules)
import importlib, json, pkgutil
import mostream
names = [info.name for info in pkgutil.iter_modules(mostream.__path__)]
for name in names:
    importlib.import_module("mostream." + name)
allowed = set(sys.stdlib_module_names) | {"numpy", "mostream"}
extra = sorted(m for m in set(sys.modules) - bare if m.split(".")[0] not in allowed)
print(json.dumps({"modules": names, "extra": extra}))
"""


def test_every_module_imports_numpy_and_the_standard_library_only():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert {"cli", "core", "engine", "metrics", "stream_io"} <= set(found["modules"])
    assert found["extra"] == []
