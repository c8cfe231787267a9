"""Import cost: each layer loads only the modules it uses at import.

Each check runs in a fresh interpreter, so modules that other tests have
already imported do not hide a module-level import.  The checks are on which
modules are loaded, not on timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import slowlight

LAYERS = ("waveguide", "fluxcontrol", "dynamics", "protocol", "noise", "qops",
          "shots", "tomography")
# cold scipy subpackages no layer may load at import: fluxcontrol._solve_dc
# imports scipy.optimize inside itself, its one user; dynamics._simpson stands
# in for scipy.integrate.simpson; the library uses neither scipy.signal nor
# scipy.stats, which it pulls in
DEFERRED = ("scipy.signal", "scipy.stats", "scipy.integrate", "scipy.optimize")


def _loaded_after(statement: str) -> set:
    """Names in sys.modules after running `statement` in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(slowlight.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_layers_defer_the_cold_scipy_subpackages():
    loaded = _loaded_after(f"from slowlight import {', '.join(LAYERS)}")
    assert {f"slowlight.{name}" for name in LAYERS} <= loaded
    assert loaded.isdisjoint(DEFERRED), sorted(loaded & set(DEFERRED))


def test_noise_loads_only_its_own_layers():
    loaded = _loaded_after("import slowlight.noise")
    layers = {name for name in loaded if name.startswith("slowlight.")}
    assert layers == {"slowlight.noise", "slowlight.protocol", "slowlight.qops"}


def test_package_import_loads_no_layer():
    loaded = _loaded_after("import slowlight")
    assert not any(name.startswith("slowlight.") for name in loaded)
