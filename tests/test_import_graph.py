"""What ``vn2 serve`` imports, and the lazy package exports that keep it small.

The sink's start-up is almost all imports, so its path loads only the
code it runs: package ``__init__``s export lazily (PEP 562), and
``scipy.optimize`` (the NNLS non-convergence fallback) loads on first
use.  The import check runs in a fresh interpreter, since this test
session has long since imported everything.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules a sink never runs: none may load on the serve path.
NOT_ON_SERVE_PATH = (
    "scipy.optimize",
    "repro.simnet",
    "repro.chaos",
    "repro.runner.engine",
    "repro.runner.jobs",
    "repro.traces.testbed",
    "repro.traces.citysee",
    "repro.analysis",
    "repro.baselines",
)

#: The serve path: the CLI, the server and the shard pool imported, a
#: saved model loaded and a service built around it.
SERVE_PATH = """
import json, sys
import repro.cli, repro.service.server, repro.runner.pool
from repro.core.pipeline import VN2
from repro.service.server import DiagnosisService, ServiceConfig

DiagnosisService(VN2.load(sys.argv[1]), ServiceConfig(port=0, http_port=0))
print(json.dumps(sorted(sys.modules)))
"""

LAZY_PACKAGES = ("repro.traces", "repro.runner")


def test_serve_path_imports_only_what_it_runs(tmp_path, testbed_tool):
    model = tmp_path / "model"
    testbed_tool.save(model)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", SERVE_PATH, str(model)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "repro.service.server" in loaded and "repro.runner.pool" in loaded
    leaked = [
        name for name in loaded
        if any(name == banned or name.startswith(banned + ".")
               for banned in NOT_ON_SERVE_PATH)
    ]
    assert leaked == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_the_submodules_objects(package):
    module = importlib.import_module(package)
    assert list(module._LAZY_EXPORTS) == module.__all__
    for name in module.__all__:
        owner, attr = module._LAZY_EXPORTS[name]
        assert attr == name and owner.startswith(package + ".")
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(owner), attr)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == owner
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_and_unknown_names(package):
    module = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert {name: namespace[name] for name in module.__all__} == {
        name: getattr(module, name) for name in module.__all__
    }
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_export", {})
