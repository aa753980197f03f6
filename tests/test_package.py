import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import relaycontracts
from relaycontracts import contracts, distributions, selection, simulate

MODULES = (contracts, distributions, selection, simulate)
ROOT = Path(__file__).resolve().parents[1]


def test_package_namespace_is_the_modules_public_names():
    names = {name for name in vars(relaycontracts) if not name.startswith("_")}
    exported = set().union(*(module.__all__ for module in MODULES))
    submodules = {name for name in names if isinstance(getattr(relaycontracts, name), types.ModuleType)}
    assert names - submodules == exported
    assert {module.__name__.rpartition(".")[2] for module in MODULES} <= submodules
    assert isinstance(relaycontracts.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(relaycontracts, name) is getattr(module, name), name


@pytest.mark.parametrize("script", ["build_contract_menus.py", "select_relays_under_budget.py"])
def test_demo_runs(tmp_path, script):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
