"""Cold start: `import epichain` and `import epichain.cli` load no scipy,
multiprocessing or concurrent module; each one loads where it is first
used, so the commands that read no tau_bar load no scipy at all, and only
a tree batch large enough for a worker pool loads the other two."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules(code: str, package: str = "scipy") -> str:
    """The modules of `package` loaded once `code` has run in a fresh interpreter."""
    code += f"; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    done = subprocess.run([sys.executable, "-c", "import sys; " + code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    assert _modules("import epichain, epichain.cli") == "[]"


def test_import_loads_no_multiprocessing():
    assert _modules("import epichain, epichain.cli", "multiprocessing") == "[]"


def test_import_loads_no_concurrent():
    assert _modules("import epichain, epichain.cli", "concurrent") == "[]"


@pytest.mark.parametrize("argv", [
    ["courses-dump", "--samples", "20"],
    ["simulate", "--replicas", "1", "--horizon", "2", "--set", "n_individuals=1000"],
    ["chain", "--mode", "renewal", "--samples", "50", "--t", "2"],
], ids=lambda argv: argv[0])
def test_command_without_tau_bar_loads_no_scipy(tmp_path, argv):
    argv = argv + ["--out", str(tmp_path)]
    assert _modules(f"from epichain.cli import main; assert main({argv!r}) == 0") == "[]"
