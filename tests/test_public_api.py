"""`epichain.__all__` lists only names that the package's consumers call:
the command line, the acceptance suite and the config builders (as calls),
the benchmark (as `ep.X`) and the README quickstart (its import).  The
benchmark's own tests check the other direction: it uses no `ep.X` outside
`__all__`."""

import ast
import re
from pathlib import Path

import epichain

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [ROOT / "src" / "epichain" / name for name in ("cli.py", "acceptance.py", "config.py")]
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py")


def _consumed() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
    for path in BENCHMARK:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "ep"):
                names.add(node.attr)
    section = (ROOT / "README.md").read_text().split("## Python quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.ImportFrom) and node.module == "epichain":
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_consumer():
    unused = sorted(set(epichain.__all__) - {"__version__"} - _consumed())
    assert not unused, f"exported but called by no consumer: {unused}"


def test_every_export_resolves():
    assert all(hasattr(epichain, name) for name in epichain.__all__)
