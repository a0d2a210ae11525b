"""Source hygiene: no definition or dataclass field in src/qpencil is reached only by
the tests, and importing the package loads numpy but nothing from scipy."""

import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpencil"
OUTSIDE = ["benchmarks/*.py", "scripts/*.py", ".github/workflows/*.yml"]

def _definitions():
    """(name, path, line) of every function, class and method but dunders."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                yield node.name, path, node.lineno


def _name_tokens():
    """name -> {(path, line)} of the identifier tokens in src/qpencil but __init__.py,
    leaving out numpy's attributes: np.zeros is no use of a method named zeros."""
    out: dict[str, set] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        with path.open("rb") as f:
            before = ("", "")       # the two tokens before this one
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NAME and before not in (("np", "."), ("numpy", ".")):
                    out.setdefault(tok.string, set()).add((path, tok.start[0]))
                before = (before[1], tok.string)
    return out


def _dataclass_fields():
    """(class, field) of every annotated field of a dataclass in src/qpencil."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d)
                                                      for d in node.decorator_list):
                yield from ((node.name, stmt.target.id) for stmt in node.body
                            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))


def _attribute_reads():
    """The attribute names that src/qpencil reads, as in ``obj.name`` (not ``obj.name = ...``)."""
    return {node.attr for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _outside_text():
    """The benchmark, script and CI sources without their # comments."""
    return "\n".join(re.sub(r"#.*", "", line) for pattern in OUTSIDE
                     for p in sorted(ROOT.glob(pattern))
                     for line in p.read_text(encoding="utf-8").splitlines())


def test_every_src_definition_is_reached_outside_tests():
    tokens = _name_tokens()
    outside = _outside_text()
    # a use is a token off every definition line of its name, so two classes that
    # define the same method do not count as each other's use
    defined: dict[str, set] = {}
    for name, path, line in _definitions():
        defined.setdefault(name, set()).add((path, line))
    unreached = sorted({name for name, lines in defined.items()
                        if not tokens.get(name, set()) - lines
                        and not re.search(rf"(?<!np\.)(?<!numpy\.)\b{name}\b", outside)})
    assert unreached == [], f"only tests reach {unreached}: move them into tests/ or delete them"


def test_every_dataclass_field_is_read_outside_tests():
    reads = _attribute_reads()
    outside = _outside_text()
    unread = sorted(f"{cls}.{name}" for cls, name in _dataclass_fields()
                    if name not in reads and not re.search(rf"\.{name}\b", outside))
    assert unread == [], f"no src, benchmark, script or CI line reads {unread}: delete them"


def test_scipy_loads_only_for_an_lu_solve():
    # importing scipy.linalg.lapack costs a fresh process about 0.25 s and
    # scipy.integrate about 0.2 s; a dim-4 problem needs neither
    script = """
import sys
import numpy as np

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import qpencil
from qpencil import (PotentialPair, ZeroBackground, default_grid, find_eigenvalues,
                     make_split_data, roundtrip_check, run_reconstruction, weight_numbers,
                     weyl_residues)
from qpencil.zindex import window
assert loaded() == [], loaded()
roundtrip_check(make_split_data(0.01), ZeroBackground(), 3)
pot = PotentialPair.from_functions(lambda t: 1j, lambda t: 0.0)     # a double eigenvalue
eigs = find_eigenvalues(pot, 3, pot.omega0())
weyl_residues(pot, eigs)
weight_numbers(pot, eigs)
assert loaded() == [], loaded()
rng = np.random.default_rng(16)
z = rng.uniform(-1.0, 1.0, (2, 32, 2)) @ np.array([1.0, 1j])
entries = [qpencil.SpectralEntry(n=n, lam=n + 0.05 * z[0, i] / abs(n),
                                 M=-n / np.pi * (1.0 + 0.05 * z[1, i] / abs(n)))
           for i, n in enumerate(window(16))]
data = qpencil.SpectralDataSet.from_entries(entries, tail=ZeroBackground(), omega0=0.0)
run_reconstruction(data, ZeroBackground(), default_grid(200))     # dim 64: LU by LAPACK
assert "scipy.linalg.lapack" in loaded() and "scipy.integrate" not in loaded(), loaded()
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
