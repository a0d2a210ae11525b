"""Source hygiene: no definition in src/qpencil is reached only by the tests."""

import ast
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qpencil"
OUTSIDE = ["benchmarks/*.py", "scripts/*.py", ".github/workflows/*.yml"]

ALLOWED = {
    # interim numeric background: ROADMAP item 4 replaces it or deletes it
    "NumericBackground",
    # the public single-set solve, which the benchmark names only as a span;
    # run_reconstructions calls _solve_nodes directly
    "solve_main",
}


def _definitions():
    """(name, path, line) of every function, class and method but dunders."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not re.fullmatch(r"__\w+__", node.name):
                yield node.name, path, node.lineno


def _name_tokens():
    """name -> {(path, line)} of the identifier tokens in src/qpencil but __init__.py."""
    out: dict[str, set] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NAME:
                    out.setdefault(tok.string, set()).add((path, tok.start[0]))
    return out


def test_every_src_definition_is_reached_outside_tests():
    tokens = _name_tokens()
    outside = "\n".join(p.read_text(encoding="utf-8")
                        for pattern in OUTSIDE for p in sorted(ROOT.glob(pattern)))
    unreached = sorted({name for name, path, line in _definitions()
                        if name not in ALLOWED
                        and not tokens.get(name, set()) - {(path, line)}
                        and not re.search(rf"\b{name}\b", outside)})
    assert unreached == [], f"only tests reach {unreached}: move them into tests/ or delete them"
