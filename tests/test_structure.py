"""Source layout rules: ring-specific behaviour lives on the ring descriptor.

Only ``rings.py`` may branch on a ring's ``kind``, and there only
``ring_from_json``, the parser of outside input, which compares the kind
string it read.  Every other ring difference is a method or an attribute of
the descriptor.
"""

import ast
from pathlib import Path

import pytest

import matseq

SRC = Path(matseq.__file__).parent
MODULES = sorted(SRC.glob("*.py"))

# classes whose own ``kind`` is not a ring kind
NON_RING_KINDS = {"DesingularizeTransform"}


def _kind_comparisons(tree: ast.Module) -> list[int]:
    """Sorted line numbers of comparisons that involve an attribute ``<expr>.kind``,
    outside the classes in NON_RING_KINDS."""
    exempt = {id(n) for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) and c.name in NON_RING_KINDS
              for n in ast.walk(c)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Compare) and id(node) not in exempt
                   and any(isinstance(x, ast.Attribute) and x.attr == "kind"
                           for operand in [node.left, *node.comparators]
                           for x in ast.walk(operand))})


def test_modules_found():
    assert {p.name for p in MODULES} >= {"rings.py", "similarity.py", "cli.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_ring_kind_branches(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _kind_comparisons(tree) == [], f"{path.name} compares a ring's kind"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_duplicate_row_normalizer(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {n.name for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_normalize_row" not in names


def test_rule_catches_ring_kind_branches():
    src = (
        "def f(ring, x):\n"
        "    if ring.kind == 'Z':\n"
        "        return 1\n"
        "    return x.ring.kind != 'GF' or 'Q' in (x.ring.kind,)\n"
        "class DesingularizeTransform:\n"
        "    def g(self):\n"
        "        return self.kind == 'pair'\n"
        "def ring_from_json(obj):\n"
        "    kind = obj['kind']\n"
        "    return kind == 'Z'\n"
    )
    assert _kind_comparisons(ast.parse(src)) == [2, 4]
