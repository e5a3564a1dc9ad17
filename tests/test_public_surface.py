"""The public surface: every module-level public function or class of the
package has a caller outside the unit tests.

A definition counts as called when package code outside its own body, the
benchmark (``perfbench/*.py``) or the acceptance criteria
(``tests/test_acceptance.py``) read its name, as a plain name or as a module
attribute.  Imports do not count, so ``__init__``'s re-exports call nothing.
The names in ``PENDING`` wait for a result that will call them; once one has
a caller it leaves the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "haarweight"

PENDING = {
    "local_nq": "waits for the M_W criterion (ROADMAP item 3)",
    "mw_proof_certificate": "waits for the M_W criterion (ROADMAP item 3)",
    "mean_oscillation": "belongs to the covering-lemma reduction of BMO over arbitrary cubes",
    "ntv_scalar_equivalence": "waits for the equivalence claim (ROADMAP item 4)",
    "half_power_maximal": "the reference that criterion 10's chain is tested against",
}


def read_names(node):
    """Names that ``node`` reads, as plain names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def top_level(paths):
    """(path, top-level statement) over the files."""
    return [(path, node) for path in paths for node in ast.parse(path.read_text()).body]


def public_definitions():
    return [(path, node) for path, node in top_level(sorted(PACKAGE.glob("*.py")))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def uncalled():
    callers = top_level([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
                        + sorted((ROOT / "perfbench").glob("*.py"))
                        + [ROOT / "tests" / "test_acceptance.py"])
    reads = [(path, node, read_names(node)) for path, node in callers]
    return {node.name for path, node in public_definitions()
            if not any(node.name in names for p, n, names in reads
                       if not (p == path and n.lineno == node.lineno))}


def test_every_public_name_has_a_caller():
    assert len(public_definitions()) > 50       # the parse found the package
    assert uncalled() == set(PENDING)
