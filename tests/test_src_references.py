"""Everything ``src/`` defines, ``src/`` also uses.

Every ``def`` and ``class`` in ``src/qhybrid/*.py``, other than a dunder,
must be named by some ``ast.Name`` or ``ast.Attribute`` in ``src/``. A
function that only tests call is deleted together with its tests, unless it
is one of the test oracles and readers below, which the acceptance criteria
import and which stay in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qhybrid"

ORACLES = {
    "simulate": "statevector simulator: the oracle for the closed-form block probabilities",
    "marginals": "per-qubit p(1) of a simulated state, compared with the closed form",
    "sample_indices": "per-shot inverse CDF, the law whose counts sample_from_probs draws",
    "build_block_circuit": "the block as a gate list, for the simulator to run",
    "norm_sq": "statevector norm, checked to stay 1 after every gate",
    "read_csv": "reads back the CSV artifacts that write_csv writes",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_src_definition_is_named_in_src():
    defined, named = {}, set()
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{filename}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = {name: where for name, where in defined.items()
              if name not in named and name not in ORACLES}
    assert not unused, f"defined in src/ but never named there: {unused}"


def test_every_oracle_is_still_defined():
    defined = {node.name for tree in _trees().values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(ORACLES) <= defined
