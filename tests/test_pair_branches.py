"""No code in the package compares a value with a pair name: what differs
between pairs is stated once, in a table row (`remainders._PAIR_TABLE`,
`experiments._STUDIES`) or in the term tables, not in a branch."""

import ast
from pathlib import Path

from nlparax.remainders import PAIRS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlparax"


def _strings(operand) -> set:
    """The string constants an operand of a comparison holds, itself or as
    the elements of a tuple, list or set."""
    items = (operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
             else [operand])
    return {n.value for n in items
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_no_comparison_names_a_pair():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                names = set().union(*map(_strings,
                                         (node.left, *node.comparators)))
                if names & set(PAIRS):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} "
                                 f"{sorted(names & set(PAIRS))}")
    assert not found
