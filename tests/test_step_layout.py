"""The step layout has one reader: `models.base.prepared` alone compares a
grid's axis count to choose it.  `Work`, `full`, `through`, the march's
`_transform` and the steppers follow that predicate, so a change of the
rule changes one function."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlparax"
STEPPERS = [*sorted((PACKAGE / "models").glob("*.py")), PACKAGE / "flow.py"]


def _is_count(node, bound: set) -> bool:
    """Whether node is len(<...>.shape), or a name or attribute that an
    assignment bound to one."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len" and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "shape"):
        return True
    return ((isinstance(node, ast.Name) and node.id in bound)
            or (isinstance(node, ast.Attribute) and node.attr in bound))


def _bound(tree) -> set:
    """The names and attributes that tree binds to an axis count, also
    through tuple assignments and chains of names."""
    bound: set = set()
    while True:
        found = set(bound)
        for node in ast.walk(tree):
            for target in (node.targets if isinstance(node, ast.Assign)
                           else ()):
                if (isinstance(target, ast.Tuple)
                        and isinstance(node.value, ast.Tuple)):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                found |= {getattr(name, "id", getattr(name, "attr", None))
                          for name, value in pairs
                          if _is_count(value, found)}
        if found == bound:
            return bound
        bound = found


def _comparing(tree) -> list:
    """The qualified names of the functions and classes of tree (and
    "<module>" for its top level) whose own code compares an axis count."""
    bound, out = _bound(tree), []

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else (
                f"{where}.{node.name}")
        if isinstance(node, ast.Compare) and any(
                _is_count(n, bound) for n in (node.left, *node.comparators)):
            out.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return out


def test_one_function_compares_the_axis_count_to_choose_the_layout():
    found = {f"{path.relative_to(PACKAGE)}:{where}"
             for path in STEPPERS
             for where in _comparing(ast.parse(path.read_text()))}
    assert found == {"models/base.py:prepared"}

