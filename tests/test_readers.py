"""Every public function, class and method of the package has a reader in
the package, or is named below with the reason it stays; and every
defaulted parameter of a function or method has a setter in the package.

The scan resolves references: a name that a function binds itself does not
read the module-level definition of that name, `from .x import y` chains
are followed to the module that defines y, and `C.m` (or `self.m` inside C)
reads C's method m only.  An attribute of any other value could belong to
any class, so it reads every method of that name.  A definition does not
read itself, and re-exports and `__all__` entries are not readers."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlparax"

#: public definitions that only tests, or readers outside the package, use
NO_PROGRAM_READER = {
    # the convex-entropy set: the admissibility check, and the entropy's
    # derivatives, which a relative-entropy bound needs
    "nlparax.flow.admissibility_residual",
    "nlparax.flow.entropy_gradient",
    "nlparax.flow.entropy_hessian",
    # the entropy with its flux, which the tests check for positivity; the
    # admissibility check reads the entropy alone
    "nlparax.flow.entropy_pair",
    # the viscous-decay acceptance check
    "nlparax.experiments.decay_fit",
    # the reference that tests compare every stepper's dealiasing against
    "nlparax.spectral.Spectral.dealias",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _modules():
    """module name -> (syntax tree, package its relative imports start at)"""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            name = ".".join(parts[:-1])
            out[name] = (ast.parse(path.read_text()), name)
        else:
            name = ".".join(parts)
            out[name] = (ast.parse(path.read_text()), name.rpartition(".")[0])
    return out


def _local_names(scope) -> set[str]:
    """Names that a function or comprehension binds in its own scope."""
    if isinstance(scope, _COMPREHENSIONS):
        stack = [g.target for g in scope.generators]
        names = set()
    else:
        a = scope.args
        names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                 a.vararg, a.kwarg) if x is not None}
        stack = scope.body if isinstance(scope.body, list) else [scope.body]
        stack = list(stack)
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in n.names}
        if isinstance(n, _DEFS):
            names.add(n.name)
        elif not isinstance(n, _FUNCTIONS + _COMPREHENSIONS):
            stack.extend(ast.iter_child_nodes(n))
    return names


def _unread() -> set[str]:
    modules = _modules()
    defs = set()      # (module, top-level name)
    methods = {}      # (module, class) -> its public method names
    imports = {}      # (module, bound name) -> (module, name) imported
    for mod, (tree, package) in modules.items():
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs.add((mod, node.name))
            if isinstance(node, ast.ClassDef):
                methods[mod, node.name] = {
                    n.name for n in node.body if isinstance(n, _DEFS)
                    and not n.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = package.rsplit(".", node.level - 1)[0]
                base = f"{base}.{node.module}" if node.module else base
                for a in node.names:
                    imports[mod, a.asname or a.name] = (base, a.name)

    def resolve(mod, name):
        while (mod, name) not in defs:
            if (mod, name) not in imports:
                return None
            mod, name = imports[mod, name]
        return mod, name

    read = set()

    def visit(mod, node, shadowed, owner, cls):
        """owner: the top-level definition that node lies in; cls: the
        class whose methods `self.m` reads."""
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id not in shadowed):
            target = resolve(mod, node.id)
            if target is not None and target != owner:
                read.add(target)
        elif isinstance(node, ast.Attribute):
            value, receiver = node.value, None
            if isinstance(value, ast.Name):
                if value.id in ("self", "cls"):
                    receiver = cls
                elif value.id not in shadowed:
                    receiver = resolve(mod, value.id)
            if receiver in methods:
                read.add((*receiver, node.attr))
            elif receiver is None:
                read.update((*key, node.attr) for key in methods)
        if isinstance(node, ast.ClassDef):
            cls = (mod, node.name)
        elif isinstance(node, _FUNCTIONS + _COMPREHENSIONS):
            shadowed = shadowed | _local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(mod, child, shadowed, owner, cls)

    for mod, (tree, _) in modules.items():
        for node in tree.body:
            owner = (mod, node.name) if isinstance(node, _DEFS) else None
            visit(mod, node, frozenset(), owner, None)

    public = {d for d in defs if not d[1].startswith("_")}
    public |= {(*key, name) for key, names in methods.items()
               if not key[1].startswith("_") for name in names}
    return {".".join(d) for d in public - read}


def test_every_public_definition_has_a_program_reader():
    assert _unread() == NO_PROGRAM_READER


#: defaulted parameters that no call in the package passes, and why they stay
NO_PROGRAM_SETTER = {
    # the paper's printed remainders, which the tests compare the
    # consistent ones against
    "nlparax.remainders.evaluate_remainder(variant)",
    # the console script passes no argv; the tests and the benchmark do
    "nlparax.cli.main(argv)",
}


def _unset_defaults() -> set[str]:
    """Defaulted parameters that no call in the package passes.

    A call `f(...)` or `x.f(...)` matches every function or method named f,
    and a call of a class matches its `__init__`; it sets the parameters it
    names by keyword, the ones its positional arguments reach (after `self`
    for a method), and every one through a `*` or `**` splat.  Dataclass
    fields are out of scope: configs fill them through `**data`."""
    defs: dict[str, list] = {}   # call name -> [(qualified name, args, bound)]
    calls = []

    def visit(node, qual: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qual}.{child.name}", True)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                name = (qual.rpartition(".")[2] if child.name == "__init__"
                        else child.name)
                defs.setdefault(name, []).append(
                    (f"{qual}.{child.name}", child.args, bound))
                visit(child, f"{qual}.{child.name}", False)
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            visit(child, qual, in_class)

    for mod, (tree, _) in _modules().items():
        visit(tree, mod, False)

    unset = set()
    for name, entries in defs.items():
        for qual, a, bound in entries:
            positional = [x.arg for x in (*a.posonlyargs, *a.args)]
            wanted = set(positional[len(positional) - len(a.defaults):]
                         if a.defaults else ())
            wanted |= {x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None}
            for call in calls:
                f = call.func
                if (f.id if isinstance(f, ast.Name)
                        else getattr(f, "attr", None)) != name:
                    continue
                if (any(k.arg is None for k in call.keywords)
                        or any(isinstance(x, ast.Starred) for x in call.args)):
                    wanted = set()
                    break
                wanted -= {k.arg for k in call.keywords}
                wanted -= set(positional[bound:bound + len(call.args)])
            unset |= {f"{qual}({p})" for p in wanted}
    return unset


def test_every_defaulted_parameter_has_a_program_setter():
    assert _unset_defaults() == NO_PROGRAM_SETTER
