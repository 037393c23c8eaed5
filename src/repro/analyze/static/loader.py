"""Module loader and symbol table for the static PGAS analyzer.

A :class:`Project` holds every parsed module under one root, plus a
symbol table of all functions (including nested closures and methods)
keyed by their dotted names, and an import map per module so calls like
``collectives.exchange(...)`` or ``shared_memory_group(upc)`` resolve to
the :class:`FunctionInfo` that defines them.

Paths are recorded tree-relative in posix form (``repro/upc/forall.py``)
so reports and the committed baseline are independent of where the
checkout lives.  Files that fail to parse become modules with
``tree is None``; the driver turns those into PGAS000 findings.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FunctionInfo", "ModuleInfo", "Project",
    "load_tree", "load_sources", "walk_own", "own_parents",
]

#: Parameter names that mark a function as SPMD code: the body runs once
#: per UPC thread (or MPI rank) against that thread's context object.
#: Nested functions inherit the property from their enclosing scope.
SPMD_PARAMS = ("upc", "rank")

#: Scopes the analyzer does not descend into when walking a function's
#: *own* code (each nested function is analyzed separately).
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def own_parents(func_node: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) -> parent`` map over one scope (nested defs opaque)."""
    parents: Dict[int, ast.AST] = {}
    stack = [func_node]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
            if not isinstance(child, _NESTED_SCOPES):
                stack.append(child)
    return parents


def walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that stays inside one scope (skips nested defs)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _NESTED_SCOPES):
            stack.extend(ast.iter_child_nodes(child))


class FunctionInfo:
    """One function (or method, or closure) in the symbol table."""

    def __init__(self, name: str, qualname: str, node: ast.AST,
                 module: "ModuleInfo", parent: Optional["FunctionInfo"]):
        self.name = name
        self.qualname = qualname          #: dotted path inside the module
        self.node = node
        self.module = module
        self.parent = parent
        self.children: Dict[str, "FunctionInfo"] = {}

    @property
    def full_name(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    @property
    def params(self) -> Tuple[str, ...]:
        a = self.node.args
        return tuple(p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs))

    @property
    def is_spmd(self) -> bool:
        """True when the body executes per-thread (or is nested in one)."""
        if any(p in SPMD_PARAMS for p in self.params):
            return True
        return self.parent.is_spmd if self.parent is not None else False

    def local_names(self) -> set:
        """Names bound inside this function's own scope (params included)."""
        bound = set(self.params)
        for node in walk_own(self.node):
            bound.update(_bound_names(node))
        return bound

    def free_names(self) -> set:
        """Names read but never bound here: closure captures + globals."""
        bound = self.local_names()
        return {
            n.id for n in walk_own(self.node)
            if isinstance(n, ast.Name) and n.id not in bound
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.full_name}>"


def _bound_names(node: ast.AST) -> Iterator[str]:
    """Names a single statement binds (assignment targets, defs, etc.)."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for t in targets:
            for sub in ast.walk(t):
                if isinstance(sub, ast.Name):
                    yield sub.id
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        for sub in ast.walk(node.target):
            if isinstance(sub, ast.Name):
                yield sub.id
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            if item.optional_vars is not None:
                for sub in ast.walk(item.optional_vars):
                    if isinstance(sub, ast.Name):
                        yield sub.id
    elif isinstance(node, ast.NamedExpr):
        yield node.target.id
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.ExceptHandler) and node.name:
        yield node.name
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0]


class ModuleInfo:
    """One parsed source file: AST, functions, imports, raw lines."""

    def __init__(self, name: str, path: str, source: str):
        self.name = name                  #: dotted module name
        self.path = path                  #: tree-relative posix path
        self.source = source
        self.lines = source.splitlines()
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.tree = None
            self.syntax_error = exc
        self.functions: List[FunctionInfo] = []
        self.imports: Dict[str, str] = {}  #: local name -> dotted origin
        if self.tree is not None:
            self._collect_functions(self.tree, parent=None, prefix="")
            self._collect_imports()

    # -- construction ----------------------------------------------------

    def _collect_functions(self, scope: ast.AST, parent: Optional[FunctionInfo],
                           prefix: str) -> None:
        # walk the whole scope (defs hide inside if/loop/try bodies too),
        # stopping at nested scopes, which recurse with themselves as parent
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                info = FunctionInfo(node.name, qualname, node, self, parent)
                self.functions.append(info)
                if parent is not None:
                    parent.children[node.name] = info
                self._collect_functions(node, info, f"{qualname}.")
            elif isinstance(node, ast.ClassDef):
                # methods: parentless (class attrs are not a call scope)
                self._collect_functions(node, None, f"{prefix}{node.name}.")
            elif not isinstance(node, ast.Lambda):
                stack.extend(ast.iter_child_nodes(node))

    def _collect_imports(self) -> None:
        package = self.name.rsplit(".", 1)[0] if "." in self.name else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = self.name.split(".")
                    parts = parts[: len(parts) - node.level]
                    base = ".".join(parts + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = \
                        f"{base}.{alias.name}" if base else alias.name

    # -- queries ---------------------------------------------------------

    def top_level(self, name: str) -> Optional[FunctionInfo]:
        for fn in self.functions:
            if fn.parent is None and fn.qualname == name:
                return fn
        return None

    def function_at(self, line: int) -> str:
        """Dotted name of the innermost function containing ``line``."""
        best = ""
        best_span = None
        for fn in self.functions:
            lo, hi = fn.node.lineno, fn.node.end_lineno or fn.node.lineno
            if lo <= line <= hi:
                span = hi - lo
                if best_span is None or span <= best_span:
                    best, best_span = fn.qualname, span
        return best


class Project:
    """All modules under one root, plus cross-module call resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = sorted(modules, key=lambda m: m.path)
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in self.modules}

    @property
    def functions(self) -> Iterator[FunctionInfo]:
        for module in self.modules:
            yield from module.functions

    def _lookup_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """``pkg.mod.fn`` -> FunctionInfo, or None."""
        if "." not in dotted:
            return None
        mod_name, _, fn_name = dotted.rpartition(".")
        module = self.by_name.get(mod_name)
        return module.top_level(fn_name) if module else None

    def resolve_call(self, func_expr: ast.expr,
                     scope: Optional[FunctionInfo]) -> Optional[FunctionInfo]:
        """Resolve a call's ``func`` expression to a project function.

        Handles: sibling/enclosing closures, same-module top-level
        functions, ``from x import f`` names and ``mod.f`` attribute
        calls through an imported module.  Returns None for anything
        dynamic (methods on objects, builtins, unresolved imports).
        """
        if isinstance(func_expr, ast.Name):
            name = func_expr.id
            walk = scope
            while walk is not None:
                if name in walk.children:
                    return walk.children[name]
                walk = walk.parent
            module = scope.module if scope else None
            if module is not None:
                top = module.top_level(name)
                if top is not None:
                    return top
                origin = module.imports.get(name)
                if origin:
                    return self._lookup_dotted(origin)
        elif isinstance(func_expr, ast.Attribute) and \
                isinstance(func_expr.value, ast.Name):
            module = scope.module if scope else None
            if module is not None:
                origin = module.imports.get(func_expr.value.id)
                if origin and origin in self.by_name:
                    return self.by_name[origin].top_level(func_expr.attr)
        return None


def load_tree(root: Path) -> Project:
    """Parse every ``*.py`` under ``root`` (a package directory).

    Module names and display paths are rooted at ``root.name``, so
    loading ``src/repro`` yields modules named ``repro.upc.forall`` at
    paths like ``repro/upc/forall.py``.
    """
    root = Path(root)
    modules = []
    for file in sorted(root.rglob("*.py")):
        rel = file.relative_to(root)
        parts = (root.name, *rel.parts[:-1])
        stem = rel.stem
        name = ".".join(parts if stem == "__init__" else (*parts, stem))
        display = (Path(root.name) / rel).as_posix()
        modules.append(ModuleInfo(name, display,
                                  file.read_text(encoding="utf-8")))
    return Project(modules)


def load_sources(sources: Iterable[Tuple[str, str]]) -> Project:
    """Build a project from ``(source, path)`` pairs (tests, file lists)."""
    modules = []
    for source, path in sources:
        posix = Path(path).as_posix()
        name = Path(path).stem
        modules.append(ModuleInfo(name, posix, source))
    return Project(modules)
