"""Project-scope source model: the import graph and a name-resolved
intra-project call graph over every parsed :class:`SourceFile`.

File-local AST rules (``rules.py``) cannot see a ``simnet/`` function
that calls a helper which calls ``time.time()`` two modules away, an
import that inverts the layering, or a public symbol no other file
mentions.  This module builds the shared cross-file
model those analyses need; :mod:`.project_rules` consumes it.

Resolution is **best-effort and never guesses**: a call is resolved
when its target can be named through module-level definitions, import
aliases (absolute and relative), ``self.``/``cls.`` method dispatch
(including one-hop base-class lookup when the base resolves to a
project class), or class-qualified access.  Everything else is recorded
in :attr:`ProjectGraph.unresolved` so a rule can reason about the gap
instead of silently assuming an empty call set.
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import SourceFile

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def dotted_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]`` for pure Name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


@dataclass
class ImportEdge:
    """One project-internal import: *importer* module imports *target*."""

    importer: str
    target: str
    symbol: Optional[str]
    path: str
    lineno: int
    col: int
    toplevel: bool
    type_only: bool  # under `if TYPE_CHECKING:` — no runtime edge


@dataclass
class CallEdge:
    """A resolved intra-project call: *caller* qualname invokes *target*."""

    caller: str
    target: str
    path: str
    lineno: int
    col: int


@dataclass
class FunctionNode:
    """One function or method, addressable by dotted qualname."""

    qualname: str
    name: str
    module: str
    class_name: Optional[str]
    path: str
    lineno: int
    node: ast.AST = field(repr=False)

    @property
    def subsystem(self) -> Optional[str]:
        parts = self.module.split(".")
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return None


@dataclass
class ClassInfo:
    """One class: its method table and base classes."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef = field(repr=False)
    methods: Dict[str, str] = field(default_factory=dict)
    base_chains: List[List[str]] = field(default_factory=list)


@dataclass
class PublicSymbol:
    """A public top-level def/class in a ``repro.*`` module."""

    name: str
    module: str
    path: str
    lineno: int
    kind: str  # "function" | "class"
    decorated: bool
    #: identifier tokens inside the symbol's own subtree (self-references
    #: such as recursion or docstrings never count as external use).
    own_refs: Counter = field(default_factory=Counter)


class ProjectGraph:
    """Everything :class:`~.engine.ProjectRule` analyses share."""

    def __init__(self) -> None:
        self.modules: Dict[str, SourceFile] = {}
        self.packages: Set[str] = set()
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, List[CallEdge]] = {}
        #: caller qualname → dotted text of calls that did not resolve.
        self.unresolved: Dict[str, List[str]] = {}
        self.import_edges: List[ImportEdge] = []
        #: module → local alias → dotted target (import resolution scope).
        self.import_aliases: Dict[str, Dict[str, str]] = {}
        #: module → top-level name → qualname (functions and classes).
        self.module_scope: Dict[str, Dict[str, str]] = {}
        self.public_symbols: List[PublicSymbol] = []
        #: identifier tokens across all project + consumer sources.
        self.reference_counts: Counter = Counter()
        #: paths parsed as consumers (tests/benchmarks/... — references
        #: only, no findings).
        self.consumer_paths: List[str] = []

    # -- lookups -----------------------------------------------------------

    def function(self, qualname: str) -> Optional[FunctionNode]:
        return self.functions.get(qualname)

    def calls_from(self, qualname: str) -> List[CallEdge]:
        return self.calls.get(qualname, [])

    def source_for_path(self, path: str) -> Optional[SourceFile]:
        for src in self.modules.values():
            if src.path == path:
                return src
        return None

    def resolve_method(
        self, class_qualname: str, method: str, _depth: int = 0
    ) -> Optional[str]:
        """``Class.method`` through the class and (resolvable) bases."""
        info = self.classes.get(class_qualname)
        if info is None or _depth > 8:
            return None
        if method in info.methods:
            return info.methods[method]
        for chain in info.base_chains:
            base = self._resolve_scope_chain(info.module, chain)
            if base in self.classes:
                found = self.resolve_method(base, method, _depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_scope_chain(
        self, module: str, chain: Sequence[str]
    ) -> Optional[str]:
        """A dotted name used inside *module* → project qualname."""
        scope = self.module_scope.get(module, {})
        aliases = self.import_aliases.get(module, {})
        root = chain[0]
        if root in scope:
            dotted = ".".join([scope[root]] + list(chain[1:]))
        elif root in aliases:
            dotted = ".".join([aliases[root]] + list(chain[1:]))
        else:
            return None
        return self._normalize_qualname(dotted)

    def _normalize_qualname(self, dotted: str) -> Optional[str]:
        """Map a dotted path to a known function/class/module qualname,
        collapsing re-export hops (``repro.simnet.timeline.iter_days``
        imported as ``repro.simnet.iter_days``)."""
        if dotted in self.functions or dotted in self.classes:
            return dotted
        if dotted in self.modules or dotted in self.packages:
            return dotted
        # one re-export hop through a package __init__
        head, _, tail = dotted.rpartition(".")
        package_aliases = self.import_aliases.get(head)
        if package_aliases and tail in package_aliases:
            target = package_aliases[tail]
            if target != dotted:
                return self._normalize_qualname(target)
        return None

    # -- call resolution ---------------------------------------------------

    def resolve_call_chain(
        self, module: str, class_qualname: Optional[str], chain: List[str]
    ) -> Optional[str]:
        """The qualname a call chain targets, or None when unresolvable.

        Handles ``self.m()``/``cls.m()`` (method dispatch through bases),
        module-scope functions and classes (a class resolves to its
        ``__init__`` when defined), imported functions and modules, and
        class-qualified methods.
        """
        if chain[0] in ("self", "cls") and class_qualname is not None:
            if len(chain) == 2:
                return self.resolve_method(class_qualname, chain[1])
            return None
        target = self._resolve_scope_chain(module, chain)
        if target is None:
            return None
        if target in self.functions:
            return target
        if target in self.classes:
            init = self.classes[target].methods.get("__init__")
            return init if init is not None else target
        return None


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _walk_toplevel(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, bool, bool]]:
    """Yield ``(node, toplevel, type_only)`` for every node, where
    *toplevel* means outside any function/lambda body and *type_only*
    means under an ``if TYPE_CHECKING:`` guard."""
    stack: List[Tuple[ast.AST, bool, bool]] = [(tree, True, False)]
    while stack:
        node, toplevel, type_only = stack.pop()
        yield node, toplevel, type_only
        child_toplevel = toplevel and not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        child_type_only = type_only
        if isinstance(node, ast.If):
            test_chain = dotted_chain(node.test)
            if test_chain and test_chain[-1] == "TYPE_CHECKING":
                child_type_only = True
        for child in ast.iter_child_nodes(node):
            stack.append((child, child_toplevel, child_type_only))


def _module_imports(
    src: SourceFile,
) -> Tuple[Dict[str, str], List[Tuple[str, Optional[str], ast.AST, bool, bool]]]:
    """(alias map, [(target_module_or_symbol, symbol, node, toplevel,
    type_only)]) for every import in *src*.  Relative imports resolve
    against the file's own dotted module."""
    aliases: Dict[str, str] = {}
    raw: List[Tuple[str, Optional[str], ast.AST, bool, bool]] = []
    parts = list(src.module_parts)
    is_package = src.path.endswith("__init__.py")
    for node, toplevel, type_only in _walk_toplevel(src.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases.setdefault(
                        alias.name.split(".")[0], alias.name.split(".")[0]
                    )
                raw.append((alias.name, None, node, toplevel, type_only))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = parts if is_package else parts[:-1]
                hops = node.level - 1
                base = base[: len(base) - hops] if hops else base
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            if not prefix:
                continue
            for alias in node.names:
                if alias.name == "*":
                    raw.append((prefix, "*", node, toplevel, type_only))
                    continue
                dotted = f"{prefix}.{alias.name}"
                aliases[alias.asname or alias.name] = dotted
                raw.append((prefix, alias.name, node, toplevel, type_only))
    return aliases, raw


def _identifier_tokens(tree: ast.AST) -> Iterator[str]:
    """Every identifier a file could be referring to something by: names,
    attribute accesses, import targets, keyword-argument names, and the
    identifier-shaped tokens of short string constants (``__all__``
    entries, ``"pkg.mod:func"`` entry points, ``getattr`` names)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            if module:
                yield from module.split(".")
            for alias in node.names:
                yield from alias.name.split(".")
                if alias.asname:
                    yield alias.asname
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and len(node.value) <= 400):
            yield from _IDENT_RE.findall(node.value)


def _collect_definitions(graph: ProjectGraph, src: SourceFile) -> None:
    module = src.module
    scope: Dict[str, str] = {}
    graph.module_scope[module] = scope

    def visit(node: ast.AST, qual_stack: List[str], class_qual: Optional[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join([module] + qual_stack + [child.name])
                graph.functions[qualname] = FunctionNode(
                    qualname=qualname, name=child.name, module=module,
                    class_name=qual_stack[-1] if class_qual else None,
                    path=src.path, lineno=child.lineno, node=child,
                )
                if not qual_stack:
                    scope[child.name] = qualname
                if class_qual is not None:
                    graph.classes[class_qual].methods[child.name] = qualname
                visit(child, qual_stack + [child.name], None)
            elif isinstance(child, ast.ClassDef):
                qualname = ".".join([module] + qual_stack + [child.name])
                info = ClassInfo(
                    qualname=qualname, name=child.name, module=module,
                    node=child,
                )
                for base in child.bases:
                    chain = dotted_chain(base)
                    if chain:
                        info.base_chains.append(chain)
                graph.classes[qualname] = info
                if not qual_stack:
                    scope[child.name] = qualname
                visit(child, qual_stack + [child.name], qualname)

    visit(src.tree, [], None)


def _collect_calls(graph: ProjectGraph, src: SourceFile) -> None:
    module = src.module
    for qualname, fn in graph.functions.items():
        if fn.module != module or fn.path != src.path:
            continue
        class_qual = None
        if fn.class_name is not None:
            class_qual = qualname.rsplit(".", 2)[0] + "." + fn.class_name
            if class_qual not in graph.classes:
                class_qual = None
        edges: List[CallEdge] = []
        unresolved: List[str] = []
        stack = list(ast.iter_child_nodes(fn.node))
        while stack:
            node = stack.pop()
            if isinstance(node, _SCOPE_NODES):
                continue  # nested defs own their calls
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None:
                continue
            target = graph.resolve_call_chain(module, class_qual, chain)
            if target is not None and (
                target in graph.functions or target in graph.classes
            ):
                edges.append(CallEdge(
                    caller=qualname, target=target, path=src.path,
                    lineno=node.lineno, col=node.col_offset,
                ))
            else:
                aliases = graph.import_aliases.get(module, {})
                root = aliases.get(chain[0])
                dotted = ".".join(
                    (root.split(".") if root else [chain[0]]) + chain[1:]
                )
                unresolved.append(dotted)
        if edges:
            graph.calls[qualname] = edges
        if unresolved:
            graph.unresolved[qualname] = unresolved


def _collect_public_symbols(graph: ProjectGraph, src: SourceFile) -> None:
    if not src.module.startswith("repro") or src.path.endswith("__init__.py"):
        return
    for stmt in src.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("_"):
            continue
        graph.public_symbols.append(PublicSymbol(
            name=stmt.name, module=src.module, path=src.path,
            lineno=stmt.lineno,
            kind="class" if isinstance(stmt, ast.ClassDef) else "function",
            decorated=bool(stmt.decorator_list),
            own_refs=Counter(_identifier_tokens(stmt)),
        ))


def build_project(
    sources: Sequence[SourceFile],
    consumers: Sequence[SourceFile] = (),
    extra_reference_texts: Sequence[str] = (),
) -> ProjectGraph:
    """Build the :class:`ProjectGraph` for *sources*.

    *consumers* are parsed-but-not-linted files (tests, benchmarks,
    examples, setup.py) whose references count for reachability analyses
    like DEAD01 but which never produce findings themselves.
    *extra_reference_texts* are raw non-python texts (pyproject.toml)
    whose identifier tokens likewise count as references — console
    entry points keep ``*_main`` functions alive.
    """
    graph = ProjectGraph()
    for src in sources:
        if src.module:
            graph.modules[src.module] = src
            parts = src.module.split(".")
            for depth in range(1, len(parts)):
                graph.packages.add(".".join(parts[:depth]))

    for src in sources:
        _collect_definitions(graph, src)

    for src in sources:
        module = src.module
        aliases, raw = _module_imports(src)
        graph.import_aliases[module] = aliases
        for prefix, symbol, node, toplevel, type_only in raw:
            if symbol is None or symbol == "*":
                target, edge_symbol = prefix, None if symbol is None else "*"
            elif f"{prefix}.{symbol}" in graph.modules or (
                symbol != "*" and _looks_like_module(graph, prefix, symbol)
            ):
                target, edge_symbol = f"{prefix}.{symbol}", None
            else:
                target, edge_symbol = prefix, symbol
            if not target.split(".")[0] == "repro":
                continue
            graph.import_edges.append(ImportEdge(
                importer=module, target=target, symbol=edge_symbol,
                path=src.path, lineno=node.lineno, col=node.col_offset,
                toplevel=toplevel, type_only=type_only,
            ))

    for src in sources:
        _collect_calls(graph, src)
        _collect_public_symbols(graph, src)
        graph.reference_counts.update(_identifier_tokens(src.tree))
    for src in consumers:
        graph.consumer_paths.append(src.path)
        graph.reference_counts.update(_identifier_tokens(src.tree))
    for text in extra_reference_texts:
        graph.reference_counts.update(_IDENT_RE.findall(text))
    return graph


def _looks_like_module(graph: ProjectGraph, prefix: str, symbol: str) -> bool:
    """``from repro.simnet import timeline`` imports a *module* even when
    that module is outside the linted set — recognise it by the package
    being known while the symbol is no known definition of it."""
    dotted = f"{prefix}.{symbol}"
    if dotted in graph.packages:
        return True
    if prefix in graph.modules:
        scope = graph.module_scope.get(prefix, {})
        aliases = graph.import_aliases.get(prefix, {})
        return symbol not in scope and symbol not in aliases and (
            dotted in graph.modules
        )
    return False

