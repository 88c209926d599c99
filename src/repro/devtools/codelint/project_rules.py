"""Project-scope rules: analyses no single file can support.

Each rule here consumes the :class:`~.graph.ProjectGraph` built after
the per-file walk — the import graph and the name-resolved call graph —
and reports findings anchored to real (path, line) positions so
suppressions and the baseline apply unchanged.

The catalogue (see README.md for the incident history):

* ``DET02`` — transitive determinism: a restricted-subsystem function
  calls a helper *outside* the restricted tree that transitively
  reaches ambient randomness or the wall clock.
* ``LAYER01`` — import layering and devtools isolation; import cycles.
* ``DEAD01`` — public symbols nothing references.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import (
    DETERMINISM_MODULE,
    RESTRICTED_SUBSYSTEMS,
    ProjectRule,
    register,
)
from .findings import Finding, Severity
from .graph import FunctionNode, ProjectGraph, dotted_chain
from .rules import _BANNED_CALLS, _BANNED_MODULES

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _subsystem(module: str) -> Optional[str]:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return None


def _restricted(module: str) -> bool:
    return (
        _subsystem(module) in RESTRICTED_SUBSYSTEMS
        and module != DETERMINISM_MODULE
    )


def _short(qualname: str) -> str:
    return qualname[len("repro."):] if qualname.startswith("repro.") else qualname


# ---------------------------------------------------------------------------
# DET02 — transitive determinism across module boundaries
# ---------------------------------------------------------------------------


def _direct_banned_call(
    graph: ProjectGraph, fn: FunctionNode
) -> Optional[Tuple[str, int]]:
    """The first ambient randomness / wall-clock call *directly* inside
    *fn*, resolved through the module's import aliases."""
    aliases = graph.import_aliases.get(fn.module, {})
    stack = list(ast.iter_child_nodes(fn.node))
    hits: List[Tuple[int, str]] = []
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        chain = dotted_chain(node.func)
        if chain is None:
            continue
        resolved = aliases.get(chain[0], chain[0]).split(".") + chain[1:]
        dotted = ".".join(resolved)
        if resolved[0] in _BANNED_MODULES or dotted in _BANNED_CALLS:
            hits.append((node.lineno, dotted))
    if not hits:
        return None
    lineno, dotted = min(hits)
    return dotted, lineno


@register
class TransitiveDeterminismRule(ProjectRule):
    code = "DET02"
    name = "transitive nondeterminism reachable from restricted subsystems"
    severity = Severity.ERROR
    rationale = (
        "DET01 catches random/time/uuid used *inside* dnscore/resolver/"
        "scanner/simnet/zones, but a restricted function calling a helper "
        "one module over that calls time.time() two calls deep corrupts "
        "dataset identity just as silently. The call graph closes the "
        "loophole: any restricted function whose transitive callees reach "
        "ambient entropy outside simnet/determinism.py is reported with "
        "the full chain."
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        banned: Dict[str, Tuple[str, int]] = {}
        for qualname, fn in project.functions.items():
            if fn.module == DETERMINISM_MODULE:
                continue
            hit = _direct_banned_call(project, fn)
            if hit is not None:
                banned[qualname] = hit

        chains: Dict[str, Optional[Tuple[str, ...]]] = {}

        def chain_to_banned(qualname: str) -> Optional[Tuple[str, ...]]:
            if qualname in chains:
                return chains[qualname]
            chains[qualname] = None  # cycle guard: in-progress means no
            fn = project.functions.get(qualname)
            if fn is None or fn.module == DETERMINISM_MODULE:
                return None
            if qualname in banned:
                chains[qualname] = (qualname,)
                return chains[qualname]
            best: Optional[Tuple[str, ...]] = None
            for edge in project.calls_from(qualname):
                tail = chain_to_banned(edge.target)
                if tail is not None and (best is None or len(tail) < len(best)):
                    best = tail
            if best is not None:
                chains[qualname] = (qualname,) + best
            return chains[qualname]

        seen: Set[Tuple[str, str]] = set()
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            if not _restricted(fn.module) or qualname in banned:
                continue
            for edge in sorted(
                project.calls_from(qualname), key=lambda e: (e.lineno, e.target)
            ):
                callee = project.functions.get(edge.target)
                if callee is None or _restricted(callee.module):
                    continue  # restricted callees answer for themselves
                if callee.module == DETERMINISM_MODULE:
                    continue
                tail = chain_to_banned(edge.target)
                if tail is None or (qualname, edge.target) in seen:
                    continue
                seen.add((qualname, edge.target))
                sink, _ = banned[tail[-1]]
                path = " -> ".join(_short(q) for q in (qualname,) + tail)
                yield self.project_finding(
                    edge.path, edge.lineno, edge.col,
                    f"{_short(qualname)} transitively reaches {sink}() "
                    f"outside the restricted tree: {path} -> {sink}(); "
                    "route entropy/clock reads through simnet/determinism.py",
                )


# ---------------------------------------------------------------------------
# LAYER01 — import layering, devtools isolation, cycles
# ---------------------------------------------------------------------------

#: The dependency order, lowest first.  A module may import same-or-
#: lower layers only.  This is the codebase's real topology: World
#: (simnet) is the composition root that wires resolver stacks
#: together, scanner drives worlds, study/cli drive scanner.
_LAYERS = {
    "dnscore": 0,
    "zones": 1,
    "dnssec": 1,
    "resolver": 2,
    "simnet": 3,
    "scanner": 4,
    "study": 5,
    "cli": 5,
}

_ORDER_TEXT = "dnscore -> zones/dnssec -> resolver -> simnet -> scanner -> study/cli"


@register
class ImportLayeringRule(ProjectRule):
    code = "LAYER01"
    name = "import layering, devtools isolation, and import cycles"
    severity = Severity.ERROR
    rationale = (
        "The subsystems form a strict stack (" + _ORDER_TEXT + "): wire "
        "format below zone data below resolution below the simulated "
        "world below campaign drivers. An upward import (dnscore reaching "
        "into scanner) or a cycle makes the layers untestable in "
        "isolation and is how deprecation shims rot into load-bearing "
        "dependencies. devtools must import nothing from the product "
        "tree so the linter can never deadlock on the code it lints."
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        seen: Set[Tuple[str, str, str]] = set()
        for edge in sorted(
            project.import_edges,
            key=lambda e: (e.path, e.lineno, e.target),
        ):
            importer_sub = _subsystem(edge.importer)
            target_sub = _subsystem(edge.target)
            if edge.importer == edge.target:
                continue
            if importer_sub == "devtools" and target_sub != "devtools":
                key = (edge.importer, edge.target, "devtools")
                if key not in seen:
                    seen.add(key)
                    yield self.project_finding(
                        edge.path, edge.lineno, edge.col,
                        f"devtools module {edge.importer} imports "
                        f"{edge.target} from the product tree; devtools "
                        "must stay import-isolated from the code it lints",
                    )
                continue
            if (
                importer_sub in _LAYERS
                and target_sub in _LAYERS
                and _LAYERS[importer_sub] < _LAYERS[target_sub]
            ):
                key = (edge.importer, edge.target, "order")
                if key not in seen:
                    seen.add(key)
                    yield self.project_finding(
                        edge.path, edge.lineno, edge.col,
                        f"layering violation: {edge.importer} (layer "
                        f"'{importer_sub}') imports {edge.target} (layer "
                        f"'{target_sub}'); the dependency order is "
                        + _ORDER_TEXT,
                    )
        yield from self._cycles(project)

    def _cycles(self, project: ProjectGraph) -> Iterator[Finding]:
        edges: Dict[str, Set[str]] = {}
        anchors: Dict[Tuple[str, str], Tuple[str, int, int]] = {}
        for edge in project.import_edges:
            if not edge.toplevel or edge.type_only:
                continue
            target = edge.target
            if target not in project.modules:
                continue
            if edge.importer == target or edge.importer not in project.modules:
                continue
            edges.setdefault(edge.importer, set()).add(target)
            anchors.setdefault(
                (edge.importer, target), (edge.path, edge.lineno, edge.col)
            )
        for component in _strongly_connected(edges):
            if len(component) < 2:
                continue
            members = set(component)
            for importer in sorted(members):
                for target in sorted(edges.get(importer, ())):
                    if target not in members:
                        continue
                    path, lineno, col = anchors[(importer, target)]
                    cycle = _cycle_path(edges, members, importer, target)
                    yield self.project_finding(
                        path, lineno, col,
                        f"import cycle: {importer} -> {target} "
                        f"(cycle: {' -> '.join(cycle)})",
                    )


def _strongly_connected(edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan, iteratively (the module graph is small but recursion
    depth should not depend on it)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]
    nodes = sorted(set(edges) | {t for ts in edges.values() for t in ts})

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, List[str], int]] = [
            (root, sorted(edges.get(root, ())), 0)
        ]
        while work:
            node, succs, position = work[-1]
            if position == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for offset in range(position, len(succs)):
                succ = succs[offset]
                if succ not in index:
                    work[-1] = (node, succs, offset + 1)
                    work.append((succ, sorted(edges.get(succ, ())), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    popped = stack.pop()
                    on_stack.discard(popped)
                    component.append(popped)
                    if popped == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def _cycle_path(
    edges: Dict[str, Set[str]], members: Set[str], importer: str, target: str
) -> List[str]:
    """A representative cycle through the edge importer→target: BFS a
    path target→importer within the component."""
    parents: Dict[str, Optional[str]] = {target: None}
    queue = [target]
    while queue:
        node = queue.pop(0)
        if node == importer:
            break
        for succ in sorted(edges.get(node, ())):
            if succ in members and succ not in parents:
                parents[succ] = node
                queue.append(succ)
    if importer not in parents:
        return [importer, target, importer]
    walked = [importer]
    node = importer
    while parents[node] is not None:
        node = parents[node]  # type: ignore[assignment]
        walked.append(node)
    # walked is importer..target along reversed BFS parents; the cycle is
    # importer -> target -> ... -> importer.
    return [importer] + list(reversed(walked))


# ---------------------------------------------------------------------------
# DEAD01 — unreachable public symbols
# ---------------------------------------------------------------------------

#: DEAD01 only judges full project trees: the CLI entry module must be
#: in the linted set, else (narrow path arguments, fixture subsets) the
#: rule stays silent rather than calling everything dead.
_ENTRY_MODULE = "repro.cli"


@register
class DeadPublicSymbolRule(ProjectRule):
    code = "DEAD01"
    name = "public symbol referenced nowhere"
    severity = Severity.WARNING
    rationale = (
        "A public function nothing reaches — not the CLI entry points, "
        "not tests, not __init__ exports, not registered rules — is "
        "untested code that drifts: a deprecated campaign shim once "
        "survived only because a test pinned its cache keys. Reference "
        "counting is conservative (any name/attribute/string-token "
        "mention anywhere in src, tests, benchmarks, examples, setup.py "
        "or pyproject.toml keeps a symbol alive; decorated defs are "
        "always alive), so a DEAD01 hit is a symbol the repository "
        "genuinely never mentions again: delete it."
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        if _ENTRY_MODULE not in project.modules:
            return
        for symbol in sorted(
            project.public_symbols, key=lambda s: (s.path, s.lineno)
        ):
            if symbol.decorated:
                continue
            external = (
                project.reference_counts[symbol.name]
                - symbol.own_refs[symbol.name]
            )
            if external > 0:
                continue
            yield self.project_finding(
                symbol.path, symbol.lineno, 0,
                f"public {symbol.kind} '{symbol.name}' in {symbol.module} "
                "is referenced nowhere (CLI entry points, tests, __init__ "
                "exports, registered rules, benchmarks, examples all "
                "checked); delete it or mark it private",
            )
