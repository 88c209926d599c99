"""The project-specific invariant rules.

Every rule here guards an invariant this reproduction has already been
burned by (see README.md in this directory for the incident history):

* ``DET01`` — determinism: no ambient randomness, wall-clock or
  environment reads in the world-model subsystems; stochastic behaviour
  is a pure function of the world seed via ``simnet/determinism.py``.
* ``HASH01``/``HASH02`` — hash/pickle stability: the interpreter's
  str-hash seed must never reach pickled state or persisted identity
  (the PR 4 ``Name.__hash__`` cache bug).
* ``ORD01``/``ORD02`` — ordering: unordered iteration must not leak
  into rows, exports, or cache-tag material.
* ``TAG01`` — cache-tag completeness: every ``StudySpec`` field is
  accounted for by the canonical cache tag or explicitly exempted.
* ``GC01`` — GC pauses only through ``repro/gcutils.py``.
* ``FSTR01`` — no placeholder-less f-strings (the zone linter's own
  ``ipv6hint-mismatch`` message bug).
* ``NAME01`` — the unchecked ``Name._unchecked`` constructor stays
  inside ``repro.dnscore``, where every caller has already enforced the
  label and name length limits it skips; so does building a ``Name``
  through ``Name.__new__`` or ``object.__new__(Name)``, which bypasses
  the intern table.
* ``INV01`` — paired invalidation: any scope that clears a
  ``_zone_cache`` must also re-scope or invalidate the layered answer
  cache — or carry a justified ``# codelint: disable=INV01`` proving the
  cache's zone-owned slots stamped with ``cache_stamp()``, per-entry
  guards and fault scope already cover everything the flush changes
  (the ``World.set_time`` day flush and the ``World.reset`` flush are
  the two such suppressions).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import GCUTILS_MODULE, Rule, SourceFile, register
from .findings import Finding, Severity

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _import_map(tree: ast.AST) -> Dict[str, str]:
    """Local name → dotted origin for every import in the file."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never reach stdlib sources
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def _dotted_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a","b","c"]`` for pure Name-rooted chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _resolve_call(node: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    """The fully-qualified dotted target of a call, import aliases
    substituted (``from datetime import date; date.today()`` →
    ``datetime.date.today``)."""
    chain = _dotted_chain(node.func)
    if chain is None:
        return None
    root = imports.get(chain[0])
    if root is not None:
        chain = root.split(".") + chain[1:]
    return ".".join(chain)


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_skipping_scopes(nodes: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """Yield every node under *nodes* without descending into nested
    function/class bodies (they get their own scope analysis; the scope
    node itself is still yielded so callers can recurse)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# DET01 — determinism
# ---------------------------------------------------------------------------

_BANNED_MODULES = ("random", "secrets", "uuid")
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "os.urandom": "OS entropy",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.getenv": "environment read",
    "os.environ.get": "environment read",
}


@register
class NondeterministicSourceRule(Rule):
    code = "DET01"
    name = "nondeterministic-source"
    severity = Severity.ERROR
    rationale = (
        "simnet/, resolver/, scanner/, zones/, and dnscore/ must be pure "
        "functions of (world seed, sim clock): ambient randomness or "
        "wall-clock reads fork the dataset between runs, and an "
        "environment read lets a stray variable change which dataset a "
        "spec names. Route stochastic behaviour through "
        "simnet/determinism.py, time through the SimClock, and every "
        "input through SimConfig."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if not src.determinism_restricted:
            return
        imports = _import_map(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve_call(node, imports)
            if dotted is None:
                continue
            root = dotted.split(".")[0]
            if root in _BANNED_MODULES:
                yield self.finding(
                    src, node,
                    f"{dotted}() is seeded ambient randomness; derive it "
                    "from the world seed via simnet/determinism.py",
                )
            elif dotted in _BANNED_CALLS:
                yield self.finding(
                    src, node,
                    f"{dotted}() is a banned {_BANNED_CALLS[dotted]}; simulation "
                    "time must come from the SimClock / timeline and every "
                    "other input from SimConfig",
                )


# ---------------------------------------------------------------------------
# HASH01 — cached __hash__ state crossing a pickle boundary
# ---------------------------------------------------------------------------


def _self_attr_stores(func: ast.FunctionDef) -> Set[str]:
    """Attribute names assigned on ``self`` anywhere in *func*
    (including ``object.__setattr__(self, "name", ...)``)."""
    stores: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    stores.add(target.attr)
        elif isinstance(node, ast.Call):
            chain = _dotted_chain(node.func)
            if (chain and chain[-1] == "__setattr__" and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)):
                stores.add(node.args[1].value)
    return stores


def _references_attr(func: ast.FunctionDef, attr: str) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            return True
        if isinstance(node, ast.Constant) and node.value == attr:
            return True
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            return True
    return False


@register
class PickledCachedHashRule(Rule):
    code = "HASH01"
    name = "pickled-cached-hash"
    severity = Severity.ERROR
    rationale = (
        "a class that caches hash()-derived state on self inside "
        "__hash__ bakes the interpreter's str-hash seed into the "
        "instance; if that attribute crosses a pickle boundary (world "
        "snapshots, checkpoints), every dict lookup in the loading "
        "interpreter silently misses — the PR 4 Name bug."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            hash_method = methods.get("__hash__")
            if hash_method is None:
                continue
            cached = sorted(_self_attr_stores(hash_method))
            if not cached:
                continue
            pickle_hooks = [
                name for name in ("__getstate__", "__reduce__", "__reduce_ex__")
                if name in methods
            ]
            if not pickle_hooks:
                yield self.finding(
                    src, hash_method,
                    f"class {node.name} caches hash state in "
                    f"self.{'/self.'.join(cached)} inside __hash__ but has no "
                    "__getstate__/__reduce__; default pickling ships the "
                    "interpreter-specific hash (add a __getstate__ that "
                    "drops the cache)",
                )
                continue
            hook = methods[pickle_hooks[0]]
            leaking = [attr for attr in cached if _references_attr(hook, attr)]
            if leaking:
                yield self.finding(
                    src, hook,
                    f"class {node.name} caches hash state in "
                    f"self.{'/self.'.join(leaking)} and its "
                    f"{pickle_hooks[0]} still ships it across the pickle "
                    "boundary",
                )


# ---------------------------------------------------------------------------
# HASH02 — builtin hash() feeding persisted identity
# ---------------------------------------------------------------------------


@register
class UnstableBuiltinHashRule(Rule):
    code = "HASH02"
    name = "unstable-builtin-hash"
    severity = Severity.WARNING
    rationale = (
        "hash() of str/bytes changes with PYTHONHASHSEED, so any value "
        "derived from it (cache tags, shard assignment, file names) "
        "silently differs between interpreters — the PR 1 unstable "
        "cache-tag bug class. Outside __hash__, use "
        "simnet/determinism.digest for stable identity."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        yield from self._scan(src, src.tree, in_hash=False)

    def _scan(self, src, node, in_hash) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_in_hash = in_hash
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_in_hash = child.name == "__hash__"
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "hash"
                    and not in_hash):
                yield self.finding(
                    src, child,
                    "builtin hash() outside __hash__ is PYTHONHASHSEED-"
                    "dependent; use simnet/determinism.digest (or hashlib) "
                    "for any value that is persisted or compared across "
                    "processes",
                )
            yield from self._scan(src, child, child_in_hash)


# ---------------------------------------------------------------------------
# ORD01 / ORD02 — ordering leaks
# ---------------------------------------------------------------------------

_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.AST, set_vars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_vars
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return (_is_set_expr(node.left, set_vars)
                and _is_set_expr(node.right, set_vars))
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS):
            return _is_set_expr(node.func.value, set_vars)
    return False


def _assigned_names(target: ast.AST) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _scope_set_vars(body: Sequence[ast.AST]) -> Set[str]:
    """Names that are only ever bound to set values in this scope."""
    set_assigned: Set[str] = set()
    other_assigned: Set[str] = set()
    # Two passes so one level of aliasing (b = a) propagates.
    for _ in range(2):
        set_assigned, previous = set(), set_assigned
        other_assigned = set()
        for node in _walk_skipping_scopes(body):
            if isinstance(node, ast.Assign):
                pairs = [(t, node.value) for t in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                pairs = [(node.target, node.value)]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                pairs = [(node.target, None)]
            elif isinstance(node, ast.withitem) and node.optional_vars:
                pairs = [(node.optional_vars, None)]
            elif isinstance(node, ast.comprehension):
                pairs = [(node.target, None)]
            else:
                continue
            for target, value in pairs:
                names = set(_assigned_names(target))
                if value is not None and isinstance(target, ast.Name) \
                        and _is_set_expr(value, previous):
                    set_assigned |= names
                else:
                    other_assigned |= names
    return set_assigned - other_assigned


@register
class UnorderedIterationRule(Rule):
    code = "ORD01"
    name = "unordered-set-iteration"
    severity = Severity.ERROR
    rationale = (
        "iterating a set is PYTHONHASHSEED-ordered for str/bytes "
        "elements, so rows, exports, or cache-tag material built from "
        "the iteration differ between runs. Wrap the iterable in "
        "sorted(...) — or suppress where the fold is provably "
        "commutative."
    )

    #: reducers whose result is independent of iteration order — a set
    #: flowing straight into one of these cannot leak ordering.
    _COMMUTATIVE = (
        "all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum",
    )
    _COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        yield from self._check_scope(src, [src.tree])

    def _check_scope(self, src: SourceFile, body: Sequence[ast.AST]) -> Iterator[Finding]:
        roots = []
        for node in body:
            roots.extend(ast.iter_child_nodes(node))
        set_vars = _scope_set_vars(roots)

        # Comprehensions consumed whole by an order-insensitive reducer
        # (all(... for x in s), sum/min/max/sorted/...) are exempt.
        neutral: Set[int] = set()
        for node in _walk_skipping_scopes(roots):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in self._COMMUTATIVE and len(node.args) == 1
                    and isinstance(node.args[0], self._COMPREHENSIONS)):
                neutral.add(id(node.args[0]))

        for node in _walk_skipping_scopes(roots):
            iterables: List[Tuple[ast.AST, ast.AST]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append((node.iter, node))
            elif isinstance(node, self._COMPREHENSIONS) and id(node) not in neutral:
                for generator in node.generators:
                    iterables.append((generator.iter, generator.iter))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple") and len(node.args) == 1):
                iterables.append((node.args[0], node))
            for iterable, anchor in iterables:
                if _is_set_expr(iterable, set_vars):
                    yield self.finding(
                        src, anchor,
                        "iteration over an unordered set; wrap in "
                        "sorted(...) so downstream rows/exports/tags are "
                        "order-stable",
                    )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._check_scope(src, [node])


@register
class DictKeysIterationRule(Rule):
    code = "ORD02"
    name = "dict-keys-iteration"
    severity = Severity.WARNING
    rationale = (
        "for-loops over X.keys() hide whether canonical order matters: "
        "insertion order is deterministic only if every writer inserts "
        "in the same order across processes/shards. Iterate the mapping "
        "directly when order is irrelevant, or sorted(X) when the "
        "output is a row/export/tag."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            iterables: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, ast.comprehension):
                iterables.append(node.iter)
            for iterable in iterables:
                if (isinstance(iterable, ast.Call)
                        and isinstance(iterable.func, ast.Attribute)
                        and iterable.func.attr == "keys"
                        and not iterable.args):
                    yield self.finding(
                        src, iterable,
                        "iteration over .keys(); iterate the mapping "
                        "directly (order-irrelevant) or sorted(...) "
                        "(order-bearing output)",
                    )


# ---------------------------------------------------------------------------
# TAG01 — StudySpec cache-tag completeness
# ---------------------------------------------------------------------------


def _module_str_collection(tree: ast.AST, name: str) -> Optional[Set[str]]:
    """The string members of a module-level tuple/list/set/dict-keys
    constant assignment, or None when absent."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            continue
        value = node.value
        elements: Sequence[ast.AST]
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            elements = value.elts
        elif isinstance(value, ast.Dict):
            elements = [k for k in value.keys if k is not None]
        else:
            continue
        return {
            el.value for el in elements
            if isinstance(el, ast.Constant) and isinstance(el.value, str)
        }
    return None


@register
class CacheTagCompletenessRule(Rule):
    code = "TAG01"
    name = "cache-tag-field-unaccounted"
    severity = Severity.ERROR
    rationale = (
        "every StudySpec field defines dataset identity; a field that "
        "never reaches spec.cache_tag() lets two different studies "
        "silently share one cache entry (the PR 5 typo'd-kwarg fork, "
        "generalised). New fields must join _SCHEDULE_FIELDS, be read "
        "by cache_tag(), or be declared result-neutral in _TAG_EXEMPT "
        "with a reason."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        spec = next(
            (node for node in ast.walk(src.tree)
             if isinstance(node, ast.ClassDef) and node.name == "StudySpec"),
            None,
        )
        if spec is None:
            return
        schedule_fields = _module_str_collection(src.tree, "_SCHEDULE_FIELDS") or set()
        exempt = _module_str_collection(src.tree, "_TAG_EXEMPT") or set()

        methods = {
            stmt.name: stmt for stmt in spec.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        consumed: Set[str] = set()
        seen_methods: Set[str] = set()
        queue = ["cache_tag"]
        while queue:  # one transitive closure over in-class helper calls
            current = methods.get(queue.pop())
            if current is None or current.name in seen_methods:
                continue
            seen_methods.add(current.name)
            for node in ast.walk(current):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    consumed.add(node.attr)
                    if node.attr in methods:
                        queue.append(node.attr)

        for stmt in spec.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            field = stmt.target.id
            if field.startswith("_"):
                continue
            annotation = ast.dump(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            if field in schedule_fields or field in consumed or field in exempt:
                continue
            yield self.finding(
                src, stmt,
                f"StudySpec field {field!r} never reaches cache_tag() "
                "(not in _SCHEDULE_FIELDS, not read by cache_tag, not "
                "exempted in _TAG_EXEMPT): studies differing only in "
                f"{field!r} would alias one cache entry",
            )


# ---------------------------------------------------------------------------
# GC01 — GC-pause hygiene
# ---------------------------------------------------------------------------


@register
class GcHygieneRule(Rule):
    code = "GC01"
    name = "gc-outside-gcutils"
    severity = Severity.ERROR
    rationale = (
        "gc.disable()/gc.enable() pairs in library code re-enable "
        "collection inside someone else's pause window; PR 3 extracted "
        "the nesting paused_gc() helper into repro/gcutils.py as the "
        "only legal owner of the toggle."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if src.module == GCUTILS_MODULE:
            return
        imports = _import_map(src.tree)
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _resolve_call(node, imports)
            if dotted in ("gc.disable", "gc.enable"):
                yield self.finding(
                    src, node,
                    f"{dotted}() outside repro/gcutils.py; use "
                    "gcutils.paused_gc() so nested pause windows compose",
                )


# ---------------------------------------------------------------------------
# NAME01 — unchecked Name construction stays in dnscore
# ---------------------------------------------------------------------------

_UNCHECKED_NAME_CTOR = "_unchecked"


def _is_name_class(node: ast.AST) -> bool:
    chain = _dotted_chain(node)
    return chain is not None and chain[-1] == "Name"


def _bypasses_name_intern_table(node: ast.AST) -> bool:
    """``Name.__new__`` (called or aliased) or ``object.__new__(Name)``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__new__" and _is_name_class(node.value)
    return (
        isinstance(node, ast.Call)
        and _dotted_chain(node.func) == ["object", "__new__"]
        and bool(node.args)
        and _is_name_class(node.args[0])
    )


@register
class UncheckedNameRule(Rule):
    code = "NAME01"
    name = "unchecked-name-outside-dnscore"
    severity = Severity.ERROR
    rationale = (
        "Name._unchecked builds a Name without the 63/255-octet and "
        "empty-label checks; the wire reader and Name's own slicing "
        "methods in repro.dnscore use it only after enforcing those "
        "limits themselves. Anywhere else an oversized or malformed name "
        "would enter the world model unnoticed and only fail (or encode "
        "wrongly) much later; construct with Name(...) or "
        "Name.from_text(...) instead. Name.__new__ and "
        "object.__new__(Name) also skip the intern table that makes "
        "each name one object, and leave the name's caches unset."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if src.subsystem == "dnscore":
            return
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute) and node.attr == _UNCHECKED_NAME_CTOR:
                yield self.finding(
                    src, node,
                    f"{_UNCHECKED_NAME_CTOR}() skips Name validation and is "
                    "reserved to repro.dnscore; use Name(...) or "
                    "Name.from_text(...)",
                )
            elif _bypasses_name_intern_table(node):
                yield self.finding(
                    src, node,
                    "__new__ builds a Name outside the intern table and is "
                    "reserved to repro.dnscore; use Name(...) or "
                    "Name.from_text(...)",
                )


# ---------------------------------------------------------------------------
# INV01 — paired cache invalidation
# ---------------------------------------------------------------------------

#: call-chain tails on an ``answer_cache`` that count as invalidating
#: the answer fast path: ``set_scope`` drops every entry of another
#: fault scope before the next lookup.
_ANSWER_INVALIDATORS = ("invalidate", "set_scope", "clear")
#: switches that invalidate only when they turn the fast path off.
_ANSWER_SWITCHES = ("set_enabled", "set_answer_cache")


def _is_zone_cache_clear(chain: List[str]) -> bool:
    return len(chain) >= 2 and chain[-2] == "_zone_cache" and chain[-1] == "clear"


def _is_answer_cache_invalidation(chain: List[str], call: ast.Call) -> bool:
    if chain[-1] in _ANSWER_SWITCHES:
        # Re-arming an armed cache drops nothing.
        return (
            (chain[-1] == "set_answer_cache" or "answer_cache" in chain[:-1])
            and bool(call.args)
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value is False
        )
    return "answer_cache" in chain[:-1] and chain[-1] in _ANSWER_INVALIDATORS


@register
class PairedInvalidationRule(Rule):
    code = "INV01"
    name = "zone-cache-clear-without-answer-invalidate"
    severity = Severity.ERROR
    rationale = (
        "the layered answer fast path memoizes responses rendered from "
        "the zones in World._zone_cache; a scope that clears the zone "
        "cache without also re-scoping or invalidating the answer cache "
        "(an answer_cache .set_scope()/.invalidate()/.clear() call, or "
        "set_enabled(False)/set_answer_cache(False)) risks the fast path "
        "serving answers the flushed state no longer backs — stale "
        "answers with no error. Re-arming (set_answer_cache(True)) "
        "drops nothing and does not count. Where the answer cache's "
        "zone-owned slots stamped with cache_stamp(), per-entry guards "
        "and fault scope provably cover everything the flush changes, "
        "suppress with a justified '# codelint: disable=INV01' instead."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        yield from self._check_scope(src, [src.tree])

    def _check_scope(self, src: SourceFile, body: Sequence[ast.AST]) -> Iterator[Finding]:
        roots: List[ast.AST] = []
        for node in body:
            roots.extend(ast.iter_child_nodes(node))

        clears: List[ast.AST] = []
        invalidates = False
        scopes: List[ast.AST] = []
        for node in _walk_skipping_scopes(roots):
            if isinstance(node, _SCOPE_NODES):
                scopes.append(node)
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted_chain(node.func)
            if chain is None:
                continue
            if _is_zone_cache_clear(chain):
                clears.append(node)
            elif _is_answer_cache_invalidation(chain, node):
                invalidates = True

        if clears and not invalidates:
            for node in clears:
                yield self.finding(
                    src, node,
                    "._zone_cache.clear() without a paired answer-cache "
                    "invalidation in the same scope; add "
                    "answer_cache.set_scope(...) (or "
                    "set_answer_cache(False)) so the fast path cannot "
                    "serve answers rendered from the zones just discarded",
                )
        for scope in scopes:
            if isinstance(scope, ast.Lambda):
                continue
            yield from self._check_scope(src, [scope])


# ---------------------------------------------------------------------------
# FSTR01 — f-strings without placeholders
# ---------------------------------------------------------------------------


@register
class FstringPlaceholderRule(Rule):
    code = "FSTR01"
    name = "fstring-no-placeholders"
    severity = Severity.WARNING
    rationale = (
        "an f-string with no {placeholders} almost always means the "
        "interpolated values were dropped from the message — exactly "
        "how the zone linter's ipv6hint-mismatch finding lost the "
        "mismatching addresses. Drop the prefix or add the fields."
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        format_specs = {
            id(node.format_spec)
            for node in ast.walk(src.tree)
            if isinstance(node, ast.FormattedValue) and node.format_spec is not None
        }
        for node in ast.walk(src.tree):
            if (isinstance(node, ast.JoinedStr)
                    and id(node) not in format_specs
                    and not any(isinstance(v, ast.FormattedValue) for v in node.values)):
                yield self.finding(
                    src, node,
                    "f-string has no placeholders (were the values meant "
                    "to be interpolated dropped?); use a plain string or "
                    "add the fields",
                )
