"""Whole-program project index for the interprocedural ``flow`` pass.

The PR 4 rules see one file at a time; the bug classes that actually bit
this repo — lost wakeups, events succeeded after ``defuse()``, credit
leaks hidden behind helper calls, illegal QP ladders — span function and
module boundaries.  :class:`ProjectIndex` loads every analyzed module
into one structure the flow rules (``rules_events``/``rules_protocol``)
query:

* a **function table** over every ``def`` (with class membership and
  generator-ness), plus resolution of call sites back into the table
  (bare names, ``self.method(...)``, ``module.func(...)`` via import
  aliases) — the static call graph;
* **def-site resolution** for the two value kinds the rules care
  about — :class:`~repro.sim.engine.Event` (``env.event()`` /
  ``Event(env)``) and :class:`~repro.net.qp.QueuePair` constructions;
* per-symbol **usage classification** for event values: *await*
  (``yield ev``), *produce* (``ev.succeed()`` / ``ev.fail()``),
  *defuse*, and *escape* (any other read — passed, stored, returned,
  composed into a condition).  Escapes make the rules conservative: an
  event that leaves the indexed view is assumed to have a producer.

Everything is stdlib-``ast``; the index never imports the tree it
analyses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .modules import SourceModule

__all__ = ["ProjectIndex", "FunctionInfo", "EventUse"]

#: Receiver-attribute names that create an Event-like value.
_EVENT_FACTORY_ATTRS = frozenset({"event"})
#: ``from repro.sim import Event`` style constructor names.
_EVENT_CTOR_NAMES = frozenset({"Event"})
_QP_CTOR_NAMES = frozenset({"QueuePair"})

#: Event-producing / consuming method names.
_PRODUCE_ATTRS = frozenset({"succeed", "fail"})
_DEFUSE_ATTR = "defuse"


def _is_env_receiver(expr: ast.expr) -> bool:
    """``env`` / ``self.env`` / ``self._env`` / ``node.env`` — anything
    whose final component names an environment."""
    tail = expr
    while isinstance(tail, ast.Attribute):
        if tail.attr in ("env", "_env", "environment"):
            return True
        tail = tail.value
    return isinstance(tail, ast.Name) and tail.id in ("env", "_env", "environment")


@dataclass
class EventUse:
    """One classified use of an event symbol."""

    kind: str  # "def" | "await" | "produce" | "defuse" | "escape"
    line: int
    function: "FunctionInfo"


@dataclass(eq=False)  # identity semantics: used as dict keys in the rules
class FunctionInfo:
    """One indexed function/method and the facts the rules need."""

    name: str
    class_name: Optional[str]
    module: SourceModule
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    own_nodes: List[ast.AST] = field(default_factory=list)
    is_generator: bool = False
    #: Call sites resolvable inside the project: (call node, callee).
    resolved_calls: List[Tuple[ast.Call, "FunctionInfo"]] = field(
        default_factory=list
    )
    #: Local names assigned a QueuePair(...) construction.
    qp_locals: Set[str] = field(default_factory=set)
    #: Local names assigned an event construction.
    event_locals: Set[str] = field(default_factory=set)

    @property
    def qualname(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name

    @property
    def display(self) -> str:
        return f"{self.module.display_path}:{self.qualname}"


class ProjectIndex:
    """All analyzed modules folded into one queryable structure."""

    def __init__(self, modules: Iterable[SourceModule]):
        self.modules: List[SourceModule] = list(modules)
        self.functions: List[FunctionInfo] = []
        #: (module display path, class or "", name) -> FunctionInfo
        self._by_key: Dict[Tuple[str, str, str], FunctionInfo] = {}
        #: bare function name -> every FunctionInfo carrying it
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: child AST node -> parent, per module (for use classification)
        self._parents: Dict[int, ast.AST] = {}
        #: attribute event symbols: attr name -> uses across the project
        self.attr_events: Dict[str, List[EventUse]] = {}
        for module in self.modules:
            self._index_module(module)
        for module in self.modules:
            self._resolve_calls(module)
        self._classify_attr_events()

    # ------------------------------------------------------------ building

    def _index_module(self, module: SourceModule) -> None:
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

        def visit(node: ast.AST, class_name: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(module, child, class_name)
                    visit(child, None)  # nested defs lose the class
                else:
                    visit(child, class_name)

        visit(module.tree, None)

    def _add_function(
        self, module: SourceModule, node: ast.AST, class_name: Optional[str]
    ) -> None:
        info = FunctionInfo(
            name=node.name, class_name=class_name, module=module, node=node
        )
        info.own_nodes = _own_nodes(node)
        info.is_generator = any(
            isinstance(n, (ast.Yield, ast.YieldFrom)) for n in info.own_nodes
        )
        for n in info.own_nodes:
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                target = n.targets[0]
                if isinstance(target, ast.Name):
                    if self._is_event_ctor(module, n.value):
                        info.event_locals.add(target.id)
                    elif self._is_ctor(module, n.value, _QP_CTOR_NAMES):
                        info.qp_locals.add(target.id)
        self.functions.append(info)
        key = (module.display_path, class_name or "", node.name)
        self._by_key[key] = info
        self.by_name.setdefault(node.name, []).append(info)

    @staticmethod
    def _is_ctor(module: SourceModule, expr: ast.expr, names: frozenset) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in names:
                return True
            dotted = module.from_imports.get(func.id, "")
            return dotted.rpartition(".")[2] in names
        return False

    def _is_event_ctor(self, module: SourceModule, expr: ast.expr) -> bool:
        if self._is_ctor(module, expr, _EVENT_CTOR_NAMES):
            return True
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _EVENT_FACTORY_ATTRS
            and _is_env_receiver(expr.func.value)
        )

    # ----------------------------------------------------- call resolution

    def _resolve_calls(self, module: SourceModule) -> None:
        for info in self.functions:
            if info.module is not module:
                continue
            for node in info.own_nodes:
                if not isinstance(node, ast.Call):
                    continue
                callee = self._resolve_call(module, info, node)
                if callee is not None:
                    info.resolved_calls.append((node, callee))

    def _resolve_call(
        self, module: SourceModule, caller: FunctionInfo, call: ast.Call
    ) -> Optional[FunctionInfo]:
        func = call.func
        if isinstance(func, ast.Name):
            # Same-module module-level function first, then a project
            # function reached through ``from x import f``.
            local = self._by_key.get((module.display_path, "", func.id))
            if local is not None:
                return local
            dotted = module.from_imports.get(func.id)
            if dotted:
                return self._find_by_dotted(dotted)
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                if func.value.id == "self" and caller.class_name:
                    return self._by_key.get(
                        (module.display_path, caller.class_name, func.attr)
                    )
                alias = module.module_aliases.get(func.value.id)
                if alias:
                    return self._find_by_dotted(f"{alias}.{func.attr}")
        return None

    def _find_by_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """Match ``pkg.mod.func`` against indexed modules by path suffix."""
        module_path, _, name = dotted.rpartition(".")
        if not module_path:
            return None
        suffix = module_path.replace(".", "/") + ".py"
        candidates = [
            fn
            for fn in self.by_name.get(name, [])
            if fn.class_name is None
            and (
                fn.module.display_path.endswith(suffix)
                or fn.module.display_path.endswith(
                    module_path.replace(".", "/") + "/__init__.py"
                )
            )
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ---------------------------------------------- event use classification

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def classify_attr_use(
        self, attr_node: ast.Attribute
    ) -> str:
        """How is this ``<expr>.X`` attribute read used?  One of
        ``produce`` / ``defuse`` / ``await`` / ``escape`` / ``store``."""
        parent = self.parent(attr_node)
        if isinstance(parent, ast.Attribute):
            grand = self.parent(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                if parent.attr in _PRODUCE_ATTRS:
                    return "produce"
                if parent.attr == _DEFUSE_ATTR:
                    return "defuse"
                # some other method (.triggered is a property, but e.g.
                # ``ev.callbacks.append`` routes here): treat as escape.
                return "escape"
            return "escape"
        if isinstance(parent, ast.Yield) and parent.value is attr_node:
            return "await"
        if isinstance(parent, ast.Assign) and attr_node in parent.targets:
            return "store"
        return "escape"

    def _classify_attr_events(self) -> None:
        # Pass 1: which self-attributes are assigned fresh events anywhere?
        defined: Set[str] = set()
        for fn in self.functions:
            for node in fn.own_nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and self._is_event_ctor(fn.module, node.value)
                    ):
                        defined.add(target.attr)
                        self.attr_events.setdefault(target.attr, []).append(
                            EventUse("def", node.lineno, fn)
                        )
        if not defined:
            return
        # Pass 2: classify every other read of those attribute names,
        # project-wide (attribute identity is by name: `a.done` in one
        # module and `b.done` in another conservatively share a symbol).
        for fn in self.functions:
            for node in fn.own_nodes:
                if not isinstance(node, ast.Attribute) or node.attr not in defined:
                    continue
                parent = self.parent(node)
                if isinstance(parent, ast.Assign) and node in parent.targets:
                    # Assignment target: fresh-event def-sites were taken
                    # in pass 1; a plain ``= None`` reset is neutral; any
                    # other value aliases the symbol -> escape.
                    if self._is_event_ctor(fn.module, parent.value):
                        continue
                    if not (
                        isinstance(parent.value, ast.Constant)
                        and parent.value.value is None
                    ):
                        self.attr_events[node.attr].append(
                            EventUse("escape", node.lineno, fn)
                        )
                    continue
                kind = self.classify_attr_use(node)
                if kind == "store":
                    kind = "escape"
                self.attr_events[node.attr].append(
                    EventUse(kind, node.lineno, fn)
                )

    # -------------------------------------------------------- local events

    def classify_local_event_uses(
        self, fn: FunctionInfo, var: str
    ) -> List[EventUse]:
        """Classified uses of a local event variable inside ``fn``."""
        uses: List[EventUse] = []
        for node in fn.own_nodes:
            if not isinstance(node, ast.Name) or node.id != var:
                continue
            parent = self.parent(node)
            if isinstance(parent, ast.Assign) and node in parent.targets:
                continue  # the def-site (or a rebind: handled by caller)
            if isinstance(parent, ast.Attribute) and parent.value is node:
                grand = self.parent(parent)
                if isinstance(grand, ast.Call) and grand.func is parent:
                    if parent.attr in _PRODUCE_ATTRS:
                        uses.append(EventUse("produce", node.lineno, fn))
                        continue
                    if parent.attr == _DEFUSE_ATTR:
                        uses.append(EventUse("defuse", node.lineno, fn))
                        continue
                uses.append(EventUse("escape", node.lineno, fn))
                continue
            if isinstance(parent, ast.Yield) and parent.value is node:
                uses.append(EventUse("await", node.lineno, fn))
                continue
            uses.append(EventUse("escape", node.lineno, fn))
        return uses


def _own_nodes(func: ast.AST) -> List[ast.AST]:
    """Every node in the function body excluding nested function scopes."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return out
