"""The top-level program container: a stateful dataflow multigraph.

An :class:`SDFG` is a state machine whose nodes are dataflow graphs
(:class:`~repro.sdfg.state.SDFGState`) and whose edges
(:class:`InterstateEdge`) carry a condition plus symbol assignments.
Sequential loops are expressed with the classic guard/body/exit state
pattern; parallel loops are map scopes inside states.

The SDFG also owns the program's data descriptors (``arrays``) and free
symbols (``symbols``); non-transient containers plus free symbols form the
program's argument list.
"""

from __future__ import annotations

import copy
import itertools
import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.sdfg.data import Array, Data, Scalar
from repro.sdfg.dtypes import StorageType, dtype_from_numpy, typeclass
from repro.sdfg.graph import Edge, GraphError, OrderedMultiDiGraph
from repro.sdfg.nodes import AccessNode, MapEntry, NestedSDFGNode, Node
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import Expr, sympify

__all__ = ["SDFG", "InterstateEdge", "SDFGError"]

_sdfg_name_counter = itertools.count(1)


class SDFGError(Exception):
    """Raised on invalid SDFG construction or queries."""


#: Names treated as expression vocabulary rather than program inputs, so
#: ``free_symbols`` never reports them.  This is deliberately *wider* than
#: what the interpreter's interstate evaluator actually resolves
#: (``_EVAL_GLOBALS``: Min/Max/min/max/abs/int): a condition calling e.g.
#: ``len(...)`` crashes at evaluation either way, but demanding ``len`` as
#: a fuzzed program input is a bogus requirement -- providing an integer
#: for it could never make the call form work.  The trade-off is that a
#: program symbol literally named ``len``/``sum``/... is invisible to
#: requirement analysis; execution still resolves it correctly (the symbol
#: namespace shadows the vocabulary in both backends).
_EXPRESSION_BUILTINS = frozenset(
    {
        "Min", "Max", "min", "max", "abs", "int", "float", "bool", "len",
        "round", "pow", "sum", "divmod", "math", "np", "numpy",
        "True", "False", "None",
    }
)

#: Keywords the legacy regex extraction used to pick up as identifiers.
_EXPRESSION_KEYWORDS = frozenset({"and", "or", "not", "in", "if", "else", "is"})


class InterstateEdge:
    """Control-flow edge between two states.

    ``condition`` is a Python boolean expression over the program symbols
    (evaluated by the interpreter); ``assignments`` maps symbol names to
    expressions evaluated on transition (this is how loop counters advance).
    """

    __slots__ = ("condition", "assignments")

    def __init__(
        self,
        condition: str = "True",
        assignments: Optional[Dict[str, Union[str, int, Expr]]] = None,
    ) -> None:
        self.condition = condition if condition is not None else "True"
        self.assignments: Dict[str, str] = {
            k: str(v) for k, v in (assignments or {}).items()
        }

    def is_unconditional(self) -> bool:
        return self.condition.strip() in ("True", "1", "")

    @property
    def free_symbols(self) -> Set[str]:
        """Names the condition and assignment expressions actually read.

        Extraction is :mod:`ast`-based, so builtins used as calls
        (``abs(x)``, ``len(...)``, ``int(n)``), attribute accesses and
        keywords are never misreported as free symbols; a malformed
        expression falls back to regex scraping so requirement analyses
        still see *some* conservative answer instead of crashing.
        """
        from repro.symbolic.codegen import ExpressionCodegenError, expression_names

        names: Set[str] = set()
        for expr in (self.condition, *self.assignments.values()):
            try:
                names |= expression_names(expr)
            except ExpressionCodegenError:
                import re

                names |= set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", expr))
        return names - _EXPRESSION_BUILTINS - _EXPRESSION_KEYWORDS

    def to_dict(self) -> Dict:
        return {"condition": self.condition, "assignments": dict(self.assignments)}

    @classmethod
    def from_dict(cls, d: Dict) -> "InterstateEdge":
        return cls(d.get("condition", "True"), d.get("assignments"))

    def __repr__(self) -> str:
        return f"InterstateEdge(cond={self.condition!r}, assign={self.assignments})"


class SDFG:
    """A stateful dataflow multigraph program."""

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or f"sdfg_{next(_sdfg_name_counter)}"
        #: Data descriptors by container name.
        self.arrays: Dict[str, Data] = {}
        #: Free symbols (program parameters) by name -> scalar type.
        self.symbols: Dict[str, typeclass] = {}
        #: Compile-time constants (name -> value), used by some transforms.
        self.constants: Dict[str, Union[int, float]] = {}
        self._states: OrderedMultiDiGraph[SDFGState, InterstateEdge] = (
            OrderedMultiDiGraph()
        )
        self._start_state: Optional[SDFGState] = None
        self._label_counter = itertools.count(0)

    # ------------------------------------------------------------------ #
    # Data descriptors
    # ------------------------------------------------------------------ #
    def add_array(
        self,
        name: str,
        shape: Sequence,
        dtype,
        transient: bool = False,
        storage: StorageType = StorageType.Default,
        find_new_name: bool = False,
    ) -> Tuple[str, Array]:
        name = self._register_name(name, find_new_name)
        desc = Array(dtype, shape, transient=transient, storage=storage)
        self.arrays[name] = desc
        for sym in desc.free_symbols:
            self.add_symbol(sym)
        return name, desc

    def add_transient(
        self,
        name: str,
        shape: Sequence,
        dtype,
        storage: StorageType = StorageType.Default,
        find_new_name: bool = False,
    ) -> Tuple[str, Array]:
        return self.add_array(
            name, shape, dtype, transient=True, storage=storage,
            find_new_name=find_new_name,
        )

    def add_scalar(
        self,
        name: str,
        dtype,
        transient: bool = False,
        find_new_name: bool = False,
    ) -> Tuple[str, Scalar]:
        name = self._register_name(name, find_new_name)
        desc = Scalar(dtype, transient=transient)
        self.arrays[name] = desc
        return name, desc

    def add_datadesc(self, name: str, desc: Data, find_new_name: bool = False) -> str:
        name = self._register_name(name, find_new_name)
        self.arrays[name] = desc
        for sym in desc.free_symbols:
            self.add_symbol(sym)
        return name

    def _register_name(self, name: str, find_new_name: bool) -> str:
        if name in self.arrays:
            if not find_new_name:
                raise SDFGError(f"Data container '{name}' already exists")
            base = name
            for i in itertools.count(0):
                name = f"{base}_{i}"
                if name not in self.arrays:
                    break
        return name

    def remove_data(self, name: str, validate: bool = True) -> None:
        if name not in self.arrays:
            raise SDFGError(f"Data container '{name}' does not exist")
        if validate:
            for state in self.states():
                for node in state.data_nodes():
                    if node.data == name:
                        raise SDFGError(
                            f"Cannot remove '{name}': still accessed in state "
                            f"'{state.label}'"
                        )
        del self.arrays[name]

    def add_symbol(self, name: str, dtype=None) -> str:
        if name not in self.symbols:
            self.symbols[name] = dtype_from_numpy(dtype) if dtype is not None else dtype_from_numpy("int64")
        return name

    def data(self, name: str) -> Data:
        """Look up a data descriptor by container name."""
        if name not in self.arrays:
            raise SDFGError(f"Unknown data container '{name}'")
        return self.arrays[name]

    # ------------------------------------------------------------------ #
    # States and control flow
    # ------------------------------------------------------------------ #
    def add_state(self, label: Optional[str] = None, is_start_state: bool = False) -> SDFGState:
        label = label or f"state_{next(self._label_counter)}"
        existing = {s.label for s in self._states.nodes()}
        base = label
        i = 0
        while label in existing:
            i += 1
            label = f"{base}_{i}"
        state = SDFGState(label, self)
        self._states.add_node(state)
        if is_start_state or self._start_state is None:
            if is_start_state:
                self._start_state = state
            elif self._start_state is None:
                self._start_state = state
        return state

    def add_state_after(
        self, state: SDFGState, label: Optional[str] = None,
        condition: str = "True",
        assignments: Optional[Dict[str, Union[str, int]]] = None,
    ) -> SDFGState:
        """Add a new state and connect ``state -> new`` unconditionally,
        rerouting existing successors of ``state`` to leave the new state."""
        new_state = self.add_state(label)
        for e in list(self._states.out_edges(state)):
            self._states.add_edge(new_state, e.dst, e.data)
            self._states.remove_edge(e)
        self.add_edge(state, new_state, InterstateEdge(condition, assignments))
        return new_state

    def add_edge(
        self, src: SDFGState, dst: SDFGState, edge: Optional[InterstateEdge] = None
    ) -> Edge[SDFGState, InterstateEdge]:
        return self._states.add_edge(src, dst, edge or InterstateEdge())

    def remove_edge(self, edge: Edge[SDFGState, InterstateEdge]) -> None:
        self._states.remove_edge(edge)

    def remove_state(self, state: SDFGState) -> None:
        self._states.remove_node(state)
        if self._start_state is state:
            remaining = self._states.nodes()
            self._start_state = remaining[0] if remaining else None

    def states(self) -> List[SDFGState]:
        return self._states.nodes()

    def nodes(self) -> List[SDFGState]:
        return self._states.nodes()

    def edges(self) -> List[Edge[SDFGState, InterstateEdge]]:
        return self._states.edges()

    def out_edges(self, state: SDFGState) -> List[Edge[SDFGState, InterstateEdge]]:
        return self._states.out_edges(state)

    def in_edges(self, state: SDFGState) -> List[Edge[SDFGState, InterstateEdge]]:
        return self._states.in_edges(state)

    @property
    def start_state(self) -> SDFGState:
        if self._start_state is None:
            raise SDFGError("SDFG has no states")
        return self._start_state

    @start_state.setter
    def start_state(self, state: SDFGState) -> None:
        if state not in self._states:
            raise SDFGError("Start state must be part of the SDFG")
        self._start_state = state

    def state_by_label(self, label: str) -> SDFGState:
        for s in self._states.nodes():
            if s.label == label:
                return s
        raise SDFGError(f"No state labelled '{label}'")

    def add_loop(
        self,
        before_state: Optional[SDFGState],
        loop_body: SDFGState,
        after_state: Optional[SDFGState],
        loop_var: str,
        init_expr: Union[str, int],
        condition: str,
        increment_expr: str,
    ) -> Tuple[SDFGState, SDFGState, SDFGState]:
        """Add a sequential loop around ``loop_body`` (guard-state pattern).

        Returns ``(before_state, guard, after_state)``.  ``loop_var`` becomes
        a program symbol; the guard's outgoing edges test ``condition`` and
        its negation; the back edge applies ``increment_expr``.
        """
        self.add_symbol(loop_var)
        if before_state is None:
            before_state = self.add_state(f"{loop_body.label}_init")
        if after_state is None:
            after_state = self.add_state(f"{loop_body.label}_after")
        guard = self.add_state(f"{loop_body.label}_guard")
        self.add_edge(
            before_state, guard, InterstateEdge(assignments={loop_var: init_expr})
        )
        self.add_edge(guard, loop_body, InterstateEdge(condition=condition))
        self.add_edge(
            guard, after_state, InterstateEdge(condition=f"not ({condition})")
        )
        self.add_edge(
            loop_body, guard, InterstateEdge(assignments={loop_var: increment_expr})
        )
        return before_state, guard, after_state

    # ------------------------------------------------------------------ #
    # Whole-program queries
    # ------------------------------------------------------------------ #
    def all_nodes(self) -> List[Tuple[SDFGState, Node]]:
        """All dataflow nodes across all states, with their state."""
        out = []
        for state in self.states():
            for node in state.nodes():
                out.append((state, node))
        return out

    def node_by_guid(self, guid: int) -> Optional[Tuple[SDFGState, Node]]:
        for state, node in self.all_nodes():
            if node.guid == guid:
                return state, node
        return None

    def used_data(self) -> Set[str]:
        """Names of containers accessed anywhere in the program."""
        out: Set[str] = set()
        for state in self.states():
            for node in state.data_nodes():
                out.add(node.data)
        return out

    @property
    def free_symbols(self) -> Set[str]:
        """Symbols that must be provided to run the program."""
        out: Set[str] = set()
        for desc in self.arrays.values():
            out |= desc.free_symbols
        for state in self.states():
            out |= state.free_symbols
        defined: Set[str] = set()
        for e in self.edges():
            isedge: InterstateEdge = e.data
            out |= isedge.free_symbols
            defined |= set(isedge.assignments.keys())
        out -= set(self.arrays.keys())
        out -= set(self.constants.keys())
        # Symbols assigned on interstate edges (loop counters) are internal.
        return out - defined

    def arglist(self) -> Dict[str, Union[Data, typeclass]]:
        """The program's calling signature: non-transient data + free symbols."""
        args: Dict[str, Union[Data, typeclass]] = {}
        for name, desc in sorted(self.arrays.items()):
            if not desc.transient:
                args[name] = desc
        for sym in sorted(self.free_symbols):
            if sym not in args:
                args[sym] = self.symbols.get(sym, dtype_from_numpy("int64"))
        return args

    def input_arrays(self) -> Dict[str, Data]:
        return {n: d for n, d in self.arrays.items() if not d.transient}

    def transients(self) -> Dict[str, Data]:
        return {n: d for n, d in self.arrays.items() if d.transient}

    # ------------------------------------------------------------------ #
    # Copying, serialization, validation
    # ------------------------------------------------------------------ #
    def clone(self, new_name: Optional[str] = None) -> "SDFG":
        """Deep copy of the program.  Node guids are preserved, so the copy
        can be diffed against the original after transforming it.  Immutable
        values (expressions, ranges, subsets, element types) are shared."""
        out = copy.deepcopy(self)
        if new_name:
            out.name = new_name
        return out

    def validate(self) -> None:
        from repro.sdfg.validation import validate_sdfg

        validate_sdfg(self)

    def to_dict(self) -> Dict:
        from repro.sdfg.serialize import sdfg_to_dict

        return sdfg_to_dict(self)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: Dict) -> "SDFG":
        from repro.sdfg.serialize import sdfg_from_dict

        return sdfg_from_dict(d)

    @classmethod
    def from_json(cls, text: str) -> "SDFG":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json(indent=2))

    @classmethod
    def load(cls, path: str) -> "SDFG":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_json(f.read())

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return (
            f"SDFG({self.name!r}, {len(self.states())} states, "
            f"{len(self.arrays)} containers)"
        )
