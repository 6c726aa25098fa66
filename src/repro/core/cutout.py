"""Cutout extraction (Sec. 3): turning a change set into a standalone program.

A *cutout* ``c ⊆ p`` is a sub-program with a well-defined input configuration
and system state.  This module extracts cutouts at two granularities:

* **dataflow cutouts** -- the subgraph of a single state induced by the change
  set ΔT, expanded to full map scopes and the directly adjacent access nodes
  (Fig. 3);
* **state-machine cutouts** -- whole states (e.g. the guard/body pair of a
  sequential loop) with the interstate edges among them, plus synthetic entry
  and exit states carrying the control-flow assignments that enter/leave the
  region.

Node guids are preserved in the extracted program, so the transformation
match found on the original program can be *transferred* onto the cutout and
applied there (:func:`transfer_match`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.side_effects import SideEffectAnalysis, analyze_side_effects
from repro.sdfg.data import Data
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, NestedSDFGNode, Node, Tasklet
from repro.sdfg.sdfg import SDFG, InterstateEdge
from repro.sdfg.state import SDFGState
from repro.transforms.base import Match, PatternTransformation, TransformationError

__all__ = ["Cutout", "extract_cutout", "extract_state_cutout", "transfer_match"]


@dataclass
class Cutout:
    """An extracted, standalone test-case program."""

    sdfg: SDFG
    original: SDFG
    analysis: SideEffectAnalysis
    kind: str  # "dataflow" or "states"
    node_guids: Set[int] = field(default_factory=set)
    state_labels: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def input_configuration(self) -> List[str]:
        return [
            d for d in self.analysis.input_configuration if d in self.sdfg.arrays
        ]

    @property
    def system_state(self) -> List[str]:
        return [d for d in self.analysis.system_state if d in self.sdfg.arrays]

    @property
    def warnings(self) -> List[str]:
        return list(self.analysis.warnings)

    def executable(self) -> SDFG:
        """A copy of the cutout whose input-configuration and system-state
        containers are non-transient, so a harness can set and inspect them."""
        out = self.sdfg.clone(new_name=f"{self.sdfg.name}_exec")
        for name in set(self.input_configuration) | set(self.system_state):
            if name in out.arrays:
                out.arrays[name].transient = False
        return out

    def input_volume(self, symbol_values: Optional[Dict[str, int]] = None) -> int:
        """Total number of elements across the input configuration -- the
        size of a single sampled input (what the min input-flow cut
        minimizes)."""
        total = 0
        for name in self.input_configuration:
            desc = self.sdfg.arrays[name]
            total += int(desc.total_size().evaluate(symbol_values))
        return total

    def num_nodes(self) -> int:
        return sum(len(s.nodes()) for s in self.sdfg.states())

    def describe(self) -> str:
        return (
            f"cutout[{self.kind}] of '{self.original.name}': "
            f"{len(self.sdfg.states())} state(s), {self.num_nodes()} nodes, "
            f"{self.analysis.describe()}"
        )


# ---------------------------------------------------------------------- #
# Node-set expansion
# ---------------------------------------------------------------------- #
def _expand_node_set(state: SDFGState, nodes: Sequence[Node]) -> List[Node]:
    """Expand a node set to whole map scopes plus adjacent access nodes."""
    selected: Dict[int, Node] = {id(n): n for n in nodes}
    sdict = state.scope_dict()

    changed = True
    iterations = 0
    while changed and iterations < 64:
        iterations += 1
        changed = False
        # Scope closure: include the full scope subgraph of every scope that
        # contains (or is) a selected node.
        entries: List[MapEntry] = []
        for node in list(selected.values()):
            scope = node if isinstance(node, MapEntry) else sdict.get(node)
            if isinstance(node, MapExit):
                scope = state.entry_node_for_exit(node)
            while scope is not None:
                entries.append(scope)
                scope = sdict.get(scope)
        for entry in entries:
            for n in state.scope_subgraph_nodes(entry, include_boundary=True):
                if id(n) not in selected:
                    selected[id(n)] = n
                    changed = True
        # Direct data dependencies: adjacent access nodes.
        for node in list(selected.values()):
            for e in state.in_edges(node) + state.out_edges(node):
                for other in (e.src, e.dst):
                    if isinstance(other, AccessNode) and id(other) not in selected:
                        selected[id(other)] = other
                        changed = True
    # Preserve original graph order for determinism.
    order = {id(n): i for i, n in enumerate(state.nodes())}
    return sorted(selected.values(), key=lambda n: order[id(n)])


def _copy_subgraph(
    sdfg: SDFG, state: SDFGState, nodes: Sequence[Node], target: SDFG, target_state: SDFGState
) -> Dict[int, Node]:
    """Copy the induced subgraph of ``nodes`` into ``target_state``."""
    node_list = list(nodes)
    copies: List[Node] = copy.deepcopy(node_list)
    id_map: Dict[int, Node] = {id(o): c for o, c in zip(node_list, copies)}
    for c in copies:
        target_state.add_node(c)
    in_set = {id(n) for n in node_list}
    for edge in state.edges():
        if id(edge.src) in in_set and id(edge.dst) in in_set:
            target_state.graph.add_edge(
                id_map[id(edge.src)],
                id_map[id(edge.dst)],
                copy.deepcopy(edge.data),
                edge.src_conn,
                edge.dst_conn,
            )
    return id_map


def _register_containers(
    sdfg: SDFG, target: SDFG, state_or_states
) -> None:
    """Copy the data descriptors of every container referenced in the target."""
    needed: Set[str] = set()
    states = state_or_states if isinstance(state_or_states, (list, tuple)) else [state_or_states]
    for st in states:
        for node in st.data_nodes():
            needed.add(node.data)
        for e in st.edges():
            if e.data is not None and not e.data.is_empty and e.data.data is not None:
                needed.add(e.data.data)
    for name in sorted(needed):
        if name in target.arrays:
            continue
        if name not in sdfg.arrays:
            continue
        target.arrays[name] = copy.deepcopy(sdfg.arrays[name])
        for sym in target.arrays[name].free_symbols:
            target.add_symbol(sym)
    for sym, dtype in sdfg.symbols.items():
        if sym not in target.symbols:
            target.symbols[sym] = dtype
    target.constants.update(sdfg.constants)


# ---------------------------------------------------------------------- #
# Extraction entry points
# ---------------------------------------------------------------------- #
def extract_cutout(
    sdfg: SDFG,
    transformation: Optional[PatternTransformation] = None,
    match: Optional[Match] = None,
    nodes: Optional[Sequence[Tuple[SDFGState, Node]]] = None,
    states: Optional[Sequence[SDFGState]] = None,
    use_black_box: bool = False,
    symbol_values: Optional[Dict[str, int]] = None,
) -> Cutout:
    """Extract a cutout around a transformation match or an explicit node set.

    If a transformation+match is given, the change set ΔT is obtained from the
    transformation (white box) or by graph diffing (``use_black_box=True``).
    """
    from repro.core.change_isolation import black_box_change_set, white_box_change_set

    if nodes is None and states is None:
        if transformation is None or match is None:
            raise ValueError(
                "Either a transformation match or an explicit node/state set is required"
            )
        if use_black_box:
            nodes, states = black_box_change_set(sdfg, transformation, match)
        else:
            nodes, states = white_box_change_set(sdfg, transformation, match)

    node_list = list(nodes or [])
    state_list = list(states or [])

    if node_list:
        involved_states = []
        for st, _ in node_list:
            if st not in involved_states:
                involved_states.append(st)
        if len(involved_states) == 1:
            return _extract_dataflow_cutout(
                sdfg, involved_states[0], [n for _, n in node_list], symbol_values
            )
        # Changes spanning several states: fall back to a state-level cutout.
        state_list = involved_states + [s for s in state_list if s not in involved_states]

    if not state_list:
        raise ValueError("Cannot extract a cutout from an empty change set")
    return extract_state_cutout(sdfg, state_list, symbol_values)


def _extract_dataflow_cutout(
    sdfg: SDFG,
    state: SDFGState,
    nodes: Sequence[Node],
    symbol_values: Optional[Dict[str, int]] = None,
) -> Cutout:
    expanded = _expand_node_set(state, nodes)
    analysis = analyze_side_effects(
        sdfg, cutout_nodes=[(state, n) for n in expanded], symbol_values=symbol_values
    )

    target = SDFG(f"cutout_{sdfg.name}")
    target_state = target.add_state(state.label, is_start_state=True)
    _copy_subgraph(sdfg, state, expanded, target, target_state)
    _register_containers(sdfg, target, target_state)

    return Cutout(
        sdfg=target,
        original=sdfg,
        analysis=analysis,
        kind="dataflow",
        node_guids={n.guid for n in expanded},
        state_labels=[state.label],
    )


def extract_state_cutout(
    sdfg: SDFG,
    states: Sequence[SDFGState],
    symbol_values: Optional[Dict[str, int]] = None,
) -> Cutout:
    """Extract a cutout consisting of whole states (plus entry/exit stubs)."""
    state_list = list(dict.fromkeys(states))
    analysis = analyze_side_effects(
        sdfg, cutout_states=state_list, symbol_values=symbol_values
    )

    target = SDFG(f"cutout_{sdfg.name}")
    start_stub = target.add_state("cutout_start", is_start_state=True)
    end_stub = target.add_state("cutout_end")

    copies: Dict[SDFGState, SDFGState] = {}
    for st in state_list:
        # Seeding the memo maps the state's parent pointer onto the target
        # instead of deep-copying the whole parent program.
        new_state = copy.deepcopy(st, {id(sdfg): target})
        copies[st] = new_state
        target._states.add_node(new_state)

    included = set(state_list)
    start_connected = False
    end_connected = False
    for edge in sdfg.edges():
        src_in = edge.src in included
        dst_in = edge.dst in included
        if src_in and dst_in:
            target.add_edge(copies[edge.src], copies[edge.dst], copy.deepcopy(edge.data))
        elif dst_in and not src_in:
            # Control flow entering the cutout region: preserve assignments
            # (e.g. loop-counter initialization) but drop the condition.
            target.add_edge(
                start_stub,
                copies[edge.dst],
                InterstateEdge(assignments=dict(edge.data.assignments)),
            )
            start_connected = True
        elif src_in and not dst_in:
            target.add_edge(copies[edge.src], end_stub, copy.deepcopy(edge.data))
            end_connected = True
    if not start_connected and state_list:
        target.add_edge(start_stub, copies[state_list[0]], InterstateEdge())
    if not end_connected:
        target.remove_state(end_stub)

    _register_containers(sdfg, target, list(copies.values()))

    node_guids: Set[int] = set()
    for st in state_list:
        node_guids |= {n.guid for n in st.nodes()}

    return Cutout(
        sdfg=target,
        original=sdfg,
        analysis=analysis,
        kind="states",
        node_guids=node_guids,
        state_labels=[s.label for s in state_list],
    )


# ---------------------------------------------------------------------- #
# Match transfer
# ---------------------------------------------------------------------- #
def transfer_match(
    transformation: PatternTransformation, match: Match, target: SDFG
) -> Match:
    """Find the match in ``target`` corresponding to ``match`` (by node guid
    and state label), so the same transformation instance can be applied to a
    cloned program or an extracted cutout."""
    wanted_guids = {n.guid for n in match.nodes.values()}
    wanted_states = {s.label for s in match.states}
    candidates = transformation.find_matches(target)
    for cand in candidates:
        guids = {n.guid for n in cand.nodes.values()}
        labels = {s.label for s in cand.states}
        if guids != wanted_guids or (wanted_states and labels != wanted_states):
            continue
        # Disambiguate matches at the same location by simple metadata keys
        # (e.g. which symbol a state-machine simplification targets).
        mismatch = False
        for key in ("symbol", "alias", "source"):
            if key in match.metadata and key in cand.metadata:
                if str(match.metadata[key]) != str(cand.metadata[key]):
                    mismatch = True
                    break
        if mismatch:
            continue
        return cand
    if len(candidates) == 1:
        return candidates[0]
    raise TransformationError(
        f"{transformation.name}: could not transfer the match onto "
        f"'{target.name}' ({len(candidates)} candidate matches)"
    )
