"""Graphviz DOT export for automata — debugging and paper-figure views.

Renders character DFAs and token automata in the style of the paper's
Figures 3 and 12 (states as circles, accepting states doubled, edge labels
as characters or token strings).  Output is plain DOT text; render with
``dot -Tpng`` wherever graphviz is available.
"""

from __future__ import annotations

from repro.automata.dfa import DFA

__all__ = ["dfa_to_dot", "token_automaton_to_dot"]


def _quote(label: str) -> str:
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    # Make whitespace visible, as the paper renders spaces as Ġ.
    return escaped.replace(" ", "Ġ").replace("\n", "\\\\n")


def dfa_to_dot(dfa: DFA, name: str = "dfa", max_edges_per_pair: int = 4) -> str:
    """DOT source for a character DFA.

    Parallel edges between a state pair are collapsed into one edge whose
    label lists up to ``max_edges_per_pair`` characters (then an ellipsis) —
    large character classes would otherwise swamp the graph.
    """
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=11];',
        f'  __start [shape=point, label=""];',
        f"  __start -> {dfa.start};",
    ]
    for state in dfa.accepts:
        lines.append(f"  {state} [shape=doublecircle];")
    grouped: dict[tuple[int, int], list[str]] = {}
    for src, row in sorted(dfa.transitions.items()):
        for ch, dst in sorted(row.items()):
            grouped.setdefault((src, dst), []).append(ch)
    for (src, dst), chars in grouped.items():
        shown = chars[:max_edges_per_pair]
        label = ",".join(_quote(c) for c in shown)
        if len(chars) > max_edges_per_pair:
            label += f",… ({len(chars)})"
        lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def token_automaton_to_dot(automaton, tokenizer, name: str = "llm_automaton") -> str:
    """DOT source for an LLM automaton (token-space edges, Figure 12
    style).

    Prefix-region states are shaded; edge labels are decoded token
    strings.
    """
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=11];',
        f'  __start [shape=point, label=""];',
        f"  __start -> {automaton.start};",
    ]
    edges = sorted(automaton.edges.items())  # first: a lazy product's labels grow with it
    for state in automaton.accepts:
        lines.append(f"  {state} [shape=doublecircle];")
    for state in automaton.prefix_live:
        lines.append(f'  {state} [style=filled, fillcolor="lightgrey"];')
    for src, row in edges:
        for token_id, dst in sorted(row.items()):
            label = _quote(tokenizer.vocab.token_of(token_id))
            lines.append(f'  {src} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
