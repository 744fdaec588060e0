//! Graphviz DOT export for dual graphs.
//!
//! Reliable edges render solid, unreliable-only edges dashed; the source is
//! drawn as a doubled circle. Undirected networks render as `graph`,
//! directed ones as `digraph`.

use std::fmt::Write as _;

use crate::dual::DualGraph;

/// Renders the network in Graphviz DOT format.
///
/// # Examples
///
/// ```
/// let net = dualgraph_net::generators::line(3, 2);
/// let dot = dualgraph_net::dot::to_dot(&net, "line3");
/// assert!(dot.contains("graph line3"));
/// assert!(dot.contains("style=dashed"));
/// ```
pub fn to_dot(network: &DualGraph, name: &str) -> String {
    let undirected = network.is_undirected();
    let (kw, op) = if undirected {
        ("graph", "--")
    } else {
        ("digraph", "->")
    };
    let mut out = String::new();
    let _ = writeln!(out, "{kw} {name} {{");
    let _ = writeln!(out, "  node [shape=circle];");
    let _ = writeln!(
        out,
        "  {} [shape=doublecircle, label=\"s\"];",
        network.source().index()
    );
    let emit = |u: usize, v: usize, dashed: bool, out: &mut String| {
        let style = if dashed { " [style=dashed]" } else { "" };
        let _ = writeln!(out, "  {u} {op} {v}{style};");
    };
    for (u, v) in network.reliable_csr().edges() {
        if !undirected || u < v {
            emit(u.index(), v.index(), false, &mut out);
        }
    }
    for u in network.nodes() {
        for &v in network.unreliable_only_out(u) {
            if !undirected || u < v {
                emit(u.index(), v.index(), true, &mut out);
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn undirected_renders_each_edge_once() {
        let net = generators::line(3, 2);
        let dot = to_dot(&net, "g");
        assert!(dot.starts_with("graph g {"));
        assert_eq!(dot.matches(" -- ").count(), 3); // 0-1, 1-2 reliable; 0-2 dashed
        assert_eq!(dot.matches("style=dashed").count(), 1);
        assert!(dot.contains("doublecircle"));
    }

    #[test]
    fn directed_renders_arrows() {
        use crate::{Digraph, DualGraph, NodeId};
        let mut g = Digraph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        let net = DualGraph::classical(g, NodeId(0)).unwrap();
        let dot = to_dot(&net, "d");
        assert!(dot.starts_with("digraph d {"));
        assert!(dot.contains("0 -> 1"));
    }
}
