//! SPICE-netlist interchange (a practical subset).
//!
//! Serializes [`Netlist`]s to SPICE decks and parses them back, so models
//! can move between this library and standard extraction/simulation flows.
//! Supported elements: `R`, `C`, `L` two-terminal cards with engineering
//! suffixes; ports and parameter sensitivities — which stock SPICE has no
//! syntax for — travel in structured comment cards:
//!
//! ```text
//! *NODE 1             ; optional: pins a node to the next dense index
//! R1 1 2 100.0
//! C1 2 0 50f
//! *PORT 1
//! *VPORT 3
//! *OUTPUT 2
//! *INPUT 1
//! *SENS R1 0 1.0      ; element name, parameter index, coefficient
//! ```
//!
//! Node `0` is ground; all other node names are arbitrary tokens mapped to
//! dense indices in first-appearance order. `*NODE` cards (emitted by
//! [`to_spice`] before the element cards) pin that order explicitly, so a
//! serialize→parse round trip reproduces the original node indexing — and
//! with it bit-identical MNA stamps — even when the elements visit nodes
//! out of order. Port cards must reference a non-ground node.

use crate::netlist::{ElementKind, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Error produced by the SPICE parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpiceError {
    /// 1-based line number of the offending card.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseSpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spice parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseSpiceError {}

/// Serializes a netlist to a SPICE deck (see module docs for the comment
/// conventions carrying ports and sensitivities).
pub fn to_spice(net: &Netlist, title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("* {title}\n"));
    let node = |t: Option<usize>| -> String {
        match t {
            None => "0".to_string(),
            Some(n) => format!("{}", n + 1),
        }
    };
    // Pin the node order up front: without this, a deck whose elements
    // visit nodes out of index order would parse back with permuted node
    // indices (first-appearance mapping) and permuted MNA stamps.
    for n in 0..net.num_nodes() {
        out.push_str(&format!("*NODE {}\n", n + 1));
    }
    let mut counters = [0usize; 3];
    let mut names: Vec<String> = Vec::new();
    for e in net.elements() {
        let (prefix, idx, value) = match e.kind {
            ElementKind::Resistor => ("R", 0usize, 1.0 / e.value),
            ElementKind::Capacitor => ("C", 1, e.value),
            ElementKind::Inductor => ("L", 2, e.value),
        };
        counters[idx] += 1;
        let name = format!("{prefix}{}", counters[idx]);
        out.push_str(&format!("{name} {} {} {value:e}\n", node(e.a), node(e.b)));
        names.push(name);
    }
    for (e, name) in net.elements().iter().zip(names.iter()) {
        for &(p, c) in &e.sens {
            out.push_str(&format!("*SENS {name} {p} {c:e}\n"));
        }
    }
    for &n in net.inputs() {
        out.push_str(&format!("*INPUT {}\n", n + 1));
    }
    for &n in net.outputs() {
        out.push_str(&format!("*OUTPUT {}\n", n + 1));
    }
    for &n in net.vports() {
        out.push_str(&format!("*VPORT {}\n", n + 1));
    }
    out.push_str(".END\n");
    out
}

/// Parses a SPICE deck back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseSpiceError`] for malformed cards, unknown element
/// references in `*SENS`, or non-positive element values.
pub fn parse_spice(deck: &str) -> Result<Netlist, ParseSpiceError> {
    let mut net = Netlist::new(0);
    let mut node_ids: HashMap<String, usize> = HashMap::new();
    let mut element_ids: HashMap<String, crate::ElementId> = HashMap::new();
    // Port/sens cards may reference nodes/elements declared later, so they
    // are applied after all element cards.
    let mut deferred: Vec<(usize, String)> = Vec::new();

    let lookup_node =
        |net: &mut Netlist, node_ids: &mut HashMap<String, usize>, tok: &str| -> Option<usize> {
            if tok == "0" || tok.eq_ignore_ascii_case("gnd") {
                return None;
            }
            Some(
                *node_ids
                    .entry(tok.to_string())
                    .or_insert_with(|| net.add_node()),
            )
        };

    for (lineno, raw) in deck.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let upper = text.to_ascii_uppercase();
        if upper == ".END" || upper.starts_with(".TITLE") {
            continue;
        }
        if let Some(rest) = text.strip_prefix('*') {
            let rest = rest.trim();
            let upper = rest.to_ascii_uppercase();
            if upper.starts_with("SENS ")
                || upper.starts_with("INPUT ")
                || upper.starts_with("OUTPUT ")
                || upper.starts_with("VPORT ")
                || upper.starts_with("PORT ")
            {
                deferred.push((line, rest.to_string()));
            } else if upper == "NODE" || upper.starts_with("NODE ") {
                // Declaration card: assign the node its dense index now,
                // pinning the first-appearance order.
                let Some(tok) = rest.split_whitespace().nth(1) else {
                    return Err(ParseSpiceError {
                        line,
                        message: "*NODE needs a node".into(),
                    });
                };
                if lookup_node(&mut net, &mut node_ids, tok).is_none() {
                    return Err(ParseSpiceError {
                        line,
                        message: "*NODE cannot declare the ground node".into(),
                    });
                }
            }
            continue; // ordinary comment
        }

        let mut toks = text.split_whitespace();
        // pmor-lint: allow(panic-in-lib) reason="`text` is trimmed and nonempty here, so the first whitespace token exists"
        let name = toks.next().unwrap().to_string();
        let kind = match name.chars().next().map(|c| c.to_ascii_uppercase()) {
            Some('R') => ElementKind::Resistor,
            Some('C') => ElementKind::Capacitor,
            Some('L') => ElementKind::Inductor,
            _ => {
                return Err(ParseSpiceError {
                    line,
                    message: format!("unsupported element '{name}'"),
                })
            }
        };
        let (a_tok, b_tok, v_tok) = match (toks.next(), toks.next(), toks.next()) {
            (Some(a), Some(b), Some(v)) => (a, b, v),
            _ => {
                return Err(ParseSpiceError {
                    line,
                    message: format!("element '{name}' needs two nodes and a value"),
                })
            }
        };
        let value = parse_spice_value(v_tok).ok_or_else(|| ParseSpiceError {
            line,
            message: format!("bad value '{v_tok}'"),
        })?;
        if value <= 0.0 {
            return Err(ParseSpiceError {
                line,
                message: format!("non-positive value for '{name}'"),
            });
        }
        let a = lookup_node(&mut net, &mut node_ids, a_tok);
        let b = lookup_node(&mut net, &mut node_ids, b_tok);
        if a.is_none() && b.is_none() {
            return Err(ParseSpiceError {
                line,
                message: format!("element '{name}' has both terminals grounded"),
            });
        }
        let id = match kind {
            ElementKind::Resistor => net.add_resistor(a, b, value),
            ElementKind::Capacitor => net.add_capacitor(a, b, value),
            ElementKind::Inductor => net.add_inductor(a, b, value),
        };
        element_ids.insert(name.to_ascii_uppercase(), id);
    }

    for (line, card) in deferred {
        let mut toks = card.split_whitespace();
        // pmor-lint: allow(panic-in-lib) reason="deferred cards are pushed only when they start with a known keyword, so the first token exists"
        let kw = toks.next().unwrap().to_ascii_uppercase();
        match kw.as_str() {
            "SENS" => {
                let (ename, ptok, ctok) = match (toks.next(), toks.next(), toks.next()) {
                    (Some(a), Some(b), Some(c)) => (a, b, c),
                    _ => {
                        return Err(ParseSpiceError {
                            line,
                            message: "*SENS needs <element> <param> <coeff>".into(),
                        })
                    }
                };
                let id = *element_ids
                    .get(&ename.to_ascii_uppercase())
                    .ok_or_else(|| ParseSpiceError {
                        line,
                        message: format!("*SENS references unknown element '{ename}'"),
                    })?;
                let param: usize = ptok.parse().map_err(|_| ParseSpiceError {
                    line,
                    message: format!("bad parameter index '{ptok}'"),
                })?;
                let coeff: f64 = ctok.parse().map_err(|_| ParseSpiceError {
                    line,
                    message: format!("bad coefficient '{ctok}'"),
                })?;
                net.set_sensitivity(id, param, coeff);
            }
            "INPUT" | "OUTPUT" | "VPORT" | "PORT" => {
                let ntok = toks.next().ok_or_else(|| ParseSpiceError {
                    line,
                    message: format!("*{kw} needs a node"),
                })?;
                if ntok == "0" || ntok.eq_ignore_ascii_case("gnd") {
                    return Err(ParseSpiceError {
                        line,
                        message: format!(
                            "*{kw}: ports cannot reference ground ('{ntok}'); \
                             ports are defined on non-ground nodes"
                        ),
                    });
                }
                let node = node_ids.get(ntok).copied().ok_or_else(|| ParseSpiceError {
                    line,
                    message: format!("*{kw} references unknown node '{ntok}'"),
                })?;
                match kw.as_str() {
                    "INPUT" => net.add_input(node),
                    "OUTPUT" => net.add_output(node),
                    "VPORT" => net.add_vport(node),
                    _ => net.add_port(node),
                }
            }
            _ => unreachable!("filtered above"),
        }
    }
    Ok(net)
}

/// Parses a SPICE number with optional engineering suffix
/// (`f p n u m k meg g t`).
fn parse_spice_value(tok: &str) -> Option<f64> {
    let lower = tok.to_ascii_lowercase();
    let (digits, mult) = if let Some(stripped) = lower.strip_suffix("meg") {
        (stripped, 1e6)
    } else {
        match lower.chars().last()? {
            'f' => (&lower[..lower.len() - 1], 1e-15),
            'p' => (&lower[..lower.len() - 1], 1e-12),
            'n' => (&lower[..lower.len() - 1], 1e-9),
            'u' => (&lower[..lower.len() - 1], 1e-6),
            'm' => (&lower[..lower.len() - 1], 1e-3),
            'k' => (&lower[..lower.len() - 1], 1e3),
            'g' => (&lower[..lower.len() - 1], 1e9),
            't' => (&lower[..lower.len() - 1], 1e12),
            _ => (lower.as_str(), 1.0),
        }
    };
    digits.parse::<f64>().ok().map(|v| v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_net() -> Netlist {
        let mut net = Netlist::new(0);
        let n0 = net.add_node();
        let n1 = net.add_node();
        let n2 = net.add_node();
        net.add_resistor(Some(n0), None, 50.0);
        let r = net.add_resistor(Some(n0), Some(n1), 100.0);
        net.set_sensitivity(r, 0, 1.0);
        let c = net.add_capacitor(Some(n1), None, 50e-15);
        net.set_sensitivity(c, 0, 0.6);
        net.set_sensitivity(c, 1, -0.2);
        net.add_inductor(Some(n1), Some(n2), 1e-9);
        net.add_capacitor(Some(n2), None, 10e-15);
        net.add_port(n0);
        net
    }

    #[test]
    fn roundtrip_preserves_the_assembled_system() {
        let net = sample_net();
        let deck = to_spice(&net, "roundtrip test");
        let parsed = parse_spice(&deck).unwrap();
        let a = net.assemble();
        let b = parsed.assemble();
        assert_eq!(a.g0, b.g0);
        assert_eq!(a.c0, b.c0);
        assert_eq!(a.gi.len(), b.gi.len());
        for (x, y) in a.gi.iter().zip(b.gi.iter()) {
            assert_eq!(x, y);
        }
        for (x, y) in a.ci.iter().zip(b.ci.iter()) {
            assert_eq!(x, y);
        }
        assert_eq!(a.b, b.b);
        assert_eq!(a.l, b.l);
    }

    #[test]
    fn engineering_suffixes() {
        let close = |tok: &str, want: f64| {
            let got = parse_spice_value(tok).unwrap_or_else(|| panic!("{tok} failed to parse"));
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{tok}: {got} vs {want}"
            );
        };
        close("50f", 50e-15);
        close("2.5p", 2.5e-12);
        close("3n", 3e-9);
        close("1u", 1e-6);
        close("10m", 1e-2);
        close("2k", 2e3);
        close("1meg", 1e6);
        close("4g", 4e9);
        close("100.0", 100.0);
        close("1e-12", 1e-12);
        assert_eq!(parse_spice_value("bogus"), None);
    }

    #[test]
    fn parses_hand_written_deck() {
        let deck = "\
* hand-written RC
R1 in mid 1k
C1 mid 0 10f   ; load
Rdrv in 0 50
*SENS R1 0 1.0
*PORT in
*OUTPUT mid
.END
";
        let net = parse_spice(deck).unwrap();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.num_params(), 1);
        let sys = net.assemble();
        assert_eq!(sys.num_inputs(), 1);
        assert_eq!(sys.num_outputs(), 2); // port output + explicit output
        assert!((sys.g0.get(0, 0) - (1e-3 + 0.02)).abs() < 1e-12);
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse_spice("R1 1 0 100\nX9 1 0 5\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unsupported"));

        let err = parse_spice("R1 1 0 -5\n").unwrap_err();
        assert!(err.message.contains("non-positive"));

        let err = parse_spice("*SENS R9 0 1.0\n").unwrap_err();
        assert!(err.message.contains("unknown element"));

        let err = parse_spice("R1 0 0 5\n").unwrap_err();
        assert!(err.message.contains("grounded"));
    }

    #[test]
    fn vport_cards_roundtrip() {
        let mut net = Netlist::new(0);
        let a = net.add_node();
        let b = net.add_node();
        net.add_resistor(Some(a), Some(b), 10.0);
        net.add_capacitor(Some(b), None, 1e-12);
        net.add_vport(a);
        net.add_vport(b);
        let deck = to_spice(&net, "vports");
        let parsed = parse_spice(&deck).unwrap();
        assert_eq!(parsed.vports().len(), 2);
        let sys = parsed.assemble();
        assert!(sys.has_symmetric_ports());
        assert_eq!(sys.dim(), 4);
    }

    #[test]
    fn ground_ports_rejected_explicitly() {
        for kw in ["PORT", "INPUT", "OUTPUT", "VPORT"] {
            for gnd in ["0", "gnd", "GND"] {
                let deck = format!("R1 a 0 5\nC1 a 0 1f\n*{kw} {gnd}\n.END\n");
                let err = parse_spice(&deck).unwrap_err();
                assert_eq!(err.line, 3, "*{kw} {gnd}");
                assert!(
                    err.message.contains("ports cannot reference ground"),
                    "*{kw} {gnd}: {}",
                    err.message
                );
            }
        }
    }

    #[test]
    fn node_cards_pin_the_index_order() {
        // Elements visit nodes out of index order; without the *NODE
        // preamble the parsed netlist would permute them.
        let mut net = Netlist::new(3);
        net.add_resistor(Some(2), None, 10.0);
        net.add_resistor(Some(2), Some(0), 20.0);
        net.add_resistor(Some(0), Some(1), 30.0);
        net.add_capacitor(Some(1), None, 1e-12);
        net.add_port(2);
        net.add_output(0);
        let deck = to_spice(&net, "out-of-order nodes");
        let parsed = parse_spice(&deck).unwrap();
        assert_eq!(net, parsed);
        assert_eq!(net.assemble().g0, parsed.assemble().g0);

        // Hand-written *NODE cards work too, and ground is rejected.
        assert!(parse_spice("*NODE a\nR1 a 0 5\n").is_ok());
        let err = parse_spice("*NODE 0\nR1 a 0 5\n").unwrap_err();
        assert!(err.message.contains("ground"), "{}", err.message);
        let err = parse_spice("*NODE\nR1 a 0 5\n").unwrap_err();
        assert!(err.message.contains("needs a node"), "{}", err.message);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let deck = "\n* just a comment\n\nR1 a 0 5\n   ; trailing\n.END\n";
        let net = parse_spice(deck).unwrap();
        assert_eq!(net.num_nodes(), 1);
        assert_eq!(net.elements().len(), 1);
    }
}
