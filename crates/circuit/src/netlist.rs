//! The circuit netlist: named nodes plus a list of elements.

use std::collections::HashMap;
use std::fmt;

use crate::element::{Element, NodeId, GROUND};
use crate::waveform::Waveform;

/// Errors arising while building or validating a circuit.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// An element value was non-positive where positivity is required.
    NonPositiveValue {
        /// Element name.
        element: String,
        /// The offending value.
        value: f64,
    },
    /// Duplicate element name.
    DuplicateName(String),
    /// An element references a node id that was never created.
    UnknownNode {
        /// Element name.
        element: String,
        /// The missing node id.
        node: NodeId,
    },
    /// A controlled source references a controlling element that does not
    /// exist or is not a voltage source.
    UnknownControl {
        /// Element name.
        element: String,
        /// Name of the missing controlling source.
        control: String,
    },
    /// Both terminals of an element are the same node.
    ShortedElement(String),
    /// Parse error from the deck parser, with 1-based line number.
    Parse {
        /// Line number in the deck.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An edit referenced an element that does not exist.
    NoSuchElement(String),
    /// An element cannot be removed because a current-controlled source
    /// still references it.
    ControlInUse {
        /// The element being removed.
        element: String,
        /// The F/H source that controls through it.
        dependent: String,
    },
    /// An edit targeted an element kind it does not apply to (e.g.
    /// resizing a voltage source or re-sourcing a resistor).
    WrongKind {
        /// Element name.
        element: String,
        /// What the edit expected.
        expected: &'static str,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::NonPositiveValue { element, value } => {
                write!(f, "element {element} has non-positive value {value}")
            }
            CircuitError::DuplicateName(name) => {
                write!(f, "duplicate element name {name}")
            }
            CircuitError::UnknownNode { element, node } => {
                write!(f, "element {element} references unknown node {node}")
            }
            CircuitError::UnknownControl { element, control } => {
                write!(
                    f,
                    "element {element} references unknown controlling source {control}"
                )
            }
            CircuitError::ShortedElement(name) => {
                write!(f, "element {name} has both terminals on the same node")
            }
            CircuitError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            CircuitError::NoSuchElement(name) => {
                write!(f, "no element named {name}")
            }
            CircuitError::ControlInUse { element, dependent } => {
                write!(
                    f,
                    "element {element} still controls {dependent}; remove {dependent} first"
                )
            }
            CircuitError::WrongKind { element, expected } => {
                write!(f, "element {element} is not {expected}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A linear(ized) RLC circuit: named nodes and a list of elements.
///
/// Node 0 is always ground (named `"0"`). Construction goes through the
/// builder-style `add_*` methods, which validate values eagerly
/// (C-VALIDATE) so downstream analyses can assume well-formed data.
///
/// # Examples
///
/// Build the simplest RC stage and inspect it:
///
/// ```
/// use awe_circuit::{Circuit, Waveform};
///
/// # fn main() -> Result<(), awe_circuit::CircuitError> {
/// let mut c = Circuit::new();
/// let n_in = c.node("in");
/// let n1 = c.node("n1");
/// c.add_vsource("V1", n_in, 0, Waveform::step(0.0, 5.0))?;
/// c.add_resistor("R1", n_in, n1, 1e3)?;
/// c.add_capacitor("C1", n1, 0, 1e-12)?;
/// assert_eq!(c.num_nodes(), 3); // ground, in, n1
/// assert_eq!(c.elements().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    name_to_id: HashMap<String, NodeId>,
    elements: Vec<Element>,
    element_names: HashMap<String, usize>,
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: Vec::new(),
            name_to_id: HashMap::new(),
            elements: Vec::new(),
            element_names: HashMap::new(),
        };
        let g = c.node("0");
        debug_assert_eq!(g, GROUND);
        c
    }

    /// Returns the id for a named node, creating it if necessary.
    /// The names `"0"`, `"gnd"` and `"GND"` all map to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let canonical = if name.eq_ignore_ascii_case("gnd") {
            "0"
        } else {
            name
        };
        if let Some(&id) = self.name_to_id.get(canonical) {
            return id;
        }
        let id = self.node_names.len();
        self.node_names.push(canonical.to_owned());
        self.name_to_id.insert(canonical.to_owned(), id);
        id
    }

    /// Looks up an existing node id by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let canonical = if name.eq_ignore_ascii_case("gnd") {
            "0"
        } else {
            name
        };
        self.name_to_id.get(canonical).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id]
    }

    /// Total number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Finds an element by name.
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.element_names.get(name).map(|&i| &self.elements[i])
    }

    /// Iterator over elements of a given kind tag (`'R'`, `'C'`, …).
    pub fn elements_of_kind(&self, kind: char) -> impl Iterator<Item = &Element> {
        self.elements.iter().filter(move |e| e.kind() == kind)
    }

    /// Number of energy-storage elements (state variables before any
    /// degeneracy, i.e. the order `n` of the paper's eq. (4)).
    pub fn num_states(&self) -> usize {
        self.elements.iter().filter(|e| e.is_storage()).count()
    }

    fn check_common(
        &self,
        name: &str,
        nodes: &[NodeId],
        value: f64,
        require_positive: bool,
    ) -> Result<(), CircuitError> {
        if self.element_names.contains_key(name) {
            return Err(CircuitError::DuplicateName(name.to_owned()));
        }
        for &n in nodes {
            if n >= self.num_nodes() {
                return Err(CircuitError::UnknownNode {
                    element: name.to_owned(),
                    node: n,
                });
            }
        }
        if require_positive && value <= 0.0 {
            return Err(CircuitError::NonPositiveValue {
                element: name.to_owned(),
                value,
            });
        }
        Ok(())
    }

    fn push(&mut self, e: Element) {
        self.element_names
            .insert(e.name().to_owned(), self.elements.len());
        self.elements.push(e);
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, unknown nodes, non-positive resistance, and
    /// shorted terminals.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[a, b], ohms, true)?;
        if a == b {
            return Err(CircuitError::ShortedElement(name.to_owned()));
        }
        self.push(Element::Resistor {
            name: name.to_owned(),
            a,
            b,
            ohms,
        });
        Ok(())
    }

    /// Adds a capacitor with equilibrium initial condition.
    ///
    /// # Errors
    ///
    /// Same validation as [`Circuit::add_resistor`].
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), CircuitError> {
        self.add_capacitor_ic(name, a, b, farads, None)
    }

    /// Adds a capacitor, optionally with a nonequilibrium initial voltage
    /// (paper §5.2).
    ///
    /// # Errors
    ///
    /// Same validation as [`Circuit::add_resistor`].
    pub fn add_capacitor_ic(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
        initial_voltage: Option<f64>,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[a, b], farads, true)?;
        if a == b {
            return Err(CircuitError::ShortedElement(name.to_owned()));
        }
        self.push(Element::Capacitor {
            name: name.to_owned(),
            a,
            b,
            farads,
            initial_voltage,
        });
        Ok(())
    }

    /// Adds an inductor with equilibrium initial current.
    ///
    /// # Errors
    ///
    /// Same validation as [`Circuit::add_resistor`].
    pub fn add_inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<(), CircuitError> {
        self.add_inductor_ic(name, a, b, henries, None)
    }

    /// Adds an inductor, optionally with a nonequilibrium initial current.
    ///
    /// # Errors
    ///
    /// Same validation as [`Circuit::add_resistor`].
    pub fn add_inductor_ic(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
        initial_current: Option<f64>,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[a, b], henries, true)?;
        if a == b {
            return Err(CircuitError::ShortedElement(name.to_owned()));
        }
        self.push(Element::Inductor {
            name: name.to_owned(),
            a,
            b,
            henries,
            initial_current,
        });
        Ok(())
    }

    /// Adds an independent voltage source.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and unknown nodes.
    pub fn add_vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        waveform: Waveform,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[pos, neg], 1.0, false)?;
        self.push(Element::VoltageSource {
            name: name.to_owned(),
            pos,
            neg,
            waveform,
        });
        Ok(())
    }

    /// Adds an independent current source.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and unknown nodes.
    pub fn add_isource(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        waveform: Waveform,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[from, to], 1.0, false)?;
        self.push(Element::CurrentSource {
            name: name.to_owned(),
            from,
            to,
            waveform,
        });
        Ok(())
    }

    /// Adds a voltage-controlled current source (`G` element).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and unknown nodes.
    pub fn add_vccs(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        cpos: NodeId,
        cneg: NodeId,
        gm: f64,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[from, to, cpos, cneg], 1.0, false)?;
        self.push(Element::Vccs {
            name: name.to_owned(),
            from,
            to,
            cpos,
            cneg,
            gm,
        });
        Ok(())
    }

    /// Adds a voltage-controlled voltage source (`E` element).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and unknown nodes.
    pub fn add_vcvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        cpos: NodeId,
        cneg: NodeId,
        gain: f64,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[pos, neg, cpos, cneg], 1.0, false)?;
        self.push(Element::Vcvs {
            name: name.to_owned(),
            pos,
            neg,
            cpos,
            cneg,
            gain,
        });
        Ok(())
    }

    /// Adds a current-controlled current source (`F` element). The
    /// controlling element must be an existing voltage source.
    ///
    /// # Errors
    ///
    /// Additionally rejects a missing or non-V controlling element.
    pub fn add_cccs(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        control: &str,
        gain: f64,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[from, to], 1.0, false)?;
        self.check_control(name, control)?;
        self.push(Element::Cccs {
            name: name.to_owned(),
            from,
            to,
            control: control.to_owned(),
            gain,
        });
        Ok(())
    }

    /// Adds a current-controlled voltage source (`H` element). The
    /// controlling element must be an existing voltage source.
    ///
    /// # Errors
    ///
    /// Additionally rejects a missing or non-V controlling element.
    pub fn add_ccvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        control: &str,
        r: f64,
    ) -> Result<(), CircuitError> {
        self.check_common(name, &[pos, neg], 1.0, false)?;
        self.check_control(name, control)?;
        self.push(Element::Ccvs {
            name: name.to_owned(),
            pos,
            neg,
            control: control.to_owned(),
            r,
        });
        Ok(())
    }

    fn check_control(&self, name: &str, control: &str) -> Result<(), CircuitError> {
        match self.element(control) {
            Some(Element::VoltageSource { .. }) => Ok(()),
            _ => Err(CircuitError::UnknownControl {
                element: name.to_owned(),
                control: control.to_owned(),
            }),
        }
    }

    /// Removes the element named `name` (an ECO-style edit), returning it.
    ///
    /// Nodes the element referenced stay in the circuit even if nothing
    /// else touches them — node ids are stable across edits.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NoSuchElement`] if absent;
    /// [`CircuitError::ControlInUse`] if a current-controlled source (`F`
    /// or `H`) still names it as its controlling element.
    pub fn remove_element(&mut self, name: &str) -> Result<Element, CircuitError> {
        let idx = *self
            .element_names
            .get(name)
            .ok_or_else(|| CircuitError::NoSuchElement(name.to_owned()))?;
        if let Some(dependent) = self.elements.iter().find_map(|e| match e {
            Element::Cccs {
                name: dep, control, ..
            }
            | Element::Ccvs {
                name: dep, control, ..
            } if control == name => Some(dep.clone()),
            _ => None,
        }) {
            return Err(CircuitError::ControlInUse {
                element: name.to_owned(),
                dependent,
            });
        }
        self.element_names.remove(name);
        let removed = self.elements.remove(idx);
        // Indices after the removed slot shift down by one.
        for i in self.element_names.values_mut() {
            if *i > idx {
                *i -= 1;
            }
        }
        Ok(removed)
    }

    /// Resizes a passive or controlled-source element in place (an
    /// ECO-style value-only edit): R/C/L values, VCCS `gm`, VCVS gain,
    /// CCCS gain, CCVS transresistance. Topology (terminals, element
    /// kind, initial conditions) is untouched, so the circuit's sparsity
    /// pattern — and its symbolic LU — survive the edit.
    ///
    /// # Errors
    ///
    /// [`CircuitError::NoSuchElement`] if absent;
    /// [`CircuitError::WrongKind`] for independent sources (change their
    /// waveform with [`Circuit::set_source`]);
    /// [`CircuitError::NonPositiveValue`] for a non-positive R/C/L value.
    pub fn set_value(&mut self, name: &str, value: f64) -> Result<(), CircuitError> {
        let idx = *self
            .element_names
            .get(name)
            .ok_or_else(|| CircuitError::NoSuchElement(name.to_owned()))?;
        self.set_value_at(idx, value)
    }

    /// [`Circuit::set_value`] for the element at `index` in
    /// [`Circuit::elements`], without the name lookup — for callers that
    /// walk the element list anyway, as a corner sweep perturbing every
    /// R and C does.
    ///
    /// # Errors
    ///
    /// As [`Circuit::set_value`]; an `index` past the end is
    /// [`CircuitError::NoSuchElement`] naming `#index`.
    pub fn set_value_at(&mut self, index: usize, value: f64) -> Result<(), CircuitError> {
        let el = self
            .elements
            .get_mut(index)
            .ok_or_else(|| CircuitError::NoSuchElement(format!("#{index}")))?;
        let positive = matches!(
            el,
            Element::Resistor { .. } | Element::Capacitor { .. } | Element::Inductor { .. }
        );
        if positive && value <= 0.0 {
            return Err(CircuitError::NonPositiveValue {
                element: el.name().to_owned(),
                value,
            });
        }
        match el {
            Element::Resistor { ohms, .. } => *ohms = value,
            Element::Capacitor { farads, .. } => *farads = value,
            Element::Inductor { henries, .. } => *henries = value,
            Element::Vccs { gm, .. } => *gm = value,
            Element::Vcvs { gain, .. } => *gain = value,
            Element::Cccs { gain, .. } => *gain = value,
            Element::Ccvs { r, .. } => *r = value,
            Element::VoltageSource { name, .. } | Element::CurrentSource { name, .. } => {
                return Err(CircuitError::WrongKind {
                    element: name.clone(),
                    expected: "a resizable element (R/C/L/G/E/F/H)",
                })
            }
        }
        Ok(())
    }

    /// Replaces the waveform of an independent V/I source in place (an
    /// ECO-style value-only edit — the MNA structure does not change).
    ///
    /// # Errors
    ///
    /// [`CircuitError::NoSuchElement`] if absent;
    /// [`CircuitError::WrongKind`] for anything but a V/I source.
    pub fn set_source(&mut self, name: &str, new_waveform: Waveform) -> Result<(), CircuitError> {
        let idx = *self
            .element_names
            .get(name)
            .ok_or_else(|| CircuitError::NoSuchElement(name.to_owned()))?;
        match &mut self.elements[idx] {
            Element::VoltageSource { waveform, .. } | Element::CurrentSource { waveform, .. } => {
                *waveform = new_waveform;
                Ok(())
            }
            _ => Err(CircuitError::WrongKind {
                element: name.to_owned(),
                expected: "an independent source (V/I)",
            }),
        }
    }

    /// Renders the circuit as a SPICE-like deck (one element per line).
    pub fn to_deck(&self) -> String {
        let mut out = String::new();
        for e in &self.elements {
            // Re-map ids to names for readability.
            let line = match e {
                Element::Resistor { name, a, b, ohms } => {
                    format!(
                        "{name} {} {} {ohms}",
                        self.node_name(*a),
                        self.node_name(*b)
                    )
                }
                Element::Capacitor {
                    name,
                    a,
                    b,
                    farads,
                    initial_voltage,
                } => {
                    let mut s = format!(
                        "{name} {} {} {farads}",
                        self.node_name(*a),
                        self.node_name(*b)
                    );
                    if let Some(ic) = initial_voltage {
                        s.push_str(&format!(" IC={ic}"));
                    }
                    s
                }
                Element::Inductor {
                    name,
                    a,
                    b,
                    henries,
                    initial_current,
                } => {
                    let mut s = format!(
                        "{name} {} {} {henries}",
                        self.node_name(*a),
                        self.node_name(*b)
                    );
                    if let Some(ic) = initial_current {
                        s.push_str(&format!(" IC={ic}"));
                    }
                    s
                }
                Element::VoltageSource {
                    name,
                    pos,
                    neg,
                    waveform,
                } => format!(
                    "{name} {} {} {waveform}",
                    self.node_name(*pos),
                    self.node_name(*neg)
                ),
                Element::CurrentSource {
                    name,
                    from,
                    to,
                    waveform,
                } => format!(
                    "{name} {} {} {waveform}",
                    self.node_name(*from),
                    self.node_name(*to)
                ),
                other => other.to_string(),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(".end\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc_stage() -> Circuit {
        let mut c = Circuit::new();
        let n_in = c.node("in");
        let n1 = c.node("n1");
        c.add_vsource("V1", n_in, GROUND, Waveform::step(0.0, 5.0))
            .unwrap();
        c.add_resistor("R1", n_in, n1, 1e3).unwrap();
        c.add_capacitor("C1", n1, GROUND, 1e-12).unwrap();
        c
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), GROUND);
        assert_eq!(c.node("gnd"), GROUND);
        assert_eq!(c.node("GND"), GROUND);
        assert_eq!(c.find_node("Gnd"), Some(GROUND));
        assert_eq!(c.num_nodes(), 1);
    }

    #[test]
    fn node_creation_and_lookup() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn builds_rc_stage() {
        let c = rc_stage();
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.elements().len(), 3);
        assert_eq!(c.num_states(), 1);
        assert!(c.element("R1").is_some());
        assert!(c.element("X9").is_none());
        assert_eq!(c.elements_of_kind('C').count(), 1);
    }

    #[test]
    fn rejects_bad_values() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        assert!(matches!(
            c.add_resistor("R1", n1, GROUND, 0.0),
            Err(CircuitError::NonPositiveValue { .. })
        ));
        assert!(matches!(
            c.add_capacitor("C1", n1, GROUND, -1e-12),
            Err(CircuitError::NonPositiveValue { .. })
        ));
        assert!(matches!(
            c.add_inductor("L1", n1, GROUND, 0.0),
            Err(CircuitError::NonPositiveValue { .. })
        ));
    }

    #[test]
    fn rejects_duplicates_and_shorts() {
        let mut c = rc_stage();
        let n1 = c.find_node("n1").unwrap();
        assert!(matches!(
            c.add_resistor("R1", n1, GROUND, 1.0),
            Err(CircuitError::DuplicateName(_))
        ));
        assert!(matches!(
            c.add_resistor("R2", n1, n1, 1.0),
            Err(CircuitError::ShortedElement(_))
        ));
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut c = Circuit::new();
        assert!(matches!(
            c.add_resistor("R1", 5, GROUND, 1.0),
            Err(CircuitError::UnknownNode { node: 5, .. })
        ));
    }

    #[test]
    fn controlled_sources() {
        let mut c = rc_stage();
        let n1 = c.find_node("n1").unwrap();
        let n_in = c.find_node("in").unwrap();
        c.add_vccs("G1", n1, GROUND, n_in, GROUND, 1e-3).unwrap();
        let n_out = c.node("out");
        c.add_vcvs("E1", n_out, GROUND, n1, GROUND, 2.0).unwrap();
        c.add_cccs("F1", n1, GROUND, "V1", 0.5).unwrap();
        let n_h = c.node("h");
        c.add_ccvs("H1", n_h, GROUND, "V1", 10.0).unwrap();
        assert_eq!(c.elements().len(), 7);
        // Controlling element must be a V source.
        assert!(matches!(
            c.add_cccs("F2", n1, GROUND, "R1", 1.0),
            Err(CircuitError::UnknownControl { .. })
        ));
        assert!(matches!(
            c.add_ccvs("H2", n1, GROUND, "Vmissing", 1.0),
            Err(CircuitError::UnknownControl { .. })
        ));
    }

    #[test]
    fn deck_rendering() {
        let c = rc_stage();
        let deck = c.to_deck();
        assert!(deck.contains("R1 in n1 1000"));
        assert!(deck.contains("C1 n1 0"));
        assert!(deck.trim_end().ends_with(".end"));
    }

    #[test]
    fn error_display() {
        let e = CircuitError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert_eq!(e.to_string(), "parse error on line 3: bad token");
        assert_eq!(
            CircuitError::NoSuchElement("R9".into()).to_string(),
            "no element named R9"
        );
    }

    #[test]
    fn remove_element_edits() {
        let mut c = rc_stage();
        let gone = c.remove_element("C1").unwrap();
        assert_eq!(gone.name(), "C1");
        assert!(c.element("C1").is_none());
        assert_eq!(c.elements().len(), 2);
        // Name→index map re-aligned after the shift: lookups still work
        // and the freed name is reusable.
        let n1 = c.find_node("n1").unwrap();
        assert!(matches!(c.element("R1"), Some(Element::Resistor { .. })));
        c.add_capacitor("C1", n1, GROUND, 2e-12).unwrap();
        assert!(c.element("C1").is_some());
        assert!(matches!(
            c.remove_element("X9"),
            Err(CircuitError::NoSuchElement(_))
        ));
    }

    #[test]
    fn remove_element_respects_control_dependencies() {
        let mut c = rc_stage();
        let n1 = c.find_node("n1").unwrap();
        c.add_cccs("F1", n1, GROUND, "V1", 0.5).unwrap();
        assert!(matches!(
            c.remove_element("V1"),
            Err(CircuitError::ControlInUse { element, dependent })
                if element == "V1" && dependent == "F1"
        ));
        // Dependent first, then the controlling source.
        c.remove_element("F1").unwrap();
        c.remove_element("V1").unwrap();
        assert_eq!(c.elements().len(), 2);
    }

    #[test]
    fn set_value_edits() {
        let mut c = rc_stage();
        c.set_value("R1", 2.2e3).unwrap();
        assert!(matches!(
            c.element("R1"),
            Some(Element::Resistor { ohms, .. }) if *ohms == 2.2e3
        ));
        assert!(matches!(
            c.set_value("R1", 0.0),
            Err(CircuitError::NonPositiveValue { .. })
        ));
        assert!(matches!(
            c.set_value("V1", 3.0),
            Err(CircuitError::WrongKind { .. })
        ));
        assert!(matches!(
            c.set_value("X9", 1.0),
            Err(CircuitError::NoSuchElement(_))
        ));
        // By index: the same edit and the same checks, no name lookup.
        let r1 = c.elements().iter().position(|e| e.name() == "R1").unwrap();
        c.set_value_at(r1, 4.7e3).unwrap();
        assert!(matches!(
            c.element("R1"),
            Some(Element::Resistor { ohms, .. }) if *ohms == 4.7e3
        ));
        assert!(matches!(
            c.set_value_at(r1, -1.0),
            Err(CircuitError::NonPositiveValue { ref element, .. }) if element == "R1"
        ));
        assert!(matches!(
            c.set_value_at(c.elements().len(), 1.0),
            Err(CircuitError::NoSuchElement(_))
        ));
    }

    #[test]
    fn set_source_edits() {
        let mut c = rc_stage();
        c.set_source("V1", Waveform::step(0.0, 3.3)).unwrap();
        assert!(matches!(
            c.element("V1"),
            Some(Element::VoltageSource { waveform, .. }) if waveform.final_value() == 3.3
        ));
        assert!(matches!(
            c.set_source("R1", Waveform::dc(1.0)),
            Err(CircuitError::WrongKind { .. })
        ));
    }
}
