//! The design model: many independent nets analyzed as one batch, plus
//! the structural net hash that keys the incremental-reanalysis cache.

use std::time::{Duration, Instant};

use awe_circuit::generators::{random_rc_tree, rc_line};
use awe_circuit::{
    parse_multi_deck, Circuit, CircuitError, Element, NodeId, ReduceOptions, Reduced, Waveform,
};

/// One net of a design: an independent circuit with a chosen observation
/// node.
#[derive(Clone, Debug)]
pub struct NetSpec {
    /// Net name, unique within the design.
    pub name: String,
    /// The net's circuit (its own node space).
    pub circuit: Circuit,
    /// The node whose voltage waveform the analysis reports.
    pub output: NodeId,
}

impl NetSpec {
    /// Structural hash of this net (see [`structural_hash`]).
    pub fn hash(&self) -> u64 {
        structural_hash(&self.circuit, self.output)
    }

    /// Topology-only pattern key of this net (see [`pattern_key`]).
    pub fn pattern_key(&self) -> u64 {
        pattern_key(&self.circuit)
    }
}

/// A design: a named, ordered collection of independent nets.
///
/// Order is the *reporting* order — batch results are always returned in
/// design order regardless of how the scheduler interleaves the work.
#[derive(Clone, Debug)]
pub struct Design {
    /// Design name (deck stem or `synthetic-<n>`).
    pub name: String,
    nets: Vec<NetSpec>,
    /// Wall time spent parsing or generating the nets.
    pub parse_time: Duration,
}

impl Design {
    /// Builds a design from explicit nets.
    pub fn from_nets(name: impl Into<String>, nets: Vec<NetSpec>) -> Self {
        Design {
            name: name.into(),
            nets,
            parse_time: Duration::ZERO,
        }
    }

    /// Parses a multi-net deck (see
    /// [`parse_multi_deck`](awe_circuit::parse_multi_deck)) into a design.
    ///
    /// Observation node per net: the node named `out` if present,
    /// otherwise the highest-numbered node (the generators' and decks'
    /// far-end convention).
    ///
    /// # Errors
    ///
    /// Propagates parse errors, including duplicate net names.
    pub fn from_deck(name: impl Into<String>, deck: &str) -> Result<Self, CircuitError> {
        let start = Instant::now();
        let nets = parse_multi_deck(deck)?
            .into_iter()
            .map(|net| {
                let output = default_output(&net.circuit);
                NetSpec {
                    name: net.name,
                    circuit: net.circuit,
                    output,
                }
            })
            .collect();
        Ok(Design {
            name: name.into(),
            nets,
            parse_time: start.elapsed(),
        })
    }

    /// A synthetic design of `n` random RC-tree nets (sizes cycle through
    /// a small/medium/large mix), deterministic per `seed`. This is the
    /// batch bench workload.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        let start = Instant::now();
        let sizes = [8usize, 12, 16, 24, 32];
        let nets = (0..n)
            .map(|i| {
                let nodes = sizes[i % sizes.len()];
                let g = random_rc_tree(
                    nodes,
                    (10.0, 500.0),
                    (0.05e-12, 2e-12),
                    seed.wrapping_add(i as u64),
                    Waveform::step(0.0, 5.0),
                );
                NetSpec {
                    name: format!("net{:04}", i + 1),
                    circuit: g.circuit,
                    output: g.output,
                }
            })
            .collect();
        Design {
            name: format!("synthetic-{n}"),
            nets,
            parse_time: start.elapsed(),
        }
    }

    /// A design of `n` RC chains with **identical topology** (same node
    /// and element names, same connectivity) and per-net perturbed
    /// values: every structural hash is distinct, every
    /// [`pattern_key`] is equal, so the whole design forms one structure
    /// group sharing one symbolic LU analysis. Deterministic per `seed`.
    /// This is the serve bench's warm-path workload.
    pub fn synthetic_chains(n: usize, stages: usize, seed: u64) -> Self {
        let start = Instant::now();
        let nets = (0..n)
            .map(|i| {
                // Cheap deterministic value jitter in [0, 1): enough to
                // make every hash unique without changing the topology.
                let mix = |k: u64| {
                    let mut x = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ k;
                    x ^= x >> 33;
                    x = x.wrapping_mul(0xff51afd7ed558ccd);
                    x ^= x >> 33;
                    (x >> 11) as f64 / (1u64 << 53) as f64
                };
                let g = rc_line(
                    stages,
                    100.0 * (1.0 + 0.5 * mix(1)),
                    1e-12 * (1.0 + 0.5 * mix(2)),
                    Waveform::step(0.0, 5.0),
                );
                NetSpec {
                    name: format!("net{:04}", i + 1),
                    circuit: g.circuit,
                    output: g.output,
                }
            })
            .collect();
        Design {
            name: format!("chains-{n}x{stages}"),
            nets,
            parse_time: start.elapsed(),
        }
    }

    /// A structure-group workload: `groups` distinct random RC-tree
    /// topologies (sizes cycle through the [`Design::synthetic`] mix) ×
    /// `members` nets each. Members of a group share the topology exactly
    /// — equal [`pattern_key`], one shared symbolic analysis, one batch
    /// tape — while every R/C value is independently perturbed, so all
    /// structural hashes stay distinct. Deterministic per `seed`. This is
    /// the batch-throughput bench workload.
    pub fn synthetic_groups(groups: usize, members: usize, seed: u64) -> Self {
        let start = Instant::now();
        let sizes = [8usize, 12, 16, 24, 32];
        let mut nets = Vec::with_capacity(groups.saturating_mul(members));
        for g in 0..groups {
            let base = random_rc_tree(
                sizes[g % sizes.len()],
                (10.0, 500.0),
                (0.05e-12, 2e-12),
                seed.wrapping_add(g as u64),
                Waveform::step(0.0, 5.0),
            );
            let values: Vec<(String, f64)> = base
                .circuit
                .elements()
                .iter()
                .filter_map(|e| match e {
                    Element::Resistor { name, ohms, .. } => Some((name.clone(), *ohms)),
                    Element::Capacitor { name, farads, .. } => Some((name.clone(), *farads)),
                    _ => None,
                })
                .collect();
            for m in 0..members {
                let mut circuit = base.circuit.clone();
                // Member 0 is the donor verbatim; the rest scale every
                // R/C into [0.75, 1.25)× so each hash is unique.
                if m > 0 {
                    for (k, (name, v)) in values.iter().enumerate() {
                        let u = unit_mix(
                            seed ^ 0x5eed_ba7c,
                            ((g as u64) << 40) | ((m as u64) << 16) | k as u64,
                        );
                        circuit
                            .set_value(name, v * (0.75 + 0.5 * u))
                            .expect("perturbing a known element");
                    }
                }
                nets.push(NetSpec {
                    name: format!("g{g:03}n{m:05}"),
                    circuit,
                    output: base.output,
                });
            }
        }
        Design {
            name: format!("groups-{groups}x{members}"),
            nets,
            parse_time: start.elapsed(),
        }
    }

    /// The nets, in reporting order.
    pub fn nets(&self) -> &[NetSpec] {
        &self.nets
    }

    /// Mutable access to one net by name (ECO edits go through here).
    pub fn net_mut(&mut self, name: &str) -> Option<&mut NetSpec> {
        self.nets.iter_mut().find(|n| n.name == name)
    }

    /// Renders the design as a multi-net deck
    /// ([`parse_multi_deck`]-compatible): one `* NET <name>` header plus
    /// the net's own deck per member. Round-trips through
    /// [`Design::from_deck`] for nets whose observation node follows the
    /// default convention (`out` or the highest-numbered node).
    pub fn to_multi_deck(&self) -> String {
        let mut out = String::new();
        for net in &self.nets {
            out.push_str(&format!("* NET {}\n", net.name));
            out.push_str(&net.circuit.to_deck());
        }
        out
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Whether the design has no nets.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Replaces the net named `name` (an ECO-style edit), returning `true`
    /// if it existed.
    pub fn replace_net(&mut self, name: &str, circuit: Circuit, output: NodeId) -> bool {
        match self.nets.iter_mut().find(|n| n.name == name) {
            Some(net) => {
                net.circuit = circuit;
                net.output = output;
                true
            }
            None => false,
        }
    }
}

/// A net as the solver will actually see it: optionally RC-chain-reduced
/// (see [`awe_circuit::reduce`]), with the cache and pattern keys derived
/// from the *solve* circuit. Built by [`prepare_net`]; every layer that
/// keys caches for a reduce-aware run (the batch engine, the serve
/// sessions) must go through this so their keys agree byte-for-byte.
#[derive(Clone, Debug)]
pub struct PreparedNet {
    /// The reduction outcome; `None` when reduction is disabled, so the
    /// original circuit solves untouched.
    pub reduced: Option<Reduced>,
    /// Observation node id within the solve circuit (the reduction
    /// preserves it; its *name* is unchanged).
    pub output: NodeId,
    /// Result-cache key. With reduction enabled this hashes the reduced
    /// circuit and mixes in the reduce configuration, so toggling the
    /// flag or moving the tolerance never serves a stale cached result;
    /// disabled, it equals [`NetSpec::hash`] exactly.
    pub hash: u64,
    /// Topology pattern key of the solve circuit (deliberately unsalted:
    /// a reduced net sharing a topology with an unreduced one sharing
    /// one symbolic analysis is correct, the pattern is value-free).
    pub pattern: u64,
    /// Circuit key: `hash` without its observation-node term, so nets
    /// observing one solve circuit at different nodes agree on it. The
    /// batch engine buckets solves by this key and confirms a shared
    /// solve by comparing the two circuits bit for bit; a collision
    /// costs a separate solve, never a wrong answer.
    pub circuit_key: u64,
}

impl PreparedNet {
    /// The circuit the solver should run on: the reduced rewrite when
    /// one exists, else `original`.
    pub fn circuit<'a>(&'a self, original: &'a Circuit) -> &'a Circuit {
        self.reduced.as_ref().map_or(original, |r| &r.circuit)
    }
}

/// Prepares one net for solving under the given reduction config: runs
/// the chain-reduction pass when enabled (preserving the observation
/// node) and derives the cache/pattern keys from whatever circuit will
/// actually be solved.
pub fn prepare_net(spec: &NetSpec, reduce_opts: &ReduceOptions) -> PreparedNet {
    if !reduce_opts.enabled {
        let (hash, circuit_key) = net_and_circuit_hash(&spec.circuit, spec.output);
        return PreparedNet {
            reduced: None,
            output: spec.output,
            hash,
            pattern: spec.pattern_key(),
            circuit_key,
        };
    }
    let reduced = awe_circuit::reduce(&spec.circuit, &[spec.output], reduce_opts);
    let output = reduced.map_node(spec.output).unwrap_or(spec.output);
    let (hash, circuit_key) = net_and_circuit_hash(&reduced.circuit, output);
    let pattern = pattern_key(&reduced.circuit);
    PreparedNet {
        reduced: Some(reduced),
        output,
        hash: hash ^ reduce_salt(reduce_opts),
        pattern,
        circuit_key,
    }
}

/// Just the `(cache key, pattern key)` pair of [`prepare_net`], for
/// layers (like the serve sessions' dirty tracking) that need keys
/// without holding the reduced circuit.
pub fn net_keys(spec: &NetSpec, reduce_opts: &ReduceOptions) -> (u64, u64) {
    let prepared = prepare_net(spec, reduce_opts);
    (prepared.hash, prepared.pattern)
}

/// Deterministic value jitter in `[0, 1)` (splitmix-style finalizer):
/// enough to make every perturbed hash unique without touching topology.
fn unit_mix(seed: u64, k: u64) -> f64 {
    let mut x = seed ^ k.wrapping_mul(0x9e3779b97f4a7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Cache-key salt for a reduction config: any tolerance change moves it.
fn reduce_salt(opts: &ReduceOptions) -> u64 {
    fnv1a(b"awe-reduce-v1") ^ fnv1a(&opts.tolerance.to_bits().to_le_bytes())
}

/// Default observation node: `out` if the deck names one, else the
/// highest-numbered node.
fn default_output(circuit: &Circuit) -> NodeId {
    circuit
        .find_node("out")
        .unwrap_or_else(|| circuit.num_nodes().saturating_sub(1))
}

/// Structural hash of a net: invariant under element reordering and node
/// *id* renumbering (ids are insertion-order artifacts; names are
/// structure), sensitive to any element value, terminal, waveform,
/// initial-condition, or observation-node change.
///
/// Each element is rendered to a canonical card (names, node names,
/// shortest-round-trip value formatting) and FNV-1a hashed; the per-card
/// hashes are combined with wrapping addition, which is
/// permutation-invariant. The observation node's name is one more term
/// of the sum (an id outside the circuit contributes its raw value), so
/// the same circuit observed elsewhere caches separately.
pub fn structural_hash(circuit: &Circuit, output: NodeId) -> u64 {
    net_and_circuit_hash(circuit, output).0
}

/// The [`structural_hash`] together with the circuit key it is built
/// from: the same wrapping sum without the observation node's term, so
/// one pass over the cards yields both.
pub(crate) fn net_and_circuit_hash(circuit: &Circuit, output: NodeId) -> (u64, u64) {
    let mut acc = fnv1a(b"awe-batch-net-v2");
    for e in circuit.elements() {
        acc = acc.wrapping_add(canonical_card_hash(circuit, e));
    }
    // An output outside the circuit hashes its raw id behind a 0xff
    // byte, which no (UTF-8) node name contains: it must not alias the
    // last node, whose net solves where this one fails.
    let out = if output < circuit.num_nodes() {
        fnv1a(circuit.node_name(output).as_bytes())
    } else {
        let mut h = CardHash::new();
        h.byte(0xff);
        h.bytes_raw(&(output as u64).to_le_bytes());
        h.finish()
    };
    (acc.wrapping_add(out), acc)
}

/// Whether two solve circuits are the same system, bit for bit: equal
/// node names under equal numbering, and equal elements in equal order
/// with every value compared by [`f64::to_bits`] (so `0.0` and `-0.0`
/// differ). Nets whose circuits pass this share one MNA build, one
/// factorization and one moment recursion; anything weaker than
/// bit-equality could change a shared observer's answer.
pub(crate) fn same_solve_circuit(a: &Circuit, b: &Circuit) -> bool {
    if a.num_nodes() != b.num_nodes() || a.elements().len() != b.elements().len() {
        return false;
    }
    if !(0..a.num_nodes()).all(|n| a.node_name(n) == b.node_name(n)) {
        return false;
    }
    let (mut va, mut vb) = (Vec::new(), Vec::new());
    a.elements().iter().zip(b.elements()).all(|(x, y)| {
        va.clear();
        vb.clear();
        value_bits(x, &mut va);
        value_bits(y, &mut vb);
        x == y && va == vb
    })
}

/// Every electrical value of one element card as raw bits, in field
/// order (`PartialEq` alone equates `0.0` with `-0.0`).
fn value_bits(e: &Element, out: &mut Vec<u64>) {
    let mut push = |v: f64| out.push(v.to_bits());
    match e {
        Element::Resistor { ohms: v, .. }
        | Element::Vccs { gm: v, .. }
        | Element::Vcvs { gain: v, .. }
        | Element::Cccs { gain: v, .. }
        | Element::Ccvs { r: v, .. } => push(*v),
        Element::Capacitor {
            farads: v,
            initial_voltage: init,
            ..
        }
        | Element::Inductor {
            henries: v,
            initial_current: init,
            ..
        } => {
            push(*v);
            init.iter().copied().for_each(push);
        }
        Element::VoltageSource { waveform, .. } | Element::CurrentSource { waveform, .. } => {
            for &(t, v) in waveform.points() {
                push(t);
                push(v);
            }
        }
    }
}

/// Topology-only pattern key of a net: like [`structural_hash`] but with
/// every element *value* (resistances, capacitances, gains, waveforms,
/// initial conditions) excluded — only the element kind and its terminal
/// node names contribute. Two nets with equal keys assemble MNA systems
/// with the same unknown layout and the same `G̃` sparsity structure, so
/// one symbolic LU analysis serves them all; the numeric values are free
/// to differ (that is the factor-once, solve-many premise). The
/// observation node does not matter to the factorization and is excluded
/// too.
///
/// The key is advisory: a stale or colliding key costs one rejected
/// refactorization (the numeric layer fingerprints the actual pattern and
/// falls back to a cold factor), never a wrong answer.
pub fn pattern_key(circuit: &Circuit) -> u64 {
    let mut acc = fnv1a(b"awe-batch-pattern-v2");
    for e in circuit.elements() {
        acc = acc.wrapping_add(card_hash(circuit, e, false));
    }
    acc
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = CardHash::new();
    h.bytes_raw(bytes);
    h.finish()
}

/// Streaming FNV-1a over one element card. The earlier implementation
/// rendered each card to a `String` and hashed the text — on a 100k-net
/// design that is hundreds of thousands of heap allocations before the
/// first solve, and formatting f64s dominates the hash cost. This hashes
/// the same information (kind tag, names, terminal node names, raw value
/// bits) straight out of the element, allocation-free. Field terminators
/// keep the encoding prefix-free, so `("ab", "c")` and `("a", "bc")`
/// cannot collide the way naive concatenation would.
struct CardHash(u64);

impl CardHash {
    fn new() -> Self {
        CardHash(0xcbf29ce484222325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    fn bytes_raw(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// A delimited string field.
    fn str(&mut self, s: &str) {
        self.bytes_raw(s.as_bytes());
        self.byte(0xff);
    }

    /// A value field: the f64's bit pattern. Bit-level hashing keeps the
    /// old text-based equivalence (two elements with the same f64 hash
    /// the same) while distinguishing everything `{}` formatting did.
    fn f64(&mut self, v: f64) {
        self.bytes_raw(&v.to_bits().to_le_bytes());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.byte(1);
                self.f64(x);
            }
            None => self.byte(0),
        }
    }

    fn waveform(&mut self, w: &Waveform) {
        for &(t, v) in w.points() {
            self.f64(t);
            self.f64(v);
        }
        self.byte(0xfe);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Per-card hash with values included: the [`structural_hash`] unit.
fn canonical_card_hash(c: &Circuit, e: &Element) -> u64 {
    card_hash(c, e, true)
}

/// Hash of one element card: kind tag, element name, terminal node
/// *names* (ids are insertion-order artifacts), and — when `values` is
/// set — every electrical value, waveform, and initial condition.
fn card_hash(c: &Circuit, e: &Element, values: bool) -> u64 {
    let mut h = CardHash::new();
    let node = |h: &mut CardHash, id: &NodeId| h.str(c.node_name(*id));
    match e {
        Element::Resistor { name, a, b, ohms } => {
            h.byte(b'R');
            h.str(name);
            node(&mut h, a);
            node(&mut h, b);
            if values {
                h.f64(*ohms);
            }
        }
        Element::Capacitor {
            name,
            a,
            b,
            farads,
            initial_voltage,
        } => {
            h.byte(b'C');
            h.str(name);
            node(&mut h, a);
            node(&mut h, b);
            if values {
                h.f64(*farads);
                h.opt_f64(*initial_voltage);
            }
        }
        Element::Inductor {
            name,
            a,
            b,
            henries,
            initial_current,
        } => {
            h.byte(b'L');
            h.str(name);
            node(&mut h, a);
            node(&mut h, b);
            if values {
                h.f64(*henries);
                h.opt_f64(*initial_current);
            }
        }
        Element::VoltageSource {
            name,
            pos,
            neg,
            waveform,
        } => {
            h.byte(b'V');
            h.str(name);
            node(&mut h, pos);
            node(&mut h, neg);
            if values {
                h.waveform(waveform);
            }
        }
        Element::CurrentSource {
            name,
            from,
            to,
            waveform,
        } => {
            h.byte(b'I');
            h.str(name);
            node(&mut h, from);
            node(&mut h, to);
            if values {
                h.waveform(waveform);
            }
        }
        Element::Vccs {
            name,
            from,
            to,
            cpos,
            cneg,
            gm,
        } => {
            h.byte(b'G');
            h.str(name);
            node(&mut h, from);
            node(&mut h, to);
            node(&mut h, cpos);
            node(&mut h, cneg);
            if values {
                h.f64(*gm);
            }
        }
        Element::Vcvs {
            name,
            pos,
            neg,
            cpos,
            cneg,
            gain,
        } => {
            h.byte(b'E');
            h.str(name);
            node(&mut h, pos);
            node(&mut h, neg);
            node(&mut h, cpos);
            node(&mut h, cneg);
            if values {
                h.f64(*gain);
            }
        }
        Element::Cccs {
            name,
            from,
            to,
            control,
            gain,
        } => {
            h.byte(b'F');
            h.str(name);
            node(&mut h, from);
            node(&mut h, to);
            h.str(control);
            if values {
                h.f64(*gain);
            }
        }
        Element::Ccvs {
            name,
            pos,
            neg,
            control,
            r,
        } => {
            h.byte(b'H');
            h.str(name);
            node(&mut h, pos);
            node(&mut h, neg);
            h.str(control);
            if values {
                h.f64(*r);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use awe_circuit::GROUND;

    type Card = Box<dyn Fn(&mut Circuit)>;

    fn stage(order: &[usize]) -> (Circuit, NodeId) {
        // Builds the same two-stage RC net with elements added in the
        // order given by `order` (a permutation of 0..3).
        let cards: Vec<Card> = vec![
            Box::new(|c: &mut Circuit| {
                let (i, _) = (c.node("in"), c.node("n1"));
                c.add_vsource("V1", i, GROUND, Waveform::step(0.0, 5.0))
                    .unwrap();
            }),
            Box::new(|c: &mut Circuit| {
                let (i, n1) = (c.node("in"), c.node("n1"));
                c.add_resistor("R1", i, n1, 1e3).unwrap();
            }),
            Box::new(|c: &mut Circuit| {
                let n1 = c.node("n1");
                c.add_capacitor("C1", n1, GROUND, 1e-12).unwrap();
            }),
        ];
        let mut c = Circuit::new();
        for &k in order {
            cards[k](&mut c);
        }
        let out = c.node("n1");
        (c, out)
    }

    #[test]
    fn hash_invariant_under_element_and_node_order() {
        let (c1, o1) = stage(&[0, 1, 2]);
        let (c2, o2) = stage(&[2, 1, 0]);
        // Node ids differ (n1 first vs in first), element order differs —
        // the structural hash must not.
        assert_eq!(structural_hash(&c1, o1), structural_hash(&c2, o2));
    }

    #[test]
    fn hash_sensitive_to_values_and_output() {
        let (c1, o1) = stage(&[0, 1, 2]);
        let mut c2 = Circuit::new();
        let i = c2.node("in");
        let n1 = c2.node("n1");
        c2.add_vsource("V1", i, GROUND, Waveform::step(0.0, 5.0))
            .unwrap();
        c2.add_resistor("R1", i, n1, 1.001e3).unwrap(); // value edit
        c2.add_capacitor("C1", n1, GROUND, 1e-12).unwrap();
        assert_ne!(structural_hash(&c1, o1), structural_hash(&c2, n1));
        // Same circuit, different observation point.
        assert_ne!(
            structural_hash(&c1, o1),
            structural_hash(&c1, c1.find_node("in").unwrap())
        );
        // An output past the last node does not alias the last node.
        let last = c1.num_nodes() - 1;
        assert_ne!(structural_hash(&c1, last), structural_hash(&c1, last + 3));
    }

    #[test]
    fn pattern_key_ignores_values_not_topology() {
        let (c1, o1) = stage(&[0, 1, 2]);
        let mut c2 = Circuit::new();
        let i = c2.node("in");
        let n1 = c2.node("n1");
        c2.add_vsource("V1", i, GROUND, Waveform::rising_step(0.0, 3.3, 1e-9))
            .unwrap();
        c2.add_resistor("R1", i, n1, 4.7e3).unwrap();
        c2.add_capacitor("C1", n1, GROUND, 5e-13).unwrap();
        // Same topology, every value different: structural hashes differ,
        // pattern keys agree.
        assert_ne!(structural_hash(&c1, o1), structural_hash(&c2, n1));
        assert_eq!(pattern_key(&c1), pattern_key(&c2));
        // A topology edit (extra capacitor) changes the key.
        let mut c3 = c2.clone();
        let i3 = c3.find_node("in").unwrap();
        c3.add_capacitor("C2", i3, GROUND, 1e-12).unwrap();
        assert_ne!(pattern_key(&c2), pattern_key(&c3));
    }

    #[test]
    fn circuit_key_drops_only_the_output_term() {
        let (c, o) = stage(&[0, 1, 2]);
        let spec = NetSpec {
            name: "a".into(),
            circuit: c.clone(),
            output: o,
        };
        let other = NetSpec {
            output: c.find_node("in").unwrap(),
            ..spec.clone()
        };
        let (p, q) = (
            prepare_net(&spec, &ReduceOptions::default()),
            prepare_net(&other, &ReduceOptions::default()),
        );
        assert_eq!(p.hash, spec.hash());
        assert_ne!(p.hash, q.hash);
        assert_eq!(p.circuit_key, q.circuit_key);
    }

    #[test]
    fn solve_circuit_equality_is_bitwise() {
        let (c1, o1) = stage(&[0, 1, 2]);
        assert!(same_solve_circuit(&c1, &c1.clone()));

        // One value bit.
        let mut c2 = c1.clone();
        c2.set_value("R1", f64::from_bits(1e3f64.to_bits() + 1))
            .unwrap();
        assert!(!same_solve_circuit(&c1, &c2));

        // 0.0 against -0.0: equal under `==`, different circuits here.
        let zero = |ic: f64| {
            let mut c = Circuit::new();
            let (i, n1) = (c.node("in"), c.node("n1"));
            c.add_vsource("V1", i, GROUND, Waveform::step(0.0, 5.0))
                .unwrap();
            c.add_resistor("R1", i, n1, 1e3).unwrap();
            c.add_capacitor_ic("C1", n1, GROUND, 1e-12, Some(ic))
                .unwrap();
            c
        };
        assert_eq!(zero(0.0).elements(), zero(-0.0).elements());
        assert!(same_solve_circuit(&zero(0.0), &zero(0.0)));
        assert!(!same_solve_circuit(&zero(0.0), &zero(-0.0)));

        // Same cards, different node numbering: the structural hash
        // agrees, the solve circuits do not.
        let (c3, o3) = stage(&[2, 1, 0]);
        assert_eq!(structural_hash(&c1, o1), structural_hash(&c3, o3));
        assert!(!same_solve_circuit(&c1, &c3));

        // Same cards in another order.
        let mut c4 = Circuit::new();
        let (i, n1) = (c4.node("in"), c4.node("n1"));
        c4.add_resistor("R1", i, n1, 1e3).unwrap();
        c4.add_vsource("V1", i, GROUND, Waveform::step(0.0, 5.0))
            .unwrap();
        c4.add_capacitor("C1", n1, GROUND, 1e-12).unwrap();
        assert!(!same_solve_circuit(&c1, &c4));
    }

    #[test]
    fn synthetic_is_deterministic() {
        let d1 = Design::synthetic(10, 42);
        let d2 = Design::synthetic(10, 42);
        for (a, b) in d1.nets().iter().zip(d2.nets()) {
            assert_eq!(a.hash(), b.hash());
        }
        let d3 = Design::synthetic(10, 43);
        assert_ne!(d1.nets()[0].hash(), d3.nets()[0].hash());
    }

    #[test]
    fn deck_design_uses_out_node() {
        let d = Design::from_deck(
            "t",
            "* NET a\nV1 in 0 STEP 0 5\nR1 in out 1k\nC1 out 0 1p\n.end",
        )
        .unwrap();
        assert_eq!(d.len(), 1);
        let net = &d.nets()[0];
        assert_eq!(net.circuit.node_name(net.output), "out");
    }

    #[test]
    fn synthetic_chains_form_one_structure_group() {
        let d = Design::synthetic_chains(12, 20, 7);
        let key = d.nets()[0].pattern_key();
        let mut hashes = std::collections::HashSet::new();
        for net in d.nets() {
            assert_eq!(net.pattern_key(), key, "{}: one group", net.name);
            assert!(hashes.insert(net.hash()), "{}: unique hash", net.name);
        }
        // Deterministic per seed.
        let d2 = Design::synthetic_chains(12, 20, 7);
        assert_eq!(d.nets()[3].hash(), d2.nets()[3].hash());
        assert_ne!(
            Design::synthetic_chains(12, 20, 8).nets()[3].hash(),
            d.nets()[3].hash()
        );
    }

    #[test]
    fn synthetic_groups_share_patterns_not_hashes() {
        let d = Design::synthetic_groups(3, 5, 17);
        assert_eq!(d.len(), 15);
        let mut hashes = std::collections::HashSet::new();
        let mut keys = std::collections::HashSet::new();
        for net in d.nets() {
            assert!(hashes.insert(net.hash()), "{}: unique hash", net.name);
            keys.insert(net.pattern_key());
        }
        assert_eq!(keys.len(), 3, "one pattern key per group");
        // Deterministic per seed.
        let d2 = Design::synthetic_groups(3, 5, 17);
        assert_eq!(d.nets()[7].hash(), d2.nets()[7].hash());
    }

    #[test]
    fn multi_deck_round_trips() {
        let d = Design::synthetic_chains(3, 5, 11);
        let rt = Design::from_deck(d.name.clone(), &d.to_multi_deck()).unwrap();
        assert_eq!(rt.len(), d.len());
        for (a, b) in d.nets().iter().zip(rt.nets()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.hash(), b.hash(), "{}: bit-identical reload", a.name);
        }
    }

    #[test]
    fn net_mut_gives_editable_access() {
        let mut d = Design::synthetic_chains(2, 4, 3);
        let before = d.nets()[1].hash();
        let net = d.net_mut("net0002").unwrap();
        net.circuit.set_value("R1", 777.0).unwrap();
        assert_ne!(d.nets()[1].hash(), before);
        assert!(d.net_mut("absent").is_none());
    }

    #[test]
    fn eco_edit_replaces_net() {
        let mut d = Design::synthetic(3, 1);
        let (c, o) = stage(&[0, 1, 2]);
        let before = d.nets()[1].hash();
        assert!(d.replace_net("net0002", c, o));
        assert_ne!(d.nets()[1].hash(), before);
        assert!(!d.replace_net("nope", Circuit::new(), 0));
    }
}
