//! SPICE-like netlist deck parser.
//!
//! Supports the element cards needed for AWE's circuit class:
//!
//! ```text
//! R<name> <n+> <n-> <value>
//! C<name> <n+> <n-> <value> [IC=<v0>]
//! L<name> <n+> <n-> <value> [IC=<i0>]
//! V<name> <n+> <n-> <DC v | STEP v0 v1 | PWL(t1 v1 t2 v2 ...)>
//! I<name> <n+> <n-> <same source forms>
//! G<name> <n+> <n-> <nc+> <nc-> <gm>
//! E<name> <n+> <n-> <nc+> <nc-> <gain>
//! F<name> <n+> <n-> <Vcontrol> <gain>
//! H<name> <n+> <n-> <Vcontrol> <r>
//! * comment        ; comment
//! .end
//! ```
//!
//! Values accept standard SPICE magnitude suffixes
//! (`f p n u m k meg g t`) and are case-insensitive.

use std::collections::HashSet;

use crate::netlist::{Circuit, CircuitError};
use crate::waveform::Waveform;

/// Parses a SPICE-like deck into a [`Circuit`].
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] with the 1-based line number for any
/// malformed card, and propagates semantic errors (duplicate names,
/// non-positive values) from the circuit builder.
///
/// # Examples
///
/// ```
/// use awe_circuit::parse_deck;
///
/// # fn main() -> Result<(), awe_circuit::CircuitError> {
/// let c = parse_deck(
///     "* simple stage
///      V1 in 0 STEP 0 5
///      R1 in out 1k
///      C1 out 0 1p IC=2.5
///      .end",
/// )?;
/// assert_eq!(c.elements().len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn parse_deck(deck: &str) -> Result<Circuit, CircuitError> {
    let mut c = Circuit::new();
    for (lineno, raw) in deck.lines().enumerate() {
        let line = lineno + 1;
        // Strip ';' comments and whitespace.
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() || text.starts_with('*') {
            continue;
        }
        if text.starts_with('.') {
            let directive = text.split_whitespace().next().unwrap_or("");
            if directive.eq_ignore_ascii_case(".end") {
                break;
            }
            // Other directives are ignored for forward compatibility.
            continue;
        }
        parse_card(&mut c, text, line)?;
    }
    Ok(c)
}

/// A named net parsed from a multi-net deck.
///
/// Produced by [`parse_multi_deck`]; `name` comes from a `* NET <name>`
/// header or is synthesized as `net<k>` (1-based position) for unnamed
/// segments.
#[derive(Clone, Debug)]
pub struct NamedNet {
    /// Net name, unique within the deck.
    pub name: String,
    /// The net's own circuit (independent node space).
    pub circuit: Circuit,
}

/// Parses a deck containing *many* independent nets into a vector of
/// [`NamedNet`]s.
///
/// Two conventions, freely mixable, delimit nets:
///
/// * a `* NET <name>` comment header starts a new net with that name;
/// * a `.end` directive terminates the current net, and any following
///   cards start the next one.
///
/// Nets with no `* NET` header are named `net<k>` by 1-based position.
/// Segments containing no element cards (e.g. trailing comments after the
/// final `.end`) are dropped.
///
/// # Errors
///
/// * [`CircuitError::Parse`] with the *global* deck line number for
///   malformed cards — and for duplicate net names, which are rejected
///   rather than silently shadowed.
///
/// # Examples
///
/// ```
/// use awe_circuit::parse_multi_deck;
///
/// # fn main() -> Result<(), awe_circuit::CircuitError> {
/// let nets = parse_multi_deck(
///     "* NET bitline
///      V1 in 0 STEP 0 5
///      R1 in out 1k
///      C1 out 0 1p
///      .end
///      * NET wordline
///      V1 in 0 STEP 0 3
///      R1 in out 2k
///      C1 out 0 2p
///      .end",
/// )?;
/// assert_eq!(nets.len(), 2);
/// assert_eq!(nets[0].name, "bitline");
/// assert_eq!(nets[1].name, "wordline");
/// # Ok(())
/// # }
/// ```
pub fn parse_multi_deck(deck: &str) -> Result<Vec<NamedNet>, CircuitError> {
    let mut nets: Vec<NamedNet> = Vec::new();
    // Names taken so far, so the duplicate check is linear in the deck.
    let mut seen: HashSet<String> = HashSet::new();
    let mut current = Circuit::new();
    let mut current_name: Option<(String, usize)> = None;
    let mut current_has_cards = false;

    let mut finish = |nets: &mut Vec<NamedNet>,
                      circuit: Circuit,
                      name: Option<(String, usize)>,
                      has_cards: bool|
     -> Result<(), CircuitError> {
        if !has_cards {
            return Ok(());
        }
        let (name, line) = name.unwrap_or_else(|| (format!("net{}", nets.len() + 1), 0));
        if !seen.insert(name.clone()) {
            return Err(perr(line, format!("duplicate net name `{name}`")));
        }
        nets.push(NamedNet { name, circuit });
        Ok(())
    };

    for (lineno, raw) in deck.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        // `* NET <name>` headers delimit nets; all other comments pass.
        if let Some(rest) = text.strip_prefix('*') {
            let mut words = rest.split_whitespace();
            if words.next().is_some_and(|w| w.eq_ignore_ascii_case("net")) {
                if let Some(name) = words.next() {
                    finish(
                        &mut nets,
                        std::mem::replace(&mut current, Circuit::new()),
                        current_name.take(),
                        current_has_cards,
                    )?;
                    current_name = Some((name.to_owned(), line));
                    current_has_cards = false;
                }
            }
            continue;
        }
        if text.starts_with('.') {
            let directive = text.split_whitespace().next().unwrap_or("");
            if directive.eq_ignore_ascii_case(".end") {
                finish(
                    &mut nets,
                    std::mem::replace(&mut current, Circuit::new()),
                    current_name.take(),
                    current_has_cards,
                )?;
                current_has_cards = false;
            }
            continue;
        }
        parse_card(&mut current, text, line)?;
        current_has_cards = true;
    }
    finish(&mut nets, current, current_name, current_has_cards)?;
    Ok(nets)
}

/// Parses a single element card into an existing circuit — the entry
/// point ECO-style edits use to *add* elements to an already-built net.
/// Node names the card mentions are created on demand, exactly as inside
/// [`parse_deck`]; errors report line 1 (the card is its own one-line
/// deck).
///
/// # Errors
///
/// [`CircuitError::Parse`] for a malformed card, plus the circuit
/// builder's semantic errors (duplicate name, non-positive value, …).
///
/// # Examples
///
/// ```
/// use awe_circuit::{parse_card_into, Circuit};
///
/// let mut c = Circuit::new();
/// parse_card_into(&mut c, "R1 in out 1k").unwrap();
/// assert!(c.element("R1").is_some());
/// assert!(parse_card_into(&mut c, "R1 in out 2k").is_err()); // duplicate
/// ```
pub fn parse_card_into(c: &mut Circuit, card: &str) -> Result<(), CircuitError> {
    let text = card.split(';').next().unwrap_or("").trim();
    if text.is_empty() || text.starts_with('*') || text.starts_with('.') {
        return Err(perr(1, "expected exactly one element card"));
    }
    parse_card(c, text, 1)
}

/// Parses a source specification (`DC v`, `STEP v0 v1`, `PWL(...)`, or a
/// bare DC value) into a [`Waveform`] — the entry point ECO-style edits
/// use to retarget an existing V/I source.
///
/// # Errors
///
/// [`CircuitError::Parse`] for an unrecognized or malformed spec.
///
/// # Examples
///
/// ```
/// use awe_circuit::parse_source_spec;
///
/// let w = parse_source_spec("STEP 0 5").unwrap();
/// assert_eq!(w.final_value(), 5.0);
/// assert!(parse_source_spec("WIGGLE 3").is_err());
/// ```
pub fn parse_source_spec(spec: &str) -> Result<Waveform, CircuitError> {
    let tokens: Vec<&str> = spec.split_whitespace().collect();
    if tokens.is_empty() {
        return Err(perr(1, "empty source specification"));
    }
    parse_source(&tokens, 1, "source")
}

fn perr(line: usize, message: impl Into<String>) -> CircuitError {
    CircuitError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_card(c: &mut Circuit, text: &str, line: usize) -> Result<(), CircuitError> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let name = tokens[0];
    let kind = name
        .chars()
        .next()
        .expect("non-empty token")
        .to_ascii_uppercase();
    match kind {
        'R' | 'C' | 'L' => {
            if tokens.len() < 4 {
                return Err(perr(line, format!("{name}: expected <n+> <n-> <value>")));
            }
            let a = c.node(tokens[1]);
            let b = c.node(tokens[2]);
            let value = parse_value(tokens[3])
                .ok_or_else(|| perr(line, format!("{name}: bad value `{}`", tokens[3])))?;
            let ic = parse_ic(&tokens[4..], line, name)?;
            match kind {
                'R' => {
                    if ic.is_some() {
                        return Err(perr(line, format!("{name}: resistors take no IC")));
                    }
                    c.add_resistor(name, a, b, value)
                }
                'C' => c.add_capacitor_ic(name, a, b, value, ic),
                _ => c.add_inductor_ic(name, a, b, value, ic),
            }
        }
        'V' | 'I' => {
            if tokens.len() < 4 {
                return Err(perr(line, format!("{name}: expected <n+> <n-> <source>")));
            }
            let a = c.node(tokens[1]);
            let b = c.node(tokens[2]);
            let wf = parse_source(&tokens[3..], line, name)?;
            if kind == 'V' {
                c.add_vsource(name, a, b, wf)
            } else {
                c.add_isource(name, a, b, wf)
            }
        }
        'G' | 'E' => {
            if tokens.len() != 6 {
                return Err(perr(
                    line,
                    format!("{name}: expected <n+> <n-> <nc+> <nc-> <value>"),
                ));
            }
            let (a, b) = (c.node(tokens[1]), c.node(tokens[2]));
            let (cp, cn) = (c.node(tokens[3]), c.node(tokens[4]));
            let value = parse_value(tokens[5])
                .ok_or_else(|| perr(line, format!("{name}: bad value `{}`", tokens[5])))?;
            if kind == 'G' {
                c.add_vccs(name, a, b, cp, cn, value)
            } else {
                c.add_vcvs(name, a, b, cp, cn, value)
            }
        }
        'F' | 'H' => {
            if tokens.len() != 5 {
                return Err(perr(
                    line,
                    format!("{name}: expected <n+> <n-> <Vcontrol> <value>"),
                ));
            }
            let (a, b) = (c.node(tokens[1]), c.node(tokens[2]));
            let control = tokens[3];
            let value = parse_value(tokens[4])
                .ok_or_else(|| perr(line, format!("{name}: bad value `{}`", tokens[4])))?;
            if kind == 'F' {
                c.add_cccs(name, a, b, control, value)
            } else {
                c.add_ccvs(name, a, b, control, value)
            }
        }
        other => Err(perr(line, format!("unknown element kind `{other}`"))),
    }
}

fn parse_ic(rest: &[&str], line: usize, name: &str) -> Result<Option<f64>, CircuitError> {
    match rest {
        [] => Ok(None),
        [tok] => {
            let lower = tok.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("ic=") {
                parse_value(v)
                    .map(Some)
                    .ok_or_else(|| perr(line, format!("{name}: bad IC value `{v}`")))
            } else {
                Err(perr(line, format!("{name}: unexpected token `{tok}`")))
            }
        }
        _ => Err(perr(line, format!("{name}: too many tokens"))),
    }
}

fn parse_source(tokens: &[&str], line: usize, name: &str) -> Result<Waveform, CircuitError> {
    let head = tokens[0].to_ascii_uppercase();
    if head == "DC" {
        if tokens.len() != 2 {
            return Err(perr(line, format!("{name}: DC expects one value")));
        }
        let v =
            parse_value(tokens[1]).ok_or_else(|| perr(line, format!("{name}: bad DC value")))?;
        return Ok(Waveform::dc(v));
    }
    if head == "STEP" {
        if tokens.len() != 3 {
            return Err(perr(line, format!("{name}: STEP expects v0 v1")));
        }
        let v0 =
            parse_value(tokens[1]).ok_or_else(|| perr(line, format!("{name}: bad STEP v0")))?;
        let v1 =
            parse_value(tokens[2]).ok_or_else(|| perr(line, format!("{name}: bad STEP v1")))?;
        return Ok(Waveform::step(v0, v1));
    }
    if head.starts_with("PWL") {
        // Accept PWL(a b c d) possibly split across tokens.
        let joined = tokens.join(" ");
        let open = joined
            .find('(')
            .ok_or_else(|| perr(line, format!("{name}: PWL missing `(`")))?;
        let close = joined
            .rfind(')')
            .ok_or_else(|| perr(line, format!("{name}: PWL missing `)`")))?;
        let inner = &joined[open + 1..close];
        let vals: Vec<f64> = inner
            .split([' ', ','])
            .filter(|s| !s.is_empty())
            .map(|s| {
                parse_value(s).ok_or_else(|| perr(line, format!("{name}: bad PWL value `{s}`")))
            })
            .collect::<Result<_, _>>()?;
        if vals.is_empty() || !vals.len().is_multiple_of(2) {
            return Err(perr(
                line,
                format!("{name}: PWL needs an even, positive number of values"),
            ));
        }
        let points: Vec<(f64, f64)> = vals.chunks(2).map(|p| (p[0], p[1])).collect();
        for w in points.windows(2) {
            if w[1].0 < w[0].0 {
                return Err(perr(line, format!("{name}: PWL times must not decrease")));
            }
        }
        return Ok(Waveform::pwl(points));
    }
    // Bare value = DC.
    if tokens.len() == 1 {
        if let Some(v) = parse_value(tokens[0]) {
            return Ok(Waveform::dc(v));
        }
    }
    Err(perr(
        line,
        format!("{name}: unrecognized source `{}`", tokens.join(" ")),
    ))
}

/// Parses a SPICE value with optional magnitude suffix:
/// `f p n u m k meg g t` (case-insensitive). Returns `None` on malformed
/// input.
///
/// ```
/// use awe_circuit::parse_value;
/// assert_eq!(parse_value("1k"), Some(1e3));
/// assert_eq!(parse_value("2.5MEG"), Some(2.5e6));
/// assert_eq!(parse_value("10p"), Some(1e-11));
/// assert_eq!(parse_value("bogus"), None);
/// ```
pub fn parse_value(token: &str) -> Option<f64> {
    let t = token.trim().to_ascii_lowercase();
    if t.is_empty() {
        return None;
    }
    // Find the longest numeric prefix.
    let mut split = t.len();
    for (i, ch) in t.char_indices() {
        if !(ch.is_ascii_digit() || matches!(ch, '.' | '+' | '-' | 'e')) {
            split = i;
            break;
        }
        // 'e' must be part of an exponent: digit must follow or sign+digit.
        if ch == 'e' {
            let rest = &t[i + 1..];
            let ok = rest
                .strip_prefix(['+', '-'])
                .unwrap_or(rest)
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit());
            if !ok {
                split = i;
                break;
            }
        }
    }
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().ok()?;
    let mult = match suffix {
        "" => 1.0,
        "f" => 1e-15,
        "p" => 1e-12,
        "n" => 1e-9,
        "u" => 1e-6,
        "m" => 1e-3,
        "k" => 1e3,
        "meg" => 1e6,
        "g" => 1e9,
        "t" => 1e12,
        // Trailing unit letters after a known suffix (e.g. "1kohm") are
        // accepted SPICE-style.
        s if s.starts_with("meg") => 1e6,
        s if !s.is_empty() => match &s[..1] {
            "f" => 1e-15,
            "p" => 1e-12,
            "n" => 1e-9,
            "u" => 1e-6,
            "m" => 1e-3,
            "k" => 1e3,
            "g" => 1e9,
            "t" => 1e12,
            _ => return None,
        },
        _ => return None,
    };
    Some(base * mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("100"), Some(100.0));
        assert_eq!(parse_value("1.5k"), Some(1500.0));
        assert_eq!(parse_value("2meg"), Some(2e6));
        assert_eq!(parse_value("3MEG"), Some(3e6));
        assert_eq!(parse_value("1m"), Some(1e-3));
        assert_eq!(parse_value("1u"), Some(1e-6));
        assert_eq!(parse_value("1n"), Some(1e-9));
        assert_eq!(parse_value("1p"), Some(1e-12));
        assert_eq!(parse_value("1f"), Some(1e-15));
        assert_eq!(parse_value("1g"), Some(1e9));
        assert_eq!(parse_value("1t"), Some(1e12));
        assert_eq!(parse_value("1e-9"), Some(1e-9));
        assert_eq!(parse_value("-2.5e3"), Some(-2500.0));
        assert_eq!(parse_value("1kohm"), Some(1e3));
        assert_eq!(parse_value(""), None);
        assert_eq!(parse_value("xyz"), None);
        assert_eq!(parse_value("1.2.3"), None);
    }

    #[test]
    fn parses_full_deck() {
        let deck = "
* RC tree of the paper's Fig. 4 (values ours)
V1 in 0 STEP 0 5
R1 in 1 1
R2 1 2 1 ; branch
R3 1 3 1
R4 3 4 1
C1 1 0 100u
C2 2 0 100u
C3 3 0 100u
C4 4 0 100u
.end
this line is after .end and ignored
";
        let c = parse_deck(deck).unwrap();
        assert_eq!(c.elements().len(), 9);
        assert_eq!(c.num_states(), 4);
        assert!(matches!(
            c.element("V1"),
            Some(Element::VoltageSource { .. })
        ));
    }

    #[test]
    fn parses_ic() {
        let c = parse_deck("C1 a 0 1p IC=5\nL1 a b 1n IC=-0.5m").unwrap();
        assert!(matches!(
            c.element("C1"),
            Some(Element::Capacitor {
                initial_voltage: Some(v),
                ..
            }) if *v == 5.0
        ));
        assert!(matches!(
            c.element("L1"),
            Some(Element::Inductor {
                initial_current: Some(i),
                ..
            }) if *i == -5e-4
        ));
    }

    #[test]
    fn parses_sources() {
        let c = parse_deck(
            "V1 a 0 DC 3
V2 b 0 STEP 0 5
V3 c 0 PWL(0 0 1n 5 2n 5)
I1 0 a 1m",
        )
        .unwrap();
        assert!(matches!(
            c.element("V3"),
            Some(Element::VoltageSource { waveform, .. }) if waveform.eval(0.5e-9) == 2.5
        ));
        assert!(matches!(
            c.element("I1"),
            Some(Element::CurrentSource { waveform, .. }) if waveform.eval(0.0) == 1e-3
        ));
    }

    #[test]
    fn parses_controlled_sources() {
        let c = parse_deck(
            "V1 in 0 DC 1
G1 out 0 in 0 2m
E1 e 0 in 0 10
F1 out 0 V1 0.5
H1 h 0 V1 100",
        )
        .unwrap();
        assert_eq!(c.elements().len(), 5);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_deck("R1 a 0 1k\nR2 a 0 bogus").unwrap_err();
        assert!(
            matches!(err, CircuitError::Parse { line: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_malformed_cards() {
        assert!(parse_deck("R1 a 0").is_err());
        assert!(parse_deck("Q1 a 0 1k").is_err());
        assert!(parse_deck("V1 a 0 STEP 1").is_err());
        assert!(parse_deck("V1 a 0 PWL(0 1 2)").is_err());
        assert!(parse_deck("V1 a 0 PWL(1 0 0 1)").is_err());
        assert!(parse_deck("R1 a 0 1k IC=3").is_err());
        assert!(parse_deck("C1 a 0 1p garbage").is_err());
        assert!(parse_deck("G1 a 0 1m").is_err());
        assert!(parse_deck("F1 a 0 V9 1").is_err()); // unknown control
    }

    #[test]
    fn rejects_malformed_element_lines_with_line_numbers() {
        // Each malformed card reports the line it sits on, even after
        // valid cards.
        for (deck, line) in [
            ("R1 a 0 1k\nC7 a", 2),                 // too few fields
            ("R1 a 0 1k\nC1 a 0 1p\nL1 a b 5x", 3), // bad value suffix
            ("V1 a 0 STEP 0 5 extra", 1),           // trailing junk
        ] {
            let err = parse_deck(deck).unwrap_err();
            assert!(
                matches!(err, CircuitError::Parse { line: l, .. } if l == line),
                "{deck:?} -> {err:?}"
            );
        }
        // Semantic rejections carry the offending element, not a line.
        let err = parse_deck("R1 a 0 -0").unwrap_err();
        assert!(
            matches!(&err, CircuitError::NonPositiveValue { element, .. } if element == "R1"),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_duplicate_element_names() {
        let err = parse_deck("R1 a 0 1k\nR1 b 0 2k").unwrap_err();
        assert!(
            matches!(&err, CircuitError::DuplicateName(name) if name == "R1"),
            "{err:?}"
        );
    }

    #[test]
    fn ground_aliases_share_one_node() {
        // `0`, `gnd` and `GND` are the same node: mixing them must not
        // mint extra nodes or split the return path.
        let c = parse_deck("R1 a 0 1k\nR2 a gnd 2k\nC1 a GND 1p").unwrap();
        assert_eq!(c.num_nodes(), 2, "ground + `a` only");
        // A non-ground name that collides only by case stays distinct.
        let c = parse_deck("R1 a 0 1k\nR2 A 0 1k").unwrap();
        assert_eq!(c.num_nodes(), 3, "`a` and `A` are different nodes");
    }

    #[test]
    fn empty_decks_parse_to_empty_circuits() {
        for deck in ["", "\n\n", "* comment only\n", ".end\n", "* c\n.end\n"] {
            let c = parse_deck(deck).unwrap_or_else(|e| panic!("{deck:?}: {e}"));
            assert!(c.elements().is_empty(), "{deck:?}");
            assert_eq!(c.num_nodes(), 1, "ground only for {deck:?}");
        }
    }

    #[test]
    fn multi_deck_named_and_anonymous() {
        let deck = "
* NET first
V1 in 0 STEP 0 5
R1 in out 1k
C1 out 0 1p
.end
V1 in 0 STEP 0 3   ; anonymous net after bare .end
R1 in out 2k
C1 out 0 2p
.end
* NET third
V1 in 0 DC 1
R1 in out 1k
";
        let nets = parse_multi_deck(deck).unwrap();
        assert_eq!(nets.len(), 3);
        assert_eq!(nets[0].name, "first");
        assert_eq!(nets[1].name, "net2");
        assert_eq!(nets[2].name, "third");
        assert_eq!(nets[0].circuit.elements().len(), 3);
        assert_eq!(nets[2].circuit.elements().len(), 2);
    }

    #[test]
    fn multi_deck_single_net_matches_parse_deck() {
        let deck = "V1 in 0 STEP 0 5\nR1 in out 1k\nC1 out 0 1p\n.end\n";
        let nets = parse_multi_deck(deck).unwrap();
        assert_eq!(nets.len(), 1);
        assert_eq!(nets[0].name, "net1");
        let single = parse_deck(deck).unwrap();
        assert_eq!(nets[0].circuit.to_deck(), single.to_deck());
    }

    #[test]
    fn multi_deck_rejects_duplicate_names() {
        let deck = "
* NET dup
R1 a 0 1k
.end
* NET dup
R1 a 0 2k
";
        let err = parse_multi_deck(deck).unwrap_err();
        // Line 5 is the duplicate `* NET` header.
        assert!(
            matches!(
                &err,
                CircuitError::Parse { line: 5, message } if message.contains("duplicate net name `dup`")
            ),
            "{err:?}"
        );
    }

    #[test]
    fn multi_deck_rejects_anonymous_name_collisions() {
        // The anonymous first net is `net1`; the header naming `net1`
        // again (line 3) is the duplicate.
        let err = parse_multi_deck("R1 a 0 1k\n.end\n* NET net1\nR1 a 0 2k\n").unwrap_err();
        assert!(
            matches!(
                &err,
                CircuitError::Parse { line: 3, message } if message.contains("duplicate net name `net1`")
            ),
            "{err:?}"
        );
        // An explicit `net2` first, then an anonymous second net that
        // would be named `net2`: it has no header, so it reports line 0.
        let err = parse_multi_deck("* NET net2\nR1 a 0 1k\n.end\nR1 a 0 2k\n").unwrap_err();
        assert!(
            matches!(
                &err,
                CircuitError::Parse { line: 0, message } if message.contains("duplicate net name `net2`")
            ),
            "{err:?}"
        );
    }

    #[test]
    fn multi_deck_reports_global_line_numbers() {
        let deck = "* NET a\nR1 x 0 1k\n.end\n* NET b\nR1 x 0 bogus\n";
        let err = parse_multi_deck(deck).unwrap_err();
        assert!(
            matches!(err, CircuitError::Parse { line: 5, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn multi_deck_skips_empty_segments() {
        assert!(parse_multi_deck("").unwrap().is_empty());
        assert!(parse_multi_deck("* just a comment\n.end\n")
            .unwrap()
            .is_empty());
        // Trailing `.end` + comments produce no phantom net.
        let nets = parse_multi_deck("R1 a 0 1\n.end\n* trailing words\n").unwrap();
        assert_eq!(nets.len(), 1);
    }

    #[test]
    fn round_trip_through_deck() {
        let deck = "V1 in 0 STEP 0 5\nR1 in out 1k\nC1 out 0 1p IC=2\n.end";
        let c1 = parse_deck(deck).unwrap();
        let c2 = parse_deck(&c1.to_deck()).unwrap();
        assert_eq!(c1.elements().len(), c2.elements().len());
        assert_eq!(c1.num_nodes(), c2.num_nodes());
    }
}
