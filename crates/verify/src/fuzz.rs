//! Seeded, deterministic circuit fuzzing.
//!
//! Every case is fully described by a [`CaseParams`] value, and every
//! `CaseParams` is a pure function of `(class, master_seed, index)` — so a
//! failure report that prints those three numbers is a complete
//! reproduction recipe. The parameter space sweeps topology class, circuit
//! size, element-value spread (near-degenerate `R → 0`, capacitance
//! spanning six decades) and source waveform, which together cover the
//! regimes the paper calls out: stiff RC trees (§3.5), resistor-loop
//! meshes (§2.3), underdamped RLC ladders (§5) and floating coupling
//! capacitors (§5.3). An opt-in power-grid class (`pdn`) checks the
//! engine on the mesh sizes the corner sweep runs, against the sparse
//! reference simulator.

use std::fmt;
use std::str::FromStr;

use awe_circuit::generators::{coupled_rc_lines, random_rc_tree, rc_mesh, rlc_ladder};
use awe_circuit::pdn::{pdn_grid, PdnSpec};
use awe_circuit::{Circuit, NodeId, Waveform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which generator family a case draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyClass {
    /// Random branching RC tree (`circuit::generators::random_rc_tree`).
    RcTree,
    /// RC grid with resistor loops (`rc_mesh`).
    RcMesh,
    /// Series-RLC ladder, underdamped for small source resistance
    /// (`rlc_ladder`).
    RlcLadder,
    /// Two RC lines with floating coupling capacitors
    /// (`coupled_rc_lines`).
    CoupledLines,
    /// Power-grid mesh with a strap layer (`circuit::pdn::pdn_grid`),
    /// 4×4 to 16×16, step-driven. Opt-in: not in [`TopologyClass::ALL`],
    /// so the default campaign and its corpus stay as they are.
    Pdn,
}

impl TopologyClass {
    /// The default classes, in the order the campaign cycles through
    /// them. [`TopologyClass::Pdn`] runs only when selected by name.
    pub const ALL: [TopologyClass; 4] = [
        TopologyClass::RcTree,
        TopologyClass::RcMesh,
        TopologyClass::RlcLadder,
        TopologyClass::CoupledLines,
    ];

    /// The CLI / report name (`rc-tree`, `rc-mesh`, `rlc-ladder`,
    /// `coupled-lines`, `pdn`).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyClass::RcTree => "rc-tree",
            TopologyClass::RcMesh => "rc-mesh",
            TopologyClass::RlcLadder => "rlc-ladder",
            TopologyClass::CoupledLines => "coupled-lines",
            TopologyClass::Pdn => "pdn",
        }
    }
}

impl fmt::Display for TopologyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for TopologyClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rc-tree" => Ok(TopologyClass::RcTree),
            "rc-mesh" => Ok(TopologyClass::RcMesh),
            "rlc-ladder" => Ok(TopologyClass::RlcLadder),
            "coupled-lines" => Ok(TopologyClass::CoupledLines),
            "pdn" => Ok(TopologyClass::Pdn),
            other => Err(format!(
                "unknown class `{other}` (expected rc-tree, rc-mesh, rlc-ladder, coupled-lines \
                 or pdn)"
            )),
        }
    }
}

/// Source waveform family. Time-valued knobs are stored as ratios of the
/// case's characteristic time so that minimization can shrink the circuit
/// without making the stimulus trivially fast or slow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WaveKind {
    /// Ideal rising step `0 → vdd` at `t = 0`.
    Step,
    /// Ideal falling step `vdd → 0` at `t = 0` (exercises the nonzero
    /// baseline path).
    FallingStep,
    /// Finite-slope ramp `0 → vdd` with rise time `ratio ×` the case's
    /// characteristic time.
    Ramp {
        /// Rise time as a fraction of the case's characteristic time.
        rise_ratio: f64,
    },
    /// Up-then-down pulse: rise at `t = 0`, fall after `width_ratio ×`
    /// the characteristic time (response settles back to baseline).
    Pulse {
        /// Pulse width as a fraction of the case's characteristic time.
        width_ratio: f64,
    },
}

impl WaveKind {
    fn tag(&self) -> &'static str {
        match self {
            WaveKind::Step => "step",
            WaveKind::FallingStep => "falling-step",
            WaveKind::Ramp { .. } => "ramp",
            WaveKind::Pulse { .. } => "pulse",
        }
    }

    /// Whether all sources jump at `t = 0` and then hold (the premise of
    /// the Penfield–Rubinstein bounds and the tree-walk moment identity).
    pub fn is_pure_step(&self) -> bool {
        matches!(self, WaveKind::Step | WaveKind::FallingStep)
    }
}

/// The complete, regenerable description of one fuzz case.
#[derive(Clone, Copy, Debug)]
pub struct CaseParams {
    /// Topology family.
    pub class: TopologyClass,
    /// Structural seed (drives `random_rc_tree`'s shape and values).
    pub seed: u64,
    /// Size knob: capacitive nodes (tree), grid cells (mesh), sections
    /// (ladder), segments per line (coupled) or mesh side (pdn).
    pub size: usize,
    /// Resistance range, log-uniform; `r_lo` may be near-degenerate
    /// (`≪ 1 Ω`).
    pub r_lo: f64,
    /// Upper resistance bound.
    pub r_hi: f64,
    /// Capacitance range, log-uniform, spanning up to six decades.
    pub c_lo: f64,
    /// Upper capacitance bound.
    pub c_hi: f64,
    /// Ladder inductance (henries); unused elsewhere.
    pub l: f64,
    /// Ladder source resistance (ohms); unused elsewhere.
    pub rs: f64,
    /// Coupling-to-ground capacitance ratio for coupled lines.
    pub coupling_ratio: f64,
    /// Supply swing (volts).
    pub vdd: f64,
    /// Source waveform family.
    pub wave: WaveKind,
}

impl CaseParams {
    /// Derives case `index` of a campaign with the given master seed,
    /// deterministically. The same triple always yields the same circuit.
    pub fn generate(class: TopologyClass, master_seed: u64, index: u64) -> CaseParams {
        // Mix the pair so adjacent indices land far apart in seed space.
        let mixed = splitmix(master_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(mixed);

        let size = match class {
            TopologyClass::RcTree => rng.gen_range(1..=20usize),
            TopologyClass::RcMesh => rng.gen_range(1..=12usize),
            TopologyClass::RlcLadder => rng.gen_range(1..=6usize),
            TopologyClass::CoupledLines => rng.gen_range(1..=5usize),
            TopologyClass::Pdn => rng.gen_range(4..=16usize),
        };

        // Element values: log-uniform centers with a log-uniform spread.
        // One case in eight drags the resistance floor toward zero — the
        // near-degenerate regime where G is barely invertible.
        let r_center = log_uniform(&mut rng, 1e-1, 1e4);
        let r_spread = 10f64.powf(rng.gen_range(0.0..1.5));
        let mut r_lo = r_center / r_spread;
        let r_hi = r_center * r_spread;
        if rng.gen_range(0..8usize) == 0 {
            r_lo = 1e-6;
        }
        let c_center = log_uniform(&mut rng, 1e-15, 1e-11);
        let c_spread = 10f64.powf(rng.gen_range(0.0..3.0));
        let c_lo = c_center / c_spread;
        let c_hi = c_center * c_spread;

        let l = log_uniform(&mut rng, 1e-10, 1e-7);
        let rs = log_uniform(&mut rng, 0.1, 100.0);
        let coupling_ratio = log_uniform(&mut rng, 0.01, 2.0);
        let vdd = *pick(&mut rng, &[1.0, 1.8, 3.3, 5.0]);

        let wave = match rng.gen_range(0..20usize) {
            0..=7 => WaveKind::Step,
            8..=11 => WaveKind::FallingStep,
            12..=16 => WaveKind::Ramp {
                rise_ratio: log_uniform(&mut rng, 0.1, 3.0),
            },
            _ => WaveKind::Pulse {
                width_ratio: log_uniform(&mut rng, 1.0, 10.0),
            },
        };
        // A supply grid is driven by the pad's step.
        let wave = if class == TopologyClass::Pdn {
            WaveKind::Step
        } else {
            wave
        };

        CaseParams {
            class,
            seed: mixed,
            size,
            r_lo,
            r_hi,
            c_lo,
            c_hi,
            l,
            rs,
            coupling_ratio,
            vdd,
            wave,
        }
    }

    /// A crude characteristic time for the case, used to scale ramp rise
    /// times and pulse widths so the stimulus interacts with the circuit's
    /// dynamics instead of looking like DC or an ideal step.
    pub fn time_scale(&self) -> f64 {
        let r = geo_mean(self.r_lo, self.r_hi);
        let c = geo_mean(self.c_lo, self.c_hi);
        let n = self.size as f64;
        match self.class {
            TopologyClass::RcTree | TopologyClass::RcMesh | TopologyClass::Pdn => r * c * n,
            TopologyClass::RlcLadder => self.rs * c * n + n * (self.l * c).sqrt(),
            TopologyClass::CoupledLines => r * c * (1.0 + self.coupling_ratio) * n,
        }
    }

    /// Strap pitch of a `pdn` case, 2 to 5 mesh nodes, drawn from the
    /// structural seed so minimization keeps it.
    pub fn strap_pitch(&self) -> usize {
        2 + (self.seed % 4) as usize
    }

    /// The stimulus waveform this case drives its input with.
    pub fn waveform(&self) -> Waveform {
        let t0 = self.time_scale().max(1e-18);
        match self.wave {
            WaveKind::Step => Waveform::step(0.0, self.vdd),
            WaveKind::FallingStep => Waveform::step(self.vdd, 0.0),
            WaveKind::Ramp { rise_ratio } => Waveform::rising_step(0.0, self.vdd, rise_ratio * t0),
            WaveKind::Pulse { width_ratio } => {
                let edge = 0.1 * t0;
                let width = width_ratio * t0;
                Waveform::pwl(vec![
                    (0.0, 0.0),
                    (edge, self.vdd),
                    (width, self.vdd),
                    (width + edge, 0.0),
                ])
            }
        }
    }

    /// Builds the case's circuit. Deterministic: equal params yield
    /// byte-identical decks.
    pub fn build(&self) -> FuzzCase {
        let wave = self.waveform();
        let r = geo_mean(self.r_lo, self.r_hi);
        let c = geo_mean(self.c_lo, self.c_hi);
        let g = match self.class {
            TopologyClass::Pdn => {
                // The generator's value ratios (straps 10×, vias 5×, pad
                // 2× stronger than a segment) around the case's values.
                let side = self.size.max(2);
                let pdn = pdn_grid(&PdnSpec {
                    nx: side,
                    ny: side,
                    strap_pitch: self.strap_pitch(),
                    r_seg: r,
                    r_strap: r / 10.0,
                    r_via: r / 5.0,
                    r_pad: r / 2.0,
                    c_node: c,
                    vdd: self.vdd,
                    taps: 1,
                });
                return FuzzCase {
                    params: *self,
                    circuit: pdn.circuit,
                    output: pdn.taps[0],
                };
            }
            TopologyClass::RcTree => random_rc_tree(
                self.size,
                (self.r_lo, self.r_hi),
                (self.c_lo, self.c_hi),
                self.seed,
                wave,
            ),
            TopologyClass::RcMesh => {
                let (rows, cols) = mesh_dims(self.size);
                rc_mesh(rows, cols, r, c, wave)
            }
            TopologyClass::RlcLadder => rlc_ladder(self.size, self.rs, self.l, c, wave),
            TopologyClass::CoupledLines => {
                coupled_rc_lines(self.size, r, c, self.coupling_ratio * c, wave)
            }
        };
        FuzzCase {
            params: *self,
            circuit: g.circuit,
            output: g.output,
        }
    }

    /// One-line parameter summary for reports and corpus headers.
    pub fn describe(&self) -> String {
        format!(
            "class={} seed={} size={} r={:.3e}:{:.3e} c={:.3e}:{:.3e} l={:.3e} rs={:.3e} \
             k={:.3} vdd={} wave={}",
            self.class,
            self.seed,
            self.size,
            self.r_lo,
            self.r_hi,
            self.c_lo,
            self.c_hi,
            self.l,
            self.rs,
            self.coupling_ratio,
            self.vdd,
            self.wave.tag()
        )
    }
}

/// A generated circuit plus the parameters that produced it.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The regenerable description.
    pub params: CaseParams,
    /// The netlist.
    pub circuit: Circuit,
    /// Observation node (the generator's far-end convention).
    pub output: NodeId,
}

/// Grid dimensions for a mesh of about `cells` nodes: the most square
/// factorization with `rows ≤ cols`.
fn mesh_dims(cells: usize) -> (usize, usize) {
    let cells = cells.max(1);
    let mut rows = (cells as f64).sqrt() as usize;
    while rows > 1 && !cells.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), cells / rows.max(1))
}

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    let (a, b) = (lo.ln(), hi.ln());
    (a + (b - a) * rng.gen::<f64>()).exp()
}

fn geo_mean(lo: f64, hi: f64) -> f64 {
    (lo * hi).sqrt()
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// SplitMix64 finalizer: spreads structured `(seed, index)` pairs over the
/// whole 64-bit space before they feed `StdRng`.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for class in TopologyClass::ALL {
            let a = CaseParams::generate(class, 7, 13).build();
            let b = CaseParams::generate(class, 7, 13).build();
            assert_eq!(a.circuit.to_deck(), b.circuit.to_deck());
            assert_eq!(a.output, b.output);
            // A different index must change the circuit.
            let c = CaseParams::generate(class, 7, 14).build();
            assert_ne!(a.circuit.to_deck(), c.circuit.to_deck());
        }
    }

    #[test]
    fn sizes_stay_small_enough_for_dense_oracles() {
        for class in TopologyClass::ALL {
            for i in 0..50 {
                let case = CaseParams::generate(class, 1, i).build();
                assert!(
                    case.circuit.num_states() <= 24,
                    "{class}: {} states",
                    case.circuit.num_states()
                );
            }
        }
    }

    #[test]
    fn pdn_cases_are_step_driven_grids_in_range() {
        for i in 0..40 {
            let p = CaseParams::generate(TopologyClass::Pdn, 0, i);
            assert!((4..=16).contains(&p.size), "size {}", p.size);
            assert!((2..=5).contains(&p.strap_pitch()));
            assert_eq!(p.wave, WaveKind::Step);
            let case = p.build();
            let mesh = p.size * p.size;
            assert!(case.circuit.num_nodes() > mesh, "mesh plus straps");
            assert_eq!(
                case.circuit.node_name(case.output),
                format!("p{0}_{0}", p.size - 1)
            );
        }
    }

    #[test]
    fn class_round_trips_through_str() {
        assert!(!TopologyClass::ALL.contains(&TopologyClass::Pdn));
        assert_eq!("pdn".parse::<TopologyClass>(), Ok(TopologyClass::Pdn));
        for class in TopologyClass::ALL {
            assert_eq!(class.name().parse::<TopologyClass>().unwrap(), class);
        }
        assert!("bogus".parse::<TopologyClass>().is_err());
    }

    #[test]
    fn mesh_dims_are_exact_factorizations() {
        for cells in 1..=16 {
            let (r, c) = mesh_dims(cells);
            assert_eq!(r * c, cells);
            assert!(r <= c);
        }
    }

    #[test]
    fn waveforms_are_scaled_to_the_circuit() {
        let p = CaseParams {
            wave: WaveKind::Pulse { width_ratio: 4.0 },
            ..CaseParams::generate(TopologyClass::RcTree, 0, 0)
        };
        let w = p.waveform();
        assert_eq!(w.initial_value(), 0.0);
        assert_eq!(w.final_value(), 0.0);
        let t0 = p.time_scale();
        let points = w.points();
        assert!(points.last().unwrap().0 > 3.0 * t0);
    }
}
