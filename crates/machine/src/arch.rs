//! Architecture descriptors: the four machines of the paper's Table 1.

use fgbs_isa::{Precision, TargetSpec, VOp};

/// Number of dispatch ports modelled (P0..P5, Nehalem-style).
pub const N_PORTS: usize = 6;

/// Bitmask over dispatch ports.
pub type PortMask = u8;

const P0: PortMask = 1 << 0;
const P1: PortMask = 1 << 1;
const P2: PortMask = 1 << 2;
const P3: PortMask = 1 << 3;
const P4: PortMask = 1 << 4;
const P5: PortMask = 1 << 5;

/// One cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// Capacity in bytes (per core for private levels).
    pub size: u64,
    /// Associativity (ways).
    pub assoc: u32,
    /// Load-to-use latency in cycles.
    pub latency: f64,
    /// Sustainable fill bandwidth from this level, bytes per cycle.
    pub bandwidth: f64,
}

/// DRAM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySystem {
    /// Access latency in cycles.
    pub latency: f64,
    /// Sustainable bandwidth in bytes per cycle.
    pub bandwidth: f64,
}

/// Cost of one (possibly vector) instruction on a given architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Ports able to execute the instruction.
    pub ports: PortMask,
    /// Micro-ops issued.
    pub uops: f64,
    /// Result latency in cycles.
    pub latency: f64,
    /// Reciprocal throughput in cycles (per instruction, on one port).
    pub rcp_tput: f64,
}

/// A machine model: one row of the paper's Table 1 plus the micro-
/// architectural detail needed to time codelets.
#[derive(Debug, Clone, PartialEq)]
pub struct Arch {
    /// Marketing name ("Nehalem", "Atom", ...).
    pub name: String,
    /// CPU model string (Table 1).
    pub cpu: String,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Core count (benchmarks are serial; informational).
    pub cores: u32,
    /// Vector compilation target.
    pub vector: TargetSpec,
    /// In-order pipeline (Atom) vs out-of-order.
    pub in_order: bool,
    /// Front-end issue width in micro-ops per cycle.
    pub issue_width: f64,
    /// Fraction of exposed operation latency an in-order pipeline cannot
    /// hide (0 for out-of-order cores).
    pub inorder_expose: f64,
    /// Outstanding-miss parallelism: miss latency is divided by this factor
    /// for out-of-order cores that overlap misses.
    pub mlp: f64,
    /// Hardware prefetcher efficiency for constant-stride streams, 0 to 1.
    pub prefetch_eff: f64,
    /// Cache hierarchy, L1 first. 64-byte lines throughout.
    pub caches: Vec<CacheLevel>,
    /// DRAM behind the last cache level.
    pub memory: MemorySystem,
    /// Cost in cycles of one measurement probe pair (models Likwid
    /// instrumentation overhead around each invocation).
    pub probe_overhead: f64,
}

/// Cache line size (bytes) — uniform across modelled machines.
pub const LINE: u64 = 64;

impl Arch {
    /// The compilation target seen by the compiler for this machine.
    pub fn target(&self) -> TargetSpec {
        self.vector
    }

    /// Convert cycles to seconds on this machine.
    pub fn seconds(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// Convert seconds to cycles on this machine.
    pub fn cycles(&self, seconds: f64) -> f64 {
        seconds * self.freq_ghz * 1e9
    }

    /// Per-instruction cost table.
    ///
    /// Latencies and throughputs follow the published instruction tables
    /// for each generation: divides and square roots are unpipelined and
    /// dramatically slower on Atom; transcendental calls are scalar library
    /// code; loads dual-issue only on Sandy Bridge.
    pub fn cost(&self, op: VOp, prec: Precision, lanes: u8) -> OpCost {
        let v = lanes > 1;
        let dp = prec == Precision::F64;
        // Generation scaling knobs.
        let gen = &self.gen_knobs();
        match op {
            VOp::FAdd | VOp::FSub | VOp::FMax => OpCost {
                ports: P1,
                uops: 1.0,
                latency: gen.fadd_lat,
                rcp_tput: if v && self.in_order { 1.5 } else { 1.0 },
            },
            VOp::FMul => OpCost {
                ports: P0,
                uops: 1.0,
                latency: gen.fmul_lat,
                rcp_tput: if v && self.in_order { 2.0 } else { 1.0 },
            },
            VOp::FDiv => {
                let base = if dp { gen.fdiv_dp } else { gen.fdiv_sp };
                let t = if v { base * gen.div_vec_penalty } else { base };
                OpCost {
                    ports: P0,
                    uops: 1.0,
                    latency: t,
                    rcp_tput: t, // unpipelined divider
                }
            }
            VOp::FSqrt => {
                let base = if dp { gen.fdiv_dp } else { gen.fdiv_sp } * 1.4;
                let t = if v { base * gen.div_vec_penalty } else { base };
                OpCost {
                    ports: P0,
                    uops: 1.0,
                    latency: t,
                    rcp_tput: t,
                }
            }
            VOp::FCall => OpCost {
                ports: P0 | P1,
                uops: 10.0,
                latency: gen.call_cost,
                rcp_tput: gen.call_cost,
            },
            VOp::FLogic | VOp::Shuffle => OpCost {
                ports: P0 | P5,
                uops: 1.0,
                latency: 1.0,
                rcp_tput: 1.0,
            },
            VOp::HReduce => OpCost {
                ports: P1,
                uops: 2.0,
                latency: 2.0 * gen.fadd_lat,
                rcp_tput: 2.0,
            },
            VOp::IAdd => OpCost {
                ports: P0 | P1 | P5,
                uops: 1.0,
                latency: 1.0,
                rcp_tput: 1.0,
            },
            VOp::IMul => OpCost {
                ports: P1,
                uops: 1.0,
                latency: 3.0,
                rcp_tput: 1.0,
            },
            VOp::Load => OpCost {
                ports: if gen.dual_load { P2 | P3 } else { P2 },
                uops: 1.0,
                latency: self.caches[0].latency,
                rcp_tput: 1.0,
            },
            VOp::Store => OpCost {
                ports: P4,
                uops: 1.0,
                latency: 1.0,
                rcp_tput: 1.0,
            },
            VOp::Branch => OpCost {
                ports: P5,
                uops: 1.0,
                latency: 1.0,
                rcp_tput: if self.in_order { 1.0 } else { 0.5 },
            },
        }
    }

    fn gen_knobs(&self) -> GenKnobs {
        match self.name.as_str() {
            "Atom" => GenKnobs {
                fadd_lat: 5.0,
                fmul_lat: 5.0,
                fdiv_dp: 60.0,
                fdiv_sp: 31.0,
                div_vec_penalty: 1.9,
                call_cost: 180.0,
                dual_load: false,
            },
            "Core 2" => GenKnobs {
                fadd_lat: 3.0,
                fmul_lat: 5.0,
                // Penryn's radix-16 divider is competitive with Nehalem's,
                // so the 2.93 vs 1.86 GHz clock advantage dominates for
                // compute-bound kernels (the paper's cluster-A case study).
                fdiv_dp: 26.0,
                fdiv_sp: 15.0,
                div_vec_penalty: 1.7,
                call_cost: 55.0,
                dual_load: false,
            },
            "Sandy Bridge" => GenKnobs {
                fadd_lat: 3.0,
                fmul_lat: 5.0,
                fdiv_dp: 20.0,
                fdiv_sp: 12.0,
                div_vec_penalty: 1.4,
                call_cost: 38.0,
                dual_load: true,
            },
            // Nehalem and anything custom defaults to the reference knobs.
            _ => GenKnobs {
                fadd_lat: 3.0,
                fmul_lat: 5.0,
                fdiv_dp: 22.0,
                fdiv_sp: 14.0,
                div_vec_penalty: 1.6,
                call_cost: 45.0,
                dual_load: false,
            },
        }
    }

    /// The reference architecture: Nehalem L5609, 1.86 GHz, 32 KB L1D,
    /// 256 KB L2, 12 MB L3 (Table 1, "Reference" column).
    pub fn nehalem() -> Arch {
        Arch {
            name: "Nehalem".into(),
            cpu: "L5609".into(),
            freq_ghz: 1.86,
            cores: 4,
            vector: TargetSpec::sse128(),
            in_order: false,
            issue_width: 4.0,
            inorder_expose: 0.0,
            mlp: 5.0,
            prefetch_eff: 0.9,
            caches: vec![
                CacheLevel {
                    size: 32 * 1024,
                    assoc: 8,
                    latency: 4.0,
                    bandwidth: 16.0,
                },
                CacheLevel {
                    size: 256 * 1024,
                    assoc: 8,
                    latency: 10.0,
                    bandwidth: 16.0,
                },
                CacheLevel {
                    size: 12 * 1024 * 1024,
                    assoc: 16,
                    latency: 38.0,
                    bandwidth: 10.0,
                },
            ],
            memory: MemorySystem {
                latency: 190.0,
                bandwidth: 5.5,
            },
            probe_overhead: 2200.0,
        }
    }

    /// Atom D510, 1.66 GHz, in-order dual-issue, 24 KB L1D, 512 KB L2, no
    /// L3 (Table 1).
    pub fn atom() -> Arch {
        Arch {
            name: "Atom".into(),
            cpu: "D510".into(),
            freq_ghz: 1.66,
            cores: 2,
            vector: TargetSpec::sse128(),
            in_order: true,
            issue_width: 2.0,
            inorder_expose: 0.45,
            mlp: 1.3,
            prefetch_eff: 0.55,
            caches: vec![
                CacheLevel {
                    size: 24 * 1024,
                    assoc: 6,
                    latency: 3.0,
                    bandwidth: 8.0,
                },
                CacheLevel {
                    size: 512 * 1024,
                    assoc: 8,
                    latency: 16.0,
                    bandwidth: 8.0,
                },
            ],
            memory: MemorySystem {
                latency: 160.0,
                bandwidth: 2.6,
            },
            probe_overhead: 3800.0,
        }
    }

    /// Core 2 E7500, 2.93 GHz, 32 KB L1D, 3 MB shared L2, no L3 (Table 1).
    pub fn core2() -> Arch {
        Arch {
            name: "Core 2".into(),
            cpu: "E7500".into(),
            freq_ghz: 2.93,
            cores: 2,
            vector: TargetSpec::sse128(),
            in_order: false,
            issue_width: 4.0,
            inorder_expose: 0.0,
            mlp: 3.5,
            prefetch_eff: 0.8,
            caches: vec![
                CacheLevel {
                    size: 32 * 1024,
                    assoc: 8,
                    latency: 3.0,
                    bandwidth: 16.0,
                },
                CacheLevel {
                    size: 3 * 1024 * 1024,
                    assoc: 12,
                    latency: 15.0,
                    bandwidth: 12.0,
                },
            ],
            memory: MemorySystem {
                latency: 250.0,
                bandwidth: 3.4,
            },
            probe_overhead: 2600.0,
        }
    }

    /// Sandy Bridge E31240, 3.30 GHz, 32 KB L1D, 256 KB L2, 8 MB L3
    /// (Table 1).
    pub fn sandy_bridge() -> Arch {
        Arch {
            name: "Sandy Bridge".into(),
            cpu: "E31240".into(),
            freq_ghz: 3.30,
            cores: 4,
            vector: TargetSpec::sse128(),
            in_order: false,
            issue_width: 4.0,
            inorder_expose: 0.0,
            mlp: 8.0,
            prefetch_eff: 0.92,
            caches: vec![
                CacheLevel {
                    size: 32 * 1024,
                    assoc: 8,
                    latency: 4.0,
                    bandwidth: 24.0,
                },
                CacheLevel {
                    size: 256 * 1024,
                    assoc: 8,
                    latency: 12.0,
                    bandwidth: 20.0,
                },
                CacheLevel {
                    size: 8 * 1024 * 1024,
                    assoc: 16,
                    latency: 30.0,
                    bandwidth: 14.0,
                },
            ],
            memory: MemorySystem {
                latency: 230.0,
                bandwidth: 8.0,
            },
            probe_overhead: 1800.0,
        }
    }

    /// All four machines of Table 1, reference first.
    pub fn table1() -> Vec<Arch> {
        vec![
            Arch::nehalem(),
            Arch::atom(),
            Arch::core2(),
            Arch::sandy_bridge(),
        ]
    }

    /// The three target machines of the evaluation (everything but the
    /// reference).
    pub fn targets() -> Vec<Arch> {
        vec![Arch::atom(), Arch::core2(), Arch::sandy_bridge()]
    }

    /// Scale every cache capacity down by `divisor`, keeping latencies,
    /// bandwidths and all capacity *ratios* intact.
    ///
    /// The experiments run on a park scaled by [`PARK_SCALE`]: the paper's
    /// NAS CLASS B working sets and multi-megabyte caches would cost
    /// billions of simulated accesses, while a uniformly scaled system
    /// preserves every fits-in/falls-out-of-cache relationship of Table 1
    /// (e.g. "fits Nehalem's L3 but not Core 2's L2") at a fraction of the
    /// cost. See DESIGN.md.
    pub fn scaled(mut self, divisor: u64) -> Arch {
        for c in &mut self.caches {
            c.size = (c.size / divisor).max(LINE * c.assoc as u64);
        }
        self
    }

    /// The reference architecture at experiment scale.
    pub fn reference_scaled() -> Arch {
        Arch::nehalem().scaled(PARK_SCALE)
    }

    /// The three targets at experiment scale.
    pub fn targets_scaled() -> Vec<Arch> {
        Arch::targets()
            .into_iter()
            .map(|a| a.scaled(PARK_SCALE))
            .collect()
    }

    /// The full park at experiment scale, reference first.
    pub fn park_scaled() -> Vec<Arch> {
        Arch::table1()
            .into_iter()
            .map(|a| a.scaled(PARK_SCALE))
            .collect()
    }
}

/// The uniform capacity divisor of the experiment park (see
/// [`Arch::scaled`]).
pub const PARK_SCALE: u64 = 8;

struct GenKnobs {
    fadd_lat: f64,
    fmul_lat: f64,
    fdiv_dp: f64,
    fdiv_sp: f64,
    div_vec_penalty: f64,
    call_cost: f64,
    dual_load: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_machines() {
        let t = Arch::table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].name, "Nehalem");
        let names: Vec<_> = Arch::targets().iter().map(|a| a.name.clone()).collect();
        assert_eq!(names, ["Atom", "Core 2", "Sandy Bridge"]);
    }

    #[test]
    fn frequencies_match_table1() {
        assert!((Arch::nehalem().freq_ghz - 1.86).abs() < 1e-9);
        assert!((Arch::atom().freq_ghz - 1.66).abs() < 1e-9);
        assert!((Arch::core2().freq_ghz - 2.93).abs() < 1e-9);
        assert!((Arch::sandy_bridge().freq_ghz - 3.30).abs() < 1e-9);
    }

    #[test]
    fn cache_hierarchies_match_table1() {
        assert_eq!(Arch::nehalem().caches.len(), 3); // has L3
        assert_eq!(Arch::atom().caches.len(), 2); // no L3
        assert_eq!(Arch::core2().caches.len(), 2); // no L3
        assert_eq!(Arch::sandy_bridge().caches[2].size, 8 * 1024 * 1024);
        assert_eq!(Arch::nehalem().caches[2].size, 12 * 1024 * 1024);
        assert_eq!(Arch::core2().caches[1].size, 3 * 1024 * 1024);
    }

    #[test]
    fn seconds_cycles_roundtrip() {
        let a = Arch::sandy_bridge();
        let s = a.seconds(3.3e9);
        assert!((s - 1.0).abs() < 1e-9);
        assert!((a.cycles(s) - 3.3e9).abs() < 1.0);
    }

    #[test]
    fn atom_divide_is_much_slower() {
        use fgbs_isa::{Precision, VOp};
        let atom = Arch::atom().cost(VOp::FDiv, Precision::F64, 1);
        let nhm = Arch::nehalem().cost(VOp::FDiv, Precision::F64, 1);
        assert!(atom.rcp_tput > 2.0 * nhm.rcp_tput);
    }

    #[test]
    fn divider_is_unpipelined() {
        let c = Arch::nehalem().cost(fgbs_isa::VOp::FDiv, fgbs_isa::Precision::F64, 1);
        assert_eq!(c.latency, c.rcp_tput);
    }

    #[test]
    fn only_sandy_bridge_dual_loads() {
        let sb = Arch::sandy_bridge().cost(fgbs_isa::VOp::Load, fgbs_isa::Precision::F64, 1);
        let nhm = Arch::nehalem().cost(fgbs_isa::VOp::Load, fgbs_isa::Precision::F64, 1);
        assert_eq!(sb.ports.count_ones(), 2);
        assert_eq!(nhm.ports.count_ones(), 1);
    }

    #[test]
    fn in_order_flag() {
        assert!(Arch::atom().in_order);
        assert!(!Arch::nehalem().in_order);
        assert!(Arch::atom().inorder_expose > 0.0);
    }
}

#[cfg(test)]
mod scaled_tests {
    use super::*;

    #[test]
    fn scaled_divides_capacities_only() {
        let full = Arch::nehalem();
        let s = Arch::nehalem().scaled(8);
        for (a, b) in full.caches.iter().zip(&s.caches) {
            assert_eq!(a.size / 8, b.size);
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.bandwidth, b.bandwidth);
            assert_eq!(a.assoc, b.assoc);
        }
        assert_eq!(full.freq_ghz, s.freq_ghz);
        assert_eq!(full.memory, s.memory);
    }

    #[test]
    fn scaled_preserves_capacity_ratios() {
        let full = Arch::table1();
        let park = Arch::park_scaled();
        for (f, s) in full.iter().zip(&park) {
            let rf = f.caches.last().unwrap().size as f64 / f.caches[0].size as f64;
            let rs = s.caches.last().unwrap().size as f64 / s.caches[0].size as f64;
            assert!((rf - rs).abs() / rf < 0.01, "{}", f.name);
        }
    }

    #[test]
    fn scaling_clamps_to_one_set() {
        // A pathological divisor cannot produce an empty cache.
        let tiny = Arch::atom().scaled(1 << 30);
        for c in &tiny.caches {
            assert!(c.size >= LINE * c.assoc as u64);
        }
    }

    #[test]
    fn park_helpers_are_consistent() {
        assert_eq!(Arch::park_scaled().len(), 4);
        assert_eq!(Arch::targets_scaled().len(), 3);
        assert_eq!(Arch::reference_scaled().name, "Nehalem");
        assert_eq!(
            Arch::reference_scaled().caches[0].size,
            Arch::nehalem().caches[0].size / PARK_SCALE
        );
    }
}
