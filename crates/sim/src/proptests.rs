//! Property tests for the simulator over random netlists,
//! complementing the bytecode-vs-treewalk proptest in
//! [`crate::compile`]: four-state evaluation must collapse to
//! two-state on fully-driven designs, and a mid-run snapshot must
//! replay bit-identically.

use bits::{Bits, Bits4};
use hgf::{CircuitBuilder, Signal};
use proptest::prelude::*;

use crate::{SimConfig, SimControl, Simulator};

/// Deterministic SplitMix64 (same scheme as the compile.rs proptest).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Width shared by all generated signals (keeps every handle
/// combinable with every other and still exercises multi-bit values).
const GEN_WIDTH: u32 = 24;
const GEN_MASK: u64 = (1 << GEN_WIDTH) - 1;

/// Builds a random circuit: `groups` independent combinational
/// clusters over disjoint input sets, registers whose next-values may
/// read any cluster, and a memory with a combinational read and a
/// synchronous write port.
/// Returns the input paths to drive.
fn build_random_circuit(rng: &mut Rng) -> (hgf_ir::CircuitState, Vec<String>) {
    let groups = 1 + rng.below(4) as usize;
    let nodes_per_group = 2 + rng.below(8) as usize;
    let nregs = rng.below(4) as usize;
    let with_mem = rng.chance(60);
    // Pre-draw every random decision so both builder closures see the
    // identical circuit (the closure runs once per simulator).
    let mut script: Vec<u64> = Vec::new();
    for _ in 0..4096 {
        script.push(rng.next());
    }

    let build = |script: &[u64]| {
        let mut k = 0usize;
        let mut draw = move || {
            let v = script[k % script.len()];
            k += 1;
            v
        };
        let mut cb = CircuitBuilder::new();
        let mut inputs = Vec::new();
        cb.module("rand", |m| {
            // Per-group pools of combinational handles.
            let mut pools: Vec<Vec<Signal>> = Vec::new();
            for g in 0..groups {
                let name = format!("in{g}");
                let sig = m.input(&name, GEN_WIDTH);
                inputs.push(format!("rand.{name}"));
                pools.push(vec![sig]);
            }
            // Stable pool: register outputs, readable by any group
            // (registers are not defs).
            let mut regs = Vec::new();
            for r in 0..nregs {
                let init = draw() & GEN_MASK;
                let reg = m.reg(format!("r{r}"), GEN_WIDTH, Some(init));
                for pool in &mut pools {
                    pool.push(reg.sig());
                }
                regs.push(reg);
            }
            let mut node_id = 0usize;
            let mut grown: Vec<Vec<Signal>> = vec![Vec::new(); groups];
            for _ in 0..nodes_per_group {
                for g in 0..groups {
                    let pool = &pools[g];
                    let a = &pool[(draw() % pool.len() as u64) as usize];
                    let b = &pool[(draw() % pool.len() as u64) as usize];
                    let expr = match draw() % 8 {
                        0 => a + b,
                        1 => a - b,
                        2 => a ^ b,
                        3 => a & b,
                        4 => a | b,
                        5 => a * b,
                        6 => !a.clone(),
                        _ => a.bit(0).select(b, &(a ^ b)),
                    };
                    let node = m.node(format!("n{node_id}"), expr);
                    node_id += 1;
                    pools[g].push(node.clone());
                    grown[g].push(node);
                }
            }
            // Register next-values read from any group's grown pool.
            for (r, reg) in regs.iter().enumerate() {
                let g = (draw() % groups as u64) as usize;
                let pool = if grown[g].is_empty() {
                    &pools[g]
                } else {
                    &grown[g]
                };
                let src = &pool[(draw() % pool.len() as u64) as usize];
                m.assign(reg, src + &m.lit((r as u64 + 1) & GEN_MASK, GEN_WIDTH));
            }
            if with_mem {
                let mem = m.mem("m0", GEN_WIDTH, 16);
                let g = (draw() % groups as u64) as usize;
                let addr_src = pools[g].last().unwrap().clone();
                let rd = m.mem_read(&mem, "m0_out", addr_src.slice(3, 0));
                let gd = (draw() % groups as u64) as usize;
                let data = pools[gd].last().unwrap().clone();
                let en = pools[gd][0].bit(0);
                m.mem_write(&mem, data.slice(7, 4), data, en);
                let out = m.output("mem_o", GEN_WIDTH);
                m.assign(&out, rd + m.lit(1, GEN_WIDTH));
            }
            // Expose each group's last node so nothing is dead.
            for (g, pool) in pools.iter().enumerate() {
                let out = m.output(format!("o{g}"), GEN_WIDTH);
                m.assign(&out, pool.last().unwrap().clone());
            }
        });
        let circuit = cb.finish("rand").unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        hgf_ir::passes::compile(&mut state, false).unwrap();
        (state, inputs)
    };

    build(&script)
}

/// A simulator over the random circuit, optionally in four-state mode.
fn sim_with(state: &hgf_ir::CircuitState, four_state: bool) -> Simulator {
    Simulator::with_config(&state.circuit, SimConfig { four_state }).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a fully-driven, fully-reset design, four-state evaluation is
    /// two-state evaluation: every random netlist here has all
    /// registers in the reset tree and all inputs poked every cycle,
    /// so after reset the unknown planes must be identically zero and
    /// every value bit-identical to the two-state engine.
    #[test]
    fn four_state_collapses_to_two_state_when_fully_driven(seed in any::<u64>()) {
        let mut rng = Rng(seed.wrapping_mul(0x6a09_e667_f3bc_c909) | 1);
        let (state, inputs) = build_random_circuit(&mut rng);
        let mut two = sim_with(&state, false);
        let mut four = sim_with(&state, true);
        let paths = two.signal_paths();
        for sim in [&mut two, &mut four] {
            sim.reset(2);
        }
        for cycle in 0..12u64 {
            let stim: Vec<Bits> = inputs
                .iter()
                .map(|_| Bits::from_u64(rng.next() & GEN_MASK, GEN_WIDTH))
                .collect();
            for sim in [&mut two, &mut four] {
                for (path, v) in inputs.iter().zip(&stim) {
                    sim.poke(path, v.clone()).unwrap();
                }
                sim.step_clock();
            }
            for path in &paths {
                let expected = two.peek(path).unwrap();
                let got = four.peek4(path).unwrap();
                prop_assert!(
                    got.unknown().is_zero(),
                    "cycle {} {} still unknown in four-state (seed {})",
                    cycle, path, seed
                );
                prop_assert_eq!(
                    got.value(), &expected,
                    "cycle {} {} diverged in four-state (seed {})",
                    cycle, path, seed
                );
            }
        }
    }

    /// A mid-run snapshot restored into a fresh engine and replayed
    /// under identical stimulus must be bit-identical to the
    /// uninterrupted run, in either value domain: every signal every
    /// cycle and the final memory contents (both planes), and the eval
    /// counter.
    #[test]
    fn snapshot_roundtrip_equivalent_on_random_netlists(
        seed in any::<u64>(),
        four_state in any::<bool>(),
    ) {
        let mut rng = Rng(seed.wrapping_mul(0x9e6c_7f4a_b958_2d31) | 1);
        let (state, inputs) = build_random_circuit(&mut rng);
        let mut clean = sim_with(&state, four_state);
        let paths = clean.signal_paths();
        // Pre-draw the stimulus so every replay pokes identical values.
        let cycles = 12usize;
        let stim: Vec<Vec<Bits>> = (0..cycles)
            .map(|_| {
                inputs
                    .iter()
                    .map(|_| Bits::from_u64(rng.next() & GEN_MASK, GEN_WIDTH))
                    .collect()
            })
            .collect();
        let drive = |sim: &mut Simulator, t: usize| {
            for (path, v) in inputs.iter().zip(&stim[t]) {
                sim.poke(path, v.clone()).unwrap();
            }
            sim.step_clock();
        };
        // Uninterrupted reference run, snapshotting at mid-point.
        clean.reset(2);
        let snap_at = cycles / 2;
        let mut snap = None;
        let mut tail_frames: Vec<Vec<Bits4>> = Vec::new();
        for t in 0..cycles {
            if t == snap_at {
                snap = Some(clean.snapshot());
            }
            drive(&mut clean, t);
            if t >= snap_at {
                tail_frames.push(paths.iter().map(|p| clean.peek4(p).unwrap()).collect());
            }
        }
        let snap = snap.unwrap();
        let mut replay = sim_with(&state, four_state);
        replay.restore(&snap).unwrap();
        prop_assert_eq!(replay.time(), snap.time());
        for (k, t) in (snap_at..cycles).enumerate() {
            drive(&mut replay, t);
            for (p, expect) in paths.iter().zip(&tail_frames[k]) {
                prop_assert_eq!(
                    &replay.peek4(p).unwrap(), expect,
                    "cycle {} signal {} diverged after restore (seed {})",
                    t, p, seed
                );
            }
        }
        prop_assert_eq!(replay.defs_evaluated(), clean.defs_evaluated(),
            "eval counters diverged after restore (seed {})", seed);
        for addr in 0..16 {
            prop_assert_eq!(
                replay.peek_mem4("rand.m0", addr),
                clean.peek_mem4("rand.m0", addr),
                "memory word {} diverged after restore (seed {})",
                addr, seed
            );
        }
    }
}
