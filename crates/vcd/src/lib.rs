//! VCD trace capture, parsing and replay for hgdb.
//!
//! The paper's architecture (Figure 1) shows a "Replay tool" as one of
//! the backends behind the unified simulator interface: hgdb can debug
//! from a captured trace instead of a live simulation, which is also
//! what unlocks *full* reverse debugging (§3.2 — "if the underlying
//! simulator supports reversing time, such as a trace-based replay
//! engine").
//!
//! * [`Recorder`] — streams a live `rtl-sim` simulation to VCD text.
//! * [`parse`] — reads VCD back into a [`Trace`].
//! * [`ReplaySim`] — implements `rtl_sim::SimControl` over a trace,
//!   with bidirectional [`SimControl::set_time`].
//! * [`hier_match`] — common-substring hierarchy matching for locating
//!   the generated IP inside testbench scopes (§3.3).
//!
//! [`SimControl::set_time`]: rtl_sim::SimControl::set_time

pub mod hier_match;
mod parse;
mod replay;
mod trace;
mod writer;

pub use parse::{parse, VcdError};
pub use replay::{build_hierarchy, ReplaySim};
pub use trace::Trace;
pub use writer::Recorder;

#[cfg(test)]
mod round_trip_tests {
    use super::*;
    use bits::Bits;
    use hgf::CircuitBuilder;
    use rtl_sim::{SimControl, Simulator};

    fn counter_sim() -> Simulator {
        let mut cb = CircuitBuilder::new();
        cb.module("counter", |m| {
            let en = m.input("en", 1);
            let out = m.output("out", 8);
            let count = m.reg("count", 8, Some(0));
            m.when(en, |m| m.assign(&count, count.sig() + m.lit(1, 8)));
            m.assign(&out, count.sig());
        });
        let circuit = cb.finish("counter").unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        hgf_ir::passes::compile(&mut state, false).unwrap();
        Simulator::new(&state.circuit).unwrap()
    }

    /// Live sim → VCD text → parse → replay must agree cycle by cycle
    /// with the original simulation (the property that makes replay
    /// debugging trustworthy).
    #[test]
    fn live_and_replay_agree() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();

        let mut text = Vec::new();
        let mut expected: Vec<u64> = Vec::new();
        {
            let mut rec = Recorder::new(&sim, &mut text).unwrap();
            for _ in 0..20 {
                sim.step_clock();
                rec.sample(&sim).unwrap();
                expected.push(sim.peek("counter.out").unwrap().to_u64());
            }
            rec.finish().unwrap();
        }

        let trace = parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(trace.cycle_count(), 20);
        let mut replay = ReplaySim::new(trace);
        let out = replay.signal_id("counter.out").unwrap();
        let read = |r: &ReplaySim| r.get_value(out).unwrap().to_known().unwrap().to_u64();
        let mut got = Vec::new();
        while replay.step_clock() {
            got.push(read(&replay));
        }
        assert_eq!(got, expected);

        // And in reverse.
        for (cycle, want) in expected.iter().enumerate().rev() {
            let t = replay.trace().cycle_times()[cycle];
            replay.set_time(t).unwrap();
            assert_eq!(read(&replay), *want, "cycle {cycle}");
        }
    }

    #[test]
    fn replay_hierarchy_matches_live() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        let mut text = Vec::new();
        {
            let mut rec = Recorder::new(&sim, &mut text).unwrap();
            for _ in 0..3 {
                sim.step_clock();
                rec.sample(&sim).unwrap();
            }
            rec.finish().unwrap();
        }
        let replay = ReplaySim::new(parse(std::str::from_utf8(&text).unwrap()).unwrap());
        let h = replay.hierarchy();
        assert_eq!(h.name, "counter");
        assert!(h.signals.contains(&"count".to_owned()));
        assert!(h.signals.contains(&"out".to_owned()));
    }
}
