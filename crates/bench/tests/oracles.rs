//! Differential oracles on the rv32 core running `multiply`, in both
//! the release and the debug build:
//!
//! * **live vs replay** — a live simulation and the VCD replay of the
//!   same run stop at the same cycles, on the same breakpoints, with
//!   the same frame locals and the same watch changes;
//! * **forward vs reverse** — on either backend, `reverse_continue`
//!   visits the stops a forward run made, in reverse order.
//!
//! Every continue is bounded, and the checkpoint policy is set
//! explicitly, so nothing here depends on the environment.

use bench::{compile_core, loaded_sim, symbols_for, CompiledCore};
use bits::Bits4;
use hgdb::{CheckpointConfig, RunOutcome, Runtime, StopEvent, StopKind};
use rtl_sim::{SimControl, Simulator};
use vcd::{Recorder, ReplaySim};

/// Cycles recorded for replay.
const CYCLES: u64 = 600;
/// Stops compared between live and replay.
const STOPS: usize = 200;
/// Forward stops retraced by `reverse_continue`.
const REVERSE_STOPS: usize = 60;
/// Cycle bound of every continue.
const BOUND: u64 = 400;
/// Trace time per cycle written by [`Recorder`].
const TRACE_TIME_PER_CYCLE: u64 = 10;

fn live(core: &CompiledCore) -> Simulator {
    loaded_sim(core, &rv32::programs::multiply())
}

/// Records [`CYCLES`] cycles of a live run and wraps the trace for
/// replay.
fn replay(core: &CompiledCore) -> ReplaySim {
    let mut sim = live(core);
    let mut text = Vec::new();
    let mut rec = Recorder::new(&sim, &mut text).expect("recorder");
    for _ in 0..CYCLES {
        sim.step_clock();
        rec.sample(&sim).expect("sample");
    }
    rec.finish().expect("flush");
    let trace = vcd::parse(std::str::from_utf8(&text).expect("utf-8")).expect("parses");
    ReplaySim::new(trace)
}

/// Attaches to `sim` and instruments it: a breakpoint on every
/// statement with an enable (the first is the core's ECALL halt, the
/// next its retired-instruction counter, active every running cycle)
/// and a watch on the PC. Both backends first move one cycle, because
/// a trace's first cycle is the live simulator's cycle 1.
fn instrument<S: SimControl>(sim: S, core: &CompiledCore) -> Runtime<S> {
    let symbols = symbols_for(core);
    let enabled: Vec<_> = symbols
        .all_breakpoints()
        .expect("query")
        .into_iter()
        .filter(|b| b.enable.is_some())
        .collect();
    assert!(enabled.len() > 1, "the core has conditional statements");
    let mut rt = Runtime::attach(sim, symbols).expect("attach");
    rt.set_checkpoint_config(CheckpointConfig {
        interval: 64,
        ..CheckpointConfig::default()
    });
    assert!(rt.step_cycle());
    rt.checkpoint_now().expect("checkpoint");
    for bp in &enabled {
        rt.insert_breakpoint(&bp.filename, bp.line, Some(bp.col), None)
            .expect("insert breakpoint");
    }
    rt.insert_watchpoint(None, &format!("{}.pc", core.top))
        .expect("insert watchpoint");
    rt
}

/// Up to `limit` forward stops, each reached by a bounded continue.
fn forward_stops<S: SimControl>(rt: &mut Runtime<S>, limit: usize) -> Vec<StopEvent> {
    let mut stops = Vec::new();
    while stops.len() < limit {
        match rt.continue_run(Some(BOUND)).expect("continue") {
            RunOutcome::Stopped(event) => stops.push(event),
            RunOutcome::Finished { .. } => break,
        }
    }
    stops
}

/// A frame's locals, source name to value.
type Locals = Vec<(String, Option<Bits4>)>;

/// What two backends must agree on for one stop.
#[derive(Debug, PartialEq)]
struct StopKey {
    cycle: u64,
    reason: StopKind,
    breakpoints: Vec<(i64, Locals)>,
    watches: Vec<(i64, Bits4, Bits4)>,
}

impl StopKey {
    fn of(event: &StopEvent, time_per_cycle: u64) -> StopKey {
        StopKey {
            cycle: event.time / time_per_cycle,
            reason: event.reason,
            breakpoints: event
                .hits
                .iter()
                .map(|f| (f.breakpoint_id, f.locals.clone()))
                .collect(),
            watches: event
                .watch_hits
                .iter()
                .map(|h| (h.id, h.old.clone(), h.new.clone()))
                .collect(),
        }
    }
}

#[test]
fn live_and_replay_stop_alike() {
    for debug in [false, true] {
        let core = compile_core(debug);
        let mut live_rt = instrument(live(&core), &core);
        let mut replay_rt = instrument(replay(&core), &core);
        let live_stops: Vec<StopKey> = forward_stops(&mut live_rt, STOPS)
            .iter()
            .map(|e| StopKey::of(e, 1))
            .filter(|k| k.cycle <= CYCLES)
            .collect();
        let replay_stops: Vec<StopKey> = forward_stops(&mut replay_rt, STOPS)
            .iter()
            .map(|e| StopKey::of(e, TRACE_TIME_PER_CYCLE))
            .collect();
        assert!(
            live_stops.len() > 100,
            "debug={debug}: {} stops",
            live_stops.len()
        );
        assert!(live_stops.iter().any(|k| k.reason == StopKind::Breakpoint));
        assert!(live_stops.iter().any(|k| k.reason == StopKind::Watchpoint));
        assert_eq!(live_stops.len(), replay_stops.len(), "debug={debug}");
        for (i, (l, r)) in live_stops.iter().zip(&replay_stops).enumerate() {
            assert_eq!(l, r, "debug={debug}: stop {i}");
        }
    }
}

/// Runs [`REVERSE_STOPS`] stops forward, then reverse-continues back
/// to the start. `reverse_continue` lands on the latest stop at a
/// strictly earlier cycle, so where several stops share a cycle only
/// the last is revisited.
fn assert_reverse_retraces<S: SimControl>(mut rt: Runtime<S>, label: &str) {
    let forward = forward_stops(&mut rt, REVERSE_STOPS);
    assert_eq!(forward.len(), REVERSE_STOPS, "{label}");
    let now = forward.last().expect("stops").time;
    let mut expected: Vec<&StopEvent> = Vec::new();
    for event in forward.iter().filter(|e| e.time < now) {
        if expected.last().is_some_and(|e| e.time == event.time) {
            expected.pop();
        }
        expected.push(event);
    }
    // A breakpoint stop and a watch stop often share a cycle.
    assert!(expected.len() >= REVERSE_STOPS / 2 - 1, "{label}");
    for (i, want) in expected.iter().rev().enumerate() {
        match rt.reverse_continue().expect("reverse_continue") {
            RunOutcome::Stopped(event) => assert_eq!(&event, *want, "{label}: reverse stop {i}"),
            other => panic!("{label}: reverse stop {i}: {other:?}"),
        }
    }
    // Nothing before the first stop: a replay finishes at its first
    // cycle; the live backend has no checkpoint before it.
    let before_first = rt.reverse_continue();
    assert!(
        !matches!(before_first, Ok(RunOutcome::Stopped(_))),
        "{label}: a stop before the first forward stop: {before_first:?}"
    );
}

#[test]
fn reverse_continue_retraces_forward_stops() {
    for debug in [false, true] {
        let core = compile_core(debug);
        assert_reverse_retraces(
            instrument(live(&core), &core),
            &format!("live debug={debug}"),
        );
        assert_reverse_retraces(
            instrument(replay(&core), &core),
            &format!("replay debug={debug}"),
        );
    }
}
