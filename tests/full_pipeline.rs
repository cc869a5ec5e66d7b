//! End-to-end integration: generator → IR passes → symbol table →
//! simulator → debugger, exercising the paper's Listing 1/2 scenario
//! and the multi-instance "threads" view.

use bits::Bits;
use hgdb::{RunOutcome, Runtime};
use hgf::CircuitBuilder;
use rtl_sim::Simulator;

/// The Listing 1 accumulator as a reusable generator function.
fn acc_module(cb: &mut CircuitBuilder, name: &str) -> (hgf::ModuleHandle, u32) {
    let bp_line = line!() + 8;
    let handle = cb.module(name, |m| {
        let data = [m.input("data0", 8), m.input("data1", 8)];
        let out = m.output("out", 8);
        let sum = m.wire("sum", m.lit(0, 8));
        for d in data {
            let odd = d.rem(&m.lit(2, 8)).eq(&m.lit(1, 8));
            m.when(odd, |m| {
                m.assign(&sum, sum.sig() + d.clone());
            });
        }
        m.assign(&out, sum.sig());
    });
    (handle, bp_line)
}

#[test]
fn listing12_breakpoints_and_ssa_values() {
    let mut cb = CircuitBuilder::new();
    let (_handle, bp_line) = acc_module(&mut cb, "acc");
    let circuit = cb.finish("acc").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).unwrap();
    let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();

    let mut sim = Simulator::new(&state.circuit).unwrap();
    sim.poke("acc.data0", Bits::from_u64(3, 8)).unwrap();
    sim.poke("acc.data1", Bits::from_u64(4, 8)).unwrap(); // even: 2nd bp disabled

    let mut dbg = Runtime::attach(sim, symbols).unwrap();
    let ids = dbg.insert_breakpoint(file!(), bp_line, None, None).unwrap();
    // One source line, two unrolled statements (paper: "multiple
    // line-mapping after SSA").
    assert_eq!(ids.len(), 2);

    // data0 = 3 is odd, data1 = 4 is even: the group evaluates both
    // breakpoints "in parallel" (§3.2 step 2) but only the first
    // matches its enable. Its scope maps sum -> sum_0 (value before
    // the statement) = 0.
    match dbg.continue_run(Some(10)).unwrap() {
        RunOutcome::Stopped(event) => {
            assert_eq!(event.line, bp_line);
            assert_eq!(event.hits.len(), 1, "even data1 disables the 2nd bp");
            assert_eq!(event.hits[0].breakpoint_id, ids[0]);
            assert_eq!(event.hits[0].local("sum").unwrap().value().to_u64(), 0);
        }
        other => panic!("expected stop, got {other:?}"),
    }
    // The design is combinational with static inputs, so the same
    // breakpoint re-fires next cycle — still only the first one.
    match dbg.continue_run(Some(10)).unwrap() {
        RunOutcome::Stopped(event) => {
            assert_eq!(event.hits.len(), 1);
            assert_eq!(event.hits[0].breakpoint_id, ids[0]);
        }
        other => panic!("expected stop, got {other:?}"),
    }
    // Both odd: both breakpoints of the group match and are reported
    // together in one stop, with the SSA-correct sum versions (0
    // before the first +=, 3 before the second).
    dbg.sim_mut()
        .poke("acc.data1", Bits::from_u64(7, 8))
        .unwrap();
    match dbg.continue_run(Some(10)).unwrap() {
        RunOutcome::Stopped(event) => {
            assert_eq!(event.hits.len(), 2, "both statements active");
            assert_eq!(event.hits[0].breakpoint_id, ids[0]);
            assert_eq!(event.hits[1].breakpoint_id, ids[1]);
            assert_eq!(event.hits[0].local("sum").unwrap().value().to_u64(), 0);
            assert_eq!(
                event.hits[1].local("sum").unwrap().value().to_u64(),
                3,
                "sum_1 before the second +="
            );
        }
        other => panic!("expected stop, got {other:?}"),
    }
}

#[test]
fn concurrent_instances_are_threads() {
    // Two instances of the same module: one breakpoint request yields
    // hits in both "threads" (Figure 4 B).
    let mut cb = CircuitBuilder::new();
    let (acc, bp_line) = acc_module(&mut cb, "acc");
    cb.module("top", |m| {
        let x = m.input("x", 8);
        let out = m.output("out", 8);
        let u0 = m.instance("u0", &acc);
        let u1 = m.instance("u1", &acc);
        m.assign(&u0.input("data0"), x.clone());
        m.assign(&u0.input("data1"), m.lit(2, 8));
        m.assign(&u1.input("data0"), x.clone());
        m.assign(&u1.input("data1"), m.lit(2, 8));
        m.assign(&out, u0.port("out") + u1.port("out"));
    });
    let circuit = cb.finish("top").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).unwrap();
    let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();

    let mut sim = Simulator::new(&state.circuit).unwrap();
    sim.poke("top.x", Bits::from_u64(5, 8)).unwrap();
    let mut dbg = Runtime::attach(sim, symbols).unwrap();
    let ids = dbg.insert_breakpoint(file!(), bp_line, None, None).unwrap();
    assert_eq!(ids.len(), 4, "2 unrolled statements x 2 instances");

    match dbg.continue_run(Some(10)).unwrap() {
        RunOutcome::Stopped(event) => {
            // Both instances hit the same source location in the same
            // evaluation group.
            assert_eq!(event.hits.len(), 2);
            let mut instances: Vec<&str> = event.hits.iter().map(|f| f.instance.as_str()).collect();
            instances.sort_unstable();
            assert_eq!(instances, vec!["top.u0", "top.u1"]);
        }
        other => panic!("expected stop, got {other:?}"),
    }
}

#[test]
fn optimized_build_drops_breakpoints_gracefully() {
    // In release mode the wire default (sum = 0) constant-folds away;
    // the conditional statements must still be debuggable.
    let mut cb = CircuitBuilder::new();
    let (_h, bp_line) = acc_module(&mut cb, "acc");
    let circuit = cb.finish("acc").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let release_table = hgf_ir::passes::compile(&mut state, false).unwrap();

    let mut cb2 = CircuitBuilder::new();
    let (_h2, _) = acc_module(&mut cb2, "acc");
    let circuit2 = cb2.finish("acc").unwrap();
    let mut state2 = hgf_ir::CircuitState::new(circuit2);
    let debug_table = hgf_ir::passes::compile(&mut state2, true).unwrap();

    assert!(release_table.breakpoints.len() <= debug_table.breakpoints.len());
    // The two conditional statements survive in both modes.
    let conditional = |t: &hgf_ir::passes::DebugTable| {
        t.breakpoints
            .iter()
            .filter(|b| b.loc.line == bp_line && b.enable.is_some())
            .count()
    };
    assert_eq!(conditional(&release_table), 2);
    assert_eq!(conditional(&debug_table), 2);
}

#[test]
fn verilog_emission_is_obfuscated_like_listing4() {
    let mut cb = CircuitBuilder::new();
    let (_h, _) = acc_module(&mut cb, "acc");
    let circuit = cb.finish("acc").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    hgf_ir::passes::compile(&mut state, false).unwrap();
    let verilog = hgf_ir::verilog::emit_circuit(&state.circuit);
    // The generated RTL hides the generator's intent: SSA temps show
    // up as _T_/_GEN_ and the when structure is gone.
    assert!(verilog.contains("module acc("));
    assert!(
        verilog.contains("_GEN_") || verilog.contains("_T_"),
        "{verilog}"
    );
    assert!(!verilog.contains("when"));
    assert!(verilog.contains("assign out = "));
}

#[test]
fn symbol_table_json_round_trips_through_runtime() {
    let mut cb = CircuitBuilder::new();
    let (_h, bp_line) = acc_module(&mut cb, "acc");
    let circuit = cb.finish("acc").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).unwrap();
    let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();

    // Serialize / reload (the on-disk + RPC interchange format).
    let json = symtab::to_json(&symbols).to_string();
    let reloaded = symtab::from_json(&json).unwrap();
    assert_eq!(reloaded.row_count(), symbols.row_count());

    // The reloaded table drives a debug session identically.
    let mut sim = Simulator::new(&state.circuit).unwrap();
    sim.poke("acc.data0", Bits::from_u64(1, 8)).unwrap();
    sim.poke("acc.data1", Bits::from_u64(1, 8)).unwrap();
    let mut dbg = Runtime::attach(sim, reloaded).unwrap();
    dbg.insert_breakpoint(file!(), bp_line, None, None).unwrap();
    assert!(matches!(
        dbg.continue_run(Some(10)).unwrap(),
        RunOutcome::Stopped(_)
    ));
}

#[test]
fn condition_resolves_a_cse_merged_generator_variable() {
    // Two structurally identical nodes: a release build's CSE merges
    // `b` into `a`, so the generator variable `b` maps to `top.a` and
    // `top.b` does not exist. A condition must resolve `b` the same
    // way `eval` does.
    let mut cb = CircuitBuilder::new();
    let bp_line = line!() + 6;
    cb.module("top", |m| {
        let out = m.output("out", 8);
        let count = m.reg("count", 8, Some(0));
        let a = m.node("a", count.sig() + m.lit(1, 8));
        let b = m.node("b", count.sig() + m.lit(1, 8));
        m.assign(&out, a ^ b.clone());
        m.assign(&count, b);
    });
    let circuit = cb.finish("top").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, false).unwrap();
    let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();
    let sim = Simulator::new(&state.circuit).unwrap();
    assert!(sim.signal_id("top.b").is_none(), "CSE removed top.b");
    let eval_b = |dbg: &Runtime<Simulator>| {
        dbg.eval(Some("top"), "b")
            .unwrap()
            .to_known()
            .unwrap()
            .to_u64()
    };

    // The cycle at which `eval b` first reads 5.
    let mut probe =
        Runtime::attach(Simulator::new(&state.circuit).unwrap(), symbols.clone()).unwrap();
    while eval_b(&probe) != 5 {
        assert!(probe.time() < 50, "b never reads 5");
        probe.step_cycle();
    }

    let mut dbg = Runtime::attach(sim, symbols).unwrap();
    dbg.insert_breakpoint(file!(), bp_line, None, Some("b == 5"))
        .unwrap();
    match dbg.continue_run(Some(50)).unwrap() {
        RunOutcome::Stopped(event) => {
            assert_eq!(event.hits.len(), 1);
            assert_eq!(event.time, probe.time());
        }
        other => panic!("condition never held: {other:?} {:?}", dbg.diagnostics()),
    }
    assert_eq!(eval_b(&dbg), 5);
    assert!(dbg.diagnostics().is_empty(), "{:?}", dbg.diagnostics());
}
