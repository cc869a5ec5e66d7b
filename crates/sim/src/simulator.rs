//! The live zero-delay cycle simulator.
//!
//! One [`Simulator::step_clock`] call advances to the next rising clock
//! edge: the previous cycle's register/memory updates are committed,
//! then the combinational sweep runs to the zero-delay fixpoint, then
//! clock-edge callbacks fire with every signal stable — the exact hook
//! point hgdb's breakpoint emulation relies on (§3, §3.1). The fixed,
//! small cost of an empty callback per cycle is what Figure 5 measures.
//!
//! # Evaluation engine
//!
//! Combinational logic runs as compiled bytecode (see
//! [`crate::compile`]) over a dense value array, driven by an
//! **incremental dirty set**: every state change (poke, register
//! commit, memory write) marks only the direct fan-out of the changed
//! slot, and the levelized sweep walks marked definitions in
//! topological order, propagating onward only when a definition's
//! output actually changed. A one-input poke on a large design
//! therefore costs O(changed cone), not O(design) — and a cycle where
//! nothing changes (a halted core) costs almost nothing.
//!
//! The mutable state lives in one `Core<V>`, generic over the value
//! domain (`Bits` for two-state, `Bits4` for four-state; see
//! `compile::Value`). Its sweep, latch and commit are written once;
//! the simulator holds either instance and dispatches once per call.
//!
//! Hot callers should resolve paths once via [`Simulator::signal_id`]
//! and use [`Simulator::peek_id`] / [`Simulator::poke_id`]; the
//! string-keyed entry points remain for interactive use.

use std::cell::{Cell, RefCell};

use bits::{Bits, Bits4};
use hgf_ir::Circuit;

use crate::compile::{exec, Value};
use crate::control::{HierNode, SignalId, SimControl, SimError};
use crate::netlist::{FlatNetlist, MemState};

/// Evaluation-engine configuration for [`Simulator`].
///
/// ```
/// use rtl_sim::SimConfig;
///
/// assert!(!SimConfig::default().four_state);
/// assert!(SimConfig::default().four_state().four_state);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimConfig {
    /// Four-state (X/Z) evaluation. When `false` (the default) the
    /// simulator runs the exact two-state engine — no unknown planes
    /// are allocated and the hot path is untouched. When `true`, every
    /// signal carries a value/unknown plane pair: registers power up
    /// all-X until reset resolves them, inputs read X until first
    /// poked, and undriven nets stay X forever.
    pub four_state: bool,
}

impl SimConfig {
    /// Returns [`SimConfig::default`]; the worker count is ignored.
    /// Kept for the benchmark in `hgbench/src/design.rs`, which builds
    /// its engines through this constructor.
    #[doc(hidden)]
    pub fn with_workers(_workers: usize) -> SimConfig {
        SimConfig::default()
    }

    /// Returns `self` with four-state (X/Z) evaluation enabled.
    pub fn four_state(mut self) -> SimConfig {
        self.four_state = true;
        self
    }
}

/// Identifier for a registered clock callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallbackId(usize);

/// Callback invoked at each rising clock edge with all signals stable.
pub type ClockCallback = Box<dyn FnMut(&ClockView<'_>) + Send>;

/// Read-only view of the simulator handed to clock callbacks.
///
/// Callbacks observe the stable pre-edge state; mutation during a
/// callback would violate the zero-delay stability contract.
pub struct ClockView<'a> {
    sim: &'a Simulator,
}

impl ClockView<'_> {
    /// The value of a signal by full path.
    pub fn get_value(&self, path: &str) -> Option<Bits> {
        self.sim.peek_path(path)
    }

    /// The value of a signal by interned id — the fast path for
    /// per-cycle instrumentation (resolve the id once outside the
    /// callback with [`Simulator::signal_id`]).
    pub fn get_value_id(&self, id: SignalId) -> Bits {
        self.sim.peek_id(id)
    }

    /// Resolves a path to an id (same interning as the simulator).
    pub fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.sim.signal_id(path)
    }

    /// Current simulation time (cycles).
    pub fn time(&self) -> u64 {
        self.sim.time()
    }
}

/// Which combinational definitions need re-evaluation, tracked per
/// def in topological order. `min` bounds the sweep's starting point;
/// `count` makes the all-clean check O(1).
#[derive(Debug, Clone)]
struct DirtySet {
    flags: Vec<bool>,
    count: usize,
    min: usize,
}

impl DirtySet {
    fn mark(&mut self, def: u32) {
        let di = def as usize;
        if !self.flags[di] {
            self.flags[di] = true;
            self.count += 1;
            if di < self.min {
                self.min = di;
            }
        }
    }

    fn mark_all(&mut self, defs: &[u32]) {
        for &di in defs {
            self.mark(di);
        }
    }

    /// Copies `src` into `self`, reusing the flag buffer.
    fn copy_from(&mut self, src: &DirtySet) {
        self.flags.clone_from(&src.flags);
        self.count = src.count;
        self.min = src.min;
    }
}

/// The mutable simulation state in one value domain: signal values,
/// memory contents, the register/memory updates latched at the last
/// edge, and the executor's scratch stack.
///
/// Latching (rather than recomputing at commit time) keeps the edge
/// deterministic even if the testbench pokes inputs while paused at the
/// edge. The pending buffers are reused across cycles.
#[derive(Debug, Clone)]
struct Core<V> {
    values: Vec<V>,
    mems: Vec<MemState<V>>,
    pending_regs: Vec<(usize, V)>,
    pending_mems: Vec<(usize, usize, V)>,
    /// Scratch operand stack for the bytecode executor, preallocated
    /// to the program's exact worst-case depth. Always empty between
    /// calls, so snapshots carry no stack contents.
    stack: Vec<V>,
}

impl<V: Value> Core<V> {
    /// Power-up state. Two-state registers start at their reset value
    /// when they have one. Four-state signals start all-x (registers
    /// resolve when reset is known true; inputs when first poked), and
    /// memories power up known-zero in both domains — a documented
    /// simplification matching SRAM-model convention.
    fn new(netlist: &FlatNetlist) -> Core<V> {
        let mut values: Vec<V> = netlist
            .widths
            .iter()
            .map(|&w| {
                if V::FOUR_STATE {
                    V::all_x(w)
                } else {
                    V::known(Bits::zero(w))
                }
            })
            .collect();
        if !V::FOUR_STATE {
            for reg in &netlist.regs {
                if let Some(init) = &reg.init {
                    values[reg.sig] = V::known(init.clone());
                }
            }
        }
        let mems = netlist
            .mems
            .iter()
            .map(|m| MemState {
                width: m.width,
                words: m.words.iter().cloned().map(V::known).collect(),
            })
            .collect();
        Core {
            values,
            mems,
            pending_regs: Vec::new(),
            pending_mems: Vec::new(),
            stack: Vec::with_capacity(netlist.program.max_stack),
        }
    }

    /// The incremental levelized sweep to the zero-delay fixpoint:
    /// marked definitions execute in topological order, and one whose
    /// output is unchanged does not wake its fan-out. Returns the
    /// number of definitions executed.
    fn sweep(&mut self, nl: &FlatNetlist, dirty: &mut DirtySet) -> u64 {
        let n = nl.defs.len();
        let mut evals = 0;
        let mut di = dirty.min;
        while di < n && dirty.count > 0 {
            if dirty.flags[di] {
                dirty.flags[di] = false;
                dirty.count -= 1;
                let def = &nl.defs[di];
                let new = exec(
                    &nl.program,
                    def.code,
                    &self.values,
                    &self.mems,
                    &mut self.stack,
                );
                evals += 1;
                if replace(&mut self.values[def.sig], new) {
                    // Fan-out defs are topologically later, so the
                    // forward sweep will reach them this pass.
                    dirty.mark_all(&nl.sig_fanout[def.sig]);
                }
            }
            di += 1;
        }
        dirty.min = n;
        debug_assert_eq!(dirty.count, 0, "sweep left dirty defs behind");
        dirty.count = 0;
        evals
    }

    /// Latches register updates and memory writes from the current
    /// stable values (non-blocking semantics); committed at the start
    /// of the next edge. Reset is three-valued:
    ///
    /// * known true — a register with an init loads it; one without
    ///   follows its next expression (the bug class lint L006 flags,
    ///   and exactly what an x sweep makes visible). Write ports are
    ///   disabled.
    /// * known false — next expressions and write ports run.
    /// * unknown — every register latches all-x and write ports are
    ///   skipped (memory holds), the conservative reading.
    ///
    /// A write port whose enable is unknown clobbers the addressed word
    /// with all-x (it *might* have written); an unknown address writes
    /// nothing — a documented simplification (a strict interpretation
    /// would x the entire memory). Two-state values are always known,
    /// so only the known arms survive in that instance.
    fn latch(&mut self, nl: &FlatNetlist) {
        let Core {
            values,
            mems,
            pending_regs,
            pending_mems,
            stack,
        } = self;
        let prog = &nl.program;
        let reset = values[nl.reset].truthiness();
        pending_regs.clear();
        pending_mems.clear();
        for reg in &nl.regs {
            let next = match (reset, &reg.init) {
                (None, _) => V::all_x(nl.widths[reg.sig]),
                (Some(true), Some(init)) => V::known(init.clone()),
                _ => match reg.next {
                    Some(code) => exec(prog, code, values, mems, stack),
                    None => values[reg.sig].clone(),
                },
            };
            pending_regs.push((reg.sig, next));
        }
        if reset != Some(false) {
            return;
        }
        for w in &nl.writes {
            let en = exec(prog, w.en, values, mems, stack).truthiness();
            if en == Some(false) {
                continue;
            }
            let Some(addr) = exec(prog, w.addr, values, mems, stack).known_index() else {
                continue;
            };
            let data = match en {
                Some(_) => exec(prog, w.data, values, mems, stack),
                None => V::all_x(nl.mems[w.mem].width),
            };
            pending_mems.push((w.mem, addr, data));
        }
    }

    /// Commits the updates latched at the previous edge, marking the
    /// fan-out of slots that actually changed.
    fn commit(&mut self, nl: &FlatNetlist, dirty: &mut DirtySet) {
        for (sig, v) in self.pending_regs.drain(..) {
            if replace(&mut self.values[sig], v) {
                dirty.mark_all(&nl.sig_fanout[sig]);
            }
        }
        for (mem, addr, data) in self.pending_mems.drain(..) {
            let width = self.mems[mem].width;
            if let Some(slot) = self.mems[mem].words.get_mut(addr) {
                if replace(slot, data.resize(width)) {
                    dirty.mark_all(&nl.mem_fanout[mem]);
                }
            }
        }
    }

    /// One rising edge: commit the previous edge's updates (except on
    /// the first edge), settle, then latch. Returns the definitions
    /// the sweep executed.
    fn edge(&mut self, nl: &FlatNetlist, dirty: &mut DirtySet, commit: bool) -> u64 {
        if commit {
            self.commit(nl, dirty);
        }
        let evals = self.sweep(nl, dirty);
        self.latch(nl);
        evals
    }

    /// Copies `src` into `self`, reusing buffers where shapes match.
    /// The scratch stack is not state and stays put.
    fn copy_from(&mut self, src: &Core<V>) {
        self.values.clone_from(&src.values);
        self.mems.truncate(src.mems.len());
        for (dst, s) in self.mems.iter_mut().zip(&src.mems) {
            dst.width = s.width;
            dst.words.clone_from(&s.words);
        }
        let common = self.mems.len();
        self.mems.extend_from_slice(&src.mems[common..]);
        self.pending_regs.clone_from(&src.pending_regs);
        self.pending_mems.clone_from(&src.pending_mems);
    }

    /// Approximate state footprint in bytes (the scratch stack, always
    /// empty between calls, is not counted).
    fn approx_bytes(&self) -> usize {
        const INDEX: usize = std::mem::size_of::<usize>();
        let values: usize = self.values.iter().map(V::approx_bytes).sum();
        let mems: usize = self
            .mems
            .iter()
            .flat_map(|m| &m.words)
            .map(V::approx_bytes)
            .sum();
        let regs: usize = self
            .pending_regs
            .iter()
            .map(|(_, v)| v.approx_bytes() + INDEX)
            .sum();
        let writes: usize = self
            .pending_mems
            .iter()
            .map(|(_, _, v)| v.approx_bytes() + 2 * INDEX)
            .sum();
        values + mems + regs + writes
    }
}

/// Stores `v` in `slot`; returns whether the value changed (in four-
/// state, an x bit resolving counts).
fn replace<V: PartialEq>(slot: &mut V, v: V) -> bool {
    if *slot == v {
        return false;
    }
    *slot = v;
    true
}

/// The simulation state in whichever value domain [`SimConfig`]
/// selected.
#[derive(Debug, Clone)]
enum Engine {
    Two(Core<Bits>),
    Four(Core<Bits4>),
}

/// Runs `$body` with `$core` bound to the engine's `Core`, in either
/// domain — the one place the two instances are dispatched.
macro_rules! with_core {
    ($engine:expr, $core:ident => $body:expr) => {
        match $engine {
            Engine::Two($core) => $body,
            Engine::Four($core) => $body,
        }
    };
}

impl Engine {
    /// Copies `src` into `self`, reusing buffers. Returns `false`, and
    /// leaves `self` untouched, when the value domains differ.
    fn copy_from(&mut self, src: &Engine) -> bool {
        match (self, src) {
            (Engine::Two(dst), Engine::Two(src)) => dst.copy_from(src),
            (Engine::Four(dst), Engine::Four(src)) => dst.copy_from(src),
            _ => return false,
        }
        true
    }
}

/// A compiled, runnable design.
pub struct Simulator {
    netlist: FlatNetlist,
    engine: RefCell<Engine>,
    dirty: RefCell<DirtySet>,
    /// Total combinational definitions executed (instrumentation; the
    /// incremental-evaluation regression tests assert on this).
    evals: Cell<u64>,
    time: u64,
    started: bool,
    callbacks: Vec<(CallbackId, ClockCallback)>,
    next_callback: usize,
    config: SimConfig,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.netlist.names.len())
            .field("regs", &self.netlist.regs.len())
            .field("mems", &self.netlist.mems.len())
            .field("time", &self.time)
            .finish()
    }
}

impl Simulator {
    /// Compiles a Low-form circuit into a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on validation failures or combinational
    /// loops.
    pub fn new(circuit: &Circuit) -> Result<Simulator, SimError> {
        Simulator::with_config(circuit, SimConfig::default())
    }

    /// Compiles a Low-form circuit with an explicit engine
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on validation failures or combinational
    /// loops.
    pub fn with_config(circuit: &Circuit, config: SimConfig) -> Result<Simulator, SimError> {
        let netlist = FlatNetlist::build(circuit)?;
        let engine = if config.four_state {
            Engine::Four(Core::new(&netlist))
        } else {
            Engine::Two(Core::new(&netlist))
        };
        let n_defs = netlist.defs.len();
        Ok(Simulator {
            netlist,
            engine: RefCell::new(engine),
            dirty: RefCell::new(DirtySet {
                // Everything is dirty before the first sweep.
                flags: vec![true; n_defs],
                count: n_defs,
                min: 0,
            }),
            evals: Cell::new(0),
            time: 0,
            started: false,
            callbacks: Vec::new(),
            next_callback: 0,
            config,
        })
    }

    /// Interns a full signal path, returning the dense id used by the
    /// `*_id` fast paths. Ids are stable for the simulator's lifetime
    /// (and across simulators built from the same circuit).
    pub fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.netlist
            .index
            .get(path)
            .map(|&i| SignalId::from_index(i))
    }

    /// Writes a pokeable slot: resize, change-detect, mark fan-out.
    /// Pokes always carry fully-known values; in four-state mode this
    /// is how an X input resolves.
    fn poke_sig(&mut self, sig: usize, value: Bits) {
        let value = value.resize(self.netlist.widths[sig]);
        if with_core!(self.engine.get_mut(), c => replace(&mut c.values[sig], Value::known(value)))
        {
            self.dirty.get_mut().mark_all(&self.netlist.sig_fanout[sig]);
        }
    }

    /// Sets a top-level input port by full path (e.g. `top.data0`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] / [`SimError::NotWritable`] if the
    /// path is not a top-level input.
    pub fn poke(&mut self, path: &str, value: Bits) -> Result<(), SimError> {
        let &sig = self
            .netlist
            .index
            .get(path)
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))?;
        if !self.netlist.is_input[sig] {
            return Err(SimError::NotWritable(path.to_owned()));
        }
        self.poke_sig(sig, value);
        Ok(())
    }

    /// Id-based [`Simulator::poke`] (no string lookup).
    ///
    /// # Errors
    ///
    /// [`SimError::NotWritable`] if the signal is not a top-level
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this design.
    pub fn poke_id(&mut self, id: SignalId, value: Bits) -> Result<(), SimError> {
        let sig = id.index();
        if !self.netlist.is_input[sig] {
            return Err(SimError::NotWritable(self.netlist.names[sig].clone()));
        }
        self.poke_sig(sig, value);
        Ok(())
    }

    /// Reads any signal by full path, evaluating combinational logic
    /// first if inputs changed.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown paths.
    pub fn peek(&self, path: &str) -> Result<Bits, SimError> {
        self.peek_path(path)
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))
    }

    /// Id-based [`Simulator::peek`] (no string lookup, no `Result`).
    /// On a four-state simulator this is the value plane (unknown bits
    /// read as 1); [`SimControl::get_value`] carries the unknown plane.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this design.
    pub fn peek_id(&self, id: SignalId) -> Bits {
        self.eval_if_dirty();
        with_core!(&*self.engine.borrow(), c => c.values[id.index()].plane().clone())
    }

    fn peek_path(&self, path: &str) -> Option<Bits> {
        let &sig = self.netlist.index.get(path)?;
        Some(self.peek_id(SignalId::from_index(sig)))
    }

    /// Four-state [`Simulator::peek`]: the value with its unknown
    /// plane. On a two-state simulator every bit reads as known.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown paths.
    pub fn peek4(&self, path: &str) -> Result<Bits4, SimError> {
        self.signal_id(path)
            .and_then(|id| self.get_value(id))
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))
    }

    /// Reads a memory word (debug/testbench convenience; memories are
    /// not part of the signal namespace).
    pub fn peek_mem(&self, mem_path: &str, addr: usize) -> Option<Bits> {
        let &idx = self.netlist.mem_index.get(mem_path)?;
        with_core!(&*self.engine.borrow(), c => Some(c.mems[idx].words.get(addr)?.plane().clone()))
    }

    /// Four-state [`Simulator::peek_mem`]: the word with its unknown
    /// plane.
    pub fn peek_mem4(&self, mem_path: &str, addr: usize) -> Option<Bits4> {
        let &idx = self.netlist.mem_index.get(mem_path)?;
        with_core!(&*self.engine.borrow(), c => Some(c.mems[idx].words.get(addr)?.to4()))
    }

    /// Writes a memory word directly (program loading in testbenches).
    /// The word becomes fully known.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for bad memory paths or addresses.
    pub fn poke_mem(&mut self, mem_path: &str, addr: usize, value: Bits) -> Result<(), SimError> {
        let &idx = self
            .netlist
            .mem_index
            .get(mem_path)
            .ok_or_else(|| SimError::UnknownSignal(mem_path.to_owned()))?;
        let changed = with_core!(self.engine.get_mut(), c => {
            let width = c.mems[idx].width;
            let slot = c.mems[idx].words.get_mut(addr);
            slot.map(|slot| replace(slot, Value::known(value.resize(width))))
        })
        .ok_or_else(|| SimError::UnknownSignal(format!("{mem_path}[{addr}]")))?;
        if changed {
            self.dirty.get_mut().mark_all(&self.netlist.mem_fanout[idx]);
        }
        Ok(())
    }

    /// Registers a rising-clock-edge callback; fires with all signals
    /// stable (the hgdb hook of §3.3, "place callbacks on clock
    /// changes").
    pub fn add_clock_callback(&mut self, callback: ClockCallback) -> CallbackId {
        let id = CallbackId(self.next_callback);
        self.next_callback += 1;
        self.callbacks.push((id, callback));
        id
    }

    /// Removes a callback; returns whether it existed.
    pub fn remove_clock_callback(&mut self, id: CallbackId) -> bool {
        let before = self.callbacks.len();
        self.callbacks.retain(|(cid, _)| *cid != id);
        self.callbacks.len() != before
    }

    /// Runs `cycles` clock cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step_clock();
        }
    }

    /// Asserts reset for `cycles` cycles, then deasserts it. Pokes the
    /// reset slot by index — no path lookup.
    pub fn reset(&mut self, cycles: u64) {
        let reset = self.netlist.reset;
        self.poke_sig(reset, Bits::from_bool(true));
        self.run(cycles);
        self.poke_sig(reset, Bits::from_bool(false));
    }

    /// Total combinational definitions executed so far
    /// (instrumentation: the incremental-evaluation tests and
    /// benchmark harnesses read this to verify poke cost is
    /// O(fan-out cone), not O(design)).
    pub fn defs_evaluated(&self) -> u64 {
        self.evals.get()
    }

    /// Runs the incremental levelized sweep to the zero-delay fixpoint.
    fn eval_if_dirty(&self) {
        let mut dirty = self.dirty.borrow_mut();
        if dirty.count == 0 {
            return;
        }
        let nl = &self.netlist;
        let evals = with_core!(&mut *self.engine.borrow_mut(), c => c.sweep(nl, &mut dirty));
        self.evals.set(self.evals.get() + evals);
    }

    /// Internal names accessor for trace writers.
    pub fn signal_names(&self) -> &[String] {
        &self.netlist.names
    }

    /// Width of a signal by full path.
    pub fn signal_width(&self, path: &str) -> Option<u32> {
        self.netlist
            .index
            .get(path)
            .map(|&i| self.netlist.widths[i])
    }

    /// Width of a signal by id.
    pub fn signal_width_id(&self, id: SignalId) -> u32 {
        self.netlist.widths[id.index()]
    }

    /// The engine configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Captures a deterministic full-state [`Snapshot`].
    ///
    /// Every bit of mutable simulation state is copied: signal values,
    /// memory contents, the pending register/memory latch buffers
    /// (non-blocking updates latched at the last edge but not yet
    /// committed), the incremental dirty set, and the time / eval
    /// counters. Clock callbacks are *not* captured — they are runtime
    /// hooks, not simulation state.
    ///
    /// [`Simulator::restore`] of this snapshot followed by replaying
    /// the same stimulus is bit-identical to an uninterrupted run —
    /// including the [`Simulator::defs_evaluated`] counter — because
    /// the sweep is deterministic and the snapshot preserves the exact
    /// dirty frontier.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            engine: self.engine.borrow().clone(),
            dirty: self.dirty.borrow().clone(),
            evals: self.evals.get(),
            time: self.time,
            started: self.started,
        }
    }

    /// Captures a snapshot into `out`, reusing its buffers.
    ///
    /// Equivalent to `*out = self.snapshot()` but without reallocating
    /// when shapes match: a checkpoint ring that recycles evicted
    /// snapshots as capture buffers keeps steady-state auto-
    /// checkpointing allocation-free, so the per-capture cost is a
    /// flat copy instead of an allocator round-trip (large snapshot
    /// buffers otherwise go through mmap/munmap and re-fault their
    /// pages on every capture).
    pub fn snapshot_into(&self, out: &mut Snapshot) {
        let engine = self.engine.borrow();
        if !out.engine.copy_from(&engine) {
            out.engine = engine.clone();
        }
        out.dirty.copy_from(&self.dirty.borrow());
        out.evals = self.evals.get();
        out.time = self.time;
        out.started = self.started;
    }

    /// Restores a [`Snapshot`] previously captured from a simulator
    /// built from the same circuit, rewinding (or fast-forwarding)
    /// every piece of mutable state to the captured instant.
    ///
    /// # Errors
    ///
    /// [`SimError::Build`] when the snapshot's shape does not match
    /// this design (it was captured from a different circuit), or when
    /// it comes from the other value domain: two-state and four-state
    /// simulators cannot exchange state.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        let nl = &self.netlist;
        let same_shape = with_core!(&snap.engine, c => {
            c.values.len() == nl.names.len() && c.mems.len() == nl.mems.len()
        });
        if !same_shape || snap.dirty.flags.len() != nl.defs.len() {
            return Err(SimError::Build(
                "snapshot does not match this design".into(),
            ));
        }
        if !self.engine.get_mut().copy_from(&snap.engine) {
            return Err(SimError::Build(
                "snapshot four-state mode does not match this simulator".into(),
            ));
        }
        self.dirty.get_mut().copy_from(&snap.dirty);
        self.evals.set(snap.evals);
        self.time = snap.time;
        self.started = snap.started;
        Ok(())
    }
}

/// A deterministic full-state snapshot of a [`Simulator`].
///
/// Opaque: captured with [`Simulator::snapshot`], reapplied with
/// [`Simulator::restore`], and only valid for simulators built from
/// the same circuit. The debugger's checkpoint ring stores these and
/// budgets them by [`Snapshot::approx_bytes`].
#[derive(Clone)]
pub struct Snapshot {
    engine: Engine,
    dirty: DirtySet,
    evals: u64,
    time: u64,
    started: bool,
}

impl Snapshot {
    /// Simulation time (cycle count) at which the snapshot was taken.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Approximate heap footprint in bytes — the sizing input for a
    /// bounded checkpoint ring. Wide (> 64-bit) values add their word
    /// storage on top of the inline representation, and four-state
    /// values count both planes.
    pub fn approx_bytes(&self) -> usize {
        with_core!(&self.engine, c => c.approx_bytes())
            + self.dirty.flags.len()
            + std::mem::size_of::<Snapshot>()
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (signals, mems) = with_core!(&self.engine, c => (c.values.len(), c.mems.len()));
        f.debug_struct("Snapshot")
            .field("time", &self.time)
            .field("signals", &signals)
            .field("mems", &mems)
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

impl SimControl for Simulator {
    fn signal_id(&self, path: &str) -> Option<SignalId> {
        Simulator::signal_id(self, path)
    }

    /// Always `Some`: a live simulator has a value for every signal.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this design.
    fn get_value(&self, id: SignalId) -> Option<Bits4> {
        self.eval_if_dirty();
        Some(with_core!(&*self.engine.borrow(), c => c.values[id.index()].to4()))
    }

    fn hierarchy(&self) -> HierNode {
        self.netlist.hierarchy.clone()
    }

    fn clock_path(&self) -> String {
        format!("{}.clock", self.netlist.hierarchy.name)
    }

    fn step_clock(&mut self) -> bool {
        let Simulator {
            netlist,
            engine,
            dirty,
            started,
            ..
        } = self;
        let evals = with_core!(engine.get_mut(), c => c.edge(netlist, dirty.get_mut(), *started));
        self.evals.set(self.evals.get() + evals);
        self.started = true;
        self.time += 1;
        // Fire callbacks with stable signals (rising edge).
        if !self.callbacks.is_empty() {
            let mut callbacks = std::mem::take(&mut self.callbacks);
            for (_, cb) in &mut callbacks {
                cb(&ClockView { sim: self });
            }
            // Callbacks registered during iteration (rare) are appended.
            callbacks.append(&mut self.callbacks);
            self.callbacks = callbacks;
        }
        true
    }

    fn time(&self) -> u64 {
        self.time
    }

    fn set_time(&mut self, time: u64) -> Result<(), SimError> {
        use std::cmp::Ordering;
        match time.cmp(&self.time) {
            Ordering::Equal => Ok(()),
            Ordering::Greater => {
                while self.time < time {
                    self.step_clock();
                }
                Ok(())
            }
            Ordering::Less => Err(SimError::TimeTravel(
                "live simulation cannot rewind; use the replay backend".into(),
            )),
        }
    }

    /// Writes an input or a register. A register force survives the
    /// edge already latched at the current stop point.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this design.
    fn set_value(&mut self, id: SignalId, value: Bits) -> Result<(), SimError> {
        let sig = id.index();
        let is_input = self.netlist.is_input[sig];
        let is_reg = self.netlist.is_reg[sig];
        if !is_input && !is_reg {
            return Err(SimError::NotWritable(self.netlist.names[sig].clone()));
        }
        let value = value.resize(self.netlist.widths[sig]);
        self.poke_sig(sig, value.clone());
        if is_reg {
            // Make the force survive the edge already latched at the
            // current stop point.
            with_core!(self.engine.get_mut(), c => {
                for (psig, pv) in &mut c.pending_regs {
                    if *psig == sig {
                        *pv = Value::known(value.clone());
                    }
                }
            });
        }
        Ok(())
    }

    fn supports_reverse(&self) -> bool {
        false
    }

    fn save_snapshot(&self) -> Option<Snapshot> {
        Some(self.snapshot())
    }

    fn save_snapshot_into(&self, out: &mut Snapshot) -> bool {
        self.snapshot_into(out);
        true
    }

    fn load_snapshot(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        self.restore(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgf::CircuitBuilder;
    use hgf_ir::passes;

    /// Elaborate + lower a generator to a simulator.
    fn build(f: impl FnOnce(&mut CircuitBuilder), top: &str) -> Simulator {
        build_with(f, top, SimConfig::default())
    }

    /// Elaborate + lower with an explicit engine config.
    fn build_with(f: impl FnOnce(&mut CircuitBuilder), top: &str, config: SimConfig) -> Simulator {
        let mut cb = CircuitBuilder::new();
        f(&mut cb);
        let circuit = cb.finish(top).unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        passes::compile(&mut state, false).unwrap();
        Simulator::with_config(&state.circuit, config).unwrap()
    }

    fn counter_design(cb: &mut CircuitBuilder) {
        cb.module("counter", |m| {
            let en = m.input("en", 1);
            let out = m.output("out", 8);
            let count = m.reg("count", 8, Some(0));
            m.when(en, |m| {
                m.assign(&count, count.sig() + m.lit(1, 8));
            });
            m.assign(&out, count.sig());
        });
    }

    fn counter_sim() -> Simulator {
        build(counter_design, "counter")
    }

    #[test]
    fn counter_counts_when_enabled() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.step_clock();
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 0);
        sim.step_clock();
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 1);
        sim.run(10);
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 11);
        // Disable: holds.
        sim.poke("counter.en", Bits::from_bool(false)).unwrap();
        sim.run(5);
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 12);
    }

    #[test]
    fn reset_reloads_init() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.run(5);
        assert!(sim.peek("counter.out").unwrap().to_u64() > 0);
        sim.reset(2);
        sim.step_clock();
        // After reset deasserts, counting restarts from 0.
        let v = sim.peek("counter.out").unwrap().to_u64();
        assert!(v <= 1, "count was {v}");
    }

    #[test]
    fn combinational_peek_after_poke() {
        let mut sim = build(
            |cb| {
                cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let out = m.output("out", 8);
                    m.assign(&out, a + b);
                });
            },
            "adder",
        );
        sim.poke("adder.a", Bits::from_u64(3, 8)).unwrap();
        sim.poke("adder.b", Bits::from_u64(4, 8)).unwrap();
        // No clock needed for pure comb.
        assert_eq!(sim.peek("adder.out").unwrap().to_u64(), 7);
    }

    #[test]
    fn id_based_poke_peek() {
        let mut sim = build(
            |cb| {
                cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let out = m.output("out", 8);
                    m.assign(&out, a + b);
                });
            },
            "adder",
        );
        let a = sim.signal_id("adder.a").unwrap();
        let b = sim.signal_id("adder.b").unwrap();
        let out = sim.signal_id("adder.out").unwrap();
        assert!(sim.signal_id("adder.ghost").is_none());
        sim.poke_id(a, Bits::from_u64(20, 8)).unwrap();
        sim.poke_id(b, Bits::from_u64(22, 8)).unwrap();
        assert_eq!(sim.peek_id(out).to_u64(), 42);
        assert_eq!(sim.signal_width_id(out), 8);
        // Ids are not writable when the slot is not an input.
        assert!(matches!(
            sim.poke_id(out, Bits::from_u64(1, 8)),
            Err(SimError::NotWritable(_))
        ));
        // Trait surface agrees.
        assert_eq!(
            SimControl::get_value(&sim, out).unwrap(),
            Bits4::known(Bits::from_u64(42, 8))
        );
        assert_eq!(SimControl::signal_id(&sim, "adder.out"), Some(out));
    }

    #[test]
    fn poke_only_evaluates_fanout_cone() {
        // Two independent cones: poking one input must not re-execute
        // the other cone's definitions.
        let mut sim = build(
            |cb| {
                cb.module("split", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let x = m.output("x", 8);
                    let y = m.output("y", 8);
                    // Cone A: a few chained defs off `a`.
                    let a1 = m.node("a1", a.clone() + m.lit(1, 8));
                    let a2 = m.node("a2", a1 ^ m.lit(0x5A, 8));
                    m.assign(&x, a2);
                    // Cone B: chained defs off `b`.
                    let b1 = m.node("b1", b.clone() + m.lit(2, 8));
                    let b2 = m.node("b2", b1 & m.lit(0x0F, 8));
                    m.assign(&y, b2);
                });
            },
            "split",
        );
        // Settle the initial full sweep.
        let _ = sim.peek("split.x").unwrap();
        let baseline = sim.defs_evaluated();

        // Poke cone A's input: only cone A defs (a1, a2, x — three
        // defs) may run; cone B (b1, b2, y) must stay untouched.
        sim.poke("split.a", Bits::from_u64(7, 8)).unwrap();
        assert_eq!(sim.peek("split.x").unwrap().to_u64(), (7u64 + 1) ^ 0x5A);
        let after_a = sim.defs_evaluated();
        assert!(
            after_a - baseline <= 3,
            "poke of one input executed {} defs (cone is 3)",
            after_a - baseline
        );

        // Poking the same value again is change-pruned: zero evals.
        sim.poke("split.a", Bits::from_u64(7, 8)).unwrap();
        let _ = sim.peek("split.x").unwrap();
        assert_eq!(sim.defs_evaluated(), after_a, "unchanged poke re-evaluated");

        // Cone B still correct (and now costs only its own cone).
        sim.poke("split.b", Bits::from_u64(3, 8)).unwrap();
        assert_eq!(sim.peek("split.y").unwrap().to_u64(), (3 + 2) & 0x0F);
        assert!(sim.defs_evaluated() - after_a <= 3);
    }

    #[test]
    fn change_pruning_stops_propagation() {
        // reduce_or(a) is 1 for most values of a; changing a from one
        // nonzero value to another must not re-execute the defs
        // downstream of the reduction.
        let mut sim = build(
            |cb| {
                cb.module("prune", |m| {
                    let a = m.input("a", 8);
                    let out = m.output("out", 4);
                    let nz = m.node("nz", a.reduce_or());
                    let wide = m.node("wide", nz.zext(4));
                    m.assign(&out, wide);
                });
            },
            "prune",
        );
        sim.poke("prune.a", Bits::from_u64(1, 8)).unwrap();
        assert_eq!(sim.peek("prune.out").unwrap().to_u64(), 1);
        let settled = sim.defs_evaluated();
        sim.poke("prune.a", Bits::from_u64(2, 8)).unwrap();
        assert_eq!(sim.peek("prune.out").unwrap().to_u64(), 1);
        // Only `nz` re-executed; its output was unchanged, so `wide`
        // and `out` stayed quiet.
        assert_eq!(sim.defs_evaluated() - settled, 1);
    }

    #[test]
    fn halted_design_cycles_are_quiet() {
        // Once a counter is disabled, its register stops changing and
        // step_clock stops re-evaluating combinational defs.
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(false)).unwrap();
        sim.run(2); // settle
        let settled = sim.defs_evaluated();
        sim.run(10);
        assert_eq!(
            sim.defs_evaluated(),
            settled,
            "quiescent design still evaluating defs"
        );
    }

    #[test]
    fn hierarchy_and_instance_values() {
        let mut sim = build(
            |cb| {
                let child = cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let sum = m.output("sum", 8);
                    m.assign(&sum, a + b);
                });
                cb.module("top", |m| {
                    let x = m.input("x", 8);
                    let out = m.output("out", 8);
                    let u0 = m.instance("u0", &child);
                    m.assign(&u0.input("a"), x.clone());
                    m.assign(&u0.input("b"), x);
                    m.assign(&out, u0.port("sum"));
                });
            },
            "top",
        );
        sim.poke("top.x", Bits::from_u64(21, 8)).unwrap();
        assert_eq!(sim.peek("top.out").unwrap().to_u64(), 42);
        assert_eq!(sim.peek("top.u0.sum").unwrap().to_u64(), 42);
        let hier = sim.hierarchy();
        assert_eq!(hier.name, "top");
        assert!(hier.child("u0").is_some());
        assert!(hier.child("u0").unwrap().signals.contains(&"sum".into()));
    }

    #[test]
    fn memory_write_then_read() {
        let mut sim = build(
            |cb| {
                cb.module("ram", |m| {
                    let waddr = m.input("waddr", 4);
                    let wdata = m.input("wdata", 8);
                    let wen = m.input("wen", 1);
                    let raddr = m.input("raddr", 4);
                    let rdata = m.output("rdata", 8);
                    let mem = m.mem("mem", 8, 16);
                    let data = m.mem_read(&mem, "mem_out", raddr);
                    m.mem_write(&mem, waddr, wdata, wen);
                    m.assign(&rdata, data);
                });
            },
            "ram",
        );
        sim.poke("ram.waddr", Bits::from_u64(5, 4)).unwrap();
        sim.poke("ram.wdata", Bits::from_u64(0xAB, 8)).unwrap();
        sim.poke("ram.wen", Bits::from_bool(true)).unwrap();
        sim.step_clock(); // at edge 1: write scheduled
        sim.poke("ram.wen", Bits::from_bool(false)).unwrap();
        sim.step_clock(); // write committed
        sim.poke("ram.raddr", Bits::from_u64(5, 4)).unwrap();
        assert_eq!(sim.peek("ram.rdata").unwrap().to_u64(), 0xAB);
        assert_eq!(sim.peek_mem("ram.mem", 5).unwrap().to_u64(), 0xAB);
    }

    #[test]
    fn poke_mem_loads_programs() {
        let mut sim = build(
            |cb| {
                cb.module("rom", |m| {
                    let addr = m.input("addr", 4);
                    let data = m.output("data", 8);
                    let mem = m.mem("mem", 8, 16);
                    let out = m.mem_read(&mem, "mem_out", addr);
                    // A write port so DCE keeps nothing extra; tie off.
                    m.mem_write(&mem, m.lit(0, 4), m.lit(0, 8), m.lit(0, 1));
                    m.assign(&data, out);
                });
            },
            "rom",
        );
        sim.poke_mem("rom.mem", 3, Bits::from_u64(0x5A, 8)).unwrap();
        sim.poke("rom.addr", Bits::from_u64(3, 4)).unwrap();
        assert_eq!(sim.peek("rom.data").unwrap().to_u64(), 0x5A);
        // Unknown memory path errors.
        assert!(matches!(
            sim.poke_mem("rom.ghost", 0, Bits::from_u64(0, 8)),
            Err(SimError::UnknownSignal(_))
        ));
        assert!(sim.peek_mem("rom.ghost", 0).is_none());
    }

    #[test]
    fn callbacks_fire_with_stable_values() {
        use std::sync::{Arc, Mutex};
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let out_id = sim.signal_id("counter.out").unwrap();
        let id = sim.add_clock_callback(Box::new(move |view| {
            seen2
                .lock()
                .unwrap()
                .push(view.get_value_id(out_id).to_u64());
        }));
        sim.run(3);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2]);
        assert!(sim.remove_clock_callback(id));
        assert!(!sim.remove_clock_callback(id));
        sim.run(1);
        assert_eq!(seen.lock().unwrap().len(), 3);
    }

    #[test]
    fn set_time_forward_only() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.set_time(5).unwrap();
        assert_eq!(sim.time(), 5);
        assert!(matches!(sim.set_time(2), Err(SimError::TimeTravel(_))));
        assert!(!sim.supports_reverse());
    }

    #[test]
    fn poke_rejects_non_inputs() {
        let mut sim = counter_sim();
        assert!(matches!(
            sim.poke("counter.out", Bits::from_u64(1, 8)),
            Err(SimError::NotWritable(_))
        ));
        assert!(matches!(
            sim.poke("counter.ghost", Bits::from_u64(1, 8)),
            Err(SimError::UnknownSignal(_))
        ));
    }

    #[test]
    fn set_value_can_force_registers() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(false)).unwrap();
        let count = sim.signal_id("counter.count").unwrap();
        sim.set_value(count, Bits::from_u64(99, 8)).unwrap();
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 99);
        // Comb nodes are not writable, and the error names the path.
        let out = sim.signal_id("counter.out").unwrap();
        let comb_err = sim.set_value(out, Bits::from_u64(1, 8));
        assert_eq!(comb_err, Err(SimError::NotWritable("counter.out".into())));
    }

    #[test]
    fn combinational_loop_rejected() {
        // Loop through an instance boundary: child passes input to
        // output; parent feeds the output back into the input. Each
        // module validates locally, but flattening exposes the cycle.
        let mut cb = CircuitBuilder::new();
        let child = cb.module("pass", |m| {
            let i = m.input("i", 1);
            let o = m.output("o", 1);
            m.assign(&o, i);
        });
        cb.module("top", |m| {
            let out = m.output("out", 1);
            let u = m.instance("u", &child);
            m.assign(&u.input("i"), u.port("o"));
            m.assign(&out, u.port("o"));
        });
        let circuit = cb.finish("top").unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        passes::compile(&mut state, false).unwrap();
        assert!(matches!(
            Simulator::new(&state.circuit),
            Err(SimError::CombinationalLoop(_))
        ));
    }

    /// Circuit with several independent cones, a diamond, registers,
    /// and a memory.
    fn mixed_design(cb: &mut CircuitBuilder) {
        cb.module("mixed", |m| {
            let a = m.input("a", 16);
            let b = m.input("b", 16);
            let c = m.input("c", 16);
            let x = m.output("x", 16);
            let y = m.output("y", 16);
            let z = m.output("z", 16);
            let w = m.output("w", 16);
            // Cone A: a diamond.
            let a1 = m.node("a1", a.clone() + m.lit(1, 16));
            let a2 = m.node("a2", a ^ m.lit(0x5A5A, 16));
            let a3 = m.node("a3", a1 & a2);
            m.assign(&x, a3.clone());
            // Cone B: independent chain.
            let b1 = m.node("b1", b.clone() + b);
            let b2 = m.node("b2", b1 ^ m.lit(0x00FF, 16));
            m.assign(&y, b2.clone());
            // Registers fed by both cones.
            let r1 = m.reg("r1", 16, Some(0));
            let r2 = m.reg("r2", 16, Some(7));
            m.assign(&r1, a3 + r1.sig());
            m.assign(&r2, b2 ^ r2.sig());
            m.assign(&z, r1.sig() + r2.sig());
            // Memory written from cone C, read back combinationally.
            let mem = m.mem("scratch", 16, 16);
            let rd = m.mem_read(&mem, "scratch_out", c.slice(3, 0));
            m.mem_write(&mem, c.slice(3, 0), c.clone(), c.slice(15, 15));
            let c1 = m.node("c1", rd + m.lit(3, 16));
            m.assign(&w, c1);
        });
    }

    #[test]
    fn latch_respects_reset_semantics() {
        let mut sim = build(mixed_design, "mixed");
        sim.poke("mixed.a", Bits::from_u64(5, 16)).unwrap();
        sim.run(3);
        sim.reset(2);
        sim.step_clock();
        // r2's init is 7; the edge after reset deasserts shows it.
        assert_eq!(
            sim.peek("mixed.r2").unwrap().to_u64(),
            7,
            "r2 must restart from init after reset"
        );
        let b2 = sim.peek("mixed.b2").unwrap().to_u64();
        sim.step_clock();
        // One cycle later the normal next-value function runs again.
        assert_eq!(sim.peek("mixed.r2").unwrap().to_u64(), 7 ^ b2);
    }

    #[test]
    fn signal_paths_sorted() {
        let sim = counter_sim();
        let paths = sim.signal_paths();
        assert!(paths.windows(2).all(|w| w[0] <= w[1]));
        assert!(paths.iter().any(|p| p == "counter.count"));
        assert!(paths.iter().any(|p| p == "counter.reset"));
    }

    /// The fixed stimulus `trace` uses, for one cycle.
    fn mixed_stimulus(sim: &mut Simulator, t: u64) {
        let stim = t.wrapping_mul(0x9E37_79B9).wrapping_add(t << 3);
        sim.poke("mixed.a", Bits::from_u64(stim & 0xFFFF, 16))
            .unwrap();
        sim.poke("mixed.b", Bits::from_u64((stim >> 8) & 0xFFFF, 16))
            .unwrap();
        sim.poke("mixed.c", Bits::from_u64((stim >> 4) & 0xFFFF, 16))
            .unwrap();
    }

    #[test]
    fn snapshot_restore_replay_is_bit_identical() {
        let mut sim = build(mixed_design, "mixed");
        let paths = sim.signal_paths();
        sim.reset(2);
        for t in 0..7u64 {
            mixed_stimulus(&mut sim, t);
            sim.step_clock();
        }
        let snap = sim.snapshot();
        assert_eq!(snap.time(), sim.time());
        assert!(snap.approx_bytes() > 0);
        // Finish the clean (uninterrupted) run, recording every frame.
        let run_tail = |sim: &mut Simulator| {
            let mut frames = Vec::new();
            for t in 7..20u64 {
                mixed_stimulus(sim, t);
                sim.step_clock();
                frames.push(
                    paths
                        .iter()
                        .map(|p| sim.peek(p).unwrap())
                        .collect::<Vec<_>>(),
                );
            }
            let mems: Vec<_> = (0..16)
                .map(|a| sim.peek_mem("mixed.scratch", a).unwrap())
                .collect();
            (frames, mems, sim.defs_evaluated())
        };
        let clean = run_tail(&mut sim);
        // Rewind to the snapshot and replay the identical stimulus.
        sim.restore(&snap).unwrap();
        assert_eq!(sim.time(), snap.time());
        let replay = run_tail(&mut sim);
        assert_eq!(clean.0, replay.0, "signal divergence after restore");
        assert_eq!(clean.1, replay.1, "memory divergence after restore");
        assert_eq!(clean.2, replay.2, "eval-count divergence after restore");
    }

    #[test]
    fn snapshot_into_reuses_buffer_and_matches_fresh_capture() {
        let mut sim = build(mixed_design, "mixed");
        sim.reset(2);
        // Stale buffer captured early, then overwritten in place later:
        // restoring it must behave exactly like a fresh snapshot.
        mixed_stimulus(&mut sim, 0);
        sim.step_clock();
        let mut reused = sim.snapshot();
        for t in 1..9u64 {
            mixed_stimulus(&mut sim, t);
            sim.step_clock();
        }
        sim.snapshot_into(&mut reused);
        assert_eq!(reused.time(), sim.time());
        let fresh = sim.snapshot();
        assert_eq!(reused.approx_bytes(), fresh.approx_bytes());
        let paths = sim.signal_paths();
        let run_tail = |sim: &mut Simulator| {
            let mut frames = Vec::new();
            for t in 9..16u64 {
                mixed_stimulus(sim, t);
                sim.step_clock();
                frames.push(
                    paths
                        .iter()
                        .map(|p| sim.peek(p).unwrap())
                        .collect::<Vec<_>>(),
                );
            }
            (frames, sim.defs_evaluated())
        };
        sim.restore(&fresh).unwrap();
        let from_fresh = run_tail(&mut sim);
        sim.restore(&reused).unwrap();
        assert_eq!(sim.time(), fresh.time());
        let from_reused = run_tail(&mut sim);
        assert_eq!(from_fresh, from_reused, "in-place capture diverged");
        // Trait surface: in-place capture reports support.
        assert!(SimControl::save_snapshot_into(&sim, &mut reused));
    }

    #[test]
    fn signal_numbering_is_stable_across_builds() {
        // Two independent builds of the same design must intern every
        // signal at the same dense index — `SignalId` documents
        // cross-build stability, and snapshot portability between
        // identically-built simulators depends on it. (Regression: the
        // netlist builder used to declare signals in HashMap iteration
        // order, so two builds could permute the numbering.)
        let a = build(mixed_design, "mixed");
        let b = build(mixed_design, "mixed");
        for p in a.signal_paths() {
            assert_eq!(a.signal_id(&p), b.signal_id(&p), "{p} renumbered");
        }
    }

    fn four_state() -> SimConfig {
        SimConfig::default().four_state()
    }

    #[test]
    fn four_state_registers_power_up_x_and_resolve_on_reset() {
        let mut sim = build_with(counter_design, "counter", four_state());
        assert!(sim.config().four_state);
        // Power-up: the register (and everything fed by it) is all-X,
        // even though it has an init value — init loads under reset.
        assert_eq!(sim.peek4("counter.count").unwrap(), Bits4::all_x(8));
        assert!(!sim.peek4("counter.out").unwrap().is_fully_known());
        // Clocking without reset keeps it X: the reset input itself is
        // still X, so the register's next state cannot be known.
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.step_clock();
        assert!(!sim.peek4("counter.count").unwrap().is_fully_known());
        // Reset resolves X to the init value; counting proceeds known.
        sim.reset(2);
        assert_eq!(
            sim.peek4("counter.count").unwrap(),
            Bits4::known(Bits::from_u64(0, 8))
        );
        sim.step_clock();
        sim.step_clock();
        assert_eq!(
            sim.peek4("counter.out")
                .unwrap()
                .to_known()
                .unwrap()
                .to_u64(),
            1
        );
    }

    #[test]
    fn four_state_inputs_read_x_until_poked() {
        let mut sim = build_with(
            |cb| {
                cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let out = m.output("out", 8);
                    m.assign(&out, a + b);
                });
            },
            "adder",
            four_state(),
        );
        assert_eq!(sim.peek4("adder.a").unwrap(), Bits4::all_x(8));
        assert_eq!(sim.peek4("adder.out").unwrap(), Bits4::all_x(8));
        // One known operand is not enough for an arithmetic op.
        sim.poke("adder.a", Bits::from_u64(3, 8)).unwrap();
        assert!(!sim.peek4("adder.out").unwrap().is_fully_known());
        sim.poke("adder.b", Bits::from_u64(4, 8)).unwrap();
        assert_eq!(
            sim.peek4("adder.out").unwrap(),
            Bits4::known(Bits::from_u64(7, 8))
        );
        // The two-state peek view of a known four-state value agrees.
        assert_eq!(sim.peek("adder.out").unwrap().to_u64(), 7);
    }

    #[test]
    fn four_state_unreset_register_stays_x_until_forced() {
        // The reset-bug demo at simulator level: a register missing
        // from the reset tree (init None) never resolves on its own.
        let mut sim = build_with(
            |cb| {
                cb.module("buggy", |m| {
                    let out = m.output("out", 8);
                    let r = m.reg("r", 8, None);
                    m.assign(&r, r.sig() + m.lit(1, 8));
                    m.assign(&out, r.sig());
                });
            },
            "buggy",
            four_state(),
        );
        sim.reset(2);
        sim.run(3);
        assert_eq!(
            sim.peek4("buggy.r").unwrap(),
            Bits4::all_x(8),
            "X must survive reset when the register has no init"
        );
        // A debugger force resolves it; from there on it stays known.
        let r = sim.signal_id("buggy.r").unwrap();
        sim.set_value(r, Bits::from_u64(10, 8)).unwrap();
        sim.step_clock();
        assert_eq!(
            sim.peek4("buggy.r").unwrap().to_known().unwrap().to_u64(),
            10,
            "the force survives the already-latched edge"
        );
        sim.step_clock();
        assert_eq!(
            sim.peek4("buggy.r").unwrap().to_known().unwrap().to_u64(),
            11
        );
    }

    #[test]
    fn four_state_memory_write_semantics() {
        let ram = |cb: &mut CircuitBuilder| {
            cb.module("ram", |m| {
                let waddr = m.input("waddr", 4);
                let wdata = m.input("wdata", 8);
                let wen = m.input("wen", 1);
                let raddr = m.input("raddr", 4);
                let rdata = m.output("rdata", 8);
                let mem = m.mem("mem", 8, 16);
                let data = m.mem_read(&mem, "mem_out", raddr);
                m.mem_write(&mem, waddr, wdata, wen);
                m.assign(&rdata, data);
            });
        };
        let mut sim = build_with(ram, "ram", four_state());
        // Memories power up known-zero (documented simplification).
        assert_eq!(
            sim.peek_mem4("ram.mem", 5).unwrap(),
            Bits4::known(Bits::zero(8))
        );
        sim.reset(1);
        // Unknown enable + unknown address: no write at all.
        sim.run(2);
        for addr in 0..16 {
            assert!(sim.peek_mem4("ram.mem", addr).unwrap().is_fully_known());
        }
        // Unknown enable + known address: the word *might* have been
        // written, so it goes all-X.
        sim.poke("ram.waddr", Bits::from_u64(5, 4)).unwrap();
        sim.run(2);
        assert_eq!(sim.peek_mem4("ram.mem", 5).unwrap(), Bits4::all_x(8));
        sim.poke("ram.raddr", Bits::from_u64(5, 4)).unwrap();
        assert_eq!(sim.peek4("ram.rdata").unwrap(), Bits4::all_x(8));
        // Known enable and data: the write resolves the word again.
        sim.poke("ram.wen", Bits::from_bool(true)).unwrap();
        sim.poke("ram.wdata", Bits::from_u64(0xAB, 8)).unwrap();
        sim.run(2);
        assert_eq!(
            sim.peek_mem4("ram.mem", 5).unwrap(),
            Bits4::known(Bits::from_u64(0xAB, 8))
        );
        assert_eq!(
            sim.peek4("ram.rdata").unwrap().to_known().unwrap().to_u64(),
            0xAB
        );
    }

    #[test]
    fn four_state_undriven_input_cone_stays_x() {
        // Drive a and b, leave c all-X: the X cone (memory write port,
        // w output) must stay visible through every sweep.
        let mut sim = build_with(mixed_design, "mixed", four_state());
        sim.reset(2);
        for t in 0..12u64 {
            let stim = t.wrapping_mul(0x9E37_79B9).wrapping_add(t << 3);
            sim.poke("mixed.a", Bits::from_u64(stim & 0xFFFF, 16))
                .unwrap();
            sim.poke("mixed.b", Bits::from_u64((stim >> 8) & 0xFFFF, 16))
                .unwrap();
            sim.step_clock();
        }
        assert!(!sim.peek4("mixed.w").unwrap().is_fully_known());
    }

    #[test]
    fn four_state_snapshot_roundtrip_and_mode_mismatch() {
        let mut sim = build_with(mixed_design, "mixed", four_state());
        sim.reset(2);
        sim.poke("mixed.a", Bits::from_u64(11, 16)).unwrap();
        sim.step_clock();
        let snap = sim.snapshot();
        let paths = sim.signal_paths();
        let tail = |sim: &mut Simulator| {
            let mut frames = Vec::new();
            for t in 0..6u64 {
                sim.poke("mixed.b", Bits::from_u64(t * 3 + 1, 16)).unwrap();
                sim.step_clock();
                frames.push(
                    paths
                        .iter()
                        .map(|p| sim.peek4(p).unwrap())
                        .collect::<Vec<_>>(),
                );
            }
            frames
        };
        let clean = tail(&mut sim);
        sim.restore(&snap).unwrap();
        let replay = tail(&mut sim);
        assert_eq!(clean, replay, "four-state replay diverged");
        // A two-state simulator refuses a four-state snapshot (and
        // vice versa): the unknown planes have nowhere to go.
        let mut two = build(mixed_design, "mixed");
        assert!(matches!(two.restore(&snap), Err(SimError::Build(_))));
        assert!(matches!(
            sim.restore(&two.snapshot()),
            Err(SimError::Build(_))
        ));
    }

    #[test]
    fn four_state_snapshot_budgets_pending_latches() {
        // The counter has no memory, so after one edge the only
        // differences between the two snapshots are the unknown planes
        // and the four-state pending register buffer, which is at least
        // as large as its two-state twin.
        let mut two = build(counter_design, "counter");
        let mut four = build_with(counter_design, "counter", four_state());
        two.step_clock();
        four.step_clock();
        let two = two.snapshot();
        let four = four.snapshot();
        let Engine::Four(core) = &four.engine else {
            panic!("four-state simulator captured a two-state engine");
        };
        assert!(!core.pending_regs.is_empty());
        assert!(core.values.iter().all(|v| v.width() <= 64));
        let unk_plane = core.values.len() * std::mem::size_of::<Bits>();
        assert!(
            four.approx_bytes() >= two.approx_bytes() + unk_plane,
            "four-state {} < two-state {} + unknown plane {}",
            four.approx_bytes(),
            two.approx_bytes(),
            unk_plane
        );
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let counter = counter_sim();
        let snap = counter.snapshot();
        let mut mixed = build(mixed_design, "mixed");
        assert!(matches!(mixed.restore(&snap), Err(SimError::Build(_))));
        // Trait surface: the live simulator supports snapshots.
        assert!(SimControl::save_snapshot(&counter).is_some());
    }
}
