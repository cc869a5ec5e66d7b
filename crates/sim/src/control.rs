//! The unified simulator interface (§3.3 of the paper).
//!
//! hgdb defines "a minimum set of simulator interface primitives":
//! get signal value, get design hierarchy and clock information, place
//! callbacks on clock changes, get/set simulation time (optional), and
//! set signal value (optional). In the paper these are implemented over
//! VPI for commercial simulators and over trace files for replay; here
//! [`SimControl`] is that seam — the live [`crate::Simulator`] and the
//! `vcd` crate's replay engine both implement it, and the debugger
//! runtime is written against the trait alone.

use std::fmt;

use bits::{Bits, Bits4};

/// Errors surfaced through the simulator interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The signal path does not exist.
    UnknownSignal(String),
    /// The signal exists but cannot be written (combinational node, or
    /// the backend is a read-only trace).
    NotWritable(String),
    /// Time manipulation not supported in that direction.
    TimeTravel(String),
    /// A combinational cycle was detected at build time.
    CombinationalLoop(Vec<String>),
    /// The design failed to lower/flatten.
    Build(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownSignal(s) => write!(f, "unknown signal: {s}"),
            SimError::NotWritable(s) => write!(f, "signal not writable: {s}"),
            SimError::TimeTravel(msg) => write!(f, "time travel unsupported: {msg}"),
            SimError::CombinationalLoop(path) => {
                write!(f, "combinational loop through: {}", path.join(" -> "))
            }
            SimError::Build(msg) => write!(f, "failed to build simulation: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Interned handle for a signal path: a dense index into the
/// backend's flattened signal namespace.
///
/// Every value access goes through one: callers resolve each dotted
/// path **once** via [`SimControl::signal_id`] and thereafter read and
/// write by id, so per-cycle code (breakpoint enables, watchpoints,
/// trace capture) never hashes a string. Ids are only meaningful for
/// the backend that produced them (and identically-built backends of
/// the same design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(u32);

impl SignalId {
    /// Wraps a dense index (backend implementations only).
    #[inline]
    pub fn from_index(index: usize) -> SignalId {
        SignalId(index as u32)
    }

    /// The dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node in the design hierarchy (instances as scopes, signals as
/// leaves). hgdb uses this to locate generated IP inside a larger test
/// environment (§3, §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierNode {
    /// Scope name (instance name; the root is the top module).
    pub name: String,
    /// Child scopes.
    pub children: Vec<HierNode>,
    /// Leaf signal names local to this scope.
    pub signals: Vec<String>,
}

impl HierNode {
    /// Creates an empty scope.
    pub fn new(name: impl Into<String>) -> HierNode {
        HierNode {
            name: name.into(),
            children: Vec::new(),
            signals: Vec::new(),
        }
    }

    /// Depth-first full signal paths under this node.
    pub fn full_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_paths("", &mut out);
        out
    }

    fn collect_paths(&self, prefix: &str, out: &mut Vec<String>) {
        let scope = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}.{}", self.name)
        };
        for s in &self.signals {
            out.push(format!("{scope}.{s}"));
        }
        for c in &self.children {
            c.collect_paths(&scope, out);
        }
    }

    /// Finds a child scope by name.
    pub fn child(&self, name: &str) -> Option<&HierNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// The unified simulator interface: the five primitives of §3.3.
///
/// Implemented by the live simulator (`rtl-sim`) and the VCD replay
/// engine (`vcd` crate). The hgdb runtime is written solely against
/// this trait, which is what makes it simulator-agnostic.
///
/// Values go through one lookup, one read and one write: a path is
/// interned once with [`SimControl::signal_id`], and the handle is
/// then read with [`SimControl::get_value`] and written with
/// [`SimControl::set_value`]. A backend can only resolve a path it can
/// intern, so neither has a path-keyed form.
pub trait SimControl {
    /// Interns a full signal path, or `None` if the backend has no such
    /// signal.
    fn signal_id(&self, path: &str) -> Option<SignalId>;

    /// Primitive 1 — get signal value, four-state: two-state backends
    /// return every bit known. `None` when the signal has no value at
    /// the current time, which only a trace replay can report.
    fn get_value(&self, id: SignalId) -> Option<Bits4>;

    /// Primitive 2a — the design hierarchy.
    fn hierarchy(&self) -> HierNode;

    /// Primitive 2b — the clock signal's full path.
    fn clock_path(&self) -> String;

    /// Primitive 3 is callback registration, which in this
    /// reproduction lives on the concrete simulator (callbacks need the
    /// concrete type); the runtime instead *drives* the backend with
    /// this method: advance to the next rising clock edge with all
    /// signals stable (zero-delay convergence). Returns `false` when
    /// the backend cannot advance (end of trace).
    fn step_clock(&mut self) -> bool;

    /// Primitive 4a — current simulation time (cycle count for the
    /// live simulator, trace timestamps for replay).
    fn time(&self) -> u64;

    /// Primitive 4b (optional) — jump to a time. Replay backends can go
    /// both directions, enabling reverse debugging; live simulation is
    /// forward-only.
    ///
    /// # Errors
    ///
    /// [`SimError::TimeTravel`] when unsupported in that direction.
    fn set_time(&mut self, time: u64) -> Result<(), SimError>;

    /// Primitive 5 (optional) — force a signal value ("not possible
    /// when interfacing with a trace file").
    ///
    /// # Errors
    ///
    /// [`SimError::NotWritable`], naming the signal's path, when the
    /// backend cannot write this signal.
    fn set_value(&mut self, id: SignalId, value: Bits) -> Result<(), SimError>;

    /// Whether [`SimControl::set_time`] can move backwards.
    fn supports_reverse(&self) -> bool {
        false
    }

    /// Optional — captures a deterministic full-state snapshot for
    /// checkpointing. `None` when the backend has no snapshot support
    /// (a read-only trace, say, which can already rewind natively).
    /// Backends that return `Some` guarantee that
    /// [`SimControl::load_snapshot`] followed by replaying the same
    /// stimulus is bit-identical to the uninterrupted run.
    fn save_snapshot(&self) -> Option<crate::Snapshot> {
        None
    }

    /// Optional — captures a snapshot into an existing buffer, reusing
    /// its allocations, and returns whether the backend supports
    /// snapshots (mirroring [`SimControl::save_snapshot`]'s `None`).
    /// The default routes through `save_snapshot`; backends with a
    /// cheap in-place capture override it so callers that recycle
    /// snapshot buffers (the runtime's checkpoint ring) avoid
    /// reallocating per capture.
    fn save_snapshot_into(&self, out: &mut crate::Snapshot) -> bool {
        match self.save_snapshot() {
            Some(snap) => {
                *out = snap;
                true
            }
            None => false,
        }
    }

    /// Optional — restores a snapshot previously captured from this
    /// backend with [`SimControl::save_snapshot`], rewinding every
    /// piece of mutable simulation state to the captured instant.
    ///
    /// # Errors
    ///
    /// [`SimError::TimeTravel`] when the backend has no snapshot
    /// support; backend-specific errors for mismatched snapshots.
    fn load_snapshot(&mut self, _snap: &crate::Snapshot) -> Result<(), SimError> {
        Err(SimError::TimeTravel(
            "backend does not support snapshot restore".into(),
        ))
    }

    /// All known signal paths (hierarchy flattened), sorted.
    fn signal_paths(&self) -> Vec<String> {
        let mut paths = self.hierarchy().full_paths();
        paths.sort();
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_paths() {
        let mut root = HierNode::new("top");
        root.signals = vec!["clk".into(), "out".into()];
        let mut child = HierNode::new("u0");
        child.signals = vec!["sum".into()];
        root.children.push(child);
        let paths = root.full_paths();
        assert_eq!(paths, vec!["top.clk", "top.out", "top.u0.sum"]);
        assert!(root.child("u0").is_some());
        assert!(root.child("u1").is_none());
    }

    #[test]
    fn error_display() {
        let e = SimError::CombinationalLoop(vec!["a".into(), "b".into(), "a".into()]);
        assert_eq!(e.to_string(), "combinational loop through: a -> b -> a");
    }
}
