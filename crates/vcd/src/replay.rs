//! Trace-based replay implementing the unified simulator interface.
//!
//! This is the paper's "replay tool" (Figure 1): the same `SimControl`
//! seam the live simulator implements, backed by a captured trace.
//! Because [`ReplaySim::set_time`] works in *both* directions, the
//! debugger's scheduler can extend intra-cycle reverse debugging to
//! full reverse debugging — "go to previous clock cycle and start
//! breakpoint selection in reversed order again" (§3.2).

use bits::{Bits, Bits4};
use rtl_sim::{HierNode, SignalId, SimControl, SimError};

use crate::trace::Trace;

/// Replays a [`Trace`] through the unified simulator interface.
#[derive(Debug, Clone)]
pub struct ReplaySim {
    trace: Trace,
    /// Index into `trace.cycle_times()`; `usize::MAX` before start.
    cursor: usize,
}

impl ReplaySim {
    /// Wraps a trace for replay. The cursor starts before the first
    /// cycle; call `step_clock` to reach cycle 0.
    pub fn new(trace: Trace) -> ReplaySim {
        ReplaySim {
            trace,
            cursor: usize::MAX,
        }
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The current cycle index (0-based), if started.
    pub fn cycle(&self) -> Option<usize> {
        (self.cursor != usize::MAX).then_some(self.cursor)
    }

    /// Total cycles available.
    pub fn cycle_count(&self) -> usize {
        self.trace.cycle_count()
    }

    fn current_timestamp(&self) -> Option<u64> {
        self.trace.cycle_times().get(self.cursor).copied()
    }
}

impl SimControl for ReplaySim {
    fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.trace.signal_index(path).map(SignalId::from_index)
    }

    /// `None` before the first cycle and before the signal's first
    /// recorded change.
    fn get_value(&self, id: SignalId) -> Option<Bits4> {
        let t = self.current_timestamp()?;
        self.trace.value_at(id.index(), t).map(Bits4::known)
    }

    fn hierarchy(&self) -> HierNode {
        build_hierarchy(self.trace.signal_names())
    }

    fn clock_path(&self) -> String {
        self.trace
            .clock()
            .map(str::to_owned)
            .unwrap_or_else(|| "clock".to_owned())
    }

    fn step_clock(&mut self) -> bool {
        let next = if self.cursor == usize::MAX {
            0
        } else {
            self.cursor + 1
        };
        if next >= self.trace.cycle_count() {
            return false;
        }
        self.cursor = next;
        true
    }

    fn time(&self) -> u64 {
        self.current_timestamp().unwrap_or(0)
    }

    fn set_time(&mut self, time: u64) -> Result<(), SimError> {
        // Snap to the cycle whose timestamp is <= time (breakpoints
        // only exist at clock edges).
        let times = self.trace.cycle_times();
        if times.is_empty() {
            return Err(SimError::TimeTravel("trace has no cycles".into()));
        }
        let pos = times.partition_point(|&t| t <= time);
        if pos == 0 {
            self.cursor = 0;
        } else {
            self.cursor = pos - 1;
        }
        Ok(())
    }

    fn set_value(&mut self, id: SignalId, _value: Bits) -> Result<(), SimError> {
        // "not possible when interfacing with a trace file" (§3.3).
        Err(SimError::NotWritable(
            self.trace.signal_names()[id.index()].clone(),
        ))
    }

    fn supports_reverse(&self) -> bool {
        true
    }

    fn signal_paths(&self) -> Vec<String> {
        let mut names = self.trace.signal_names().to_vec();
        names.sort();
        names
    }
}

/// Rebuilds a hierarchy tree from dotted signal paths.
pub fn build_hierarchy(paths: &[String]) -> HierNode {
    // Root is the common first segment when unique, else a synthetic
    // root scope.
    let mut root_name = None;
    for p in paths {
        let first = p.split('.').next().unwrap_or(p);
        match &root_name {
            None => root_name = Some(first.to_owned()),
            Some(r) if r == first => {}
            Some(_) => {
                root_name = None;
                break;
            }
        }
    }
    let (root_name, strip_root) = match root_name {
        Some(name) => (name, true),
        None => ("trace".to_owned(), false),
    };
    let mut root = HierNode::new(root_name);
    for p in paths {
        let parts: Vec<&str> = p.split('.').collect();
        let rel: &[&str] = if strip_root { &parts[1..] } else { &parts };
        if rel.is_empty() {
            continue;
        }
        insert_path(&mut root, rel);
    }
    root
}

fn insert_path(node: &mut HierNode, rel: &[&str]) {
    if rel.len() == 1 {
        if !node.signals.iter().any(|s| s == rel[0]) {
            node.signals.push(rel[0].to_owned());
        }
        return;
    }
    // Heuristic: scopes are path segments with further children. A
    // dotted *bundle* leaf (io.out) also lands here, becoming an `io`
    // scope holding `out` — matching how VCD tools display it.
    let child_name = rel[0];
    if let Some(pos) = node.children.iter().position(|c| c.name == child_name) {
        insert_path(&mut node.children[pos], &rel[1..]);
    } else {
        let mut child = HierNode::new(child_name);
        insert_path(&mut child, &rel[1..]);
        node.children.push(child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let count = t.add_signal("top.count", 8);
        let sum = t.add_signal("top.u0.sum", 4);
        t.set_clock("top.clock");
        for cycle in 0..5u64 {
            let time = cycle * 10;
            t.record_cycle(time);
            t.record(count, time, Bits::from_u64(cycle, 8));
            if cycle % 2 == 0 {
                t.record(sum, time, Bits::from_u64(cycle / 2, 4));
            }
        }
        t
    }

    /// The known value of `path` at the replay's current time.
    fn value(r: &ReplaySim, path: &str) -> Option<u64> {
        let id = r.signal_id(path)?;
        Some(r.get_value(id)?.to_known()?.to_u64())
    }

    #[test]
    fn forward_stepping() {
        let mut r = ReplaySim::new(sample_trace());
        assert!(r.cycle().is_none());
        assert!(r.step_clock());
        assert_eq!(r.cycle(), Some(0));
        assert_eq!(value(&r, "top.count").unwrap(), 0);
        assert!(r.step_clock());
        assert_eq!(value(&r, "top.count").unwrap(), 1);
        // Held value from cycle 0.
        assert_eq!(value(&r, "top.u0.sum").unwrap(), 0);
        for _ in 0..3 {
            assert!(r.step_clock());
        }
        assert!(!r.step_clock(), "past end");
        assert_eq!(value(&r, "top.count").unwrap(), 4);
    }

    #[test]
    fn reverse_time_travel() {
        let mut r = ReplaySim::new(sample_trace());
        r.set_time(40).unwrap();
        assert_eq!(value(&r, "top.count").unwrap(), 4);
        r.set_time(10).unwrap();
        assert_eq!(value(&r, "top.count").unwrap(), 1);
        // Snaps down to the nearest edge.
        r.set_time(25).unwrap();
        assert_eq!(value(&r, "top.count").unwrap(), 2);
        // Before the first edge clamps to cycle 0.
        r.set_time(0).unwrap();
        assert_eq!(value(&r, "top.count").unwrap(), 0);
        assert!(r.supports_reverse());
    }

    #[test]
    fn id_based_lookup_matches_paths() {
        let mut r = ReplaySim::new(sample_trace());
        let count = r.signal_id("top.count").unwrap();
        assert!(r.signal_id("top.ghost").is_none());
        assert_eq!(r.get_value(count), None, "no value before the first cycle");
        r.set_time(30).unwrap();
        assert_eq!(
            r.get_value(count),
            r.trace().value_of("top.count", 30).map(Bits4::known),
            "id and path reads disagree"
        );
        assert_eq!(r.get_value(count), Some(Bits4::known(Bits::from_u64(3, 8))));
    }

    #[test]
    fn set_value_rejected() {
        let mut r = ReplaySim::new(sample_trace());
        r.step_clock();
        let count = r.signal_id("top.count").unwrap();
        assert_eq!(
            r.set_value(count, Bits::from_u64(9, 8)),
            Err(SimError::NotWritable("top.count".into()))
        );
    }

    #[test]
    fn hierarchy_reconstruction() {
        let r = ReplaySim::new(sample_trace());
        let h = r.hierarchy();
        assert_eq!(h.name, "top");
        assert!(h.signals.contains(&"count".to_owned()));
        let u0 = h.child("u0").unwrap();
        assert!(u0.signals.contains(&"sum".to_owned()));
    }

    #[test]
    fn hierarchy_without_common_root() {
        let paths = vec!["a.x".to_owned(), "b.y".to_owned()];
        let h = build_hierarchy(&paths);
        assert_eq!(h.name, "trace");
        assert!(h.child("a").is_some());
        assert!(h.child("b").is_some());
    }

    #[test]
    fn clock_path_reported() {
        let r = ReplaySim::new(sample_trace());
        assert_eq!(r.clock_path(), "top.clock");
    }
}
