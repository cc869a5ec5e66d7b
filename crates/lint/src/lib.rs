#![warn(missing_docs)]
//! Source-located static analysis over the hgdb reproduction's three
//! design representations: the High/Low-form IR ([`CircuitState`]),
//! the flattened combinational def graph ([`FlatNetlist`]), and the
//! collected debug symbols ([`DebugTable`]).
//!
//! The paper's premise is that generator-level debugging stands or
//! falls on the source↔RTL mapping — so defects in that mapping (and
//! in the design it describes) should surface *before* simulation,
//! with generator source locations, not as mid-run `SimError`s. Each
//! check implements [`Lint`] and is registered in a [`Registry`];
//! running the battery yields a [`Report`] of [`Diagnostic`]s that
//! renders for humans ([`std::fmt::Display`]) or machines
//! ([`Report::to_json`]).
//!
//! | Code | Check | Default |
//! |------|-------|---------|
//! | L001 | static width verification (whole circuit)        | deny |
//! | L002 | undriven wires / outputs / instance inputs       | deny |
//! | L003 | multiply-driven signals (same lexical scope)     | deny |
//! | L004 | dead logic (incl. logic debug mode keeps alive)  | warn |
//! | L005 | combinational loops, as an exact cycle path      | deny |
//! | L006 | registers with no reset value                    | warn |
//! | L007 | debug-symbol coverage (variables + breakpoints)  | warn |
//!
//! L004 and L007 are the two *mode-dependent* lints: L004 flags what
//! debug mode deliberately keeps (DontTouch-protected dead logic),
//! L007 flags what release mode deliberately loses (annotations whose
//! signals optimization removed). A driver linting a debug build
//! typically allows L004; one linting a release build allows L007.

mod checks;

pub use checks::{
    CombLoopCheck, DeadLogicCheck, MultiplyDrivenCheck, NoResetCheck, SymbolCoverageCheck,
    UndrivenCheck, WidthCheck,
};

use std::fmt;

use hgf_ir::passes::DebugTable;
use hgf_ir::{CircuitState, SourceLoc};
use microjson::Json;
use rtl_sim::{FlatNetlist, SimError};

/// How a fired lint is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed: the check does not run.
    Allow,
    /// Reported, but does not fail a deny gate.
    Warn,
    /// Reported and fails [`deny_gate`] / `compile_with_check`.
    Deny,
}

impl Severity {
    /// Lowercase name (`allow` / `warn` / `deny`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identifier of a lint check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Static width verification over every module expression.
    L001,
    /// Undriven wires, output ports, and instance inputs.
    L002,
    /// Multiply-driven signals within one lexical scope.
    L003,
    /// Dead logic: declared signals that reach no observable root.
    L004,
    /// Combinational loops, reported as one exact minimal cycle.
    L005,
    /// Registers with no reset (initial) value.
    L006,
    /// Debug-symbol coverage: stranded variables, dropped breakpoints.
    L007,
}

impl Code {
    /// Every code, in order.
    pub const ALL: [Code; 7] = [
        Code::L001,
        Code::L002,
        Code::L003,
        Code::L004,
        Code::L005,
        Code::L006,
        Code::L007,
    ];

    /// Stable string form (`"L001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::L001 => "L001",
            Code::L002 => "L002",
            Code::L003 => "L003",
            Code::L004 => "L004",
            Code::L005 => "L005",
            Code::L006 => "L006",
            Code::L007 => "L007",
        }
    }

    /// Parses a `"L00x"` string.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// The severity the code carries when the config does not override
    /// it (see the crate-level table).
    pub fn default_severity(self) -> Severity {
        match self {
            Code::L001 | Code::L002 | Code::L003 | Code::L005 => Severity::Deny,
            Code::L004 | Code::L006 | Code::L007 => Severity::Warn,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code, the effective severity, a message, an optional
/// generator source location, and free-form notes (secondary
/// locations, explanations).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: Code,
    /// Effective severity after configuration.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Generator source position, when one could be resolved.
    pub loc: Option<SourceLoc>,
    /// Secondary information (e.g. each hop of a cycle with its
    /// location, or the first driver of a doubly-driven signal).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic (severity is filled in by the registry).
    pub fn new(code: Code, message: impl Into<String>, loc: Option<SourceLoc>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            loc,
            notes: Vec::new(),
        }
    }

    /// Appends a note.
    pub fn note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Machine-readable form (the schema documented in `docs/LINT.md`).
    pub fn to_json(&self) -> Json {
        let loc = match &self.loc {
            Some(l) => Json::object([
                ("file", Json::from(l.file.as_ref())),
                ("line", Json::from(l.line)),
                ("col", Json::from(l.col)),
            ]),
            None => Json::Null,
        };
        Json::object([
            ("code", Json::from(self.code.as_str())),
            ("severity", Json::from(self.severity.as_str())),
            ("message", Json::from(self.message.as_str())),
            ("loc", loc),
            (
                "notes",
                Json::array(self.notes.iter().map(|n| Json::from(n.as_str()))),
            ),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(loc) = &self.loc {
            write!(f, "\n  --> {loc}")?;
        }
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// Per-code severity configuration. Codes not explicitly set use
/// [`Code::default_severity`]. `Allow` skips the check entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    overrides: Vec<(Code, Severity)>,
}

impl LintConfig {
    /// The default configuration (no overrides).
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Sets a code's severity, replacing any earlier override.
    pub fn set(mut self, code: Code, severity: Severity) -> LintConfig {
        self.overrides.retain(|(c, _)| *c != code);
        self.overrides.push((code, severity));
        self
    }

    /// Shorthand for [`LintConfig::set`] with [`Severity::Allow`].
    pub fn allow(self, code: Code) -> LintConfig {
        self.set(code, Severity::Allow)
    }

    /// Shorthand for [`LintConfig::set`] with [`Severity::Warn`].
    pub fn warn(self, code: Code) -> LintConfig {
        self.set(code, Severity::Warn)
    }

    /// Shorthand for [`LintConfig::set`] with [`Severity::Deny`].
    pub fn deny(self, code: Code) -> LintConfig {
        self.set(code, Severity::Deny)
    }

    /// The effective severity of a code.
    pub fn level(&self, code: Code) -> Severity {
        self.overrides
            .iter()
            .find(|(c, _)| *c == code)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| code.default_severity())
    }
}

/// The battery's output: every warn/deny diagnostic, in check order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All diagnostics (allow-level checks never contribute).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of deny-level diagnostics.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-level diagnostics.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Whether a given code fired at least once.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The distinct codes that fired, in order.
    pub fn codes(&self) -> Vec<Code> {
        let mut out: Vec<Code> = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }

    /// Machine-readable form (the schema documented in `docs/LINT.md`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("clean", Json::from(self.is_clean())),
            ("count", Json::from(self.diagnostics.len())),
            (
                "diagnostics",
                Json::array(self.diagnostics.iter().map(Diagnostic::to_json)),
            ),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "lint clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        write!(
            f,
            "\n{} diagnostic(s): {} deny, {} warn",
            self.diagnostics.len(),
            self.deny_count(),
            self.warn_count()
        )
    }
}

/// Everything a check may inspect. The netlist is present only when
/// the circuit flattens cleanly; a flattening failure is surfaced via
/// `netlist_err` (a combinational loop there is L005's input).
pub struct LintContext<'a> {
    /// The (possibly still High-form) circuit plus annotations.
    pub state: &'a CircuitState,
    /// Collected debug symbols ([`DebugTable::default`] when linting a
    /// circuit that has not been compiled).
    pub table: &'a DebugTable,
    /// The flattened def graph, when the circuit builds.
    pub netlist: Option<&'a FlatNetlist>,
    /// Why flattening failed, when it did.
    pub netlist_err: Option<&'a SimError>,
}

/// A single check: stateless, identified by its [`Code`], pushing
/// [`Diagnostic`]s into the shared output. The registry sets each
/// diagnostic's effective severity afterwards.
pub trait Lint {
    /// The code this check emits.
    fn code(&self) -> Code;
    /// One-line description (the `docs/LINT.md` table).
    fn summary(&self) -> &'static str;
    /// Runs the check.
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of checks.
#[derive(Default)]
pub struct Registry {
    lints: Vec<Box<dyn Lint>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The full built-in battery, L001 through L007.
    pub fn standard() -> Registry {
        let mut r = Registry::new();
        r.add(WidthCheck);
        r.add(UndrivenCheck);
        r.add(MultiplyDrivenCheck);
        r.add(DeadLogicCheck);
        r.add(CombLoopCheck);
        r.add(NoResetCheck);
        r.add(SymbolCoverageCheck);
        r
    }

    /// Appends a check.
    pub fn add(&mut self, lint: impl Lint + 'static) -> &mut Registry {
        self.lints.push(Box::new(lint));
        self
    }

    /// Runs every non-allowed check over the state and debug table,
    /// flattening the circuit once for the netlist-level checks.
    pub fn run(&self, state: &CircuitState, table: &DebugTable, config: &LintConfig) -> Report {
        let (netlist, netlist_err) = match FlatNetlist::build(&state.circuit) {
            Ok(n) => (Some(n), None),
            Err(e) => (None, Some(e)),
        };
        let cx = LintContext {
            state,
            table,
            netlist: netlist.as_ref(),
            netlist_err: netlist_err.as_ref(),
        };
        let mut report = Report::default();
        for lint in &self.lints {
            let level = config.level(lint.code());
            if level == Severity::Allow {
                continue;
            }
            let mut found = Vec::new();
            lint.run(&cx, &mut found);
            for mut d in found {
                d.severity = level;
                report.diagnostics.push(d);
            }
        }
        report
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let codes: Vec<&str> = self.lints.iter().map(|l| l.code().as_str()).collect();
        f.debug_struct("Registry").field("lints", &codes).finish()
    }
}

/// Runs the standard battery with the given configuration.
pub fn check(state: &CircuitState, table: &DebugTable, config: &LintConfig) -> Report {
    Registry::standard().run(state, table, config)
}

/// A post-compile hook for `hgf_ir::passes::compile_with_check`: runs
/// the standard battery and rejects the circuit when any deny-level
/// diagnostic fires (the rendered report is the error payload).
pub fn deny_gate(
    config: LintConfig,
) -> impl FnOnce(&CircuitState, &DebugTable) -> Result<(), String> {
    move |state, table| {
        let report = check(state, table, &config);
        if report.deny_count() > 0 {
            Err(report.to_string())
        } else {
            Ok(())
        }
    }
}

/// L007 against a *live* session: verifies every symbol-table variable
/// path resolves through `resolve` (typically a `SimControl` lookup
/// and read). Used by the debug service to answer `lint` requests
/// when no compile-time report was recorded.
pub fn symbol_coverage_live<'a>(
    paths: impl IntoIterator<Item = &'a str>,
    resolve: &dyn Fn(&str) -> bool,
) -> Report {
    let mut report = Report::default();
    for path in paths {
        if !resolve(path) {
            report.diagnostics.push(
                Diagnostic::new(
                    Code::L007,
                    format!("symbol-table variable `{path}` does not resolve to a live signal"),
                    None,
                )
                .note("the source↔RTL mapping is stale for this variable"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests;
