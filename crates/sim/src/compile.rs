//! Bytecode compilation and evaluation of combinational expressions.
//!
//! At `Simulator::new` time every [`CExpr`](crate::netlist::CExpr) tree
//! is lowered into flat postorder bytecode: a shared `Vec<Op>` over
//! dense slot indices plus a deduplicated literal pool. Evaluation is a
//! tight program-counter loop over a preallocated scratch stack — no
//! per-node boxing and (with the inline `Bits` representation) zero
//! heap allocation for signals ≤ 64 bits wide. Mux keeps the
//! tree-walker's lazy semantics through explicit branch instructions,
//! so only the selected arm is evaluated.
//!
//! There is one executor, [`exec`], generic over the [`Value`] domain:
//! two-state [`Bits`] or four-state [`Bits4`]. Only an unknown mux
//! select (four-state) evaluates both arms, recursing into them.

use bits::{Bits, Bits4};
use hgf_ir::expr::{apply_binary, apply_binary4, apply_unary4, BinaryOp, UnaryOp};

use crate::netlist::{CExpr, MemState};

/// Half-open `[start, end)` range of instructions in the shared
/// program; one compiled expression.
pub(crate) type CodeRange = (u32, u32);

/// One stack-machine instruction.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Push literal pool entry.
    Lit(u32),
    /// Push the current value of a signal slot.
    Sig(u32),
    /// Replace the top of stack with the unary result.
    Unary(UnaryOp),
    /// Pop rhs, combine into the new top of stack.
    Binary(BinaryOp),
    /// Replace the top of stack with its `[lo, hi]` bit range.
    Slice(u32, u32),
    /// Pop the low part, concatenate under the new top (high part).
    Cat,
    /// Replace the top of stack (address) with the memory word.
    MemRead(u32),
    /// Pop the condition; jump to the absolute target when it is zero
    /// (the mux else-arm entry).
    BranchIfZero(u32),
    /// Unconditional jump (skips the mux else-arm).
    Jump(u32),
}

/// The compiled program shared by every expression in a netlist.
#[derive(Debug, Clone, Default)]
pub(crate) struct Program {
    pub(crate) ops: Vec<Op>,
    pub(crate) lits: Vec<Bits>,
    /// Exact worst-case operand stack depth over all compiled ranges.
    pub(crate) max_stack: usize,
}

impl Program {
    /// Compiles one expression, returning its instruction range.
    pub(crate) fn compile(&mut self, expr: &CExpr) -> CodeRange {
        let start = self.ops.len() as u32;
        self.emit(expr);
        self.max_stack = self.max_stack.max(stack_depth(expr));
        (start, self.ops.len() as u32)
    }

    fn lit(&mut self, b: &Bits) -> u32 {
        // The pool is small (per-design constants); linear dedup keeps
        // `Bits` out of a hash map here without measurable build cost.
        if let Some(i) = self.lits.iter().position(|l| l == b) {
            return i as u32;
        }
        self.lits.push(b.clone());
        (self.lits.len() - 1) as u32
    }

    fn emit(&mut self, e: &CExpr) {
        match e {
            CExpr::Lit(b) => {
                let i = self.lit(b);
                self.ops.push(Op::Lit(i));
            }
            CExpr::Sig(i) => self.ops.push(Op::Sig(*i as u32)),
            CExpr::Unary(op, e) => {
                self.emit(e);
                self.ops.push(Op::Unary(*op));
            }
            CExpr::Binary(op, l, r) => {
                self.emit(l);
                self.emit(r);
                self.ops.push(Op::Binary(*op));
            }
            CExpr::Mux(s, t, e) => {
                self.emit(s);
                let br = self.ops.len();
                self.ops.push(Op::BranchIfZero(0));
                self.emit(t);
                let jmp = self.ops.len();
                self.ops.push(Op::Jump(0));
                let else_start = self.ops.len() as u32;
                self.ops[br] = Op::BranchIfZero(else_start);
                self.emit(e);
                let end = self.ops.len() as u32;
                self.ops[jmp] = Op::Jump(end);
            }
            CExpr::Slice(e, hi, lo) => {
                self.emit(e);
                self.ops.push(Op::Slice(*hi, *lo));
            }
            CExpr::Cat(h, l) => {
                self.emit(h);
                self.emit(l);
                self.ops.push(Op::Cat);
            }
            CExpr::MemRead(m, addr) => {
                self.emit(addr);
                self.ops.push(Op::MemRead(*m as u32));
            }
        }
    }
}

/// Exact operand-stack requirement of an expression (branches are
/// alternatives, not cumulative).
fn stack_depth(e: &CExpr) -> usize {
    match e {
        CExpr::Lit(_) | CExpr::Sig(_) => 1,
        CExpr::Unary(_, e) | CExpr::Slice(e, _, _) | CExpr::MemRead(_, e) => stack_depth(e),
        CExpr::Binary(_, l, r) | CExpr::Cat(l, r) => stack_depth(l).max(1 + stack_depth(r)),
        CExpr::Mux(s, t, e) => stack_depth(s).max(stack_depth(t)).max(stack_depth(e)),
    }
}

/// A simulator value domain: two-state [`Bits`] or four-state
/// [`Bits4`].
///
/// The sweep, latch, commit and bytecode executor are written once
/// against this trait and monomorphized per domain. The two-state impl
/// answers every three-valued question with `Some(..)`, so after
/// inlining the unknown-only arms (x mux select, x address, x reset)
/// compile away and the two-state instance never touches an unknown
/// plane.
pub(crate) trait Value: Clone + PartialEq {
    /// Whether values carry an unknown plane; decides power-up (four-
    /// state registers and inputs start all-x).
    const FOUR_STATE: bool;
    /// A fully-known value.
    fn known(b: Bits) -> Self;
    /// All bits unknown; four-state only.
    fn all_x(width: u32) -> Self;
    /// Three-valued truthiness: `None` when unknown bits decide it.
    fn truthiness(&self) -> Option<bool>;
    /// The value as a memory index, when fully known.
    fn known_index(&self) -> Option<usize>;
    /// The two-state value plane (unknown bits read as 1).
    fn plane(&self) -> &Bits;
    /// The value with its unknown plane.
    fn to4(&self) -> Bits4;
    /// Approximate footprint in bytes, for snapshot budgeting.
    fn approx_bytes(&self) -> usize;
    fn unary(&self, op: UnaryOp) -> Self;
    fn binary(&self, op: BinaryOp, rhs: &Self) -> Self;
    fn slice(&self, hi: u32, lo: u32) -> Self;
    fn concat(&self, low: &Self) -> Self;
    fn resize(&self, width: u32) -> Self;
    /// The x-select mux merge of two arms; four-state only.
    fn merge(a: &Self, b: &Self) -> Self;
}

/// Bytes a `Bits` occupies: the inline representation plus the word
/// storage of wide (> 64-bit) values.
fn bits_bytes(b: &Bits) -> usize {
    let heap = if b.width() > 64 {
        (b.width() as usize).div_ceil(8)
    } else {
        0
    };
    std::mem::size_of::<Bits>() + heap
}

impl Value for Bits {
    const FOUR_STATE: bool = false;

    fn known(b: Bits) -> Self {
        b
    }

    fn all_x(_width: u32) -> Self {
        unreachable!("two-state values have no unknown bits")
    }

    fn truthiness(&self) -> Option<bool> {
        Some(self.is_truthy())
    }

    fn known_index(&self) -> Option<usize> {
        Some(self.to_u64() as usize)
    }

    fn plane(&self) -> &Bits {
        self
    }

    fn to4(&self) -> Bits4 {
        Bits4::known(self.clone())
    }

    fn approx_bytes(&self) -> usize {
        bits_bytes(self)
    }

    fn unary(&self, op: UnaryOp) -> Self {
        match op {
            UnaryOp::Not => self.not(),
            UnaryOp::Neg => self.neg(),
            UnaryOp::ReduceAnd => self.reduce_and(),
            UnaryOp::ReduceOr => self.reduce_or(),
            UnaryOp::ReduceXor => self.reduce_xor(),
        }
    }

    fn binary(&self, op: BinaryOp, rhs: &Self) -> Self {
        apply_binary(op, self, rhs)
    }

    fn slice(&self, hi: u32, lo: u32) -> Self {
        Bits::slice(self, hi, lo)
    }

    fn concat(&self, low: &Self) -> Self {
        Bits::concat(self, low)
    }

    fn resize(&self, width: u32) -> Self {
        Bits::resize(self, width)
    }

    fn merge(_a: &Self, _b: &Self) -> Self {
        unreachable!("two-state mux selects are always known")
    }
}

impl Value for Bits4 {
    const FOUR_STATE: bool = true;

    fn known(b: Bits) -> Self {
        Bits4::known(b)
    }

    fn all_x(width: u32) -> Self {
        Bits4::all_x(width)
    }

    fn truthiness(&self) -> Option<bool> {
        Bits4::truthiness(self)
    }

    fn known_index(&self) -> Option<usize> {
        self.to_known().map(|a| a.to_u64() as usize)
    }

    fn plane(&self) -> &Bits {
        self.value()
    }

    fn to4(&self) -> Bits4 {
        self.clone()
    }

    fn approx_bytes(&self) -> usize {
        bits_bytes(self.value()) + bits_bytes(self.unknown())
    }

    fn unary(&self, op: UnaryOp) -> Self {
        apply_unary4(op, self)
    }

    fn binary(&self, op: BinaryOp, rhs: &Self) -> Self {
        apply_binary4(op, self, rhs)
    }

    fn slice(&self, hi: u32, lo: u32) -> Self {
        Bits4::slice(self, hi, lo)
    }

    fn concat(&self, low: &Self) -> Self {
        Bits4::concat(self, low)
    }

    fn resize(&self, width: u32) -> Self {
        Bits4::resize(self, width)
    }

    fn merge(a: &Self, b: &Self) -> Self {
        Bits4::merge(a, b)
    }
}

/// Executes one compiled range against the current signal values and
/// memory contents, using (and leaving empty) the scratch stack.
///
/// A memory read at an unknown address is all-x (it could alias any
/// word); one out of range reads zero. A mux whose select is unknown
/// cannot pick an arm, so both arm ranges are evaluated (recursively —
/// arms can nest) and merged with [`Value::merge`], per IEEE-1800
/// §11.4.11. Known selects keep the lazy single-arm evaluation.
pub(crate) fn exec<V: Value>(
    prog: &Program,
    range: CodeRange,
    values: &[V],
    mems: &[MemState<V>],
    stack: &mut Vec<V>,
) -> V {
    debug_assert!(stack.is_empty());
    exec_range(
        prog,
        range.0 as usize,
        range.1 as usize,
        values,
        mems,
        stack,
    );
    let result = stack.pop().expect("result");
    debug_assert!(stack.is_empty());
    result
}

/// Runs ops in `[start, end)`, leaving the range's one result value on
/// the stack.
fn exec_range<V: Value>(
    prog: &Program,
    start: usize,
    end: usize,
    values: &[V],
    mems: &[MemState<V>],
    stack: &mut Vec<V>,
) {
    let ops = &prog.ops;
    let mut pc = start;
    while pc < end {
        match &ops[pc] {
            Op::Lit(i) => stack.push(V::known(prog.lits[*i as usize].clone())),
            Op::Sig(i) => stack.push(values[*i as usize].clone()),
            Op::Unary(op) => {
                let v = stack.last_mut().expect("operand");
                *v = v.unary(*op);
            }
            Op::Binary(op) => {
                let r = stack.pop().expect("rhs");
                let l = stack.last_mut().expect("lhs");
                *l = l.binary(*op, &r);
            }
            Op::Slice(hi, lo) => {
                let v = stack.last_mut().expect("operand");
                *v = v.slice(*hi, *lo);
            }
            Op::Cat => {
                let low = stack.pop().expect("low");
                let high = stack.last_mut().expect("high");
                *high = high.concat(&low);
            }
            Op::MemRead(m) => {
                let a = stack.last_mut().expect("address");
                let mem = &mems[*m as usize];
                *a = match a.known_index() {
                    Some(addr) if addr < mem.words.len() => mem.words[addr].clone(),
                    Some(_) => V::known(Bits::zero(mem.width)),
                    None => V::all_x(mem.width),
                };
            }
            Op::BranchIfZero(target) => {
                let c = stack.pop().expect("condition");
                match c.truthiness() {
                    Some(true) => {} // fall through into the then-arm
                    Some(false) => {
                        pc = *target as usize;
                        continue;
                    }
                    None => {
                        // The compiler always emits `Jump(arm_end)`
                        // immediately before the else-arm entry; it
                        // bounds both arm ranges.
                        let else_start = *target as usize;
                        let arm_end = match &ops[else_start - 1] {
                            Op::Jump(e) => *e as usize,
                            other => unreachable!("mux shape: expected Jump, got {other:?}"),
                        };
                        exec_range(prog, pc + 1, else_start - 1, values, mems, stack);
                        let t = stack.pop().expect("then arm");
                        exec_range(prog, else_start, arm_end, values, mems, stack);
                        let e = stack.pop().expect("else arm");
                        stack.push(V::merge(&t, &e));
                        pc = arm_end;
                        continue;
                    }
                }
            }
            Op::Jump(target) => {
                pc = *target as usize;
                continue;
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic SplitMix64 for random expression generation.
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

        fn bits(&mut self, width: u32) -> Bits {
            let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| self.next()).collect();
            Bits::from_words(&words, width)
        }
    }

    /// Random expression of the given result width over `nsigs`
    /// signals and `nmems` memories; depth-bounded.
    fn arb_expr(rng: &mut Rng, widths: &[u32], mems: &[MemState], width: u32, depth: u32) -> CExpr {
        use BinaryOp::*;
        if depth == 0 {
            // Leaves: a literal, or a signal of the right width if one
            // exists.
            let candidates: Vec<usize> = widths
                .iter()
                .enumerate()
                .filter(|(_, w)| **w == width)
                .map(|(i, _)| i)
                .collect();
            if !candidates.is_empty() && rng.below(2) == 0 {
                return CExpr::Sig(candidates[rng.below(candidates.len() as u64) as usize]);
            }
            return CExpr::Lit(rng.bits(width));
        }
        let d = depth - 1;
        match rng.below(12) {
            0 => {
                let ops = [
                    UnaryOp::Not,
                    UnaryOp::Neg,
                    UnaryOp::ReduceAnd,
                    UnaryOp::ReduceOr,
                    UnaryOp::ReduceXor,
                ];
                let op = ops[rng.below(5) as usize];
                match op {
                    UnaryOp::Not | UnaryOp::Neg => {
                        CExpr::Unary(op, Box::new(arb_expr(rng, widths, mems, width, d)))
                    }
                    // Reductions force a 1-bit result; only usable there.
                    _ if width == 1 => {
                        let w = 1 + rng.below(100) as u32;
                        CExpr::Unary(op, Box::new(arb_expr(rng, widths, mems, w, d)))
                    }
                    _ => CExpr::Lit(rng.bits(width)),
                }
            }
            1..=4 => {
                let same_width = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Ashr];
                let op = same_width[rng.below(same_width.len() as u64) as usize];
                CExpr::Binary(
                    op,
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                )
            }
            5 if width == 1 => {
                let cmps = [Eq, Ne, Lt, Le, Gt, Ge, Lts, Les, Gts, Ges];
                let op = cmps[rng.below(cmps.len() as u64) as usize];
                let w = 1 + rng.below(100) as u32;
                CExpr::Binary(
                    op,
                    Box::new(arb_expr(rng, widths, mems, w, d)),
                    Box::new(arb_expr(rng, widths, mems, w, d)),
                )
            }
            6 | 7 => {
                let sel_w = 1 + rng.below(8) as u32;
                CExpr::Mux(
                    Box::new(arb_expr(rng, widths, mems, sel_w, d)),
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                )
            }
            8 => {
                // Slice of something wider.
                let extra = rng.below(70) as u32;
                let src_w = width + extra;
                let lo = rng.below((src_w - width + 1) as u64) as u32;
                CExpr::Slice(
                    Box::new(arb_expr(rng, widths, mems, src_w, d)),
                    lo + width - 1,
                    lo,
                )
            }
            9 if width >= 2 => {
                let hw = 1 + rng.below((width - 1) as u64) as u32;
                CExpr::Cat(
                    Box::new(arb_expr(rng, widths, mems, hw, d)),
                    Box::new(arb_expr(rng, widths, mems, width - hw, d)),
                )
            }
            10 if !mems.is_empty() => {
                let candidates: Vec<usize> = mems
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.width == width)
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    CExpr::Lit(rng.bits(width))
                } else {
                    let m = candidates[rng.below(candidates.len() as u64) as usize];
                    CExpr::MemRead(m, Box::new(arb_expr(rng, widths, mems, 8, d)))
                }
            }
            _ => CExpr::Lit(rng.bits(width)),
        }
    }

    proptest! {
        /// The compiled bytecode must agree with the tree-walking
        /// reference evaluator on random expression trees — narrow
        /// (inline `Bits`) and multi-word widths alike.
        #[test]
        fn bytecode_matches_tree_walk(seed in any::<u64>()) {
            let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
            // Random signal environment: mix of narrow and wide slots.
            let nsigs = 2 + rng.below(6) as usize;
            let widths: Vec<u32> = (0..nsigs)
                .map(|_| {
                    if rng.below(3) == 0 {
                        65 + rng.below(120) as u32
                    } else {
                        1 + rng.below(64) as u32
                    }
                })
                .collect();
            let values: Vec<Bits> = widths.iter().map(|&w| rng.bits(w)).collect();
            let mem_width = 1 + rng.below(90) as u32;
            let mems = vec![MemState {
                width: mem_width,
                words: (0..8).map(|_| rng.bits(mem_width)).collect(),
            }];
            let width = if rng.below(3) == 0 {
                65 + rng.below(80) as u32
            } else {
                1 + rng.below(64) as u32
            };
            let expr = arb_expr(&mut rng, &widths, &mems, width, 4);

            let expected = expr.eval(&values, &mems);
            let mut prog = Program::default();
            let range = prog.compile(&expr);
            let mut stack = Vec::with_capacity(prog.max_stack);
            let got = exec(&prog, range, values.as_slice(), &mems, &mut stack);
            prop_assert!(stack.is_empty(), "stack not drained (seed {})", seed);
            prop_assert_eq!(&got, &expected, "seed {}", seed);
            // The stack bound is exact per expression; the scratch
            // vector must never have outgrown its preallocation.
            prop_assert!(stack.capacity() <= prog.max_stack.max(4));
        }
    }

    proptest! {
        /// On fully-known inputs the four-state executor must agree
        /// bit-for-bit with the two-state one (and report no unknowns).
        #[test]
        fn four_state_matches_two_state_on_known_inputs(seed in any::<u64>()) {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 3);
            let nsigs = 2 + rng.below(6) as usize;
            let widths: Vec<u32> = (0..nsigs)
                .map(|_| {
                    if rng.below(3) == 0 {
                        65 + rng.below(120) as u32
                    } else {
                        1 + rng.below(64) as u32
                    }
                })
                .collect();
            let values: Vec<Bits> = widths.iter().map(|&w| rng.bits(w)).collect();
            let mem_width = 1 + rng.below(90) as u32;
            let mems = vec![MemState {
                width: mem_width,
                words: (0..8).map(|_| rng.bits(mem_width)).collect(),
            }];
            let width = 1 + rng.below(64) as u32;
            let expr = arb_expr(&mut rng, &widths, &mems, width, 4);

            let mut prog = Program::default();
            let range = prog.compile(&expr);
            let mut stack = Vec::new();
            let expected = exec(&prog, range, values.as_slice(), &mems, &mut stack);
            let values4: Vec<Bits4> = values.iter().cloned().map(Bits4::known).collect();
            let mems4 = vec![MemState {
                width: mem_width,
                words: mems[0].words.iter().cloned().map(Bits4::known).collect(),
            }];
            let mut scratch = Vec::new();
            let got = exec(&prog, range, &values4, &mems4, &mut scratch);
            prop_assert!(got.is_fully_known(), "seed {}", seed);
            prop_assert_eq!(got.to_known().unwrap(), &expected, "seed {}", seed);
        }
    }

    /// An unknown mux select evaluates both arms and merges them:
    /// agreeing bits stay known, disagreeing bits go x.
    #[test]
    fn x_select_merges_mux_arms() {
        let e = CExpr::Mux(
            Box::new(CExpr::Sig(0)),
            Box::new(CExpr::Lit(Bits::from_u64(0b111, 3))),
            Box::new(CExpr::Lit(Bits::from_u64(0b101, 3))),
        );
        let mut prog = Program::default();
        let range = prog.compile(&e);
        let vals = vec![Bits4::all_x(1)]; // sig 0 is x
        let mut stack = Vec::new();
        let got = exec(&prog, range, &vals, &[], &mut stack);
        assert_eq!(got.bit_char(0), '1');
        assert_eq!(got.bit_char(1), 'x');
        assert_eq!(got.bit_char(2), '1');
        // A known select keeps lazy single-arm evaluation and a fully
        // known result.
        let vals = vec![Bits4::known(Bits::zero(1))];
        let got = exec(&prog, range, &vals, &[], &mut stack);
        assert_eq!(got.to_known().unwrap().to_u64(), 0b101);
    }

    /// Nested muxes under an unknown outer select recurse correctly.
    #[test]
    fn nested_x_mux_recursion() {
        // mux(x, mux(1, 5, 9), 5) == 5 known; then-arm contains its own
        // branch structure.
        let inner = CExpr::Mux(
            Box::new(CExpr::Lit(Bits::from_bool(true))),
            Box::new(CExpr::Lit(Bits::from_u64(5, 4))),
            Box::new(CExpr::Lit(Bits::from_u64(9, 4))),
        );
        let e = CExpr::Mux(
            Box::new(CExpr::Sig(0)),
            Box::new(inner),
            Box::new(CExpr::Lit(Bits::from_u64(5, 4))),
        );
        let mut prog = Program::default();
        let range = prog.compile(&e);
        let vals = vec![Bits4::all_x(1)];
        let mut stack = Vec::new();
        let got = exec(&prog, range, &vals, &[], &mut stack);
        assert_eq!(got.to_known().unwrap().to_u64(), 5, "arms agree => known");
    }

    /// An unknown memory address reads as all-x; a known one reads the
    /// word's planes.
    #[test]
    fn mem_read_unknown_address_is_x() {
        let e = CExpr::MemRead(0, Box::new(CExpr::Sig(0)));
        let mut prog = Program::default();
        let range = prog.compile(&e);
        let mems = vec![MemState {
            width: 8,
            words: vec![Bits4::known(Bits::from_u64(0xAB, 8)), Bits4::all_x(8)],
        }];
        let mut stack = Vec::new();
        // Unknown address.
        let vals = vec![Bits4::all_x(4)];
        let got = exec(&prog, range, &vals, &mems, &mut stack);
        assert_eq!(got, Bits4::all_x(8));
        // Known address 1 hits the x word.
        let vals = vec![Bits4::known(Bits::from_u64(1, 4))];
        let got = exec(&prog, range, &vals, &mems, &mut stack);
        assert!(!got.is_fully_known());
        // Known out-of-range address reads zero, matching 2-state.
        let vals = vec![Bits4::known(Bits::from_u64(9, 4))];
        let got = exec(&prog, range, &vals, &mems, &mut stack);
        assert_eq!(got.to_known().unwrap().to_u64(), 0);
    }

    /// Mux arms must stay lazy: the untaken arm is never executed.
    /// (Divide-by-zero is total in this IR, so laziness is purely a
    /// performance property — asserted here via an address that would
    /// be counted by a MemRead if executed.)
    #[test]
    fn mux_skips_untaken_arm() {
        let e = CExpr::Mux(
            Box::new(CExpr::Lit(Bits::from_bool(true))),
            Box::new(CExpr::Lit(Bits::from_u64(7, 8))),
            Box::new(CExpr::Binary(
                BinaryOp::Add,
                Box::new(CExpr::Lit(Bits::from_u64(1, 8))),
                Box::new(CExpr::Lit(Bits::from_u64(2, 8))),
            )),
        );
        let mut prog = Program::default();
        let range = prog.compile(&e);
        let mut stack = Vec::new();
        let empty: &[Bits] = &[];
        let got = exec(&prog, range, empty, &[], &mut stack);
        assert_eq!(got.to_u64(), 7);
        // The else-arm is three ops (two pushes + add); count executed
        // ops by instrumenting pc coverage is overkill — instead verify
        // the branch targets skip it entirely.
        let br_target = prog
            .ops
            .iter()
            .find_map(|op| match op {
                Op::BranchIfZero(t) => Some(*t),
                _ => None,
            })
            .expect("branch emitted");
        let jump_target = prog
            .ops
            .iter()
            .find_map(|op| match op {
                Op::Jump(t) => Some(*t),
                _ => None,
            })
            .expect("jump emitted");
        assert!(jump_target as usize == prog.ops.len());
        assert!(br_target < jump_target);
    }
}
