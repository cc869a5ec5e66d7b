//! Symbol-table query micro-benchmarks (§3.4).
//!
//! The paper notes "the symbol table performance is less important
//! compared to the simulator interface" because queries happen while
//! the simulator is paused — these benchmarks quantify that the
//! relational primitives are nonetheless fast (indexed lookups).

use bench::{compile_core, symbols_for};
use criterion::{criterion_group, criterion_main, Criterion};
use hgdb::DebugExpr;

fn queries(c: &mut Criterion) {
    let core = compile_core(true);
    let st = symbols_for(&core);
    let all = st.all_breakpoints().expect("query");
    assert!(!all.is_empty());
    let first = all[0].clone();
    let some_bp = all[all.len() / 2].clone();

    let mut group = c.benchmark_group("symtab");
    group.bench_function("breakpoints_at(file,line)", |b| {
        b.iter(|| {
            st.breakpoints_at(&first.filename, Some(first.line), None)
                .expect("query")
        })
    });
    group.bench_function("scope_of", |b| {
        b.iter(|| st.scope_of(some_bp.id).expect("query"))
    });
    group.bench_function("resolve_instance_variable", |b| {
        b.iter(|| {
            st.resolve_instance_variable(some_bp.instance_id, "alu_out")
                .expect("query")
        })
    });
    group.bench_function("all_breakpoints_ordered", |b| {
        b.iter(|| st.all_breakpoints().expect("query").len())
    });
    group.finish();

    // Enable-condition evaluation (the per-breakpoint work inside the
    // Figure 2 loop).
    let mut group = c.benchmark_group("expr");
    let parsed = DebugExpr::parse("((a % 8'h2) == 8'h1) & (_cond_0 & ~(flag))").expect("parses");
    let resolve = |name: &str| {
        Some(bits::Bits4::known(match name {
            "a" => bits::Bits::from_u64(5, 8),
            "_cond_0" => bits::Bits::from_bool(true),
            "flag" => bits::Bits::from_bool(false),
            _ => return None,
        }))
    };
    group.bench_function("parse_enable", |b| {
        b.iter(|| DebugExpr::parse("((a % 8'h2) == 8'h1) & (_cond_0 & ~(flag))").expect("parses"))
    });
    group.bench_function("eval_enable", |b| {
        b.iter(|| parsed.eval(&resolve).expect("evals"))
    });
    group.finish();
}

criterion_group!(benches, queries);
criterion_main!(benches);
