//! B15 (precise variant) — flight-recorder overhead measured A/B-interleaved.
//!
//! The criterion-style `trace_overhead` bench runs its variants
//! sequentially, so slow CPU-frequency drift between the `disabled` and
//! `enabled` passes can dwarf the few-percent effect being measured. This
//! example interleaves the two variants pair-wise inside one loop
//! (toggling the recorder between iterations) and compares best-of-run
//! times, cancelling the drift; it is the measurement EXPERIMENTS.md §B15
//! records against the ≤ 5 % acceptance gate.
//!
//! Run: `cargo run --release -p docql-bench --example b15_interleaved`

use docql::prelude::{Mode, QueryLimits};
use std::time::{Duration, Instant};

fn main() {
    let mut store = docql_bench::article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    store
        .flight_recorder()
        .set_slow_cutoff(Duration::from_secs(3600));
    let queries = [
        (
            "Q1",
            "select tuple (t: a.title, f_author: first(a.authors)) \
             from a in Articles, s in a.sections \
             where s.title contains (\"SGML\" and \"OODBMS\")",
        ),
        ("Q3", "select t from my_article PATH_p.title(t)"),
        (
            "Q5",
            "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
             where val contains (\"draft\")",
        ),
    ];
    let (mut sum_off, mut sum_on) = (0.0f64, 0.0f64);
    for (name, q) in queries {
        for _ in 0..3 {
            store
                .query_traced(q, Mode::Algebraic, &QueryLimits::none())
                .0
                .unwrap();
        }
        let (mut best_off, mut best_on) = (Duration::MAX, Duration::MAX);
        let iters = if name == "Q5" { 200 } else { 2000 };
        for _ in 0..iters {
            store.set_tracing_enabled(false);
            let t = Instant::now();
            std::hint::black_box(
                store
                    .query_traced(q, Mode::Algebraic, &QueryLimits::none())
                    .0
                    .unwrap()
                    .len(),
            );
            best_off = best_off.min(t.elapsed());
            store.set_tracing_enabled(true);
            let t = Instant::now();
            std::hint::black_box(
                store
                    .query_traced(q, Mode::Algebraic, &QueryLimits::none())
                    .0
                    .unwrap()
                    .len(),
            );
            best_on = best_on.min(t.elapsed());
        }
        store.set_tracing_enabled(false);
        sum_off += best_off.as_secs_f64();
        sum_on += best_on.as_secs_f64();
        let pct = (best_on.as_secs_f64() / best_off.as_secs_f64() - 1.0) * 100.0;
        println!("{name}: untraced {best_off:?}  traced {best_on:?}  overhead {pct:+.1}%");
    }
    // The ≤ 5 % gate is judged on the workload total: tracing's ~2 µs
    // fixed per-query cost is a visible percentage only on a cached point
    // lookup measured in single-digit microseconds.
    println!(
        "suite total: overhead {:+.1}%",
        (sum_on / sum_off - 1.0) * 100.0
    );
}
