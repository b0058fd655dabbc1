//! B14 — cost-based planning versus the heuristic planner.
//!
//! Two suites, both asserting result equality before timing:
//!
//! * **Adversarial** (10× the base `docql_corpus::adversarial` corpus):
//!   queries written in the order the heuristic executes worst — a
//!   selective document filter *after* the fanning section/subsection
//!   walk, and a rare `contains` *after* two common ones. Live posting
//!   lengths and extent cardinalities let the cost-based planner hoist the
//!   selective conjunct; the headline is how many × that saves.
//! * **Parity** (the B6/B9 article corpus and query shapes): the cost
//!   model finds no clear win there, plans stay byte-identical to the
//!   heuristic's, and the only cost-planning overhead left is the stats
//!   read at (cached) plan time plus the per-query divergence check — the
//!   summary ratio must sit within B6 noise (±5%).
//!
//! Prints best-of-run `B14 summary` lines like B6/B9.

use docql::prelude::{Mode, QueryLimits};
use docql_bench::harness::{BenchmarkId, Criterion};
use docql_bench::{adversarial_store, article_store, criterion_group, criterion_main};
use docql_corpus::AdversarialParams;
use std::hint::black_box;

/// Conjuncts ordered adversarially: the selective predicate is textually
/// last, so the heuristic pays the full fan-out (or the full common-term
/// scans) before filtering.
const ADVERSARIAL: &[(&str, &str)] = &[
    (
        "filter_after_fanout",
        "select ss from a in Articles, s in a.sections, ss in s.subsectns \
         where a.abstract contains (\"quagga\")",
    ),
    (
        "rare_contains_last",
        "select a.title from a in Articles \
         where a.abstract contains (\"database\") and a.abstract contains (\"structured\") \
         and a.abstract contains (\"documents\") and a.abstract contains (\"quagga\")",
    ),
];

/// The existing B6 (Q1) and B9 (path-index) shapes: no reorder available,
/// cost-based planning must be free.
const PARITY: &[(&str, &str)] = &[
    (
        "parity_B6_Q1",
        "select tuple (t: a.title, f_author: first(a.authors)) \
         from a in Articles, s in a.sections \
         where s.title contains (\"SGML\" and \"OODBMS\")",
    ),
    ("parity_B9_path", "select t from Articles PATH_p.title(t)"),
];

/// One corpus plus the query shapes timed against it.
type Suite<'a> = (
    &'a str,
    &'a mut docql::prelude::DocStore,
    &'a [(&'a str, &'a str)],
);

fn bench_planner_cost(c: &mut Criterion) {
    let base = AdversarialParams::default();
    let mut adversarial = adversarial_store(&AdversarialParams {
        docs: base.docs * 10,
        // Long abstracts: the common/rare `contains` scans dominate, so
        // predicate order is what the benchmark measures.
        paragraph_words: 60,
        ..base
    });
    let mut article = article_store(10, 5);
    let suites: [Suite; 2] = [
        ("adversarial_10x", &mut adversarial, ADVERSARIAL),
        ("article", &mut article, PARITY),
    ];
    for (corpus, store, queries) in suites {
        let group_name = format!("B14_planner_cost_{corpus}");
        let mut group = c.benchmark_group(&group_name);
        group.sample_size(10);
        for (name, q) in queries {
            // Warm each variant's plan once; the timed loop then measures
            // cached execution, which is where conjunct order matters.
            store.set_cost_planning_enabled(true);
            let expected = store
                .query_traced(q, Mode::Algebraic, &QueryLimits::none())
                .0
                .unwrap()
                .to_table();
            group.bench_function(BenchmarkId::new(name, "cost"), |b| {
                b.iter(|| {
                    black_box(
                        store
                            .query_traced(black_box(q), Mode::Algebraic, &QueryLimits::none())
                            .0
                            .unwrap()
                            .len(),
                    )
                })
            });
            store.set_cost_planning_enabled(false);
            assert_eq!(
                store
                    .query_traced(q, Mode::Algebraic, &QueryLimits::none())
                    .0
                    .unwrap()
                    .to_table(),
                expected,
                "planners disagree on {q}"
            );
            group.bench_function(BenchmarkId::new(name, "heuristic"), |b| {
                b.iter(|| {
                    black_box(
                        store
                            .query_traced(black_box(q), Mode::Algebraic, &QueryLimits::none())
                            .0
                            .unwrap()
                            .len(),
                    )
                })
            });
            store.set_cost_planning_enabled(true);
        }
        group.finish();

        // Best-of-run headline (minimum is the robust estimator under
        // one-sided scheduler noise), matching B6/B9's summary format.
        for (name, _) in queries {
            let best = |variant: &str| {
                c.samples
                    .iter()
                    .find(|s| s.name == format!("{group_name}/{name}/{variant}"))
                    .map(|s| s.best)
            };
            if let (Some(heuristic), Some(cost)) = (best("heuristic"), best("cost")) {
                println!(
                    "B14 summary: {name}@{corpus} — cost-based {:.2}x vs heuristic \
                     (best {:?} vs {:?})",
                    heuristic.as_secs_f64() / cost.as_secs_f64().max(1e-12),
                    cost,
                    heuristic,
                );
            }
        }
    }
}

criterion_group!(benches, bench_planner_cost);
criterion_main!(benches);
