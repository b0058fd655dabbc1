//! B9 — restricted-semantics path queries: the persistent path-extent
//! index versus the plan-embedded walk.
//!
//! Both variants run the *same* cached algebraic plan; the only difference
//! is whether `ExecCtx` carries the store's `PathExtentIndex` (the
//! `IndexPathScan` operator reads materialized `(root, target)` extents)
//! or not (the operator falls back to walking the object graph). Scales
//! the synthetic article corpus 1×/10×/100× and prints best-of-run
//! `summary` lines like B6/B8.

use docql::prelude::{Mode, QueryLimits};
use docql_bench::article_store;
use docql_bench::harness::{BenchmarkId, Criterion};
use docql_bench::{criterion_group, criterion_main};
use std::hint::black_box;

const BASE_DOCS: usize = 2;

const QUERIES: &[(&str, &str)] = &[
    (
        "PATH_title_collection",
        "select t from Articles PATH_p.title(t)",
    ),
    (
        "PATH_title_rooted",
        "select t from my_article PATH_p.title(t)",
    ),
    (
        "PATH_section_title",
        "select t from Articles PATH_p.sections[1]->.title(t)",
    ),
];

fn bench_path_index(c: &mut Criterion) {
    for scale in [1usize, 10, 100] {
        let mut store = article_store(BASE_DOCS * scale, 5);
        store.bind("my_article", store.documents()[0]).unwrap();

        let group_name = format!("B9_path_index_{scale}x");
        let mut group = c.benchmark_group(&group_name);
        group.sample_size(if scale >= 100 { 10 } else { 20 });
        for (name, q) in QUERIES {
            // Warm the plan cache once; both variants then share the plan
            // and differ only in the ExecCtx handed to evaluation.
            store.set_path_extents_enabled(true);
            let expected = store
                .query_traced(q, Mode::Algebraic, &QueryLimits::none())
                .0
                .unwrap()
                .len();
            group.bench_function(BenchmarkId::new(name, "extent"), |b| {
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
            store.set_path_extents_enabled(false);
            assert_eq!(
                store
                    .query_traced(q, Mode::Algebraic, &QueryLimits::none())
                    .0
                    .unwrap()
                    .len(),
                expected,
                "walk and extent disagree on {q}"
            );
            group.bench_function(BenchmarkId::new(name, "walk"), |b| {
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
            store.set_path_extents_enabled(true);
        }
        group.finish();

        // Best-of-run headline (minimum is the robust estimator under
        // one-sided scheduler noise), matching B6/B8's summary format.
        for (name, _) in QUERIES {
            let best = |variant: &str| {
                c.samples
                    .iter()
                    .find(|s| s.name == format!("B9_path_index_{scale}x/{name}/{variant}"))
                    .map(|s| s.best)
            };
            if let (Some(walk), Some(extent)) = (best("walk"), best("extent")) {
                println!(
                    "B9 summary: {name}@{scale}x — extent {:.2}x vs walk (best {:?} vs {:?})",
                    walk.as_secs_f64() / extent.as_secs_f64().max(1e-12),
                    extent,
                    walk,
                );
            }
        }
    }
}

criterion_group!(benches, bench_path_index);
criterion_main!(benches);
