//! The traced replay: the workload's seeded inputs fed to each crate's
//! public functions in turn, with a span around every call, so each layer
//! is timed from outside the program.

use crate::client::post;
use crate::e2e::{copy_dir, ctx, Res, ROOTS};
use crate::inputs::{self, Inputs, Mix, QueryText};
use crate::spans::Recorder;
use crate::stats::median;
use docql_algebra::StatsSource;
use docql_durable::{read_segment, write_segment, Wal, WalOp};
use docql_o2sql::{CachedPlan, Mode, QueryResult};
use docql_serve::{read_request, ChunkedWriter, ParseLimits};
use docql_store::PersistentStore;
use std::path::Path;

/// Requests replayed in-process per traced run.
const REQUESTS: usize = 1000;
/// Calls per template and operation.
const REPS: usize = 30;
/// Repeats of the whole-store durable operations.
const STORE_REPS: usize = 3;

/// A named per-layer value with its unit.
pub type Metric = (String, f64, &'static str);

fn p50(rec: &Recorder, name: &str) -> f64 {
    median(&rec.durations_us(name))
}

/// The server's rendering of a result, into memory: header chunk, one
/// chunk per row, trailers.
fn render(result: &QueryResult) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut w = ChunkedWriter::begin(&mut out, 200, &[], &["X-Docql-Rows", "X-Docql-Partial"])?;
    w.chunk(result.table_header().as_bytes())?;
    let rows = result.rendered_rows();
    for row in &rows {
        w.chunk(format!("{row}\n").as_bytes())?;
    }
    w.finish(&[
        ("X-Docql-Rows", rows.len().to_string()),
        ("X-Docql-Partial", "none".to_string()),
    ])?;
    Ok(out)
}

/// The workload's request sequence: the same draw the read connections
/// make.
fn request_sequence(inputs: &Inputs) -> Vec<&QueryText> {
    let mix = Mix::new(&inputs.reads);
    let mut rng = inputs.draw_rng(0);
    (0..REQUESTS)
        .map(|_| &inputs.reads[mix.sample(&mut rng)])
        .collect()
}

/// Serve, store, obs, o2sql, algebra, calculus: the read path.
fn read_layers(
    rec: &Recorder,
    ps: &PersistentStore,
    inputs: &Inputs,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let shared = ps.shared();
    // As `Server::start` configures the store it serves.
    shared.set_metrics_enabled(true);
    shared.set_tracing_enabled(true);
    let none = docql_guard::QueryLimits::none();
    let limits = ParseLimits::default();
    for (i, q) in request_sequence(inputs).into_iter().enumerate() {
        let trace = rec.fresh_id();
        let wire = post("/query", q.text.as_bytes());
        rec.span(trace, None, "serve.read_request", |_| {
            read_request(&mut std::io::Cursor::new(&wire), &limits).map(|_| ())
        })
        .map_err(|e| format!("read_request: {e:?}"))?;
        // As the server runs it: flight recorder on, plan cache as the
        // sequence leaves it.
        let result = rec
            .span(trace, None, "store.query_traced", |_| {
                shared.query_traced(&q.text, Mode::Interpret, &none).0
            })
            .map_err(|e| format!("{}: {e}", q.text))?;
        // The recorder's cost: the same warm plan with it on and off,
        // alternating which runs first.
        for on in [i % 2 == 0, i % 2 == 1] {
            shared.set_tracing_enabled(on);
            let name = if on {
                "obs.recorder_on"
            } else {
                "obs.recorder_off"
            };
            rec.span(trace, None, name, |_| {
                shared.query_traced(&q.text, Mode::Interpret, &none).0
            })
            .map_err(|e| format!("{}: {e}", q.text))?;
        }
        shared.set_tracing_enabled(true);
        rec.span(trace, None, "serve.render", |_| render(&result))
            .map_err(|e| format!("render: {e}"))?;
    }

    let pins = rec.fresh_id();
    for _ in 0..REQUESTS {
        rec.span(pins, None, "store.pin", |_| drop(shared.read()));
    }

    // Per template: cached store query, then each evaluator on one plan.
    let snap = shared.read();
    for q in inputs::templates() {
        let trace = rec.fresh_id();
        let t = q.template;
        for _ in 0..REPS {
            rec.span(trace, None, &format!("store.query.{t}"), |_| {
                shared.query(&q.text)
            })
            .map_err(|e| format!("{t}: {e}"))?;
        }
        let mut engine = snap.engine();
        let plan = engine
            .compile_plan(&q.text)
            .map_err(|e| format!("{t}: {e}"))?;
        engine.mode = Mode::Interpret;
        for _ in 0..REPS {
            rec.span(trace, None, &format!("calculus.eval.{t}"), |_| {
                engine.eval_plan(&plan)
            })
            .map_err(|e| format!("{t}: {e}"))?;
        }
        engine.mode = Mode::Algebraic;
        engine.eval_plan(&plan).map_err(|e| format!("{t}: {e}"))?;
        for _ in 0..REPS {
            rec.span(trace, None, &format!("algebra.eval.{t}"), |_| {
                engine.eval_plan(&plan)
            })
            .map_err(|e| format!("{t}: {e}"))?;
        }
        let stats: &dyn StatsSource = &*snap;
        let (plans, _) = plan
            .algebra_plans(snap.instance().schema(), Some(stats))
            .map_err(|e| format!("{t}: {e}"))?;
        let ops: usize = plans.iter().map(|a| a.plan.size()).sum();
        out.push((format!("algebra.plan_ops.{t}"), ops as f64, "count"));
        out.push((
            format!("store.query_us.{t}"),
            p50(rec, &format!("store.query.{t}")),
            "us",
        ));
        out.push((
            format!("calculus.eval_us.{t}"),
            p50(rec, &format!("calculus.eval.{t}")),
            "us",
        ));
        out.push((
            format!("algebra.eval_us.{t}"),
            p50(rec, &format!("algebra.eval.{t}")),
            "us",
        ));
    }

    // Compile stages over the workload's distinct texts, at least REPS
    // calls each.
    let schema = snap.instance().schema();
    let passes = REPS.div_ceil(inputs.reads.len());
    for q in (0..passes).flat_map(|_| &inputs.reads) {
        let trace = rec.fresh_id();
        let ast = rec
            .span(trace, None, "o2sql.parse", |_| docql_o2sql::parse(&q.text))
            .map_err(|e| format!("parse {}: {e}", q.text))?;
        let translated = rec
            .span(trace, None, "o2sql.translate", |_| {
                docql_o2sql::translate(&ast, schema)
            })
            .map_err(|e| format!("translate {}: {e}", q.text))?;
        let plan = CachedPlan::new(translated);
        let stats: &dyn StatsSource = &*snap;
        rec.span(trace, None, "algebra.algebraize", |_| {
            plan.algebra_plans(schema, Some(stats))
        })
        .map_err(|e| format!("algebraize {}: {e}", q.text))?;
    }

    let writes = rec.fresh_id();
    for _ in 0..REPS {
        rec.span(writes, None, "store.write_txn", |_| drop(shared.write()));
    }
    Ok(())
}

/// sgml, mapping, text, paths: the per-document ingest stages, then the
/// text index probes of the workload's `contains` operands.
fn ingest_layers(rec: &Recorder, inputs: &Inputs) -> Res<()> {
    let dtd = docql_sgml::Dtd::parse(docql_sgml::fixtures::ARTICLE_DTD).map_err(ctx("dtd"))?;
    let mapping = docql_mapping::map_dtd_with(&dtd, &ROOTS).map_err(ctx("map dtd"))?;
    let mut instance = docql_model::Instance::new(mapping.schema.clone());
    let mut extents =
        docql_paths::PathExtentIndex::for_collection_root(&mapping.schema, mapping.root);
    let mut index = docql_text::InvertedIndex::new();
    for sgml in inputs.base.iter().chain(&inputs.stream) {
        let trace = rec.fresh_id();
        let parser = rec
            .span(trace, None, "sgml.parser_new", |_| {
                docql_sgml::DocParser::new(&dtd)
            })
            .map_err(ctx("parser"))?;
        let doc = rec
            .span(trace, None, "sgml.parse", |_| parser.parse(sgml))
            .map_err(ctx("parse"))?;
        let loaded = rec
            .span(trace, None, "mapping.load", |_| {
                docql_mapping::load_document(&mapping, &mut instance, &doc)
            })
            .map_err(ctx("load"))?;
        let text = loaded
            .text_of
            .get(&loaded.root)
            .cloned()
            .unwrap_or_default();
        rec.span(trace, None, "text.index_add", |_| {
            index.add(u64::from(loaded.root.0), &text)
        });
        rec.span(trace, None, "paths.index_document", |_| {
            extents.index_document(&instance, loaded.root)
        });
    }
    let exprs: Vec<_> = inputs
        .reads
        .iter()
        .chain(&inputs::templates())
        .filter_map(|q| q.contains.clone())
        .collect();
    let trace = rec.fresh_id();
    for e in &exprs {
        rec.span(trace, None, "text.docs_matching", |_| {
            index.docs_matching(e)
        });
    }
    Ok(())
}

/// durable: WAL appends, segment write and load, WAL replay on reopen.
fn durable_layers(
    rec: &Recorder,
    base_dir: &Path,
    inputs: &Inputs,
    work: &Path,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let wal_dir = work.join("replay-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).map_err(ctx("mkdir"))?;
    let (mut wal, _) =
        Wal::open(&wal_dir.join(docql_durable::WAL_FILE)).map_err(ctx("open wal"))?;
    let (mut write_us, mut fsync_us, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for sgml in &inputs.stream {
        let trace = rec.fresh_id();
        let receipt = rec
            .span(trace, None, "durable.wal_append", |_| {
                wal.append(WalOp::Ingest { sgml: sgml.clone() })
            })
            .map_err(ctx("wal append"))?;
        write_us.push(receipt.write_ns as f64 / 1e3);
        fsync_us.push(receipt.fsync_ns as f64 / 1e3);
        bytes += receipt.frame_len;
    }
    out.push(("durable.wal_write_us".into(), median(&write_us), "us"));
    out.push(("durable.fsync_us".into(), median(&fsync_us), "us"));
    out.push((
        "durable.wal_bytes_per_doc".into(),
        bytes as f64 / inputs.stream.len().max(1) as f64,
        "bytes",
    ));

    // A store with the stream in its WAL tail, as the workloads leave it.
    let tail_dir = work.join("replay-tail");
    copy_dir(base_dir, &tail_dir)?;
    {
        let (ps, _) = PersistentStore::reopen(&tail_dir).map_err(ctx("reopen"))?;
        for sgml in &inputs.stream {
            ps.ingest(sgml).map_err(ctx("ingest"))?;
        }
        let image = ps.image().map_err(ctx("image"))?;
        let seg_dir = work.join("replay-seg");
        for _ in 0..STORE_REPS {
            let _ = std::fs::remove_dir_all(&seg_dir);
            std::fs::create_dir_all(&seg_dir).map_err(ctx("mkdir"))?;
            let trace = rec.fresh_id();
            let (path, _) = rec
                .span(trace, None, "durable.segment_write", |_| {
                    write_segment(&seg_dir, &image)
                })
                .map_err(ctx("segment write"))?;
            rec.span(trace, None, "durable.segment_load", |_| read_segment(&path))
                .map_err(ctx("segment load"))?;
        }
    }
    let copy = work.join("replay-reopen");
    for _ in 0..STORE_REPS {
        for (from, name) in [
            (&tail_dir, "durable.reopen_with_tail"),
            (&base_dir.to_path_buf(), "durable.reopen_base"),
        ] {
            copy_dir(from, &copy)?;
            let trace = rec.fresh_id();
            rec.span(trace, None, name, |_| {
                PersistentStore::reopen(&copy).map(drop)
            })
            .map_err(ctx("reopen"))?;
        }
    }
    out.push((
        "durable.segment_write_ms".into(),
        p50(rec, "durable.segment_write") / 1e3,
        "ms",
    ));
    out.push((
        "durable.segment_load_ms".into(),
        p50(rec, "durable.segment_load") / 1e3,
        "ms",
    ));
    out.push((
        "durable.wal_replay_ms".into(),
        (p50(rec, "durable.reopen_with_tail") - p50(rec, "durable.reopen_base")) / 1e3,
        "ms",
    ));
    Ok(())
}

/// Median over requests of recorder-on minus recorder-off time.
fn recorder_cost_us(rec: &Recorder) -> f64 {
    let on = rec.durations_us("obs.recorder_on");
    let off = rec.durations_us("obs.recorder_off");
    let diffs: Vec<f64> = on.iter().zip(&off).map(|(a, b)| a - b).collect();
    median(&diffs)
}

/// Replay `inputs` layer by layer against a store reopened from
/// `base_dir`. `http_p50_us` is the untraced end-to-end read median the
/// layer times are set against.
pub fn replay(
    rec: &Recorder,
    inputs: &Inputs,
    base_dir: &Path,
    work: &Path,
    http_p50_us: f64,
) -> Res<Vec<Metric>> {
    let mut out = Vec::new();
    let store_dir = work.join("replay-store");
    copy_dir(base_dir, &store_dir)?;
    let (ps, _) = PersistentStore::reopen(&store_dir).map_err(ctx("reopen"))?;
    read_layers(rec, &ps, inputs, &mut out)?;
    ingest_layers(rec, inputs)?;
    durable_layers(rec, base_dir, inputs, work, &mut out)?;

    let inproc = p50(rec, "store.query_traced");
    let (read, render) = (p50(rec, "serve.read_request"), p50(rec, "serve.render"));
    let us = |name: &str, span: &str| (name.to_string(), p50(rec, span), "us");
    out.extend([
        (
            "serve.wire_overhead_us".to_string(),
            http_p50_us - inproc,
            "us",
        ),
        us("serve.read_request_us", "serve.read_request"),
        us("serve.render_us", "serve.render"),
        us("store.pin_us", "store.pin"),
        us("store.write_txn_us", "store.write_txn"),
        us("o2sql.parse_us", "o2sql.parse"),
        us("o2sql.translate_us", "o2sql.translate"),
        us("algebra.algebraize_us", "algebra.algebraize"),
        us("text.docs_matching_us", "text.docs_matching"),
        us("text.index_add_us", "text.index_add"),
        us("paths.index_document_us", "paths.index_document"),
        us("sgml.parser_new_us", "sgml.parser_new"),
        us("sgml.parse_us", "sgml.parse"),
        us("mapping.load_us", "mapping.load"),
        ("obs.trace_us".to_string(), recorder_cost_us(rec), "us"),
        (
            "unattributed_us".to_string(),
            http_p50_us - (read + inproc + render),
            "us",
        ),
    ]);
    Ok(out)
}
