//! docql benchmark: one workload per run, end-to-end metrics over HTTP
//! (`--trace 0`) or per-layer metrics from a traced replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! A run in which any answer had wrong bytes or a recovery check failed
//! prints no result and exits with a non-zero code.
//! Scratch stores and span files go under `.perfbench/` in the current
//! directory.

mod client;
mod e2e;
mod inputs;
mod layers;
mod spans;
mod stats;

use e2e::Measured;
use inputs::{Inputs, Workload};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?,
        workload_name: name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

type Metrics = Vec<layers::Metric>;

fn end_to_end(m: &Measured, input_bytes: usize) -> Result<Metrics, String> {
    let (_, attempted, failed) = m.verdict();
    let (reads, read_s) = m.reads_with(false);
    Ok(vec![
        ("p50_ms".into(), reads.p50_ms(), "ms"),
        ("ops_per_s".into(), reads.succeeded() as f64 / read_s, "1/s"),
        (
            "success_ratio".into(),
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        ("cold_start_ms".into(), m.cold_start_ms(), "ms"),
        (
            "disk_bytes_per_input_byte".into(),
            m.disk_bytes as f64 / input_bytes as f64,
            "ratio",
        ),
        ("setup_s".into(), m.setup_s(), "s"),
        ("peak_rss_mb".into(), m.peak_rss_mb(), "MiB"),
    ])
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(args: &Args, work: &Path, out_dir: &Path) -> Result<Report, String> {
    let inputs = Inputs::new(args.workload, args.seed);
    if !args.trace {
        let m = e2e::run(
            args.workload,
            &inputs,
            args.seconds,
            work,
            &Recorder::new(false),
            false,
        )?;
        let (attempted, failed) = verified(&m)?;
        return Ok(Report {
            attempted,
            failed,
            metrics: end_to_end(&m, inputs.input_bytes())?,
        });
    }
    // Traced run: the workload with the benchmark's spans on in every
    // other slice (the difference is their overhead), then the replay.
    let rec = Recorder::new(false);
    let m = e2e::run(args.workload, &inputs, args.seconds, work, &rec, true)?;
    let (attempted, failed) = verified(&m)?;
    let off = m.reads_with(false).0.p50_ms() * 1e3;
    let on = m.reads_with(true).0.p50_ms() * 1e3;
    rec.set_enabled(true);
    let mut metrics = layers::replay(&rec, &inputs, &m.base_dir, &work.join("replay"), off)?;
    let lookups = (m.cache_hits + m.cache_misses).max(1);
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("too few samples for {what}"));
    let read_p99 = stats::tail(&m.reads_with(false).0.sorted_ms(), 0.99);
    metrics.extend([
        (
            "e2e.ingest_p50_ms".to_string(),
            m.untraced_ingests().p50_ms(),
            "ms",
        ),
        ("e2e.ingest_per_s".to_string(), m.ingests_per_s(), "1/s"),
        (
            "e2e.read_p99_ms".to_string(),
            need(read_p99, "e2e.read_p99_ms")?,
            "ms",
        ),
        (
            "e2e.ingest_p90_ms".to_string(),
            need(
                stats::tail(&m.untraced_ingests().sorted_ms(), 0.90),
                "e2e.ingest_p90_ms",
            )?,
            "ms",
        ),
        ("serve.reconnects".to_string(), m.reconnects as f64, "count"),
        (
            "store.plan_cache_hit_ratio".to_string(),
            m.cache_hits as f64 / lookups as f64,
            "ratio",
        ),
        ("trace_overhead_us".to_string(), on - off, "us"),
    ]);
    let spans = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload_name, args.seed
    ));
    rec.write_jsonl(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// The run's requests attempted and failed, or an error when any answer
/// had wrong bytes or a recovery check failed: such a run is not a
/// measurement of the program and prints no metrics. Failed requests
/// (a transport error, a non-2xx status) are counted, not fatal.
fn verified(m: &Measured) -> Result<(u64, u64), String> {
    let (correct, attempted, failed) = m.verdict();
    if correct {
        return Ok((attempted, failed));
    }
    Err(format!(
        "wrong answers: {} with wrong bytes, {} failed recovery checks",
        m.reads().wrong + m.ingests().wrong,
        m.recovery_mismatches
    ))
}

fn to_json(r: &Report) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value, unit) in &r.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload query_mix|ingest_under_reads --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &out_dir))
        .and_then(|r| to_json(&r));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Outcome, Tally};
    use std::time::Duration;

    #[test]
    fn wrong_bytes_or_a_failed_recovery_check_fail_the_run() {
        let (ms, timeout) = (Duration::from_millis(1), client::TIMEOUT);
        let mut reads = Tally::default();
        reads.record(Outcome::Ok, ms, timeout);
        // A lost request is counted but the run stands.
        reads.record(Outcome::Transport, ms, timeout);
        let mut m = Measured::default();
        m.read_slices.push((reads.clone(), 0.1, false));
        assert_eq!(verified(&m), Ok((2, 1)));

        reads.record(Outcome::WrongBytes, ms, timeout);
        m.read_slices = vec![(reads, 0.1, false)];
        assert!(verified(&m).is_err());

        let m = Measured {
            recovery_mismatches: 1,
            ..Measured::default()
        };
        assert!(verified(&m).is_err());

        // A wrong ingest answer (201 without an oid) fails it too.
        let mut ingests = Tally::default();
        ingests.record(Outcome::WrongBytes, ms, timeout);
        let mut m = Measured::default();
        m.ingest_rounds.push((ingests, false));
        assert!(verified(&m).is_err());
    }
}
