//! The two workloads, driven over real sockets against `docql-serve`'s
//! server running in this process.
//!
//! Every workload serves a `PersistentStore`, so each run also has the
//! same durability steps, in rounds: a fresh copy of the checkpointed base
//! store takes a count-driven stream of `/ingest` posts, then its directory
//! is copied and the copy cold-started. In `query_mix` the rounds follow
//! each stretch of reads with no reads beside them; in
//! `ingest_under_reads` they are the window, with a second connection
//! reading throughout.
//!
//! The machine these runs share is noisy: outside load slows stretches of
//! seconds down. Reads and rounds alternate through a `query_mix` run, so
//! such a stretch cannot fall on one of them alone, and every read made
//! with the benchmark's spans off counts: no sample is dropped for being
//! slow.

use crate::client::{post, LoadClient, TIMEOUT};
use crate::inputs::{self, Inputs, Mix, Workload};
use crate::spans::Recorder;
use crate::stats::{median, peak_rss_mb, release_freed_memory, reset_peak_rss, Outcome, Tally};
use docql_corpus::SeededRng;
use docql_serve::{ServeStore, Server, ServerConfig, ServerHandle};
use docql_store::PersistentStore;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named roots of the article schema.
pub const ROOTS: [&str; 2] = ["my_article", "my_old_article"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Cold starts after each ingest round.
const COLD_STARTS: usize = 2;
/// Ingest rounds whose peak resident set `peak_rss_mb` summarises. A
/// count, not a time: each round leaves the heap a little more fragmented,
/// so every run measures after the same history.
const RSS_ROUNDS: usize = 6;
/// Share of a `query_mix` run given to reads; ingest rounds fill the rest.
const READ_SHARE: f64 = 0.6;
/// Read stretches (each followed by ingest rounds) in such a run.
const CYCLES: usize = 4;
/// Reads are split by completion time into slices this long; in a traced
/// run the benchmark's spans are on in every other slice.
const SLICE: Duration = Duration::from_millis(100);
/// Slices a reader beside an ingest round can fill (a minute's worth).
const ROUND_SLICES: usize = 600;
/// Unmeasured lead-in of a read window, as a share of it: the plan cache
/// reaches its steady state first.
const WARMUP_SHARE: f64 = 0.1;

/// Errors are reported as text and end the run.
pub type Res<T> = Result<T, String>;

/// `map_err` adapter: prefix an error with what was being done.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Build a store in `dir`: durable ingest of `docs`, the two bindings,
/// and a checkpoint.
fn build_base(dir: &Path, docs: &[String]) -> Res<()> {
    let (ps, _) = PersistentStore::open(dir, docql_sgml::fixtures::ARTICLE_DTD, &ROOTS)
        .map_err(ctx("open store"))?;
    let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let oids = ps.ingest_batch(&refs).map_err(ctx("ingest base"))?;
    let (first, last) = match (oids.first(), oids.last()) {
        (Some(f), Some(l)) => (*f, *l),
        _ => return Err("empty base corpus".to_string()),
    };
    ps.bind("my_old_article", first)
        .and_then(|()| ps.bind("my_article", last))
        .map_err(ctx("bind"))?;
    ps.checkpoint().map_err(ctx("checkpoint"))?;
    Ok(())
}

/// Copy a store directory (segments, WAL, meta).
pub fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(ctx("mkdir"))?;
    for entry in std::fs::read_dir(from).map_err(ctx("read dir"))? {
        let entry = entry.map_err(ctx("read dir"))?;
        if entry.file_type().map_err(ctx("stat"))?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(ctx("copy"))?;
        }
    }
    Ok(())
}

/// Bytes of the newest segment plus the WAL: what recovery reads.
fn disk_bytes(dir: &Path) -> Res<u64> {
    let segs = docql_durable::list_segments(dir).map_err(ctx("list segments"))?;
    let seg = match segs.last() {
        Some((_, p)) => std::fs::metadata(p).map_err(ctx("stat"))?.len(),
        None => 0,
    };
    let wal = std::fs::metadata(dir.join(docql_durable::WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    Ok(seg + wal)
}

/// A server over a store reopened from disk.
pub struct Served {
    /// The store behind the server.
    pub store: Arc<PersistentStore>,
    /// The running server.
    pub server: ServerHandle,
    /// Its directory.
    pub dir: PathBuf,
}

impl Served {
    /// Reopen `dir` and serve it with the default server configuration.
    pub fn start(dir: &Path) -> Res<Served> {
        let (ps, _) = PersistentStore::reopen(dir).map_err(ctx("reopen"))?;
        let store = Arc::new(ps);
        let server = Server::start(
            ServerConfig::default(),
            ServeStore::Persistent(Arc::clone(&store)),
        )
        .map_err(ctx("start server"))?;
        Ok(Served {
            store,
            server,
            dir: dir.to_path_buf(),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Drain and join the server (it checkpoints the store).
    pub fn stop(self) {
        drop(self.server.shutdown());
    }

    /// The in-process answer to `text`, bypassing the plan cache so the
    /// server's cache is left as the workload makes it.
    pub fn answer(&self, text: &str) -> Res<Vec<u8>> {
        self.store
            .read()
            .query_uncached(text)
            .map(|r| r.to_table().into_bytes())
            .map_err(|e| format!("in-process {text:?}: {e}"))
    }
}

/// Everything one run measured, before it is turned into metrics.
#[derive(Default)]
pub struct Measured {
    /// Read requests per slice, with the seconds each covers and whether
    /// the benchmark's spans were on.
    pub read_slices: Vec<(Tally, f64, bool)>,
    /// Each ingest round's posts, and whether the benchmark's spans were
    /// on.
    pub ingest_rounds: Vec<(Tally, bool)>,
    /// Reopen-to-first-correct-answer times.
    pub cold_ms: Vec<f64>,
    /// The peak resident set of each of the first [`RSS_ROUNDS`] ingest
    /// rounds, MiB.
    pub round_peak_mb: Vec<f64>,
    /// Set-up times.
    pub setup_s: Vec<f64>,
    /// Newest segment + WAL bytes after the last stream.
    pub disk_bytes: u64,
    /// Failed post-recovery checks (missing ingests, changed answers).
    pub recovery_mismatches: u64,
    /// Client reconnects after server-initiated closes.
    pub reconnects: u64,
    /// Plan-cache hits and misses during the reads.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// The checkpointed base store, kept for the layer replay.
    pub base_dir: PathBuf,
}

/// In a traced run spans are on in odd slices and rounds only, so traced
/// and untraced requests interleave in time and their difference is the
/// spans' overhead rather than drift of the machine.
fn traced(alternate: bool, i: usize) -> bool {
    alternate && i % 2 == 1
}

fn merged(parts: &[(Tally, f64, bool)]) -> Tally {
    let mut all = Tally::default();
    for (t, _, _) in parts {
        all.merge(t.clone());
    }
    all
}

impl Measured {
    /// Every read request.
    pub fn reads(&self) -> Tally {
        merged(&self.read_slices)
    }

    /// Every read made with the benchmark's spans on (`traced`) or off,
    /// with the seconds their slices cover.
    pub fn reads_with(&self, traced: bool) -> (Tally, f64) {
        let chosen: Vec<_> = self
            .read_slices
            .iter()
            .filter(|p| p.2 == traced)
            .cloned()
            .collect();
        (merged(&chosen), chosen.iter().map(|p| p.1).sum())
    }

    /// Every ingest post.
    pub fn ingests(&self) -> Tally {
        let mut all = Tally::default();
        for (t, _) in &self.ingest_rounds {
            all.merge(t.clone());
        }
        all
    }

    /// Whether every answer was right and every recovery check passed,
    /// with the requests attempted and failed, reads and ingests together.
    pub fn verdict(&self) -> (bool, u64, u64) {
        let (r, i) = (self.reads(), self.ingests());
        (
            r.wrong + i.wrong == 0 && self.recovery_mismatches == 0,
            r.attempted + i.attempted,
            r.failed + i.failed,
        )
    }

    /// Every `/ingest` post made with the benchmark's spans off.
    pub fn untraced_ingests(&self) -> Tally {
        let mut all = Tally::default();
        for (t, _) in self.ingest_rounds.iter().filter(|r| !r.1) {
            all.merge(t.clone());
        }
        all
    }

    /// Acknowledged posts per second of the ingest connection's closed
    /// loop: untraced acknowledgements over the time those posts took.
    pub fn ingests_per_s(&self) -> f64 {
        let t = self.untraced_ingests();
        t.succeeded() as f64 / (t.sorted_ms().iter().sum::<f64>() / 1e3)
    }

    /// Median cold-start time.
    pub fn cold_start_ms(&self) -> f64 {
        median(&self.cold_ms)
    }

    /// Median over the first [`RSS_ROUNDS`] ingest rounds of a round's
    /// peak resident set.
    pub fn peak_rss_mb(&self) -> f64 {
        median(&self.round_peak_mb)
    }

    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }

    fn count_cache(&mut self, served: &Served, before: docql_o2sql::CacheStats) {
        let after = served.store.read().plan_cache_stats();
        self.cache_hits += after.hits - before.hits;
        self.cache_misses += after.misses - before.misses;
    }
}

/// Set the store up in `dir` — build, reopen, serve — and time it into
/// `m.setup_s`.
fn set_up(dir: &Path, inputs: &Inputs, m: &mut Measured) -> Res<Served> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    build_base(dir, &inputs.base)?;
    let served = Served::start(dir)?;
    m.setup_s.push(t0.elapsed().as_secs_f64());
    Ok(served)
}

/// One more timed set-up, stopped at once, until [`SETUPS`] have run.
/// Called between ingest rounds, so the set-ups are spread over the run
/// instead of all meeting whatever the machine was doing in its first
/// second.
fn set_up_again(work: &Path, inputs: &Inputs, m: &mut Measured) -> Res<()> {
    if m.setup_s.len() < SETUPS {
        set_up(&work.join("setup"), inputs, m)?.stop();
    }
    Ok(())
}

/// One closed-loop read connection until `stop`. `slot` maps a request's
/// completion time to the tally it counts in; `None` leaves it unrecorded
/// (warm-up, or finishing after the window).
fn read_loop(
    addr: SocketAddr,
    requests: &[(Vec<u8>, Vec<u8>)],
    mut pick: impl FnMut() -> usize,
    slot: impl Fn(Instant) -> Option<usize>,
    slots: usize,
    stop: &AtomicBool,
    rec: &Recorder,
) -> (Vec<Tally>, u64) {
    let mut client = LoadClient::for_reads(addr);
    let mut tallies = vec![Tally::default(); slots];
    while !stop.load(Ordering::Relaxed) {
        let (req, expected) = &requests[pick()];
        let trace = rec.fresh_id();
        let (outcome, _, elapsed) = rec.span(trace, None, "http.query", |_| {
            client.check(req, 200, Some(expected))
        });
        if let Some(i) = slot(Instant::now()) {
            tallies[i].record(outcome, elapsed, TIMEOUT);
        }
    }
    (tallies, client.reconnects())
}

/// One stretch of the read window of `query_mix`, one connection per
/// draw stream in `rngs`; with `warmup`, an unmeasured lead-in goes first.
#[allow(clippy::too_many_arguments)]
fn read_window(
    served: &Served,
    requests: &[(Vec<u8>, Vec<u8>)],
    mix: &Mix,
    rngs: &mut [SeededRng],
    seconds: f64,
    warmup: bool,
    rec: &Recorder,
    alternate: bool,
    m: &mut Measured,
) {
    let stop = AtomicBool::new(false);
    let window = Duration::from_secs_f64(seconds);
    let slices = (window.as_nanos() / SLICE.as_nanos()).max(1) as usize;
    let lead_in = if warmup {
        window.mul_f64(WARMUP_SHARE)
    } else {
        Duration::ZERO
    };
    let measure_from = Instant::now() + lead_in;
    let slot = |t: Instant| {
        let i = t.checked_duration_since(measure_from)?.as_nanos() / SLICE.as_nanos();
        usize::try_from(i).ok().filter(|&i| i < slices)
    };
    let cache_before = served.store.read().plan_cache_stats();
    let results: Vec<(Vec<Tally>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .map(|rng| {
                let (requests, stop, slot) = (&requests, &stop, &slot);
                s.spawn(move || {
                    read_loop(
                        served.addr(),
                        requests,
                        || mix.sample(rng),
                        slot,
                        slices,
                        stop,
                        rec,
                    )
                })
            })
            .collect();
        for i in 0..=slices {
            std::thread::sleep(
                (measure_from + SLICE * i as u32).saturating_duration_since(Instant::now()),
            );
            rec.set_enabled(traced(alternate, i));
        }
        stop.store(true, Ordering::Relaxed);
        rec.set_enabled(false);
        handles
            .into_iter()
            .map(|h| h.join().expect("read connection thread panicked"))
            .collect()
    });
    m.count_cache(served, cache_before);
    let mut tallies = vec![Tally::default(); slices];
    for (per_conn, reconnects) in results {
        for (i, t) in per_conn.into_iter().enumerate() {
            tallies[i].merge(t);
        }
        m.reconnects += reconnects;
    }
    m.read_slices.extend(
        tallies
            .into_iter()
            .enumerate()
            .map(|(i, t)| (t, SLICE.as_secs_f64(), traced(alternate, i))),
    );
}

/// One ingest round on a fresh copy of the base store: post the ingest
/// stream on one connection — with a Q3 reader beside it when `reads` —
/// then copy the store and time [`COLD_STARTS`] reopens of the copy,
/// checking what each recovered.
fn ingest_round(
    inputs: &Inputs,
    reads: bool,
    work: &Path,
    rec: &Recorder,
    alternate: bool,
    m: &mut Measured,
) -> Res<()> {
    let is_traced = traced(alternate, m.ingest_rounds.len());
    let dir = work.join("round");
    copy_dir(&m.base_dir, &dir)?;
    let served = Served::start(&dir)?;
    let cache_before = served.store.read().plan_cache_stats();
    let q3 = vec![(
        post("/query", inputs::Q3.as_bytes()),
        served.answer(inputs::Q3)?,
    )];
    let stop = AtomicBool::new(false);
    let mut acked = Vec::new();
    rec.set_enabled(is_traced);
    let t0 = Instant::now();
    let slot = |t: Instant| {
        let i = t.duration_since(t0).as_nanos() / SLICE.as_nanos();
        usize::try_from(i).ok().filter(|&i| i < ROUND_SLICES)
    };
    let (ingests, reader) = std::thread::scope(|s| {
        let reader = reads.then(|| {
            let (q3, stop, served, slot) = (&q3, &stop, &served, &slot);
            s.spawn(move || read_loop(served.addr(), q3, || 0, slot, ROUND_SLICES, stop, rec))
        });
        let mut client = LoadClient::new(served.addr());
        let mut tally = Tally::default();
        for doc in &inputs.stream {
            let req = post("/ingest", doc.as_bytes());
            let trace = rec.fresh_id();
            let (outcome, resp, elapsed) = rec.span(trace, None, "http.ingest", |_| {
                client.check(&req, 201, None)
            });
            let oid = resp.and_then(|r| String::from_utf8(r.body).ok()?.trim().parse::<u32>().ok());
            let outcome = match (outcome, oid) {
                (Outcome::Ok, Some(oid)) => {
                    acked.push(docql_model::Oid(oid));
                    Outcome::Ok
                }
                (Outcome::Ok, None) => Outcome::WrongBytes,
                (other, _) => other,
            };
            tally.record(outcome, elapsed, TIMEOUT);
        }
        stop.store(true, Ordering::Relaxed);
        let reader = reader.map(|h| h.join().expect("read connection thread panicked"));
        m.reconnects += client.reconnects();
        (tally, reader)
    });
    m.ingest_rounds.push((ingests, is_traced));
    if let Some((tallies, reconnects)) = reader {
        // The reads that ran beside this round's stream, whole slices only.
        let full = (t0.elapsed().as_nanos() / SLICE.as_nanos()) as usize;
        m.read_slices.extend(
            tallies
                .into_iter()
                .take(full)
                .map(|t| (t, SLICE.as_secs_f64(), is_traced)),
        );
        m.reconnects += reconnects;
    }
    m.count_cache(&served, cache_before);

    // What recovery must reproduce, taken before the copy.
    let answers = inputs::templates()
        .iter()
        .map(|q| Ok((post("/query", q.text.as_bytes()), served.answer(&q.text)?)))
        .collect::<Res<Vec<_>>>()?;
    let texts: Vec<_> = {
        let live = served.store.read();
        acked.iter().map(|oid| live.text_of(*oid)).collect()
    };
    m.disk_bytes = disk_bytes(&served.dir)?;
    // The copy is taken while the server still runs, as a crash would
    // leave it (segment + WAL tail); the round's store is then released,
    // so it is not resident beside the cold-started copies.
    let copied = work.join("copied");
    copy_dir(&served.dir, &copied)?;
    served.stop();
    for i in 0..COLD_STARTS {
        let cold = work.join("cold");
        copy_dir(&copied, &cold)?;
        let trace = rec.fresh_id();
        let t = Instant::now();
        let started = rec.span(trace, None, "cold_start", |_| -> Res<Served> {
            let s = Served::start(&cold)?;
            let mut client = LoadClient::new(s.addr());
            let (req, expected) = &answers[2];
            match client.check(req, 200, Some(expected)).0 {
                Outcome::Ok => Ok(s),
                other => {
                    s.stop();
                    Err(format!("cold start: first Q3 answer {other:?}"))
                }
            }
        })?;
        m.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if i == 0 {
            let recovered = started.store.read();
            for (oid, text) in acked.iter().zip(&texts) {
                let same = text.is_some() && recovered.text_of(*oid) == *text;
                m.recovery_mismatches += u64::from(!same);
            }
            let mut client = LoadClient::new(started.addr());
            for (req, expected) in &answers {
                let ok = client.check(req, 200, Some(expected)).0 == Outcome::Ok;
                m.recovery_mismatches += u64::from(!ok);
            }
        }
        started.stop();
    }
    rec.set_enabled(false);
    Ok(())
}

/// Run `workload` for `seconds` of measurement in `work`. With
/// `alternate`, `rec` records spans in odd slices and rounds only (see
/// [`traced`]); otherwise it records nothing.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    work: &Path,
    rec: &Recorder,
    alternate: bool,
) -> Res<Measured> {
    let mut m = Measured::default();
    let served = set_up(&work.join("served"), inputs, &mut m)?;
    m.base_dir = work.join("base");
    copy_dir(&served.dir, &m.base_dir)?;
    // Rounds restart from the checkpointed base, so each ends at the same
    // store size; whole rounds run until their share of time is spent.
    let rounds_for = |m: &mut Measured, reads: bool, budget_s: f64| -> Res<()> {
        let start = Instant::now();
        while m.ingest_rounds.is_empty() || start.elapsed().as_secs_f64() < budget_s {
            // Each round's own peak, over a heap without the pages
            // earlier rounds freed.
            release_freed_memory();
            let sample_rss = m.round_peak_mb.len() < RSS_ROUNDS;
            if sample_rss {
                reset_peak_rss().map_err(ctx("reset peak RSS"))?;
            }
            ingest_round(inputs, reads, work, rec, alternate, m)?;
            if sample_rss {
                m.round_peak_mb
                    .push(peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?);
            }
            set_up_again(work, inputs, m)?;
        }
        Ok(())
    };
    match workload {
        Workload::QueryMix => {
            let requests = inputs
                .reads
                .iter()
                .map(|q| Ok((post("/query", q.text.as_bytes()), served.answer(&q.text)?)))
                .collect::<Res<Vec<_>>>()?;
            let mix = Mix::new(&inputs.reads);
            let mut rngs: Vec<SeededRng> = (0..2).map(|c| inputs.draw_rng(c)).collect();
            // Reads and rounds alternate through the run, so a stretch of
            // outside load cannot fall on one of them alone.
            for cycle in 0..CYCLES {
                let read_s = seconds * READ_SHARE / CYCLES as f64;
                let warmup = cycle == 0;
                read_window(
                    &served, &requests, &mix, &mut rngs, read_s, warmup, rec, alternate, &mut m,
                );
                rounds_for(&mut m, false, seconds * (1.0 - READ_SHARE) / CYCLES as f64)?;
            }
            served.stop();
        }
        Workload::IngestUnderReads => {
            served.stop();
            rounds_for(&mut m, true, seconds)?;
        }
    }
    Ok(m)
}
