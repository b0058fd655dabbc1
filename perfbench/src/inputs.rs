//! Seeded inputs: the article corpus, the ingest stream and the query
//! texts. The program only ever sees the SGML and query text made here.

use docql_corpus::{generate_article, mutate, ArticleParams, Mutation, SeededRng};
use docql_text::ContainsExpr;

/// The paper's queries Q1–Q5 as bench B6 runs them.
pub const TEMPLATES: [(&str, &str); 5] = [
    (
        "Q1",
        "select tuple (t: a.title, f_author: first(a.authors)) \
         from a in Articles, s in a.sections \
         where s.title contains (\"SGML\" and \"OODBMS\")",
    ),
    (
        "Q2",
        "select ss from a in Articles, s in a.sections, ss in s.subsectns \
         where text(ss) contains (\"complex object\")",
    ),
    ("Q3", "select t from my_article PATH_p.title(t)"),
    ("Q4", "my_article PATH_p - my_old_article PATH_p"),
    (
        "Q5",
        "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
         where val contains (\"draft\")",
    ),
];

/// The Q3 text, the point lookup.
pub const Q3: &str = TEMPLATES[2].1;

/// Words the article generator writes, so every `contains` term matches
/// somewhere and no query text fails.
const TERMS: &[&str] = &[
    "SGML",
    "OODBMS",
    "complex object",
    "HyTime",
    "structured",
    "documents",
    "database",
    "object",
    "oriented",
    "query",
    "languages",
    "pattern",
    "matching",
    "logical",
    "structure",
    "hierarchical",
    "elements",
    "attributes",
    "schema",
    "instances",
    "paths",
    "navigation",
    "retrieval",
    "indexing",
    "textual",
    "model",
    "union",
    "markup",
];

/// Q3 path tails: each element type that carries text.
const TAILS: &[&str] = &["title", "abstract", "affil", "caption", "paragr"];

/// Articles in the store behind `query_mix`.
pub const READ_BASE_DOCS: usize = 100;
/// Articles checkpointed behind `ingest_under_reads`.
pub const INGEST_BASE_DOCS: usize = 200;
/// Articles posted to `/ingest` per ingest round.
pub const STREAM_DOCS: usize = 150;
/// Most variants of one template in the `query_mix` pool. Q1's and Q2's
/// 160 each put the pool above the 256-entry plan cache, so the draw both
/// hits and misses.
pub const VARIANTS: usize = 160;
/// Zipf exponent of the draw over one template's variants. No measured
/// traffic exists to fit it; 1 is the classic choice, an assumption.
const ZIPF_S: f64 = 1.0;

fn article(seed: u64, i: u64) -> String {
    let doc = generate_article(&article_params(seed, i));
    doc.to_sgml()
}

fn article_params(seed: u64, i: u64) -> ArticleParams {
    ArticleParams {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i,
        sections: 5,
        subsections: 2,
        plant_every: if i.is_multiple_of(2) { 3 } else { 0 },
        ..ArticleParams::default()
    }
}

/// A store's documents: `base` articles, then a revised copy of the
/// first one (an added section, as bench B6 builds Q4's two versions).
/// `my_old_article` binds the first document and `my_article` the last.
pub fn base_docs(seed: u64, base: usize) -> Vec<String> {
    let mut docs: Vec<String> = (0..base as u64).map(|i| article(seed, i)).collect();
    let old = generate_article(&article_params(seed, 0));
    let new = mutate(&old, &Mutation::AddSection("Delta".to_string()));
    docs.push(new.to_sgml());
    docs
}

/// Articles for `/ingest`, distinct from every base document.
pub fn stream_docs(seed: u64, n: usize) -> Vec<String> {
    (0..n as u64)
        .map(|i| article(seed, 1_000_000 + i))
        .collect()
}

/// One query text with the `contains` operand it carries, if any.
#[derive(Debug, Clone)]
pub struct QueryText {
    /// The template it varies (`Q1`…`Q5`).
    pub template: &'static str,
    /// The O₂SQL text sent to the server.
    pub text: String,
    /// Its `contains` operand, for replaying the text layer alone.
    pub contains: Option<ContainsExpr>,
}

fn quoted(terms: &[&str], op: &str) -> String {
    let q: Vec<String> = terms.iter().map(|t| format!("\"{t}\"")).collect();
    q.join(&format!(" {op} "))
}

fn expr(terms: &[&str], and: bool) -> ContainsExpr {
    let items = terms
        .iter()
        .map(|t| ContainsExpr::pattern(t).expect("corpus terms are plain words"))
        .collect();
    if and {
        ContainsExpr::And(items)
    } else {
        ContainsExpr::Or(items)
    }
}

fn pick<'a>(rng: &mut SeededRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// The Q1–Q5 templates themselves.
pub fn templates() -> Vec<QueryText> {
    let contains = [
        Some(expr(&["SGML", "OODBMS"], true)),
        Some(expr(&["complex object"], true)),
        None,
        None,
        Some(expr(&["draft"], true)),
    ];
    TEMPLATES
        .iter()
        .zip(contains)
        .map(|(&(template, text), contains)| QueryText {
            template,
            text: text.to_string(),
            contains,
        })
        .collect()
}

/// One variant of `template` (`Q1`, `Q2` or `Q5`) with seeded terms.
fn variant(template: &str, rng: &mut SeededRng) -> QueryText {
    let (a, b) = (pick(rng, TERMS), pick(rng, TERMS));
    match template {
        "Q1" => QueryText {
            template: "Q1",
            text: format!(
                "select tuple (t: a.title, f_author: first(a.authors)) \
                 from a in Articles, s in a.sections \
                 where s.title contains ({})",
                quoted(&[a, b], "and")
            ),
            contains: Some(expr(&[a, b], true)),
        },
        "Q2" => {
            let terms: Vec<&str> = if a == b { vec![a] } else { vec![a, b] };
            QueryText {
                template: "Q2",
                text: format!(
                    "select ss from a in Articles, s in a.sections, ss in s.subsectns \
                     where text(ss) contains ({})",
                    quoted(&terms, "or")
                ),
                contains: Some(expr(&terms, false)),
            }
        }
        _ => QueryText {
            template: "Q5",
            text: format!(
                "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
                 where val contains ({})",
                quoted(&[a], "and")
            ),
            contains: Some(expr(&[a], true)),
        },
    }
}

/// The `query_mix` pool: each template's variants in popularity-rank
/// order, the paper's text first. Q3 varies its path tail and Q4 its
/// operand order; Q1, Q2 and Q5 vary their `contains` terms, up to
/// [`VARIANTS`] each (Q5 has one term, so only as many as there are
/// terms). The pool is the same for every run seed: which terms sit at the
/// hot ranks would otherwise move the mix's cost from seed to seed. The
/// seed varies the corpus and the draw.
pub fn query_pool() -> Vec<QueryText> {
    let mut rng = SeededRng::seed_from_u64(0x517E_D0C0);
    let mut pool = Vec::new();
    for paper in templates() {
        let t = paper.template;
        let mut seen = std::collections::HashSet::from([paper.text.clone()]);
        pool.push(paper);
        match t {
            "Q3" => pool.extend(TAILS.iter().skip(1).map(|tail| QueryText {
                template: "Q3",
                text: format!("select t from my_article PATH_p.{tail}(t)"),
                contains: None,
            })),
            "Q4" => pool.push(QueryText {
                template: "Q4",
                text: "my_old_article PATH_p - my_article PATH_p".to_string(),
                contains: None,
            }),
            _ => {
                let cap = if t == "Q5" { TERMS.len() + 1 } else { VARIANTS };
                // Draw until the template has `cap` texts, or the terms
                // give no new one for a long while (Q5's terms run out).
                let mut misses = 0;
                while seen.len() < cap && misses < 10_000 {
                    let q = variant(t, &mut rng);
                    if seen.insert(q.text.clone()) {
                        pool.push(q);
                    } else {
                        misses += 1;
                    }
                }
            }
        }
    }
    pool
}

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q1–Q5 mix over two connections.
    QueryMix,
    /// `/ingest` stream on one connection, Q3 on another.
    IngestUnderReads,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "query_mix" => Some(Workload::QueryMix),
            "ingest_under_reads" => Some(Workload::IngestUnderReads),
            _ => None,
        }
    }
}

/// A workload's seeded inputs.
pub struct Inputs {
    /// The store's documents (see [`base_docs`]).
    pub base: Vec<String>,
    /// Documents posted to `/ingest`.
    pub stream: Vec<String>,
    /// Texts the read connections draw from.
    pub reads: Vec<QueryText>,
    /// The run seed.
    pub seed: u64,
}

impl Inputs {
    /// Inputs for `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let (base, reads) = match workload {
            Workload::QueryMix => (READ_BASE_DOCS, query_pool()),
            Workload::IngestUnderReads => (
                INGEST_BASE_DOCS,
                templates().into_iter().filter(|q| q.text == Q3).collect(),
            ),
        };
        Inputs {
            base: base_docs(seed, base),
            stream: stream_docs(seed, STREAM_DOCS),
            reads,
            seed,
        }
    }

    /// SGML bytes the store holds after the ingest stream.
    pub fn input_bytes(&self) -> usize {
        self.base.iter().chain(&self.stream).map(String::len).sum()
    }

    /// The random stream behind read connection `conn`'s draws.
    pub fn draw_rng(&self, conn: u64) -> SeededRng {
        SeededRng::seed_from_u64(self.seed ^ (0xC0DE << 8) ^ conn)
    }
}

/// A Zipf draw over ranks `0..n`, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n`, weight of rank `k` proportional to `1/(k+1)^s`.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The next rank.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The read draw: a template chosen evenly, then one of its variants by a
/// [`Zipf`] draw over their rank order. Nothing measured fixes the
/// template shares, so they are the simplest, equal.
pub struct Mix {
    /// Per template, the indices of its texts in rank order, and their draw.
    templates: Vec<(Vec<usize>, Zipf)>,
}

impl Mix {
    /// The draw over `reads`, grouped by template in order of appearance.
    pub fn new(reads: &[QueryText]) -> Mix {
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (i, q) in reads.iter().enumerate() {
            match groups.iter_mut().find(|g| g.0 == q.template) {
                Some(g) => g.1.push(i),
                None => groups.push((q.template, vec![i])),
            }
        }
        Mix {
            templates: groups
                .into_iter()
                .map(|(_, idx)| {
                    let zipf = Zipf::new(idx.len());
                    (idx, zipf)
                })
                .collect(),
        }
    }

    /// The index into the reads of the next text.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let (idx, zipf) = &self.templates[rng.gen_range(0..self.templates.len())];
        idx[zipf.sample(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let texts: Vec<String> = query_pool().into_iter().map(|q| q.text).collect();
        let distinct: std::collections::HashSet<&String> = texts.iter().collect();
        assert_eq!(distinct.len(), texts.len());
        // Q1, Q2: VARIANTS each; Q3: 5 tails; Q4: 2; Q5: 28 terms + "draft".
        assert_eq!(texts.len(), 2 * VARIANTS + 5 + 2 + 29);
        assert!(texts.len() > 256, "the pool must exceed the plan cache");
        assert_ne!(base_docs(7, 2), base_docs(8, 2));
        assert_eq!(stream_docs(3, 2), stream_docs(3, 2));
        let base = base_docs(3, 4);
        assert_eq!(base.len(), 5);
        assert!(stream_docs(3, 4).iter().all(|d| !base.contains(d)));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(VARIANTS);
        let mut rng = SeededRng::seed_from_u64(1);
        let mut counts = vec![0usize; VARIANTS];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 10 * counts[VARIANTS - 1].max(1));
        assert!(counts.iter().filter(|&&c| c > 0).count() > VARIANTS / 2);
    }

    #[test]
    fn mix_draws_templates_evenly_and_variants_skewed() {
        let pool = query_pool();
        let mix = Mix::new(&pool);
        let mut rng = SeededRng::seed_from_u64(2);
        let n = 50_000;
        let mut per_template = std::collections::HashMap::new();
        let mut q1 = Vec::new();
        for _ in 0..n {
            let q = &pool[mix.sample(&mut rng)];
            *per_template.entry(q.template).or_insert(0usize) += 1;
            if q.template == "Q1" {
                q1.push(q.text.clone());
            }
        }
        assert_eq!(per_template.len(), 5);
        for (t, c) in &per_template {
            let share = *c as f64 / n as f64;
            assert!((share - 0.2).abs() < 0.01, "{t}: {share}");
        }
        // Q1's paper text is its rank 0, drawn most often.
        let paper = q1.iter().filter(|t| **t == TEMPLATES[0].1).count();
        let other = q1.iter().filter(|t| **t == pool[VARIANTS - 1].text).count();
        assert!(paper > 10 * other.max(1));
    }
}
