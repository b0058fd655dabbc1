//! Differential suite for the `contains` kernel: a literal pattern (which
//! takes the substring-search path and is compiled once per query) answers
//! byte for byte like the same pattern with its last character written as
//! the class `[c]` (which runs the NFA simulation). Checked on Q1, Q2 and
//! Q5 variants in both evaluation modes, together with queries holding two
//! distinct patterns and a malformed one.

use docql_corpus::{generate_article, ArticleParams};
use docql_guard::QueryLimits;
use docql_o2sql::Mode;
use docql_sgml::fixtures::ARTICLE_DTD;
use docql_store::{DocStore, StoreError};
use docql_text::Pattern;

type Run = fn(&DocStore, &str) -> Result<docql_o2sql::QueryResult, StoreError>;

const MODES: [(&str, Run); 2] = [
    ("interpret", DocStore::query),
    ("algebraic", |store, q| {
        store
            .query_traced(q, Mode::Algebraic, &QueryLimits::none())
            .0
    }),
];

fn store() -> DocStore {
    let mut store = DocStore::new(ARTICLE_DTD, &["my_article"]).unwrap();
    let mut roots = Vec::new();
    for seed in 0..8u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 4,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 2 } else { 0 },
            ..ArticleParams::default()
        });
        roots.push(store.ingest_document(&doc).unwrap());
    }
    store.bind("my_article", roots[0]).unwrap();
    store
}

fn q1(a: &str, b: &str) -> String {
    format!(
        "select tuple (t: a.title, f_author: first(a.authors)) \
         from a in Articles, s in a.sections \
         where s.title contains (\"{a}\" and \"{b}\")"
    )
}

fn q2(term: &str) -> String {
    format!(
        "select ss from a in Articles, s in a.sections, ss in s.subsectns \
         where text(ss) contains (\"{term}\")"
    )
}

fn q5(term: &str) -> String {
    format!(
        "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
         where val contains (\"{term}\")"
    )
}

/// `term` with its last character written as a one-character class.
fn classed(term: &str) -> String {
    let mut chars: Vec<char> = term.chars().collect();
    let last = chars.pop().unwrap();
    format!("{}[{last}]", chars.into_iter().collect::<String>())
}

fn table(store: &DocStore, run: Run, q: &str) -> String {
    run(store, q)
        .unwrap_or_else(|e| panic!("{q}: {e}"))
        .to_table()
}

#[test]
fn literal_terms_answer_like_their_classed_forms() {
    let store = store();
    let mut cases = Vec::new();
    for (a, b) in [
        ("SGML", "OODBMS"),
        ("structured", "documents"),
        ("é", "SGML"),
    ] {
        cases.push((q1(a, b), q1(&classed(a), &classed(b))));
    }
    for term in ["complex object", "object", "retrieval", "zz"] {
        cases.push((q2(term), q2(&classed(term))));
    }
    for term in ["draft", "final", "a"] {
        cases.push((q5(term), q5(&classed(term))));
    }
    let mut non_empty = 0;
    for (name, run) in MODES {
        for (literal, classed) in &cases {
            let fast = run(&store, literal).unwrap();
            non_empty += usize::from(!fast.is_empty());
            let slow = table(&store, run, classed);
            assert_eq!(fast.to_table(), slow, "{name}: {literal}");
        }
    }
    assert!(non_empty >= 10, "too few cases match anything: {non_empty}");
}

#[test]
fn two_distinct_patterns_in_one_query_stay_distinct() {
    let store = store();
    for (name, run) in MODES {
        let sgml = run(&store, &q1("SGML", "SGML")).unwrap();
        assert!(!sgml.is_empty(), "{name}: corpus plants SGML");
        // A memo that confused the two patterns would answer like one of
        // them alone.
        assert!(run(&store, &q1("SGML", "quagga")).unwrap().is_empty());
        assert!(run(&store, &q1("quagga", "SGML")).unwrap().is_empty());
        assert_eq!(
            table(&store, run, &q1("OODBMS", "SGML")),
            table(&store, run, &q1("SGML", "OODBMS")),
            "{name}"
        );
    }
}

#[test]
fn a_malformed_pattern_fails_on_every_evaluation() {
    let store = store();
    let err = Pattern::parse("SGM[L").unwrap_err();
    let expected = format!("contains: bad pattern: {err}");
    for (name, run) in MODES {
        for q in [q1("SGM[L", "OODBMS"), q1("OODBMS", "SGM[L"), q2("SGM[L")] {
            // Twice: a failed compile is never memoized as a success.
            for _ in 0..2 {
                let e = run(&store, &q).expect_err(&q).to_string();
                assert!(e.contains(&expected), "{name}: {q}: {e}");
            }
        }
        // The store still answers afterwards.
        assert!(!run(&store, &q1("SGML", "OODBMS")).unwrap().is_empty());
    }
}
