//! Criterion benches for the read path: full traversals and path-query
//! evaluation over the pointer DOM, the succinct DOM (BP shape), the LOUDS
//! encoding and the compressed grammar (extension experiment; not a table of
//! the paper, but quantifies the cost of reading through the compression that
//! the paper's DOM use case relies on).
//!
//! Both groups are part of the committed `BENCH_compression.json` baseline
//! and gated in CI (`bench_gate`): a >20 % regression on any entry fails.
//!
//! * `traversal` — visit every node in document order and sum label lengths.
//!   The grammar side builds its [`NavTables`] once (what a `DomStore`
//!   snapshot caches) and streams through `PreorderLabels::with_tables`;
//!   `to_xml` prints the whole document through `write_xml` over the same
//!   tables (what a `ToXml` request costs on a snapshot with cached tables).
//! * `query` — materialize path queries on XMark: the memoized
//!   output-sensitive `evaluate` (tables prebuilt once, memo per call), the
//!   cursor-based `evaluate_streaming` oracle, the grammar-only `count`, and
//!   the uncompressed pointer-tree evaluation as the baseline.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::catalog::Dataset;
use grammar_repair::navigate::{write_xml, NavTables, PreorderLabels};
use grammar_repair::query::PathQuery;
use grammar_repair::repair::GrammarRePair;
use succinct_xml::louds::LoudsTree;
use succinct_xml::SuccinctDom;

fn bench_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for dataset in [Dataset::ExiWeblog, Dataset::XMark] {
        let xml = dataset.generate(0.1);
        let dom = SuccinctDom::build(&xml);
        let louds = LoudsTree::from_xml(&xml);
        let (grammar, _) = GrammarRePair::default().compress_xml(&xml);
        let tables = Arc::new(NavTables::build(&grammar));

        group.bench_with_input(BenchmarkId::new("pointer_dom", dataset.name()), &xml, |b, xml| {
            b.iter(|| {
                let mut count = 0usize;
                for n in xml.preorder() {
                    count += xml.label(n).len();
                }
                count
            })
        });
        group.bench_with_input(BenchmarkId::new("succinct_dom", dataset.name()), &dom, |b, dom| {
            b.iter(|| {
                let mut count = 0usize;
                for v in dom.preorder() {
                    count += dom.label(v).len();
                }
                count
            })
        });
        // LOUDS level-order sweep: every step is select0/rank0 arithmetic on
        // the unary degree sequences — the honest number for the second
        // succinct baseline now that the zero directory exists.
        group.bench_with_input(BenchmarkId::new("louds_bfs", dataset.name()), &louds, |b, louds| {
            b.iter(|| {
                let mut degrees = 0usize;
                for i in 0..louds.node_count() {
                    let v = louds.node_at_level_order(i).expect("index in range");
                    degrees += louds.degree(v);
                }
                degrees
            })
        });
        group.bench_with_input(
            BenchmarkId::new("grammar_cursor", dataset.name()),
            &(&grammar, &tables),
            |b, (grammar, tables)| {
                b.iter(|| {
                    let mut count = 0usize;
                    for t in PreorderLabels::with_tables(grammar, Arc::clone(tables)) {
                        count += grammar.symbols.name(t).len();
                    }
                    count
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("to_xml", dataset.name()),
            &(&grammar, &tables),
            |b, (grammar, tables)| {
                b.iter(|| {
                    let mut text = String::new();
                    write_xml(grammar, tables, usize::MAX, &mut text).expect("corpus documents");
                    text.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let xml = Dataset::XMark.generate(0.2);
    let (grammar, _) = GrammarRePair::default().compress_xml(&xml);
    let tables = NavTables::build(&grammar);
    for text in ["//item/name", "/site/regions//keyword", "//person"] {
        let query = PathQuery::parse(text).unwrap();
        group.bench_with_input(BenchmarkId::new("grammar_count", text), &query, |b, query| {
            b.iter(|| query.count(&grammar))
        });
        group.bench_with_input(
            BenchmarkId::new("grammar_evaluate", text),
            &query,
            |b, query| b.iter(|| query.evaluate_with_tables(&grammar, &tables).len()),
        );
        group.bench_with_input(BenchmarkId::new("grammar_stream", text), &query, |b, query| {
            b.iter(|| query.evaluate_streaming(&grammar).len())
        });
        group.bench_with_input(BenchmarkId::new("uncompressed", text), &query, |b, query| {
            b.iter(|| query.evaluate_uncompressed(&xml).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_traversal, bench_queries);
criterion_main!(benches);
