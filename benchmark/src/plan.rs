//! Workload plans: corpus, request scripts and the uncompressed oracle,
//! all generated before any clock starts.
//!
//! A plan is a *fixed script* for one **round** (a complete
//! load → write → read → kill → recover pass on a fresh server): the same
//! `(workload, seed, corpus)` always yields the same documents, the same
//! requests in the same order and the same expected replies, so
//! `attempted` and every state metric repeat run to run. A run replays the
//! plan for several identical rounds; `--seconds` sets how many. The
//! server never sees seed or corpus number, only generated inputs.
//!
//! # What the seed changes, and what `--corpus` does
//!
//! `--seed` **shuffles the read script**, whose multiset of
//! `(document, path)` requests is fixed. The corpus, each document's op
//! stream and the round-robin order of the write script are drawn from the
//! **corpus number** (`--corpus`, default 0) instead: corpus 0 is what every
//! run measures, corpus 1 is reserved as the unseen input set a later claim
//! must also hold on (different documents, different op streams, same
//! document counts, batch sizes and script lengths).
//!
//! The two are separate because this system's work is a discontinuous
//! function of its inputs, and the benchmark's acceptance test compares ten
//! runs of ten *different* seeds. With corpus and streams drawn from the
//! seed, ten seeds gave interquartile ranges of 16–39 % of the median on
//! the write metrics of `paper_mix` (a document's stream decides how fast
//! its grammar grows and whether its last, most expensive recompression
//! still falls inside the script), 30–34 % on those of `bulk_load_restart`,
//! and 96 % on its `recover_ms` (22 ms or 290 ms, depending on whether a
//! tail batch crosses the recompression threshold during replay) — against
//! a largest permitted bound of 25 %. Shuffling the order in which the
//! documents' batches interleave kept the work constant but still moved
//! `write_ack_p50_ms` by 18 %: with four batches in flight an ack waits
//! behind whichever recompressions happen to precede it.

use datasets::random::{medline_like, treebank_like, xmark_like};
use datasets::regular::{exi_telecomp_like, exi_weblog_like, ncbi_like};
use datasets::workload::{random_update_sequence, WorkloadMix};
use grammar_repair::query::PathQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sltgrammar::{NodeKind, SymbolTable};
use xmltree::binary::{from_binary, to_binary};
use xmltree::updates::{apply_update, UpdateOp};
use xmltree::XmlTree;

/// Wall time of one round of any workload on the commit that introduced
/// the benchmark (reference host, undisturbed); `--seconds` divided by this
/// is the number of rounds a run replays.
pub const ROUND_SECONDS: f64 = 4.4;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper_mix",
    "point_writes",
    "read_mostly",
    "bulk_load_restart",
];

/// Four fixed paths per document family, ordered from few to many matches.
pub fn family_paths(family: &str) -> &'static [&'static str; 4] {
    match family {
        "xmark" => &["/site/people", "//mailbox/mail", "//item/name", "//text"],
        "medline" => &[
            "/medline_citation_set/citation/article/abstract",
            "//pub_date/month",
            "//author/last_name",
            "//citation//year",
        ],
        "treebank" => &["/corpus/S/SBAR", "//VP/NP", "//NP", "//S//NN"],
        "weblog" => &["/log", "/log/entry/status", "//entry/date", "//entry/*"],
        "telecomp" => &[
            "/telecomp",
            "//record/header/station",
            "//measurement/quality",
            "//value/*",
        ],
        "ncbi" => &[
            "/snp_db",
            "/snp_db/snp/rsid",
            "//position/offset",
            "//snp/*",
        ],
        other => panic!("no query paths for family `{other}`"),
    }
}

/// One corpus document and the family whose query paths apply to it.
pub struct CorpusDoc {
    pub family: &'static str,
    pub tree: XmlTree,
}

/// One `ApplyBatch` request of a write script.
pub struct WriteReq {
    /// Index into [`Plan::docs`].
    pub doc: usize,
    pub ops: Vec<UpdateOp>,
}

/// One request of the read script.
#[derive(Clone, Copy)]
pub enum ReadReq {
    /// `Query` with the document family's path number `path`.
    Query {
        doc: usize,
        path: usize,
    },
    ToXml {
        doc: usize,
    },
}

impl ReadReq {
    pub fn doc(&self) -> usize {
        match *self {
            ReadReq::Query { doc, .. } | ReadReq::ToXml { doc } => doc,
        }
    }
}

/// What the uncompressed oracle says a document looks like at one point of
/// its write script.
pub struct DocState {
    pub xml: String,
    pub edges: usize,
    /// Match count of each of the family's four paths.
    pub counts: [usize; 4],
}

/// How the write phase is driven.
#[derive(Clone, Copy)]
pub enum WriteLoop {
    /// Each connection keeps `depth` batches in flight and sends the next
    /// one when the oldest is acked.
    Closed { depth: usize },
    /// One connection sends on a fixed schedule of `rate` batches per
    /// second whatever the replies do; latency counts from the due time.
    Open { rate: f64 },
}

/// Everything one run replays (see the module docs).
pub struct Plan {
    pub workload: &'static str,
    pub docs: Vec<CorpusDoc>,
    /// One write script per client connection; a document belongs to
    /// exactly one connection, so its batches reach the server in order.
    pub writes: Vec<Vec<WriteReq>>,
    pub write_loop: WriteLoop,
    pub reads: Vec<ReadReq>,
    /// Reads run on a second connection *while* the write script runs
    /// (`read_mostly`) instead of after it.
    pub reads_concurrent: bool,
    /// Reads run after the restart instead of before the kill
    /// (`bulk_load_restart`).
    pub reads_after_restart: bool,
    /// Batches applied after the mid-run checkpoint; they are the
    /// un-checkpointed WAL tail recovery has to replay.
    pub tail: Vec<WriteReq>,
    /// Oracle states per document. `states[d][0]` is the loaded document;
    /// with concurrent reads there is one state per batch of `d`'s write
    /// script (a reply must equal one of them), otherwise only the state
    /// after the whole write script. The second-to-last entry is always the
    /// state after the write script, the last the state after the tail —
    /// what must survive the kill.
    pub states: Vec<Vec<DocState>>,
}

impl Plan {
    /// State of `doc` after the tail — the final, durable state.
    pub fn final_state(&self, doc: usize) -> &DocState {
        self.states[doc].last().expect("every doc has states")
    }

    pub fn write_ops(&self) -> usize {
        self.writes.iter().flatten().map(|w| w.ops.len()).sum()
    }

    pub fn corpus_edges(&self) -> usize {
        self.docs.iter().map(|d| d.tree.edge_count()).sum()
    }

    pub fn path(&self, doc: usize, path: usize) -> &'static str {
        family_paths(self.docs[doc].family)[path]
    }
}

/// Replays a document's ops on the uncompressed reference tree.
struct OracleDoc {
    symbols: SymbolTable,
    bin: sltgrammar::RhsTree,
    queries: [PathQuery; 4],
}

impl OracleDoc {
    fn new(doc: &CorpusDoc) -> Self {
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&doc.tree, &mut symbols).expect("corpus documents are valid");
        let queries =
            family_paths(doc.family).map(|p| PathQuery::parse(p).expect("fixed paths parse"));
        OracleDoc {
            symbols,
            bin,
            queries,
        }
    }

    /// Applies `ops`; `false` when one of them gave the root a sibling.
    ///
    /// [`random_update_sequence`] may insert before the document root or
    /// into the empty slot after it. Either turns the document into a
    /// forest whose serialisation keeps only the first tree while queries
    /// still see all of it — server and oracle alike then disagree with
    /// themselves about what the document is, so such a stream is not a
    /// valid input.
    fn apply(&mut self, ops: &[UpdateOp]) -> bool {
        for op in ops {
            apply_update(&mut self.bin, &mut self.symbols, op)
                .expect("generated operations are valid by construction");
            let after_root = self.bin.children(self.bin.root())[1];
            if !matches!(self.bin.kind(after_root), NodeKind::Term(t) if self.symbols.is_null(t)) {
                return false;
            }
        }
        true
    }

    fn state(&self) -> DocState {
        let tree = from_binary(&self.bin, &self.symbols).expect("oracle tree stays binary XML");
        DocState {
            xml: tree.to_xml(),
            edges: tree.edge_count(),
            counts: [0, 1, 2, 3].map(|i| self.queries[i].evaluate_uncompressed(&tree).len()),
        }
    }
}

/// Mixes a seed with a per-use salt so unrelated uses draw from unrelated
/// streams.
fn salt(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// What the corpus number (documents, op streams) and the seed (read
/// order) are salted with.
const DOCUMENTS: u64 = 1;
const STREAMS: u64 = 2;
const READ_ORDER: u64 = 3;

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// How many batches of the write script and of the WAL tail one document
/// gets.
#[derive(Clone, Copy)]
struct Share {
    batches: usize,
    tail: usize,
}

/// Generates every document's batches of `batch_len` ops from the corpus
/// number, replays them on the oracle and deals the write-script batches
/// round-robin over the documents to `conns` connections (document `d` to
/// connection `d % conns`).
fn scripts(
    docs: &[CorpusDoc],
    shares: &[Share],
    mix: WorkloadMix,
    batch_len: usize,
    conns: usize,
    state_per_batch: bool,
    corpus: u64,
) -> (Vec<Vec<WriteReq>>, Vec<WriteReq>, Vec<Vec<DocState>>) {
    let mut per_doc: Vec<Vec<Vec<UpdateOp>>> = Vec::with_capacity(docs.len());
    let mut states = Vec::with_capacity(docs.len());
    for (d, (doc, share)) in docs.iter().zip(shares).enumerate() {
        let total = (share.batches + share.tail) * batch_len;
        // Redraw the stream (deterministically) until the document stays
        // single-rooted throughout; see `OracleDoc::apply`.
        let (chunks, doc_states) = (0u64..)
            .find_map(|redraw| {
                let stream = salt(salt(salt(corpus, STREAMS), d as u64), redraw);
                let ops = random_update_sequence(&doc.tree, total, stream, mix);
                let chunks: Vec<Vec<UpdateOp>> =
                    ops.chunks(batch_len).map(<[UpdateOp]>::to_vec).collect();
                let mut oracle = OracleDoc::new(doc);
                let mut doc_states = vec![oracle.state()];
                for (b, chunk) in chunks.iter().enumerate() {
                    if !oracle.apply(chunk) {
                        return None;
                    }
                    if (state_per_batch && b < share.batches) || b + 1 == share.batches {
                        doc_states.push(oracle.state());
                    }
                }
                doc_states.push(oracle.state());
                Some((chunks, doc_states))
            })
            .expect("some stream keeps the document single-rooted");
        states.push(doc_states);
        per_doc.push(chunks);
    }

    let mut writes: Vec<Vec<WriteReq>> = (0..conns).map(|_| Vec::new()).collect();
    let mut tail = Vec::new();
    let longest = shares.iter().map(|s| s.batches + s.tail).max().unwrap_or(0);
    for b in 0..longest {
        for (doc, (chunks, share)) in per_doc.iter_mut().zip(shares).enumerate() {
            let Some(ops) = chunks.get_mut(b).map(std::mem::take) else {
                continue;
            };
            if b < share.batches {
                writes[doc % conns].push(WriteReq { doc, ops });
            } else {
                tail.push(WriteReq { doc, ops });
            }
        }
    }
    (writes, tail, states)
}

/// A read script in seed-shuffled order over a fixed multiset: document
/// `d` gets `per_doc[d]` rounds of its family's four `Query` paths, and one
/// `ToXml` every `to_xml_every` rounds.
fn read_script(per_doc: &[usize], to_xml_every: usize, seed: u64) -> Vec<ReadReq> {
    let mut reads = Vec::new();
    for (doc, &rounds) in per_doc.iter().enumerate() {
        for round in 0..rounds {
            reads.extend((0..4).map(|path| ReadReq::Query { doc, path }));
            if round % to_xml_every == 0 {
                reads.push(ReadReq::ToXml { doc });
            }
        }
    }
    shuffle(
        &mut reads,
        &mut StdRng::seed_from_u64(salt(seed, READ_ORDER)),
    );
    reads
}

/// Builds the one-round plan of `workload` on corpus number `corpus`, its
/// reads in the order `seed` gives.
pub fn build(workload: &str, seed: u64, corpus: u64) -> Option<Plan> {
    // Document `n` of the corpus: a generator seed for the random
    // families, a record count within ±10 % of `base` for the regular ones.
    let c = |n: u64| salt(salt(corpus, DOCUMENTS), n);
    let records = |n: u64, base: usize| base * 9 / 10 + (c(n) % (base as u64 / 5 + 1)) as usize;
    let doc = |family: &'static str, tree: XmlTree| CorpusDoc { family, tree };
    Some(match workload {
        // The paper's Section V-C experiment through the full stack: the
        // three moderately compressing families, 90/10 insert/delete with
        // half the targets clustered, 32-op batches, one connection. Every
        // third batch or so a document's debt crosses the scheduler
        // threshold and the drain recompresses it inline, so GrammarRePair
        // does most of the work and the service stack little.
        "paper_mix" => {
            // Four documents of each family, in three sizes.
            let docs: Vec<CorpusDoc> = (0..12)
                .map(|n| {
                    let size = (n / 3 % 3) as usize;
                    match n % 3 {
                        0 => doc("xmark", xmark_like(5 + size, c(n))),
                        1 => doc("medline", medline_like(40 + 10 * size, c(n))),
                        _ => doc("treebank", treebank_like(4 + size, c(n))),
                    }
                })
                .collect();
            let shares: Vec<Share> = (0..docs.len())
                .map(|d| Share {
                    batches: 6,
                    tail: 1 + usize::from(d < 6),
                })
                .collect();
            let (writes, tail, states) = scripts(
                &docs,
                &shares,
                WorkloadMix::paper_mix(0.5),
                32,
                1,
                false,
                corpus,
            );
            Plan {
                workload: "paper_mix",
                reads: read_script(&vec![40; docs.len()], 4, seed),
                docs,
                writes,
                write_loop: WriteLoop::Closed { depth: 4 },
                reads_concurrent: false,
                reads_after_restart: false,
                tail,
                states,
            }
        }
        // Many small documents, one op per request, Figure 6's renames to
        // fresh labels plus inserts: per-document debt stays below the
        // recompression threshold, so the socket, queue, WAL, store publish
        // and single-op isolation do the work and GrammarRePair almost none.
        "point_writes" => {
            let docs: Vec<CorpusDoc> = (0..64).map(|d| doc("xmark", xmark_like(4, c(d)))).collect();
            let mix = WorkloadMix {
                rename_probability: 0.7,
                insert_probability: 1.0,
                ..WorkloadMix::default()
            };
            let shares = vec![
                Share {
                    batches: 50,
                    tail: 2
                };
                docs.len()
            ];
            let (writes, tail, states) = scripts(&docs, &shares, mix, 1, 2, false, corpus);
            Plan {
                workload: "point_writes",
                reads: read_script(&vec![16; docs.len()], 4, seed),
                docs,
                writes,
                write_loop: WriteLoop::Closed { depth: 8 },
                reads_concurrent: false,
                reads_after_restart: false,
                tail,
                states,
            }
        }
        // Reads beside writes: an open-loop writer at a fixed batch rate on
        // the four hottest documents and a closed-loop reader over all
        // eight, Zipf-skewed, whose navigation tables stay hot except right
        // after a write publishes a new snapshot or a recompression swaps
        // one in. A write-side gain bought by pushing table rebuilds or
        // lazy work onto readers shows in the read metrics here.
        "read_mostly" => {
            // XMark and Medline in turn, shrinking with the Zipf rank.
            let docs: Vec<CorpusDoc> = (0..8)
                .map(|n| {
                    let step = (n / 2) as usize;
                    if n % 2 == 0 {
                        doc("xmark", xmark_like(8 - step, c(n)))
                    } else {
                        doc("medline", medline_like(60 - 10 * step, c(n)))
                    }
                })
                .collect();
            let shares: Vec<Share> = (0..docs.len())
                .map(|d| {
                    if d < 4 {
                        Share {
                            batches: 30,
                            tail: 16,
                        }
                    } else {
                        Share {
                            batches: 1,
                            tail: 0,
                        }
                    }
                })
                .collect();
            let (writes, tail, states) = scripts(
                &docs,
                &shares,
                WorkloadMix::paper_mix(0.5),
                4,
                1,
                true,
                corpus,
            );
            // Zipf: document of rank r is read 1/(r+1) as often as rank 0.
            let per_doc: Vec<usize> = (0..docs.len()).map(|rank| 900 / (rank + 1)).collect();
            Plan {
                workload: "read_mostly",
                reads: read_script(&per_doc, 4, seed),
                docs,
                writes,
                write_loop: WriteLoop::Open { rate: 40.0 },
                reads_concurrent: true,
                reads_after_restart: false,
                tail,
                states,
            }
        }
        // All six families at a scale where loading dominates, a mid-run
        // checkpoint, clustered batches left un-checkpointed, a kill and a
        // restart whose first reads find nothing materialised. The wire
        // codec, the initial compressors, grammar (de)serialisation and
        // checkpoint/recovery do the work; isolation and updates little.
        "bulk_load_restart" => {
            let docs = vec![
                doc("weblog", exi_weblog_like(records(0, 4000))),
                doc("xmark", xmark_like(24, c(1))),
                doc("telecomp", exi_telecomp_like(records(2, 2400))),
                doc("treebank", treebank_like(12, c(3))),
                doc("medline", medline_like(250, c(4))),
                doc("ncbi", ncbi_like(records(5, 8000))),
            ];
            let shares: Vec<Share> = (0..docs.len())
                .map(|d| Share {
                    batches: 1,
                    tail: usize::from(d == 1 || d == 3),
                })
                .collect();
            let (writes, tail, states) = scripts(
                &docs,
                &shares,
                WorkloadMix::clustered(0.8),
                128,
                1,
                false,
                corpus,
            );
            Plan {
                workload: "bulk_load_restart",
                reads: read_script(&vec![12; docs.len()], 6, seed),
                docs,
                writes,
                write_loop: WriteLoop::Closed { depth: 2 },
                reads_concurrent: false,
                reads_after_restart: true,
                tail,
                states,
            }
        }
        _ => return None,
    })
}
