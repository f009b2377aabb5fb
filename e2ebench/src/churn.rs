//! corpus-churn: closed loop, one caller, writes beside reads. A corpus of
//! eight schema categories (one per `xfd_datagen` generator) takes one
//! small document per step into a seeded-random category, retires the
//! oldest added document, and re-discovers incrementally.

use std::collections::VecDeque;
use std::time::Instant;

use discoverxfd::interesting::classify;
use discoverxfd::memo::discover_forest_memo;
use discoverxfd::redundancy::analyze;
use discoverxfd::report::render_json;
use discoverxfd::{
    discover_collection, merge_collection, DiscoveryConfig, DiscoveryReport, RelationMemo,
    RunOutcome, RunStatsBundle,
};
use xfd_corpus::{CorpusHandle, CorpusStore};
use xfd_datagen::{
    dblp_like, mondial_like, parallel_sets, protein_like, sigmod_like, warehouse_scaled,
    wide_relation, xmark_like, DblpSpec, MondialSpec, ParallelSetSpec, ProteinSpec, SigmodSpec,
    WarehouseSpec, WideSpec, XmarkSpec,
};
use xfd_xml::{parse, DataTree};

use crate::check::{digest, verify_outcome, Tally};
use crate::layers::{traced_metrics, Counts};
use crate::metrics::{MetricSet, Samples};
use crate::trace::{Tracer, OP};
use crate::work::{derive_seed, dir_bytes, ms, Ctx, Outcome, Rng, Timings};

pub const CATEGORIES: usize = 8;
pub const BASE_PER_CATEGORY: usize = 4;
/// Added documents live at once; each step retires the oldest beyond it.
pub const LIVE_ADDED: usize = 4;
/// Percentile of `op_ms.tail`: 220-360 steps fit in a 55 s run.
pub const OP_TAIL_PCT: f64 = 90.0;
/// Distinct small documents the steps cycle through (a multiple of
/// `CATEGORIES`).
const STEP_POOL: usize = 64;

/// One document of category `cat` at `scale`. Pool sizes (catalogs,
/// authors, organisms) stay fixed across documents, so rows repeat within
/// and across documents and FDs and redundancies exist.
pub fn category_doc(cat: usize, scale: usize, seed: u64) -> DataTree {
    match cat % CATEGORIES {
        0 => warehouse_scaled(&WarehouseSpec {
            states: 2 * scale,
            stores_per_state: 3,
            books_per_store: 6,
            seed,
            ..WarehouseSpec::default()
        }),
        1 => xmark_like(&XmarkSpec {
            scale: 0.25 * scale as f64,
            seed,
            ..XmarkSpec::default()
        }),
        2 => dblp_like(&DblpSpec {
            articles: 20 * scale,
            inproceedings: 15 * scale,
            distinct: 40,
            authors: 40,
            venues: 8,
            shuffle_authors: false,
            seed,
        }),
        3 => protein_like(&ProteinSpec {
            entries: 15 * scale,
            distinct: 30,
            organisms: 8,
            seed,
        }),
        4 => mondial_like(&MondialSpec {
            countries: 3 * scale,
            provinces: 3,
            cities: 3,
            seed,
        }),
        5 => sigmod_like(&SigmodSpec {
            issues: 4 * scale,
            articles_per_issue: 5,
            distinct_articles: 40,
            authors: 30,
            seed,
        }),
        6 => wide_relation(&WideSpec {
            rows: 60 * scale,
            width: 6,
            domain: 8,
            derived_fraction: 0.34,
            seed,
        }),
        _ => parallel_sets(&ParallelSetSpec {
            records: 15 * scale,
            parallel: 3,
            items_per_set: 2,
            seed,
        }),
    }
}

struct Inputs {
    /// XML of the base documents, then of the first `LIVE_ADDED` added
    /// ones (all ingested during set-up).
    setup_docs: Vec<String>,
    /// XML of the small documents the steps add, in step order (cycled).
    steps: Vec<String>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let sizes = &ctx.sizes;
    let mut setup_docs = Vec::new();
    for doc in 0..BASE_PER_CATEGORY {
        for cat in 0..CATEGORIES {
            let seed = derive_seed(ctx.seed, (doc * CATEGORIES + cat) as u64);
            let tree = category_doc(cat, sizes.corpus_base_scale, seed);
            setup_docs.push(xfd_xml::to_xml_string(&tree));
        }
    }
    // Steps visit the categories in seeded shuffled rounds of eight, so
    // every run touches each category equally often.
    let mut rng = Rng::new(derive_seed(ctx.seed, 1 << 20));
    let mut rounds = |n: usize| {
        let mut order = Vec::with_capacity(n + CATEGORIES);
        while order.len() < n {
            let mut round: Vec<usize> = (0..CATEGORIES).collect();
            for i in (1..round.len()).rev() {
                round.swap(i, rng.below(i + 1));
            }
            order.extend(round);
        }
        order.truncate(n);
        order
    };
    let added = rounds(LIVE_ADDED);
    let stepped = rounds(STEP_POOL);
    let small = |i: usize, cat: usize| {
        let seed = derive_seed(ctx.seed, (1 << 21) + i as u64);
        xfd_xml::to_xml_string(&category_doc(cat, sizes.corpus_step_scale, seed))
    };
    setup_docs.extend(added.into_iter().enumerate().map(|(i, c)| small(i, c)));
    let steps = stepped
        .into_iter()
        .enumerate()
        .map(|(i, c)| small(LIVE_ADDED + i, c))
        .collect();
    Inputs { setup_docs, steps }
}

fn config() -> DiscoveryConfig {
    DiscoveryConfig::default()
}

/// Set-up: create the corpus, parse and ingest every set-up document, run
/// the cold discover.
fn build(store: &CorpusStore, docs: &[String]) -> Result<(CorpusHandle, VecDeque<String>), String> {
    let mut handle = store.create("churn").map_err(|e| e.to_string())?;
    let mut added = VecDeque::new();
    for (i, xml) in docs.iter().enumerate() {
        let tree = parse(xml).map_err(|e| e.to_string())?;
        let name = format!("setup{i}");
        handle.add_doc(&name, &tree).map_err(|e| e.to_string())?;
        if i >= BASE_PER_CATEGORY * CATEGORIES {
            added.push_back(name);
        }
    }
    std::hint::black_box(render_json(&handle.discover(&config())));
    Ok((handle, added))
}

/// The re-discover, composed from the corpus handle's stages and the core
/// layers' public calls (with a memo owned by the harness), one span each.
fn traced_discover(
    handle: &mut CorpusHandle,
    memo: &mut RelationMemo,
    tracer: &mut Tracer,
) -> RunOutcome {
    let config = config();
    let plan = tracer.time("corpus.plan", || handle.plan(&config));
    let prepared = tracer.time("corpus.prepare", || handle.merged_forest(&config, &plan));
    let finish = tracer.enter("corpus.finish");
    let before = memo.stats();
    let forest = prepared.forest();
    let disc = tracer.time("core.discover_forest", || {
        discover_forest_memo(forest, &config, memo, |_| {})
    });
    let redundancies = tracer.time("core.analyze", || analyze(forest, &disc));
    let classified = tracer.time("core.classify", || {
        classify(forest, &disc, config.keep_uninteresting)
    });
    let after = memo.stats();
    memo.prune_stale();
    tracer.exit(finish);
    RunOutcome {
        report: DiscoveryReport {
            schema: prepared.schema().as_ref().clone(),
            fds: classified.fds,
            keys: classified.keys,
            uninteresting_fds: classified.uninteresting_fds,
            uninteresting_keys: classified.uninteresting_keys,
            redundancies,
        },
        stats: RunStatsBundle {
            lattice: disc.lattice_stats,
            targets: disc.target_stats,
            forest: forest.stats(),
            memo: discoverxfd::MemoStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
                entries: after.entries,
                resident_bytes: after.resident_bytes,
            },
        },
        profile: Default::default(),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let inputs = inputs(ctx);
    let mut out = Outcome::default();
    let input_bytes: usize = inputs.setup_docs.iter().map(String::len).sum();
    out.notes.push(format!(
        "corpus: {} set-up documents ({} bytes of XML), {} step documents ({} sizes, seed {})",
        inputs.setup_docs.len(),
        input_bytes,
        inputs.steps.len(),
        ctx.sizes.name,
        ctx.seed
    ));
    let mut timings = Timings::new(OP_TAIL_PCT);
    let mut write_ms = Samples::default();
    let setups = if ctx.trace {
        1
    } else {
        ctx.sizes.corpus_setups
    };
    // The first half of the set-ups runs before the timed phase and the
    // rest after it, so that their median spans the run as the operation
    // timings do.
    let before = setups.div_ceil(2);
    let mut built = None;
    for i in 0..before {
        let store = CorpusStore::new(ctx.work.join(format!("setup{i}")));
        drop(built.take());
        let t = Instant::now();
        built = Some(build(&store, &inputs.setup_docs)?);
        timings.setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut handle, mut added) = built.ok_or("no set-up ran")?;

    let mut tracer = Tracer::new(false);
    let mut counts = Counts::default();
    if ctx.trace {
        counts.add("corpus.disk_bytes", dir_bytes(handle.dir()) as f64);
        counts.add("corpus.input_bytes", input_bytes as f64);
    }
    let mut memo = RelationMemo::new();
    let mut traced_ms = Samples::default();
    let mut tally = Tally::default();
    let mut last_report = String::new();
    let mut step = 0usize;
    let started = Instant::now();
    let plain_until = ctx.deadline(if ctx.trace { 0.5 } else { 1.0 });
    let mut until = plain_until;
    loop {
        if Instant::now() >= until {
            if !ctx.trace || tracer.enabled() {
                break;
            }
            // Second half of the traced run: warm the harness's memo with
            // one untimed pass, then trace.
            std::hint::black_box(traced_discover(&mut handle, &mut memo, &mut tracer));
            tracer = Tracer::new(true);
            until = ctx.deadline(0.5);
        }
        tally.attempted += 1;
        let xml = &inputs.steps[step % inputs.steps.len()];
        let t = Instant::now();
        let tree = match tracer.time("xml.parse", || parse(xml)) {
            Ok(tree) => tree,
            Err(_) => {
                tally.errors += 1;
                continue;
            }
        };
        counts.parsed(xml.len(), tree.node_count(), t.elapsed().as_secs_f64());
        let name = format!("step{step}");
        step += 1;
        let t = Instant::now();
        let open = tracer.enter("corpus.write");
        let written = handle.add_doc(&name, &tree).and_then(|()| {
            added.push_back(name);
            match added.pop_front() {
                Some(oldest) => handle.remove_doc(&oldest),
                None => Ok(()),
            }
        });
        tracer.exit(open);
        write_ms.push(ms(t.elapsed()));
        if written.is_err() {
            tally.errors += 1;
            continue;
        }
        let t = Instant::now();
        if tracer.enabled() {
            let op = tracer.enter(OP);
            let outcome = traced_discover(&mut handle, &mut memo, &mut tracer);
            last_report = tracer.time("core.render", || render_json(&outcome));
            tracer.exit(op);
            traced_ms.push(ms(t.elapsed()));
            counts.outcome(&outcome, last_report.len());
        } else {
            last_report = render_json(&handle.discover(&config()));
            timings.op_ms.push(ms(t.elapsed()));
        }
        timings.completed += 1;
    }
    timings.end_phase(started);
    let write = write_ms.summary(OP_TAIL_PCT);
    out.notes.push(format!(
        "durable write step (add_doc + remove_doc; shown, not gated): p50 {:.3} ms, {} {:.3} ms",
        write.p50,
        write.describe_tail(),
        write.tail
    ));

    // Check, off the clock: the last incremental report against a
    // from-scratch discover over the same documents.
    {
        let trees = handle.trees();
        let scratch = discover_collection(&trees, &config());
        if digest(&render_json(&scratch)) != digest(&last_report) {
            tally.wrong += 1;
            out.problems
                .push("last incremental report differs from a from-scratch discover".into());
        }
        let merged = merge_collection(&trees);
        let forest = xfd_relation::encode(&merged, &scratch.schema, &config().encode);
        let problems = verify_outcome(&forest, &scratch);
        if !problems.is_empty() {
            tally.wrong = tally.attempted - tally.errors;
        }
        out.problems.extend(problems);
        out.notes.push(format!(
            "{} documents at the end: {} FDs, {} keys, {} redundancies",
            trees.len(),
            scratch.fds.len(),
            scratch.keys.len(),
            scratch.redundancies.len()
        ));
    }
    out.tally = tally;

    drop(handle);
    for i in before..setups {
        let store = CorpusStore::new(ctx.work.join(format!("setup{i}")));
        let t = Instant::now();
        let again = build(&store, &inputs.setup_docs)?;
        timings.setup_s.push(t.elapsed().as_secs_f64());
        drop(again);
        let _ = std::fs::remove_dir_all(store.root());
    }

    out.metrics = if ctx.trace {
        traced_metrics(
            ctx,
            &tracer,
            &counts,
            &timings.op_ms,
            &traced_ms,
            MetricSet::default(),
            &mut out.notes,
        )?
    } else {
        timings.metrics(&out.tally, &mut out.notes)
    };
    Ok(out)
}
