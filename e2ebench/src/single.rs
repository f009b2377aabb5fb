//! xmark-doc and deep-lattice: closed loop, one caller; one operation is
//! XML text → `parse` → `discover` → `render_json`.

use std::process::Command;
use std::time::Instant;

use discoverxfd::interesting::classify;
use discoverxfd::redundancy::analyze;
use discoverxfd::report::render_json;
use discoverxfd::xfd::discover_forest;
use discoverxfd::{discover, DiscoveryConfig, DiscoveryReport, RunOutcome, RunStatsBundle};
use xfd_datagen::{wide_relation, xmark_like, WideSpec, XmarkSpec};
use xfd_relation::encode;
use xfd_schema::infer_schema;
use xfd_xml::{parse, DataTree};

use crate::check::{digest, kept_digest, verify_outcome, Tally, DEFAULT_SEED};
use crate::layers::{traced_metrics, Counts};
use crate::metrics::{MetricSet, Samples};
use crate::trace::{Tracer, OP};
use crate::work::{ms, Ctx, Outcome, Sizes, Timings};

/// Untimed operations before the timed phase.
const WARMUP_OPS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    XmarkDoc,
    DeepLattice,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::XmarkDoc => "xmark-doc",
            Kind::DeepLattice => "deep-lattice",
        }
    }

    /// The generated document, as the XML text the program is given.
    pub fn input(self, seed: u64, sizes: &Sizes) -> String {
        let tree = match self {
            Kind::XmarkDoc => xmark_like(&XmarkSpec {
                scale: sizes.xmark_scale,
                seed,
                ..XmarkSpec::default()
            }),
            Kind::DeepLattice => wide_relation(&WideSpec {
                rows: sizes.wide_rows,
                width: sizes.wide_width,
                domain: 4,
                derived_fraction: 0.0,
                seed,
            }),
        };
        xfd_xml::to_xml_string(&tree)
    }

    /// Percentile of `op_ms.tail`: about 200 xmark-doc and 130
    /// deep-lattice operations fit in a 35 s run, and more in longer ones.
    pub fn op_tail_pct(self) -> f64 {
        90.0
    }

    /// The measured configuration: the CLI default for xmark-doc, the
    /// CLI's `--threads 2` for deep-lattice.
    pub fn config(self) -> DiscoveryConfig {
        match self {
            Kind::XmarkDoc => DiscoveryConfig::default(),
            Kind::DeepLattice => DiscoveryConfig {
                parallel: true,
                threads: 2,
                ..DiscoveryConfig::default()
            },
        }
    }

    /// The reference is computed by another code path whose artifacts the
    /// system guarantees to be identical: the materializing kernel for
    /// xmark-doc, the sequential traversal for deep-lattice.
    fn reference_config(self) -> DiscoveryConfig {
        match self {
            Kind::XmarkDoc => DiscoveryConfig {
                error_only_kernel: false,
                ..DiscoveryConfig::default()
            },
            Kind::DeepLattice => DiscoveryConfig::default(),
        }
    }
}

/// One untraced operation; returns the rendered report.
fn plain_op(xml: &str, config: &DiscoveryConfig) -> Result<String, String> {
    let tree = parse(xml).map_err(|e| e.to_string())?;
    Ok(render_json(&discover(&tree, config)))
}

/// One traced operation, composed from the layers' public calls in the
/// order `discover` makes them, with one span per call.
fn traced_op(
    xml: &str,
    config: &DiscoveryConfig,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<String, String> {
    let op = tracer.enter(OP);
    let t = Instant::now();
    let tree = tracer
        .time("xml.parse", || parse(xml))
        .map_err(|e| e.to_string())?;
    counts.parsed(xml.len(), tree.node_count(), t.elapsed().as_secs_f64());
    let outcome = compose(&tree, config, tracer);
    let json = tracer.time("core.render", || render_json(&outcome));
    tracer.exit(op);
    counts.outcome(&outcome, json.len());
    Ok(json)
}

fn compose(tree: &DataTree, config: &DiscoveryConfig, tracer: &mut Tracer) -> RunOutcome {
    let schema = tracer.time("schema.infer", || infer_schema(tree));
    let forest = tracer.time("relation.encode", || encode(tree, &schema, &config.encode));
    let disc = tracer.time("core.discover_forest", || discover_forest(&forest, config));
    let redundancies = tracer.time("core.analyze", || analyze(&forest, &disc));
    let classified = tracer.time("core.classify", || {
        classify(&forest, &disc, config.keep_uninteresting)
    });
    RunOutcome {
        report: DiscoveryReport {
            schema,
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
            memo: Default::default(),
        },
        profile: Default::default(),
    }
}

/// The child-process side of `setup_s`: one cold operation in a fresh
/// process, after generating the input. Prints `cold_s <seconds>`.
pub fn cold_child(kind: Kind, seed: u64, sizes: &Sizes) -> Result<(), String> {
    let xml = kind.input(seed, sizes);
    let t = Instant::now();
    let json = plain_op(&xml, &kind.config())?;
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(json);
    println!("cold_s {s}");
    Ok(())
}

/// `setup_s` of xmark-doc and deep-lattice: the first operation of a
/// one-shot process, as a CLI user pays it, measured in `n` fresh
/// processes.
fn cold_runs(ctx: &Ctx, n: usize) -> Result<Samples, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = Samples::default();
    for _ in 0..n {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--child-cold",
            &ctx.workload,
            "--seed",
            &ctx.seed.to_string(),
        ]);
        cmd.args(crate::smoke_flag(&ctx.sizes));
        let output = cmd.output().map_err(|e| format!("cold run: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let secs = stdout
            .lines()
            .find_map(|l| l.strip_prefix("cold_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|_| output.status.success())
            .ok_or_else(|| {
                format!(
                    "cold run failed: {}",
                    String::from_utf8_lossy(&output.stderr).trim()
                )
            })?;
        out.push(secs);
    }
    Ok(out)
}

pub fn run(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let xml = kind.input(ctx.seed, &ctx.sizes);
    let config = kind.config();
    let mut out = Outcome::default();
    out.notes.push(format!(
        "input: {} bytes of XML ({} sizes, seed {})",
        xml.len(),
        ctx.sizes.name,
        ctx.seed
    ));
    let mut timings = Timings::new(kind.op_tail_pct());
    if !ctx.trace {
        timings.setup_s = cold_runs(ctx, ctx.sizes.setups)?;
    }

    // Two untimed operations first, so the timed phase does not pay for
    // the allocator growing to its working size.
    for _ in 0..WARMUP_OPS {
        std::hint::black_box(plain_op(&xml, &config)?);
    }

    // Timed phase. The traced run spends its first half untraced, so the
    // recorder's overhead is measured in the same process.
    let mut tracer = Tracer::new(false);
    let mut counts = Counts::default();
    let mut traced_ms = Samples::default();
    let mut digests = Vec::new();
    let mut errors = 0u64;
    let started = Instant::now();
    let plain_until = ctx.deadline(if ctx.trace { 0.5 } else { 1.0 });
    while Instant::now() < plain_until {
        let t = Instant::now();
        let result = plain_op(&xml, &config);
        timings.op_ms.push(ms(t.elapsed()));
        match result {
            Ok(json) => digests.push(digest(&json)),
            Err(_) => errors += 1,
        }
    }
    if ctx.trace {
        tracer = Tracer::new(true);
        let until = ctx.deadline(0.5);
        while Instant::now() < until {
            let t = Instant::now();
            let result = traced_op(&xml, &config, &mut tracer, &mut counts);
            traced_ms.push(ms(t.elapsed()));
            match result {
                Ok(json) => digests.push(digest(&json)),
                Err(_) => errors += 1,
            }
        }
    }
    timings.completed = digests.len() as u64;
    timings.end_phase(started);

    let tree = parse(&xml).map_err(|e| format!("input does not parse: {e}"))?;

    // Checks, off the clock.
    let reference = discover(&tree, &kind.reference_config());
    let reference_digest = digest(&render_json(&reference));
    let forest = encode(&tree, &reference.schema, &config.encode);
    out.problems = verify_outcome(&forest, &reference);
    if ctx.seed == DEFAULT_SEED {
        match kept_digest(kind.name(), ctx.sizes.name, ctx.seed) {
            Some(kept) if kept == reference_digest => {}
            Some(kept) => out.problems.push(format!(
                "reference digest {reference_digest:016x} differs from the kept {kept:016x}"
            )),
            None => out
                .problems
                .push("no kept digest for the default seed".into()),
        }
    }
    out.notes.push(format!(
        "reference digest {reference_digest:016x}: {} FDs, {} keys, {} redundancies",
        reference.fds.len(),
        reference.keys.len(),
        reference.redundancies.len()
    ));
    out.tally = Tally::of_digests(&digests, reference_digest);
    out.tally.attempted += errors;
    out.tally.errors = errors;
    if !out.problems.is_empty() {
        // Every operation returned the reference's artifacts or worse.
        out.tally.wrong = out.tally.attempted - errors;
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
