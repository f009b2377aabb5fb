//! The per-layer metrics of the traced run, declared once: name, unit,
//! which way is better, where the number comes from, and which end-to-end
//! metric it should move on which workload.

use std::collections::BTreeMap;

use discoverxfd::RunOutcome;

use crate::metrics::{MetricSet, Samples};
use crate::trace::Tracer;
use crate::work::Ctx;

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median per operation of a span's self time, in ms.
    Span(&'static str),
    /// As `Span`, from the second span where the first never ran (the
    /// corpus path reaches a layer through a different public call).
    SpanOr(&'static str, &'static str),
    /// Median per operation of a recorded count.
    Count(&'static str),
    /// Sum of one count over sum of another.
    Ratio(&'static str, &'static str),
    /// Computed by the workload itself (server scrape, generator lag,
    /// trace bookkeeping).
    Direct,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Source::{Count, Direct, Ratio, Span, SpanOr};

pub const LAYERS: &[Layer] = &[
    layer(
        "xml.parse_ms",
        "ms",
        "lower",
        Span("xml.parse"),
        "op_ms.p50 on xmark-doc and deep-lattice; setup_s on corpus-churn",
    ),
    layer(
        "xml.mb_per_s",
        "MB/s",
        "higher",
        Ratio("xml.bytes_per_s_num", "xml.bytes_per_s_den"),
        "op_ms.p50 on xmark-doc",
    ),
    layer(
        "xml.nodes",
        "count",
        "lower",
        Count("xml.nodes"),
        "none: input size",
    ),
    layer(
        "schema.infer_ms",
        "ms",
        "lower",
        SpanOr("schema.infer", "corpus.plan"),
        "op_ms.p50 on xmark-doc; CorpusHandle::plan on corpus-churn",
    ),
    layer(
        "relation.encode_ms",
        "ms",
        "lower",
        SpanOr("relation.encode", "corpus.prepare"),
        "op_ms.p50 on xmark-doc; merged_forest on corpus-churn",
    ),
    layer(
        "relation.relations",
        "count",
        "lower",
        Count("relation.relations"),
        "none: input shape",
    ),
    layer(
        "relation.tuples",
        "count",
        "lower",
        Count("relation.tuples"),
        "none: input size",
    ),
    layer(
        "core.discover_forest_ms",
        "ms",
        "lower",
        Span("core.discover_forest"),
        "op_ms.p50 on deep-lattice (dominant) and xmark-doc; op_ms.p50 on corpus-churn",
    ),
    layer(
        "lattice.nodes_visited",
        "count",
        "lower",
        Count("lattice.nodes_visited"),
        "op_ms.p50 and peak_rss_mb on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "lattice.products_error_only",
        "count",
        "higher",
        Count("lattice.products_error_only"),
        "op_ms.p50 and peak_rss_mb on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "lattice.products_materialized",
        "count",
        "lower",
        Count("lattice.products_materialized"),
        "op_ms.p50 and peak_rss_mb on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "lattice.early_exits",
        "count",
        "higher",
        Count("lattice.early_exits"),
        "op_ms.p50 on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "lattice.early_exit_ratio",
        "ratio",
        "higher",
        Ratio("lattice.early_exits", "lattice.products_error_only"),
        "op_ms.p50 on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "lattice.materialized_ratio",
        "ratio",
        "lower",
        Ratio("lattice.products_materialized", "lattice.products"),
        "op_ms.p50 and peak_rss_mb on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "partition.cache_hits",
        "count",
        "higher",
        Count("partition.cache_hits"),
        "op_ms.p50 on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "partition.cache_misses",
        "count",
        "lower",
        Count("partition.cache_misses"),
        "op_ms.p50 on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "partition.cache_hit_ratio",
        "ratio",
        "higher",
        Ratio("partition.cache_hits", "partition.cache_lookups"),
        "op_ms.p50 on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "partition.evictions",
        "count",
        "lower",
        Count("partition.evictions"),
        "op_ms.p50 on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "partition.peak_resident_bytes",
        "bytes",
        "lower",
        Count("partition.peak_resident_bytes"),
        "peak_rss_mb on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "partition.summary_hits",
        "count",
        "higher",
        Count("partition.summary_hits"),
        "op_ms.p50 on deep-lattice; op_ms.p50 on corpus-churn",
    ),
    layer(
        "targets.created",
        "count",
        "lower",
        Count("targets.created"),
        "op_ms.p50 on xmark-doc; op_ms.p50 on corpus-churn",
    ),
    layer(
        "targets.propagated",
        "count",
        "lower",
        Count("targets.propagated"),
        "op_ms.p50 on xmark-doc; op_ms.p50 on corpus-churn",
    ),
    layer(
        "targets.dropped",
        "count",
        "lower",
        Count("targets.dropped"),
        "op_ms.p50 on xmark-doc; op_ms.p50 on corpus-churn",
    ),
    layer(
        "core.analyze_ms",
        "ms",
        "lower",
        Span("core.analyze"),
        "op_ms.p50 on corpus-churn and xmark-doc",
    ),
    layer(
        "core.redundancies",
        "count",
        "lower",
        Count("core.redundancies"),
        "none: output size",
    ),
    layer(
        "core.classify_ms",
        "ms",
        "lower",
        Span("core.classify"),
        "op_ms.p50 on xmark-doc (about 0)",
    ),
    layer(
        "core.render_ms",
        "ms",
        "lower",
        Span("core.render"),
        "op_ms.p50 on xmark-doc (about 0)",
    ),
    layer(
        "core.report_bytes",
        "bytes",
        "lower",
        Count("core.report_bytes"),
        "none: output size",
    ),
    layer(
        "memo.hits",
        "count",
        "higher",
        Count("memo.hits"),
        "op_ms.p50 on corpus-churn",
    ),
    layer(
        "memo.misses",
        "count",
        "lower",
        Count("memo.misses"),
        "op_ms.p50 on corpus-churn",
    ),
    layer(
        "memo.hit_ratio",
        "ratio",
        "higher",
        Ratio("memo.hits", "memo.lookups"),
        "op_ms.p50 on corpus-churn",
    ),
    layer(
        "corpus.write_ms",
        "ms",
        "lower",
        Span("corpus.write"),
        "none gated: the durable write step of corpus-churn",
    ),
    layer(
        "corpus.disk_bytes_per_input_byte",
        "ratio",
        "lower",
        Ratio("corpus.disk_bytes", "corpus.input_bytes"),
        "none gated: the durable write step of corpus-churn",
    ),
    layer(
        "corpus.plan_ms",
        "ms",
        "lower",
        Span("corpus.plan"),
        "op_ms.p50 on corpus-churn",
    ),
    layer(
        "corpus.prepare_ms",
        "ms",
        "lower",
        Span("corpus.prepare"),
        "op_ms.p50 on corpus-churn",
    ),
    layer(
        "corpus.finish_ms",
        "ms",
        "lower",
        Span("corpus.finish"),
        "op_ms.p50 on corpus-churn",
    ),
    layer(
        "server.result_cache_hit_ratio",
        "ratio",
        "higher",
        Direct,
        "op_ms.tail on serve-mixed",
    ),
    layer(
        "server.result_cache_evictions",
        "count",
        "lower",
        Direct,
        "op_ms.tail on serve-mixed",
    ),
    layer(
        "server.parse_free_hits",
        "count",
        "higher",
        Direct,
        "op_ms.tail on serve-mixed",
    ),
    layer(
        "server.rejected",
        "count",
        "lower",
        Direct,
        "ok_frac and op_ms.tail on serve-mixed",
    ),
    layer(
        "server.stage_s_per_run.infer",
        "s",
        "lower",
        Direct,
        "op_ms.tail on serve-mixed",
    ),
    layer(
        "server.stage_s_per_run.encode",
        "s",
        "lower",
        Direct,
        "op_ms.tail on serve-mixed",
    ),
    layer(
        "server.stage_s_per_run.discover",
        "s",
        "lower",
        Direct,
        "op_ms.tail on serve-mixed",
    ),
    layer(
        "server.stage_s_per_run.redundancy",
        "s",
        "lower",
        Direct,
        "op_ms.tail on serve-mixed",
    ),
    layer(
        "bench.gen_lag_ms.p50",
        "ms",
        "lower",
        Direct,
        "none: a late generator means the numbers measure the harness",
    ),
    layer(
        "bench.gen_lag_ms.tail",
        "ms",
        "lower",
        Direct,
        "none: a late generator means the numbers measure the harness",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        "lower",
        Direct,
        "none: keeps the trace honest",
    ),
    layer(
        "trace.unaccounted_frac",
        "ratio",
        "lower",
        Direct,
        "none: keeps the trace honest",
    ),
];

/// Per-operation counts recorded next to the spans.
#[derive(Debug, Default)]
pub struct Counts {
    by_name: BTreeMap<&'static str, Samples>,
}

impl Counts {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.by_name.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, Samples::median)
    }

    fn sum(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, Samples::sum)
    }

    /// The counters of one pipeline run and its rendered report.
    pub fn outcome(&mut self, outcome: &RunOutcome, report_bytes: usize) {
        let l = &outcome.stats.lattice;
        let t = &outcome.stats.targets;
        let m = &outcome.stats.memo;
        let f = &outcome.stats.forest;
        for (name, v) in [
            ("relation.relations", f.relations),
            ("relation.tuples", f.tuples),
            ("lattice.nodes_visited", l.nodes_visited),
            ("lattice.products", l.products),
            ("lattice.products_error_only", l.products_error_only),
            ("lattice.products_materialized", l.products_materialized),
            ("lattice.early_exits", l.early_exits),
            ("partition.cache_hits", l.cache_hits),
            ("partition.cache_misses", l.cache_misses),
            ("partition.cache_lookups", l.cache_hits + l.cache_misses),
            ("partition.evictions", l.evictions),
            ("partition.peak_resident_bytes", l.peak_resident_bytes),
            ("partition.summary_hits", l.summary_hits),
            ("targets.created", t.created),
            ("targets.propagated", t.propagated),
            ("targets.dropped", t.dropped_impossible + t.dropped_overflow),
            ("core.redundancies", outcome.redundancies.len()),
            ("core.report_bytes", report_bytes),
        ] {
            self.add(name, v as f64);
        }
        self.add("memo.hits", m.hits as f64);
        self.add("memo.misses", m.misses as f64);
        self.add("memo.lookups", (m.hits + m.misses) as f64);
    }

    /// A parsed document: its size in bytes, its node count, and the
    /// parse time (for the throughput ratio).
    pub fn parsed(&mut self, xml_bytes: usize, nodes: usize, parse_s: f64) {
        self.add("xml.nodes", nodes as f64);
        self.add("xml.bytes_per_s_num", xml_bytes as f64 / 1e6);
        self.add("xml.bytes_per_s_den", parse_s);
    }
}

/// The traced run's result: writes the spans out and returns every
/// per-layer metric. `untraced_ms` and `traced_ms` are the operation
/// latencies of the run's two halves; `direct` holds what the workload
/// computed itself.
pub fn traced_metrics(
    ctx: &Ctx,
    tracer: &Tracer,
    counts: &Counts,
    untraced_ms: &Samples,
    traced_ms: &Samples,
    mut direct: MetricSet,
    notes: &mut Vec<String>,
) -> Result<MetricSet, String> {
    let overhead = traced_ms.median() / untraced_ms.median() - 1.0;
    direct.put("trace.overhead_frac", overhead, "ratio");
    direct.put("trace.unaccounted_frac", tracer.unaccounted_frac(), "ratio");
    tracer
        .write_jsonl(&ctx.spans)
        .map_err(|e| format!("writing spans: {e}"))?;
    notes.push(format!(
        "{} spans written to {}",
        tracer.span_count(),
        ctx.spans.display()
    ));
    Ok(per_layer(tracer, counts, &direct))
}

/// Every per-layer metric: from spans and counts where the workload ran
/// that layer, from `direct` where the workload computed it, else 0.
fn per_layer(tracer: &Tracer, counts: &Counts, direct: &MetricSet) -> MetricSet {
    let spans = tracer.self_ms_by_name();
    let mut out = MetricSet::default();
    for l in LAYERS {
        let v = match l.source {
            Span(span) => spans.get(span).map_or(0.0, Samples::median),
            SpanOr(span, other) => spans
                .get(span)
                .or_else(|| spans.get(other))
                .map_or(0.0, Samples::median),
            Count(name) => counts.median(name),
            Ratio(num, den) => {
                let d = counts.sum(den);
                if d > 0.0 {
                    counts.sum(num) / d
                } else {
                    0.0
                }
            }
            Direct => direct.get(l.name).unwrap_or(0.0),
        };
        out.put(l.name, v, l.unit);
    }
    out
}
