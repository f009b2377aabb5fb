//! End-to-end benchmark of DiscoverXFD: generated XML in, checked report
//! out, on four workloads. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload deep-lattice --seed 1 --seconds 35 --trace 0
//! ```

mod check;
mod churn;
mod http;
mod layers;
mod metrics;
mod serve;
mod single;
mod trace;
mod work;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{json_number, result_line};
use single::Kind;
use work::{Ctx, Sizes, END_TO_END, FULL, SMOKE};

/// Length of one measured run, in seconds (`run_seconds`).
const RUN_SECONDS: u32 = 55;

/// Workloads left out of `BENCHMARK.json`, with the reason; they still run
/// by hand and in the smoke run.
const UNGATED: &[(&str, &str)] = &[
    (
        "xmark-doc",
        "the 2-vCPU VM it was sized on changes speed by up to half for minutes at a time, and its median followed: IQR/median 0.22-0.45 over four sets of 5-10 seeds, above the largest bound (0.25)",
    ),
    (
        "deep-lattice",
        "left out so that the two gated workloads get 55 s runs within the time allowed for all runs: at 35 s corpus-churn's op_ms.p50 spread 0.27 in one of two ten-seed sets; corpus-churn still runs the lattice and partition layers",
    ),
];

/// Every workload, with the one-line reason it is in the benchmark.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "xmark-doc",
        "XMark-like document parsed, discovered and rendered: the front half (xml, schema, relation) and redundancy; the lattice does little",
    ),
    (
        "deep-lattice",
        "12-wide relation of tiny domains at --threads 2: the lattice and partition kernels do nearly all the work",
    ),
    (
        "corpus-churn",
        "corpus of 8 schema categories takes one document per step and re-discovers: durable writes, merge, memo replay, analysis",
    ),
    (
        "serve-mixed",
        "open-loop Zipf POSTs to the HTTP server, result cache smaller than the pool: HTTP, digest, queue and cache",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    child_cold: Option<String>,
    describe: bool,
    benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        sizes: FULL,
        child_cold: None,
        describe: false,
        benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.sizes = SMOKE,
            "--child-cold" => args.child_cold = Some(value()?),
            "--describe" => args.describe = true,
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The flag that gives a child process the same sizes as this one.
pub fn smoke_flag(sizes: &Sizes) -> &'static [&'static str] {
    if sizes.name == SMOKE.name {
        &["--smoke"]
    } else {
        &[]
    }
}

fn single_kind(name: &str) -> Option<Kind> {
    [Kind::XmarkDoc, Kind::DeepLattice]
        .into_iter()
        .find(|k| k.name() == name)
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build directory of this binary (`<target>/release/<exe>` → `<target>`),
/// where runs keep their scratch files and spans.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .ok_or_else(|| "cannot locate the build directory".into())
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let target = target_dir()?;
    let work =
        target
            .join("e2ebench-work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let spans = target
        .join("e2ebench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: args.sizes,
        work: work.clone(),
        spans,
    };
    let _ = std::fs::remove_dir_all(&work);
    let result = match args.workload.as_str() {
        "corpus-churn" => churn::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        name => match single_kind(name) {
            Some(kind) => single::run(kind, &ctx),
            None => Err(format!("unknown workload {name:?}")),
        },
    };
    let _ = std::fs::remove_dir_all(&work);
    let out = result?;
    println!(
        "workload {} seed {} seconds {} trace {} sizes {} available_parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.sizes.name,
        parallelism()
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for problem in &out.problems {
        println!("  CHECK FAILED: {problem}");
    }
    print!("{}", out.metrics.human());
    let correct = out.problems.is_empty() && out.tally.wrong == 0;
    println!(
        "{}",
        result_line(
            correct,
            out.tally.attempted,
            out.tally.failed(),
            &out.metrics
        )
    );
    Ok(ExitCode::SUCCESS)
}

/// `--workload all`: every workload in its own process, one after another.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for (name, _) in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(smoke_flag(&args.sizes))
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        if !output.status.success() || !last.starts_with("{\"correct\": ") {
            return Err(format!(
                "{name} failed: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        correct &= last.starts_with("{\"correct\": true");
        let field = |key: &str| {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, &metrics::MetricSet::default())
    );
    Ok(ExitCode::SUCCESS)
}

/// Items of a JSON list, one a line, as the checked-in records lay them out.
fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[\n{}\n  ]", items.collect::<Vec<_>>().join(",\n"))
}

/// The benchmark's own record of what `BENCHMARK.json` cannot hold: seed,
/// sizes, rates, cache budget, the workloads left out and why, and which
/// end-to-end metric each layer metric should move (`workloads.json`).
fn describe() -> String {
    let s = &FULL;
    let pool = serve::pool_size(s.serve_cache_budget);
    let sizes = [
        format!(
            "\"generator\": \"xmark_like\", \"scale\": {}, \"config\": \"default (sequential)\", \"loop\": \"closed, 1 caller\"",
            json_number(s.xmark_scale)
        ),
        format!(
            "\"generator\": \"wide_relation\", \"rows\": {}, \"width\": {}, \"domain\": 4, \"derived_fraction\": 0, \"config\": \"parallel, threads 2\", \"loop\": \"closed, 1 caller\"",
            s.wide_rows, s.wide_width
        ),
        format!(
            "\"generators\": [\"warehouse_scaled\", \"xmark_like\", \"dblp_like\", \"protein_like\", \"mondial_like\", \"sigmod_like\", \"wide_relation\", \"parallel_sets\"], \"categories\": {}, \"base_docs_per_category\": {}, \"base_scale\": {}, \"step_scale\": {}, \"live_added_docs\": {}, \"config\": \"default (sequential)\", \"loop\": \"closed, 1 caller\"",
            churn::CATEGORIES, churn::BASE_PER_CATEGORY, s.corpus_base_scale, s.corpus_step_scale, churn::LIVE_ADDED
        ),
        format!(
            "\"generator\": \"warehouse_scaled\", \"pool_docs\": {pool}, \"cache_holds_reports\": {}, \"hit_target\": {}, \"zipf_s\": {:.3}, \"offered_rate_per_s\": {}, \"arrivals\": \"uniform order statistics (Poisson conditioned on the count)\", \"connections\": {}, \"server_workers\": {}, \"result_cache_budget_bytes\": {}, \"loop\": \"open\"",
            serve::cached_reports(s.serve_cache_budget), json_number(serve::HIT_TARGET),
            serve::zipf_s(pool, serve::cached_reports(s.serve_cache_budget)),
            json_number(s.serve_rate), serve::CONNECTIONS, serve::WORKERS, s.serve_cache_budget
        ),
    ];
    let workloads = WORKLOADS.iter().zip(&sizes).map(|((name, why), size)| {
        let gated = match UNGATED.iter().find(|(n, _)| n == name) {
            Some((_, reason)) => {
                format!("\"gated\": false, \"why\": \"{why}\", \"not_gated_because\": \"{reason}\"")
            }
            None => "\"gated\": true".to_string(),
        };
        format!("    {{\"name\": \"{name}\", {gated}, {size}}}")
    });
    let moves = layers::LAYERS
        .iter()
        .map(|l| format!("    \"{}\": \"{}\"", l.name, l.moves));
    format!(
        "{{\n  \"default_seed\": {},\n  \"available_parallelism_when_sized\": 2,\n  \"setup_repetitions\": {{\"cold_processes\": {}, \"corpus_builds\": {}, \"server_binds\": {}}},\n  \"workloads\": {},\n  \"moves\": {{\n{}\n  }}\n}}\n",
        check::DEFAULT_SEED,
        s.setups,
        s.corpus_setups,
        s.serve_setups,
        json_list(workloads),
        moves.collect::<Vec<_>>().join(",\n")
    )
}

/// `BENCHMARK.json` at the repository root, generated from the same tables.
fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .filter(|(name, _)| !UNGATED.iter().any(|(n, _)| n == name))
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"));
    let end_to_end = END_TO_END.iter().map(|(name, unit, better, bound)| {
        format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {}}}",
            json_number(*bound)
        )
    });
    let per_layer = layers::LAYERS.iter().map(|l| {
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            l.name, l.unit, l.better
        )
    });
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--\"],\n  \"paths\": [\"e2ebench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json_list(workloads),
        json_list(end_to_end),
        json_list(per_layer)
    )
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.describe || args.benchmark_json {
            print!(
                "{}",
                if args.describe {
                    describe()
                } else {
                    benchmark_json()
                }
            );
            return Ok(ExitCode::SUCCESS);
        }
        if let Some(name) = &args.child_cold {
            let kind = single_kind(name).ok_or(format!("no cold run for {name:?}"))?;
            single::cold_child(kind, args.seed, &args.sizes)?;
            return Ok(ExitCode::SUCCESS);
        }
        match args.workload.as_str() {
            "" => Err("--workload is required".into()),
            "all" => run_all(&args),
            _ => run_one(&args),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_records_match_the_tables() {
        assert_eq!(include_str!("../workloads.json"), describe());
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
    }

    #[test]
    fn names_units_and_reasons_fit_the_benchmark_format() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, why) in WORKLOADS {
            assert!(
                name_ok(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
        for (name, unit, _, bound) in END_TO_END {
            assert!(name_ok(name) && unit_ok(unit) && *bound <= 0.25, "{name}");
        }
        for l in layers::LAYERS {
            assert!(name_ok(l.name) && unit_ok(l.unit), "{}", l.name);
        }
    }
}
