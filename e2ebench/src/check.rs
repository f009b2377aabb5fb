//! Output checks: every operation's report is compared, by digest of its
//! artifact part, against a reference computed another way; the reference
//! itself is checked FD by FD and key by key against the data, and on the
//! default seed against a digest kept with the benchmark.

use discoverxfd::verify::{verify_fd, verify_key, ClassRef, FdSpec};
use discoverxfd::RunOutcome;
use xfd_relation::Forest;

/// Seed whose reference digests are kept in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

const REFERENCE: &str = include_str!("../reference.txt");

/// The artifact part of a JSON report: everything before `"stats"` (the
/// counters and timings after it legitimately vary between runs).
pub fn artifacts(report_json: &str) -> &str {
    report_json.split("\"stats\"").next().unwrap_or(report_json)
}

/// 64-bit FNV-1a of the artifact part.
pub fn digest(report_json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in artifacts(report_json).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The kept digest for `workload` at `size` (`full` or `smoke`) on `seed`.
pub fn kept_digest(workload: &str, size: &str, seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, sd, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
        (w == workload && s == size && sd.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Every reported FD and key must hold on the encoded data (Definitions 7
/// and 8, checked by the independent `verify` path). Returns one line per
/// problem.
pub fn verify_outcome(forest: &Forest, outcome: &RunOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    for fd in &outcome.fds {
        let spec = FdSpec {
            lhs: fd.lhs.clone(),
            rhs: fd.rhs.clone(),
            class: ClassRef::Path(fd.tuple_class.clone()),
        };
        match verify_fd(forest, &spec, 1) {
            Ok(r) if r.holds => {}
            Ok(_) => problems.push(format!("FD does not hold: {fd}")),
            Err(e) => problems.push(format!("FD cannot be checked: {fd}: {e}")),
        }
    }
    for key in &outcome.keys {
        let class = ClassRef::Path(key.tuple_class.clone());
        match verify_key(forest, &class, &key.lhs, 1) {
            Ok(r) if r.holds => {}
            Ok(_) => problems.push(format!("key does not hold: {key}")),
            Err(e) => problems.push(format!("key cannot be checked: {key}: {e}")),
        }
    }
    problems
}

/// Operations checked against one reference digest.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Operations that errored or timed out (no output to check).
    pub errors: u64,
    /// Operations whose output differed from the reference.
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed() as f64 / self.attempted as f64
    }

    /// Count operations by their output digests against `reference`.
    pub fn of_digests(digests: &[u64], reference: u64) -> Tally {
        Tally {
            attempted: digests.len() as u64,
            errors: 0,
            wrong: digests.iter().filter(|d| **d != reference).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discoverxfd::report::render_json;
    use discoverxfd::{discover, DiscoveryConfig};
    use xfd_datagen::{warehouse_scaled, WarehouseSpec};

    fn warehouse() -> (xfd_xml::DataTree, RunOutcome) {
        let tree = warehouse_scaled(&WarehouseSpec::default());
        let outcome = discover(&tree, &DiscoveryConfig::default());
        (tree, outcome)
    }

    #[test]
    fn a_report_with_one_fd_dropped_counts_as_a_failure() {
        let (_, mut outcome) = warehouse();
        assert!(outcome.report.fds.len() > 1);
        let reference = digest(&render_json(&outcome));
        let good = digest(&render_json(&outcome));
        outcome.report.fds.remove(0);
        let dropped = digest(&render_json(&outcome));
        let tally = Tally::of_digests(&[good, dropped, good], reference);
        assert_eq!((tally.attempted, tally.failed()), (3, 1));
        assert!(tally.ok_frac() < 1.0);
    }

    #[test]
    fn counters_after_stats_do_not_change_the_digest() {
        let (_, outcome) = warehouse();
        let json = render_json(&outcome);
        let other = json.replace("\"total_ms\": ", "\"total_ms\": 1");
        assert_eq!(digest(&json), digest(&other));
    }

    #[test]
    fn verify_accepts_discovered_and_rejects_a_false_key() {
        let (tree, mut outcome) = warehouse();
        let schema = xfd_schema::infer_schema(&tree);
        let forest = xfd_relation::encode(&tree, &schema, &DiscoveryConfig::default().encode);
        assert_eq!(verify_outcome(&forest, &outcome), Vec::<String>::new());
        // A redundancy's LHS is by definition not a key: claiming it as
        // one must be caught.
        let fd = outcome.redundancies[0].fd.clone();
        outcome.report.keys = vec![discoverxfd::XmlKey {
            tuple_class: fd.tuple_class.clone(),
            lhs: fd.lhs.clone(),
            scope: fd.scope,
        }];
        let problems = verify_outcome(&forest, &outcome);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("key does not hold"));
    }

    #[test]
    fn kept_digests_parse() {
        assert!(kept_digest("no-such-workload", "full", DEFAULT_SEED).is_none());
        assert!(kept_digest("xmark-doc", "full", DEFAULT_SEED).is_some());
    }
}
