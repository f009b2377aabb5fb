//! XML data redundancy (Definition 11): a satisfied *interesting* XML FD
//! `(C_p, LHS, RHS)` such that `(C_p, LHS)` is **not** an XML Key. Every
//! LHS group with two or more tuples then stores its RHS value redundantly.
//!
//! Rather than cross-referencing the discovered key list (which is bounded
//! by the same search budget as the FDs), the analyzer recomputes the LHS
//! grouping directly from the relations — exact, and it also yields the
//! redundancy *magnitude* (how many RHS values are stored redundantly).
//! Every grouping goes through one flat kernel, [`lhs_group_ids`].

use xfd_hash::FxHashMap;
use xfd_partition::AttrSet;
use xfd_relation::{ColumnKind, Forest, RelId};

use crate::fd::Xfd;
use crate::interesting::{fd_is_interesting, inter_fd_to_xfd, intra_fd_to_xfd};
use crate::xfd::ForestDiscovery;

/// One redundancy finding.
#[derive(Debug, Clone)]
pub struct Redundancy {
    /// The satisfied interesting FD whose LHS fails to be a key.
    pub fd: Xfd,
    /// Number of LHS groups with ≥ 2 tuples.
    pub groups: usize,
    /// Σ (|group| − 1): how many tuples store an RHS value that is already
    /// determined by another tuple.
    pub redundant_values: usize,
    /// Up to three example RHS values that are stored redundantly
    /// (rendered; set-valued cells show their cardinality).
    pub examples: Vec<String>,
}

/// `(gid, sizes)`: `gid[t]` is the LHS group of origin tuple `t` and
/// `sizes[g]` the number of tuples in group `g`. Ids are dense and assigned
/// in first-occurrence order, so group `g` is the `g`-th group met when the
/// tuples are scanned in order.
pub type GroupIds = (Vec<u32>, Vec<u32>);

/// Map each tuple of `origin` to its ancestor tuple in `target`; `None` when
/// `target` is neither `origin` nor one of its ancestors, or a parent link
/// dangles.
fn ancestor_map(forest: &Forest, origin: RelId, target: RelId) -> Option<Vec<u32>> {
    let n = forest.relations.get(origin.index())?.n_tuples();
    let mut map: Vec<u32> = (0..n as u32).collect();
    let mut cur = origin;
    // A relation tree is at most `relations.len()` deep.
    for _ in 0..forest.relations.len() {
        if cur == target {
            return Some(map);
        }
        let rel = forest.relations.get(cur.index())?;
        for m in &mut map {
            *m = *rel.parent_of.get(*m as usize)?;
        }
        cur = rel.parent?;
    }
    None
}

/// The grouping kernel's reusable state: ancestor maps per
/// `(origin, level)` and the refinement table.
struct Grouper<'f> {
    forest: &'f Forest,
    ancestors: FxHashMap<(RelId, RelId), Option<Vec<u32>>>,
    table: FxHashMap<(u64, u64), u32>,
}

impl<'f> Grouper<'f> {
    fn new(forest: &'f Forest) -> Self {
        Grouper {
            forest,
            ancestors: FxHashMap::default(),
            table: FxHashMap::default(),
        }
    }

    /// Refine one dense group id per tuple, an LHS attribute at a time:
    /// each step maps `(previous id, cell)` to the next id.
    fn group_ids(&mut self, origin: RelId, levels: &[(RelId, AttrSet)]) -> GroupIds {
        let forest = self.forest;
        let n = forest
            .relations
            .get(origin.index())
            .map_or(0, |r| r.n_tuples());
        let mut gid = vec![0u32; n];
        let mut groups = usize::from(n > 0);
        for &(lrel, attrs) in levels {
            let amap = self
                .ancestors
                .entry((origin, lrel))
                .or_insert_with(|| ancestor_map(forest, origin, lrel));
            let Some(amap) = amap.as_deref() else {
                // An unjoinable level: no two tuples are known to agree.
                gid = (0..n as u32).collect();
                groups = n;
                break;
            };
            let rel = forest.relations.get(lrel.index());
            for a in attrs.iter() {
                let cells = rel
                    .and_then(|r| r.columns.get(a))
                    .map_or(&[][..], |c| &c.cells);
                self.table.clear();
                for (g, &anc) in gid.iter_mut().zip(amap) {
                    // ⊥ agrees only with the same node: key it by the
                    // ancestor tuple that carries it.
                    let (tag, v) = match cells.get(anc as usize).copied().flatten() {
                        Some(v) => (0, v),
                        None => (1, u64::from(anc)),
                    };
                    let next = self.table.len() as u32;
                    *g = *self
                        .table
                        .entry((u64::from(*g) << 1 | tag, v))
                        .or_insert(next);
                }
                groups = self.table.len();
            }
        }
        let mut sizes = vec![0u32; groups];
        for &g in &gid {
            if let Some(s) = sizes.get_mut(g as usize) {
                *s += 1;
            }
        }
        (gid, sizes)
    }
}

/// Group the origin relation's tuples by their joined LHS values.
///
/// Agreement follows the semantics the discovery algorithm implements
/// (see DESIGN.md, "node-identity semantics for ancestor attributes"):
/// a ⊥ cell agrees with nothing *except* the same underlying node — two
/// tuples sharing the ancestor tuple that carries the ⊥ agree on it
/// (that is exactly what `updatePT`'s pair-collapse rule assumes). In
/// encoding terms a ⊥ cell contributes `(⊥, ancestor-tuple-id)` to the
/// grouping key; for origin-level attributes the ancestor is the tuple
/// itself, which reproduces plain strong satisfaction. A level that is not
/// an ancestor of `origin` joins no tuple, so it splits every group.
pub fn lhs_group_ids(forest: &Forest, origin: RelId, levels: &[(RelId, AttrSet)]) -> GroupIds {
    Grouper::new(forest).group_ids(origin, levels)
}

/// `(groups_with_2_plus, redundant_values)` of a grouping's sizes.
fn counts(sizes: &[u32]) -> (usize, usize) {
    let big = sizes.iter().filter(|&&s| s >= 2);
    (big.clone().count(), big.map(|&s| s as usize - 1).sum())
}

/// The actual LHS groups (tuple indices of the origin relation, ascending),
/// ordered by first member, under the agreement semantics of
/// [`lhs_group_ids`]. Singleton groups included.
pub fn lhs_group_members(
    forest: &Forest,
    origin: RelId,
    levels: &[(RelId, AttrSet)],
) -> Vec<Vec<u32>> {
    let (gid, sizes) = lhs_group_ids(forest, origin, levels);
    let mut out: Vec<Vec<u32>> = sizes
        .iter()
        .map(|&s| Vec::with_capacity(s as usize))
        .collect();
    for (t, &g) in gid.iter().enumerate() {
        if let Some(members) = out.get_mut(g as usize) {
            members.push(t as u32);
        }
    }
    out
}

/// Up to three rendered RHS example values from the ≥2-sized LHS groups,
/// each taken from the group's first tuple.
fn rhs_examples(
    forest: &Forest,
    origin: RelId,
    (gid, sizes): &GroupIds,
    rhs: usize,
) -> Vec<String> {
    let Some(col) = forest
        .relations
        .get(origin.index())
        .and_then(|r| r.columns.get(rhs))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut next = 0; // ids follow first occurrence: `g == next` opens group g
    for (&g, &cell) in gid.iter().zip(&col.cells) {
        if g != next {
            continue;
        }
        next += 1;
        let size = sizes.get(g as usize).copied().unwrap_or(0);
        let Some(v) = cell.filter(|_| size >= 2) else {
            continue;
        };
        let rendered = match col.kind {
            ColumnKind::Simple => format!("{:?}", forest.dictionary.resolve_str(v)),
            ColumnKind::Complex => format!("#{v}"),
            ColumnKind::SetValue => {
                format!(
                    "a set of {} values",
                    forest.dictionary.resolve_multiset(v).len()
                )
            }
        };
        let entry = format!("{rendered} ×{size}");
        if !out.contains(&entry) {
            out.push(entry);
        }
        if out.len() == 3 {
            break;
        }
    }
    out
}

/// Find every redundancy indicated by the discovered interesting FDs (the
/// root tuple class has none). Each distinct `(origin, LHS)` is grouped
/// once, however many FDs share it.
pub fn analyze(forest: &Forest, disc: &ForestDiscovery) -> Vec<Redundancy> {
    let mut grouper = Grouper::new(forest);
    let mut by_lhs: FxHashMap<(RelId, Vec<(RelId, AttrSet)>), GroupIds> = FxHashMap::default();
    let mut find = |origin: RelId, levels: &[(RelId, AttrSet)], rhs: usize| {
        if !fd_is_interesting(forest, origin, rhs) {
            return None;
        }
        let ids = by_lhs
            .entry((origin, levels.to_vec()))
            .or_insert_with(|| grouper.group_ids(origin, levels));
        let (groups, redundant_values) = counts(&ids.1);
        (groups > 0).then(|| {
            (
                groups,
                redundant_values,
                rhs_examples(forest, origin, ids, rhs),
            )
        })
    };
    let mut out = Vec::new();
    for rd in &disc.relations {
        for fd in &rd.fds {
            if let Some((groups, redundant_values, examples)) =
                find(rd.rel, &[(rd.rel, fd.lhs)], fd.rhs)
            {
                out.push(Redundancy {
                    fd: intra_fd_to_xfd(forest, rd.rel, fd),
                    groups,
                    redundant_values,
                    examples,
                });
            }
        }
    }
    for fd in &disc.inter_fds {
        if let Some((groups, redundant_values, examples)) = find(fd.origin, &fd.lhs_levels, fd.rhs)
        {
            out.push(Redundancy {
                fd: inter_fd_to_xfd(forest, fd),
                groups,
                redundant_values,
                examples,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryConfig;
    use crate::xfd::discover_forest;
    use xfd_relation::{encode, EncodeConfig};
    use xfd_schema::infer_schema;
    use xfd_xml::parse;

    fn redundancies(xml: &str) -> Vec<Redundancy> {
        let t = parse(xml).unwrap();
        let schema = infer_schema(&t);
        let forest = encode(&t, &schema, &EncodeConfig::default());
        let disc = discover_forest(&forest, &DiscoveryConfig::default());
        analyze(&forest, &disc)
    }

    #[test]
    fn examples_show_the_duplicated_values() {
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>2</isbn><title>TCP</title></book>\
             </w>",
        );
        let r = reds
            .iter()
            .find(|r| r.fd.to_string() == "{./isbn} -> ./title w.r.t. C_book")
            .unwrap();
        assert_eq!(r.examples, vec!["\"DBMS\" ×2".to_string()]);
    }

    #[test]
    fn duplicate_titles_for_one_isbn_are_redundant() {
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>1</isbn><title>DBMS</title></book>\
             <book><isbn>2</isbn><title>TCP</title></book>\
             </w>",
        );
        let r = reds
            .iter()
            .find(|r| r.fd.to_string() == "{./isbn} -> ./title w.r.t. C_book")
            .expect("isbn→title redundancy");
        assert_eq!(r.groups, 1);
        assert_eq!(r.redundant_values, 2, "two extra copies of the title");
    }

    #[test]
    fn key_lhs_produces_no_redundancy() {
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><title>A</title></book>\
             <book><isbn>2</isbn><title>A</title></book>\
             </w>",
        );
        assert!(
            reds.iter()
                .all(|r| !r.fd.to_string().starts_with("{./isbn}")),
            "isbn is a key here, no redundancy: {:?}",
            reds.iter().map(|r| r.fd.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn inter_relation_redundancy_counts_cross_store_duplicates() {
        // Same chain (name), same isbn, same price at two stores: the price
        // is stored redundantly (the paper's Borders example).
        let reds = redundancies(
            "<w>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book>\
               <book><isbn>2</isbn><price>20</price></book></store>\
             <store><name>Borders</name><book><isbn>1</isbn><price>10</price></book></store>\
             <store><name>WHSmith</name><book><isbn>1</isbn><price>12</price></book></store>\
             </w>",
        );
        let r = reds
            .iter()
            .find(|r| r.fd.to_string() == "{./isbn, ../name} -> ./price w.r.t. C_book")
            .expect("FD2-style redundancy");
        assert_eq!(r.groups, 1);
        assert_eq!(r.redundant_values, 1);
    }

    #[test]
    fn set_element_redundancy_for_fd3() {
        // The author *set* is stored redundantly for a repeated ISBN.
        let reds = redundancies(
            "<w>\
             <book><isbn>1</isbn><a>R</a><a>G</a><title>T</title></book>\
             <book><isbn>1</isbn><a>G</a><a>R</a><title>T</title></book>\
             <book><isbn>2</isbn><a>R</a><title>U</title></book>\
             </w>",
        );
        assert!(
            reds.iter()
                .any(|r| r.fd.to_string() == "{./isbn} -> ./a w.r.t. C_book"),
            "{:?}",
            reds.iter().map(|r| r.fd.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn group_ids_follow_first_occurrence_across_levels() {
        let t = parse(
            "<w><store><n>X</n><book><i>1</i></book><book><i>2</i></book></store>\
             <store><n>Y</n><book><i>1</i></book></store>\
             <store><n>X</n><book><i>2</i></book></store></w>",
        )
        .unwrap();
        let forest = encode(&t, &infer_schema(&t), &EncodeConfig::default());
        let rel = |name: &str| forest.relations.iter().find(|r| r.name == name).unwrap();
        let col = |name: &str, c: &str| {
            AttrSet::single(
                rel(name)
                    .columns
                    .iter()
                    .position(|col| col.name == c)
                    .unwrap(),
            )
        };
        let (book, store) = (rel("book").id, rel("store").id);
        let by = |levels: &[(RelId, AttrSet)]| lhs_group_ids(&forest, book, levels);
        assert_eq!(
            by(&[(store, col("store", "n"))]),
            (vec![0, 0, 1, 0], vec![3, 1])
        );
        assert_eq!(
            by(&[(book, col("book", "i"))]),
            (vec![0, 1, 0, 1], vec![2, 2])
        );
        let both = [(book, col("book", "i")), (store, col("store", "n"))];
        assert_eq!(by(&both), (vec![0, 1, 2, 1], vec![1, 2, 1]));
        // `book` is no ancestor of `store`: that level joins no tuple.
        let unjoinable = [(book, col("book", "i"))];
        assert_eq!(
            lhs_group_ids(&forest, store, &unjoinable),
            (vec![0, 1, 2], vec![1, 1, 1])
        );
    }

    #[test]
    fn null_lhs_tuples_do_not_group() {
        let reds = redundancies(
            "<w>\
             <book><title>A</title></book>\
             <book><title>A</title></book>\
             <book><isbn>2</isbn><title>B</title></book>\
             </w>",
        );
        // {./isbn} → ./title: books without isbn have ⊥ LHS — they never
        // agree, so no redundancy via isbn.
        assert!(reds
            .iter()
            .all(|r| !r.fd.to_string().starts_with("{./isbn}")));
    }
}
