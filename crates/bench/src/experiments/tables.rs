//! Tables 1–3 of the paper (§6.1, §6.3).

use crate::harness::*;
use hcl_baselines::pll::PllOracle;
use hcl_baselines::{
    BiBfsOracle, FdConfig, FdIndex, FdOracle, IslConfig, IslIndex, IslOracle, PllConfig, PllIndex,
};
use hcl_core::labels::LabelEncoding;
use hcl_core::{HighwayCoverLabelling, HlOracle};
use hcl_graph::stats::{format_bytes, format_count, GraphStats};
use hcl_graph::DistanceOracle;
use hcl_workloads::queries::sample_pairs;
use std::time::Duration;

/// Table 1: dataset statistics. Paper columns plus the stand-in's actual
/// numbers, so the scaling substitution is visible.
pub fn run_table1() {
    println!("== Table 1: datasets (synthetic stand-ins; paper sizes for reference) ==\n");
    let mut rows = Vec::new();
    for prepared in prepare_datasets() {
        let s = GraphStats::compute(&prepared.graph);
        let d = &prepared.spec;
        rows.push(vec![
            d.name.to_string(),
            d.network_type.as_str().to_string(),
            format_count(d.paper_n as usize),
            format_count(d.paper_m as usize),
            s.n.to_string(),
            s.m.to_string(),
            format!("{:.1}", s.m_over_n),
            format!("{:.3}", s.avg_degree),
            s.max_degree.to_string(),
            format_bytes(s.memory_bytes),
        ]);
    }
    print_table(
        &["Dataset", "Type", "paper n", "paper m", "n", "m", "m/n", "avg.deg", "max.deg", "|G|"],
        &rows,
    );
}

/// Everything Table 2 measures for one dataset.
pub struct Table2Row {
    pub name: String,
    pub ct_hlp: Option<Duration>,
    pub ct_hl: Option<Duration>,
    pub ct_fd: Option<Duration>,
    pub ct_pll: Option<Duration>,
    pub ct_isl: Option<Duration>,
    pub qt_hl: Option<f64>,
    pub qt_fd: Option<f64>,
    pub qt_pll: Option<f64>,
    pub qt_isl: Option<f64>,
    pub qt_bibfs: Option<f64>,
    pub als_hl: Option<f64>,
    pub als_fd: Option<String>,
    pub als_pll: Option<String>,
    pub als_isl: Option<f64>,
    /// Methods that disagreed with HL on the verification sample.
    pub mismatches: Vec<&'static str>,
}

/// Measures one dataset for Table 2 (and reusably for Figure 1(a)).
pub fn measure_table2(prepared: &PreparedDataset, queries: usize) -> Table2Row {
    let g = &prepared.graph;
    let n = g.num_vertices();
    let pairs = sample_pairs(n, queries, 0xE0 + g.num_edges() as u64);
    let bibfs_pairs = &pairs[..pairs.len().min(1_000)];
    let isl_pairs = &pairs[..pairs.len().min(200)];
    let check_pairs = &pairs[..pairs.len().min(200)];

    let landmarks = default_landmarks(g, 20);

    // HL-P and HL build the identical labelling; both times are reported.
    let (_, stats_p) = HighwayCoverLabelling::build_parallel(g, &landmarks, 0).unwrap();
    let (labelling, stats_s) = HighwayCoverLabelling::build(g, &landmarks).unwrap();
    let als_hl = labelling.labels().avg_label_size();
    let mut hl = HlOracle::new(g, labelling);
    let (qt_hl, _) = time_queries(&mut hl, &pairs);
    let reference: Vec<Option<u32>> = check_pairs.iter().map(|&(s, t)| hl.query(s, t)).collect();
    let mut mismatches = Vec::new();

    // FD.
    let (fd_index, ct_fd) = FdIndex::build(g, FdConfig::default()).unwrap();
    let als_fd = format!("{}+64", fd_index.landmarks().len());
    let mut fd = FdOracle::new(g, fd_index);
    let (qt_fd, _) = time_queries(&mut fd, &pairs);
    if check_pairs.iter().zip(&reference).any(|(&(s, t), r)| fd.query(s, t) != *r) {
        mismatches.push("FD");
    }

    // PLL (gated — the paper's DNFs at 1000× scale).
    let (ct_pll, qt_pll, als_pll) = if pll_feasible(g) {
        let bp = std::env::var("HCL_PLL_BP").ok().and_then(|s| s.parse().ok()).unwrap_or(16);
        let (idx, stats) =
            PllIndex::build(g, PllConfig { num_bp_roots: bp, bp_neighbors: 64 }).unwrap();
        let als = format!("{:.0}+{}", idx.avg_label_size(), idx.num_bp_trees());
        let mut pll = PllOracle::new(idx);
        let (qt, _) = time_queries(&mut pll, &pairs);
        if check_pairs.iter().zip(&reference).any(|(&(s, t), r)| pll.distance(s, t) != *r) {
            mismatches.push("PLL");
        }
        (Some(stats.duration), Some(qt), Some(als))
    } else {
        (None, None, None)
    };

    // IS-L (gated).
    let (ct_isl, qt_isl, als_isl) = if isl_feasible(g) {
        let (idx, ct) = IslIndex::build(g, IslConfig::default()).unwrap();
        let als = idx.avg_label_entries();
        let mut isl = IslOracle::new(idx);
        let (qt, _) = time_queries(&mut isl, isl_pairs);
        if check_pairs.iter().zip(&reference).take(50).any(|(&(s, t), r)| isl.query(s, t) != *r) {
            mismatches.push("IS-L");
        }
        (Some(ct), Some(qt), Some(als))
    } else {
        (None, None, None)
    };

    // Bi-BFS (the paper times 1,000 random pairs for it).
    let mut bibfs = BiBfsOracle::new(g);
    let (qt_bibfs, _) = time_queries(&mut bibfs, bibfs_pairs);

    Table2Row {
        name: prepared.spec.name.to_string(),
        ct_hlp: Some(stats_p.duration),
        ct_hl: Some(stats_s.duration),
        ct_fd: Some(ct_fd),
        ct_pll,
        ct_isl,
        qt_hl: Some(qt_hl),
        qt_fd: Some(qt_fd),
        qt_pll,
        qt_isl,
        qt_bibfs: Some(qt_bibfs),
        als_hl: Some(als_hl),
        als_fd: Some(als_fd),
        als_pll,
        als_isl,
        mismatches,
    }
}

/// Table 2: construction time, query time and average label size for every
/// method on every dataset.
pub fn run_table2() {
    let queries = num_queries();
    println!("== Table 2: construction time CT[s], avg query time QT[ms], avg label size ALS ==");
    println!("   ({queries} query pairs; 1,000 for Bi-BFS, 200 for IS-L — as in the paper)\n");
    let mut rows = Vec::new();
    for prepared in prepare_datasets() {
        let r = measure_table2(&prepared, queries);
        if !r.mismatches.is_empty() {
            eprintln!("!! {}: methods disagreeing with HL: {:?}", r.name, r.mismatches);
        }
        rows.push(vec![
            r.name,
            fmt_ct(r.ct_hlp),
            fmt_ct(r.ct_hl),
            fmt_ct(r.ct_fd),
            fmt_ct(r.ct_pll),
            fmt_ct(r.ct_isl),
            fmt_qt(r.qt_hl),
            fmt_qt(r.qt_fd),
            fmt_qt(r.qt_pll),
            fmt_qt(r.qt_isl),
            fmt_qt(r.qt_bibfs),
            fmt_als(r.als_hl),
            r.als_fd.unwrap_or_else(|| "-".into()),
            r.als_pll.unwrap_or_else(|| "-".into()),
            fmt_als(r.als_isl),
        ]);
    }
    print_table(
        &[
            "Dataset",
            "CT HL-P",
            "CT HL",
            "CT FD",
            "CT PLL",
            "CT IS-L",
            "QT HL",
            "QT FD",
            "QT PLL",
            "QT IS-L",
            "QT Bi-BFS",
            "ALS HL",
            "ALS FD",
            "ALS PLL",
            "ALS IS-L",
        ],
        &rows,
    );
}

/// Table 3: labelling sizes — HL(8) (8-bit encoding), HL (32-bit encoding,
/// matching the baselines' representation), FD, PLL and IS-L.
pub fn run_table3() {
    println!("== Table 3: labelling sizes ==\n");
    let mut rows = Vec::new();
    for prepared in prepare_datasets() {
        let g = &prepared.graph;
        let landmarks = default_landmarks(g, 20);
        let (labelling, _) = HighwayCoverLabelling::build_parallel(g, &landmarks, 0).unwrap();
        let hw = labelling.highway().matrix_bytes();
        let hl8 = Some(labelling.labels().encoded_bytes(LabelEncoding::Compact8) + hw);
        let hl32 = Some(labelling.labels().encoded_bytes(LabelEncoding::Wide32) + hw);

        let (fd_index, _) = FdIndex::build(g, FdConfig::default()).unwrap();
        let fd_bytes = Some(fd_index.index_bytes());

        let pll_bytes = if pll_feasible(g) {
            let bp = std::env::var("HCL_PLL_BP").ok().and_then(|s| s.parse().ok()).unwrap_or(16);
            let (idx, _) =
                PllIndex::build(g, PllConfig { num_bp_roots: bp, bp_neighbors: 64 }).unwrap();
            Some(idx.index_bytes())
        } else {
            None
        };
        let isl_bytes = if isl_feasible(g) {
            let (idx, _) = IslIndex::build(g, IslConfig::default()).unwrap();
            Some(idx.index_bytes())
        } else {
            None
        };

        rows.push(vec![
            prepared.spec.name.to_string(),
            fmt_bytes(hl8),
            fmt_bytes(hl32),
            fmt_bytes(fd_bytes),
            fmt_bytes(pll_bytes),
            fmt_bytes(isl_bytes),
            format_bytes(g.memory_bytes()),
        ]);
    }
    print_table(&["Dataset", "HL(8)", "HL", "FD", "PLL", "IS-L", "|G|"], &rows);
    println!("\n(HL(8): 8-bit landmark ids, the index's own layout; HL: the 32-bit");
    println!(" vertex-id encoding the baselines use, for a like-for-like comparison.)");
}
