//! Figures 1 and 6–9 of the paper.

use crate::harness::*;
use hcl_baselines::pll::PllOracle;
use hcl_baselines::{
    BiBfsOracle, FdConfig, FdIndex, FdOracle, IslConfig, IslIndex, IslOracle, PllConfig, PllIndex,
};
use hcl_core::labels::LabelEncoding;
use hcl_core::{HighwayCoverLabelling, HlOracle};
use hcl_graph::generate;
use hcl_workloads::queries::{sample_pairs, DistanceDistribution};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Figure 1: (a) query time vs index size per method, (b) construction time
/// vs network size, (c) the method property matrix.
pub fn run_fig1(part: Option<&str>) {
    match part {
        Some("a") => fig1a(),
        Some("b") => fig1b(),
        Some("c") => fig1c(),
        _ => {
            fig1a();
            println!();
            fig1b();
            println!();
            fig1c();
        }
    }
}

/// Figure 1(a): each method's (index size, avg query time) per dataset.
fn fig1a() {
    println!("== Figure 1(a): query time [ms] vs index size [MB] per method ==\n");
    let queries = env_usize("HCL_FIG1_QUERIES", 5_000);
    let mut rows = Vec::new();
    for prepared in prepare_datasets() {
        let g = &prepared.graph;
        let pairs = sample_pairs(g.num_vertices(), queries, 0xF1A);
        let small = &pairs[..pairs.len().min(200)];

        let landmarks = default_landmarks(g, 20);
        let (labelling, _) = HighwayCoverLabelling::build_parallel(g, &landmarks, 0).unwrap();
        let hl_bytes = labelling.index_bytes();
        let mut hl = HlOracle::new(g, labelling);
        let (hl_qt, _) = time_queries(&mut hl, &pairs);
        push_point(&mut rows, &prepared, "HL", Some(hl_bytes), Some(hl_qt));

        let (fd_index, _) = FdIndex::build(g, FdConfig::default()).unwrap();
        let fd_bytes = fd_index.index_bytes();
        let mut fd = FdOracle::new(g, fd_index);
        let (fd_qt, _) = time_queries(&mut fd, &pairs);
        push_point(&mut rows, &prepared, "FD", Some(fd_bytes), Some(fd_qt));

        if pll_feasible(g) {
            let (idx, _) =
                PllIndex::build(g, PllConfig { num_bp_roots: 16, bp_neighbors: 64 }).unwrap();
            let bytes = idx.index_bytes();
            let mut pll = PllOracle::new(idx);
            let (qt, _) = time_queries(&mut pll, &pairs);
            push_point(&mut rows, &prepared, "PLL", Some(bytes), Some(qt));
        } else {
            push_point(&mut rows, &prepared, "PLL", None, None);
        }

        if isl_feasible(g) {
            let (idx, _) = IslIndex::build(g, IslConfig::default()).unwrap();
            let bytes = idx.index_bytes();
            let mut isl = IslOracle::new(idx);
            let (qt, _) = time_queries(&mut isl, small);
            push_point(&mut rows, &prepared, "IS-L", Some(bytes), Some(qt));
        } else {
            push_point(&mut rows, &prepared, "IS-L", None, None);
        }

        let mut bibfs = BiBfsOracle::new(g);
        let (qt, _) = time_queries(&mut bibfs, small);
        push_point(&mut rows, &prepared, "Bi-BFS", Some(0), Some(qt));
    }
    print_table(&["Dataset", "Method", "Index [MB]", "QT [ms]"], &rows);
}

fn push_point(
    rows: &mut Vec<Vec<String>>,
    prepared: &PreparedDataset,
    method: &str,
    bytes: Option<usize>,
    qt_us: Option<f64>,
) {
    rows.push(vec![
        prepared.spec.name.to_string(),
        method.to_string(),
        bytes
            .map(|b| format!("{:.2}", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "DNF".into()),
        fmt_qt(qt_us),
    ]);
}

/// Figure 1(b): construction time against network size (Barabási–Albert
/// sweep, average degree 16 — doubling edge counts as in the paper's
/// 20M → 8B progression, scaled down).
fn fig1b() {
    println!("== Figure 1(b): construction time [s] vs network size ==\n");
    let max_n = env_usize("HCL_FIG1B_MAX_N", 256_000);
    let mut rows = Vec::new();
    let mut n = 1_000usize;
    while n <= max_n {
        let g = generate::barabasi_albert(n, 8, 0xF1B);
        let landmarks = default_landmarks(&g, 20);
        let (_, hlp) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 0).unwrap();
        let (_, hl) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let (_, fd_ct) = FdIndex::build(&g, FdConfig::default()).unwrap();
        let pll_ct = pll_feasible(&g).then(|| {
            PllIndex::build(&g, PllConfig { num_bp_roots: 16, bp_neighbors: 64 })
                .unwrap()
                .1
                .duration
        });
        let isl_ct = isl_feasible(&g).then(|| IslIndex::build(&g, IslConfig::default()).unwrap().1);
        rows.push(vec![
            n.to_string(),
            g.num_edges().to_string(),
            fmt_ct(Some(hlp.duration)),
            fmt_ct(Some(hl.duration)),
            fmt_ct(Some(fd_ct)),
            fmt_ct(pll_ct),
            fmt_ct(isl_ct),
        ]);
        n *= 4;
    }
    print_table(&["n", "m", "HL-P", "HL", "FD", "PLL", "IS-L"], &rows);
}

/// Figure 1(c): the static property matrix.
fn fig1c() {
    println!("== Figure 1(c): method properties ==\n");
    let rows = vec![
        vec!["HL (ours)", "no", "n/a", "yes", "landmarks"],
        vec!["FD [15]", "no", "no", "no", "neighbours"],
        vec!["IS-L [12]", "yes", "no", "no", "no"],
        vec!["PLL [3]", "yes", "yes", "no", "neighbours"],
        vec!["HDB [16]", "yes", "no", "no", "no"],
        vec!["HHL [2]", "yes", "no", "no", "no"],
    ]
    .into_iter()
    .map(|r| r.into_iter().map(String::from).collect())
    .collect::<Vec<Vec<String>>>();
    print_table(
        &["Method", "Ordering-dependent?", "2HC-minimal?", "HWC-minimal?", "Parallel?"],
        &rows,
    );
}

/// Figure 6: distance distribution of random pairs per dataset. Distances
/// come from the HL oracle (exact; verified against Bi-BFS in the
/// integration tests), so the paper-sized workload stays fast.
pub fn run_fig6() {
    let pairs_n = env_usize("HCL_FIG6_PAIRS", 20_000);
    println!("== Figure 6: distance distribution of {pairs_n} random pairs ==\n");
    let mut rows = Vec::new();
    let mut max_d = 0usize;
    let mut dists = Vec::new();
    for prepared in prepare_datasets() {
        let g = &prepared.graph;
        let landmarks = default_landmarks(g, 20);
        let (labelling, _) = HighwayCoverLabelling::build_parallel(g, &landmarks, 0).unwrap();
        let mut oracle = HlOracle::new(g, labelling);
        let pairs = sample_pairs(g.num_vertices(), pairs_n, 0xF6);
        let mut dist = DistanceDistribution::default();
        for &(s, t) in &pairs {
            dist.record(oracle.query(s, t));
        }
        max_d = max_d.max(dist.max_distance());
        dists.push((prepared.spec.name.to_string(), dist));
    }
    for (name, dist) in &dists {
        let mut row = vec![name.clone(), format!("{:.2}", dist.mean())];
        for d in 1..=max_d.min(14) {
            row.push(format!("{:.3}", dist.fraction(d)));
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["Dataset".into(), "mean".into()];
    for d in 1..=max_d.min(14) {
        header.push(format!("d={d}"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
}

/// Figure 7: HL construction time (a–d) and query time (e–g) for 10–50
/// landmarks on every dataset.
pub fn run_fig7(part: Option<&str>) {
    let ks = [10usize, 20, 30, 40, 50];
    let want_ct = part != Some("qt");
    let want_qt = part != Some("ct");
    let queries = env_usize("HCL_FIG7_QUERIES", 20_000);
    let mut ct_rows = Vec::new();
    let mut qt_rows = Vec::new();
    for prepared in prepare_datasets() {
        let g = &prepared.graph;
        let mut ct_row = vec![prepared.spec.name.to_string()];
        let mut qt_row = vec![prepared.spec.name.to_string()];
        for &k in &ks {
            let landmarks = default_landmarks(g, k);
            let (labelling, stats) = HighwayCoverLabelling::build(g, &landmarks).unwrap();
            ct_row.push(fmt_ct(Some(stats.duration)));
            if want_qt {
                let mut oracle = HlOracle::new(g, labelling);
                let pairs = sample_pairs(g.num_vertices(), queries, 0xF7);
                let (qt, _) = time_queries(&mut oracle, &pairs);
                qt_row.push(fmt_qt(Some(qt)));
            }
        }
        ct_rows.push(ct_row);
        qt_rows.push(qt_row);
    }
    let header = ["Dataset", "k=10", "k=20", "k=30", "k=40", "k=50"];
    if want_ct {
        println!("== Figure 7(a-d): HL construction time [s] under 10-50 landmarks ==\n");
        print_table(&header, &ct_rows);
    }
    if want_qt {
        if want_ct {
            println!();
        }
        println!("== Figure 7(e-g): HL avg query time [ms] under 10-50 landmarks ==\n");
        print_table(&header, &qt_rows);
    }
}

/// Figure 8: HL labelling size under 10–50 landmarks, against FD's at 20.
pub fn run_fig8() {
    println!("== Figure 8: labelling sizes [MB], HL-10..HL-50 vs FD-20 ==\n");
    let ks = [10usize, 20, 30, 40, 50];
    let mut rows = Vec::new();
    for prepared in prepare_datasets() {
        let g = &prepared.graph;
        let mut row = vec![prepared.spec.name.to_string()];
        for &k in &ks {
            let landmarks = default_landmarks(g, k);
            let (labelling, _) = HighwayCoverLabelling::build_parallel(g, &landmarks, 0).unwrap();
            let bytes = labelling.labels().encoded_bytes(LabelEncoding::Wide32)
                + labelling.highway().matrix_bytes();
            row.push(format!("{:.2}", bytes as f64 / (1024.0 * 1024.0)));
        }
        let (fd_index, _) = FdIndex::build(g, FdConfig::default()).unwrap();
        row.push(format!("{:.2}", fd_index.index_bytes() as f64 / (1024.0 * 1024.0)));
        rows.push(row);
    }
    print_table(&["Dataset", "HL-10", "HL-20", "HL-30", "HL-40", "HL-50", "FD-20"], &rows);
}

/// Figure 9: pair coverage ratio (fraction of pairs with a landmark on some
/// shortest path) under 10–50 landmarks, against FD's 20.
pub fn run_fig9() {
    let pairs_n = env_usize("HCL_FIG9_PAIRS", 5_000);
    println!("== Figure 9: pair coverage ratio over {pairs_n} random pairs ==\n");
    let ks = [10usize, 20, 30, 40, 50];
    let mut rows = Vec::new();
    for prepared in prepare_datasets() {
        let g = &prepared.graph;
        let pairs = sample_pairs(g.num_vertices(), pairs_n, 0xF9);

        // Exact distances once, from the largest landmark set (any exact
        // method works; HL-50 is the fastest available here).
        let landmarks50 = default_landmarks(g, 50);
        let (labelling50, _) = HighwayCoverLabelling::build_parallel(g, &landmarks50, 0).unwrap();
        let mut oracle = HlOracle::new(g, labelling50);
        let exact: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| oracle.query(s, t)).collect();

        let mut row = vec![prepared.spec.name.to_string()];
        for &k in &ks {
            let landmarks = default_landmarks(g, k);
            let (labelling, _) = HighwayCoverLabelling::build_parallel(g, &landmarks, 0).unwrap();
            let covered = pairs
                .iter()
                .zip(&exact)
                .filter(|(&(s, t), d)| matches!(d, Some(d) if labelling.upper_bound(s, t) == *d))
                .count();
            row.push(format!("{:.3}", covered as f64 / pairs.len() as f64));
        }

        let (fd_index, _) = FdIndex::build(g, FdConfig::default()).unwrap();
        let covered = pairs
            .iter()
            .zip(&exact)
            .filter(|(&(s, t), d)| matches!(d, Some(d) if fd_index.upper_bound(s, t) == *d))
            .count();
        row.push(format!("{:.3}", covered as f64 / pairs.len() as f64));
        rows.push(row);
    }
    print_table(&["Dataset", "HL-10", "HL-20", "HL-30", "HL-40", "HL-50", "FD-20"], &rows);
}
